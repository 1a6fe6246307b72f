import random
from fractions import Fraction

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import lieposet
from lieposet import _elim_py, exactla
from lieposet.exactla import SparseMat
from oracles import (
    char_poly, factor_binary, from_rows, identity, invert, is_skew_symmetric, solve,
)


def dense_rref(rows):
    """Naive dense Gauss-Jordan elimination, written independently of the
    sparse kernel: the reduced row echelon form as {pivot col: {col: value}}
    with zero entries dropped, the kernel's output format."""
    m = [[Fraction(v) for v in r] for r in rows]
    n_cols = len(m[0]) if m else 0
    pivots = []
    for col in range(n_cols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    return {p: {c: v for c, v in enumerate(m[r]) if v} for r, p in enumerate(pivots)}


def dense_rank_oracle(rows):
    return len(dense_rref(rows))


def random_dense(rng, n_rows, n_cols, bound=5):
    return [
        [Fraction(rng.randint(-bound, bound)) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]


class TestRank:
    def test_identity(self):
        assert exactla.rank(identity(3)) == 3

    def test_skew_block(self):
        M = from_rows(
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
        )
        assert exactla.rank(M) == 4

    def test_zero(self):
        assert exactla.rank(SparseMat(2, 3)) == 0

    def test_against_dense_oracle(self):
        # The same rank on the rows as Fractions, as ints, on a mix of the
        # two, and on non-integral Fractions, which the kernel scales to
        # ints as they enter.
        rng, mix = random.Random(20240811), random.Random(38)
        for _ in range(40):
            rows = random_dense(rng, rng.randint(1, 7), rng.randint(1, 7))
            want = dense_rank_oracle(rows)
            ints = [[int(v) for v in r] for r in rows]
            mixed = [[v if mix.random() < 0.5 else int(v) for v in r] for r in rows]
            divided = [[v / mix.randint(1, 6) for v in r] for r in rows]
            for variant in (rows, ints, mixed, divided):
                assert exactla.rank(from_rows(variant)) == want

    def test_skew_rank_is_even(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(1, 7)
            ents = {}
            for i in range(n):
                for j in range(i + 1, n):
                    v = Fraction(rng.randint(-3, 3))
                    if v:
                        ents[(i, j)] = v
                        ents[(j, i)] = -v
            M = SparseMat(n, n, ents)
            assert is_skew_symmetric(M)
            assert exactla.rank(M) % 2 == 0


class TestKernel:
    def test_zero_matrix(self):
        assert len(exactla.kernel_basis(SparseMat(2, 3).row_dicts(), 3)) == 3

    def test_identity(self):
        assert exactla.kernel_basis(identity(3).row_dicts(), 3) == []

    def test_hand_example(self):
        M = from_rows([[1, 1, 0], [0, 0, 0], [0, 0, 0]])
        basis = exactla.kernel_basis(M.row_dicts(), M.n_cols)
        assert len(basis) == 2
        for v in basis:
            assert all(x == 0 for x in M.mat_vec(list(v)))

    def test_column_outside_width_rejected(self):
        for rows in ([{0: 1, 3: 1}], [{}, {-1: 2}]):
            with pytest.raises(exactla.DimensionError):
                exactla.kernel_basis(rows, 3)
        assert exactla.kernel_basis([{2: 1}], 3) == [(1, 0, 0), (0, 1, 0)]

    def test_rank_nullity(self):
        rng = random.Random(7)
        for _ in range(30):
            rows = random_dense(rng, rng.randint(1, 6), rng.randint(1, 6))
            M = from_rows(rows)
            basis = exactla.kernel_basis(M.row_dicts(), M.n_cols)
            assert exactla.rank(M) + len(basis) == M.n_cols
            for v in basis:
                assert all(x == 0 for x in M.mat_vec(list(v)))


class TestSparseMat:
    def test_immutable(self):
        M = SparseMat(2, 2, {(0, 1): 1})
        for name in ("n_rows", "n_cols", "entries", "other"):
            with pytest.raises(AttributeError):
                setattr(M, name, 3)
        assert M == SparseMat(2, 2, {(0, 1): 1})

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(SparseMat(1, 1))

    def test_equality(self):
        a = SparseMat(2, 3, {(0, 0): 1, (1, 2): Fraction(1, 2)})
        assert a == SparseMat(2, 3, {(1, 2): Fraction(1, 2), (0, 0): 1})
        assert a != SparseMat(3, 2, {(0, 0): 1, (1, 1): Fraction(1, 2)})
        assert SparseMat(2, 3) != SparseMat(3, 2)
        assert a != a.entries and a != (2, 3, a.entries) and a is not None

    def test_zeros_dropped(self):
        M = SparseMat(2, 2, {(0, 0): 0, (0, 1): Fraction(0), (1, 0): 0.0, (1, 1): 2})
        assert M.entries == {(1, 1): 2}
        A = SparseMat(2, 2, {(0, 0): 1, (0, 1): 1})
        B = SparseMat(2, 2, {(0, 0): 1, (1, 0): -1})
        # (A B)[0, 0] = 1 - 1 cancels in the sum.
        assert A.matmul(B).entries == {}
        assert A.add(A, scale=-1).entries == {}
        assert A.add(B).entries == {(0, 0): 2, (0, 1): 1, (1, 0): -1}
        assert A.add(B, scale=-1).entries == {(0, 1): 1, (1, 0): 1}

    @pytest.mark.parametrize("shape, entries", [
        ((-1, 2), None), ((2, -1), None),
        ((2, 2), {(2, 0): 1}), ((2, 2), {(0, 2): 1}), ((2, 2), {(-1, 0): 1}),
        ((2, 2), {(0, -1): 0}),
    ])
    def test_dimension_errors(self, shape, entries):
        with pytest.raises(exactla.DimensionError):
            SparseMat(*shape, entries)

    def test_repr(self):
        assert repr(SparseMat(2, 3, {(0, 0): 1, (1, 1): 0})) == "SparseMat(2x3, 1 entries)"


def test_sparsemat_keeps_ints_and_stores_no_float():
    M = SparseMat(1, 4, {(0, 0): 0.5, (0, 1): 3, (0, 2): Fraction(2, 3), (0, 3): 0})
    assert M.entries == {(0, 0): Fraction(1, 2), (0, 1): 3, (0, 2): Fraction(2, 3)}
    assert [type(v) for v in M.entries.values()] == [Fraction, int, Fraction]


class TestSolve:
    def test_identity(self):
        b = [Fraction(3), Fraction(-2)]
        assert solve(identity(2), b) == b

    def test_inconsistent(self):
        A = from_rows([[0, 1], [0, 0]])
        assert solve(A, [0, 1]) is None

    def test_diagonal(self):
        A = from_rows([[2, 0], [0, 3]])
        assert solve(A, [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]

    def test_dimension_mismatch(self):
        with pytest.raises(exactla.DimensionError):
            solve(identity(2), [1, 2, 3])

    def test_random_consistent_systems(self):
        rng = random.Random(13)
        for _ in range(25):
            rows = random_dense(rng, rng.randint(1, 6), rng.randint(1, 6))
            A = from_rows(rows)
            x_true = [Fraction(rng.randint(-4, 4)) for _ in range(A.n_cols)]
            b = A.mat_vec(x_true)
            x = solve(A, b)
            assert x is not None
            assert A.mat_vec(x) == b


class TestInvert:
    def test_round_trip(self):
        rng = random.Random(5)
        found = 0
        while found < 10:
            rows = random_dense(rng, 4, 4)
            M = from_rows(rows)
            if exactla.rank(M) < 4:
                continue
            found += 1
            assert M.matmul(invert(M)) == identity(4)

    def test_singular(self):
        with pytest.raises(ValueError, match="singular"):
            invert(SparseMat(2, 2))


class TestCharPoly:
    """Hand-computed checks of the Faddeev-LeVerrier oracle in oracles.py."""

    def test_zero_matrix(self):
        # x^3
        assert char_poly(SparseMat(3, 3)) == [0, 0, 0, 1]

    def test_nilpotent(self):
        M = from_rows([[0, 1], [0, 0]])
        assert char_poly(M) == [0, 0, 1]

    def test_diagonal(self):
        M = from_rows([[2, 0], [0, 3]])
        # (x-2)(x-3) = 6 - 5x + x^2
        assert char_poly(M) == [6, -5, 1]

    def test_non_square(self):
        with pytest.raises(exactla.DimensionError):
            char_poly(SparseMat(2, 3))

    def test_factor_binary(self):
        # x^2 (x-1)^2 = x^4 - 2x^3 + x^2
        a, b, res = factor_binary([0, 0, 1, -2, 1])
        assert (a, b) == (2, 2)
        assert res == [1]

    def test_factor_binary_residual(self):
        # x (x-2)
        a, b, res = factor_binary([0, -2, 1])
        assert (a, b) == (1, 0)
        assert res == [-2, 1]


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * (1 / a) == 1


@st.composite
def fraction_matrices(draw):
    """Dense rows of Fractions, about a third of the entries zero."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-10, max_value=10, max_denominator=7),
    )
    return [
        draw(st.lists(entry, min_size=n_cols, max_size=n_cols))
        for _ in range(n_rows)
    ]


def _sparse(rows):
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def _check_kernel_against_rref(rows, want, modulus=None):
    # Both modes pick the same pivots, the reduced mode's rows are the
    # unique RREF dict for dict, and neither mode touches its input.
    snapshot = [dict(r) for r in rows]
    pivots, red = _elim_py.eliminate(rows, reduce_full=True, modulus=modulus)
    assert red == want
    assert pivots == sorted(want)
    rank_pivots, echelon = _elim_py.eliminate(rows, modulus=modulus)
    assert rank_pivots == pivots
    assert rows == snapshot
    return pivots, red, echelon


@settings(max_examples=100, deadline=None)
@given(fraction_matrices())
def test_eliminate_against_dense_oracle(rows):
    n_cols = len(rows[0])
    pivots, red, _ = _check_kernel_against_rref(_sparse(rows), dense_rref(rows))
    assert len(pivots) == dense_rank_oracle(rows)
    assert pivots == sorted(red)
    # Reduced echelon form: pivot entry 1, no other pivot column in its row.
    for p in pivots:
        assert red[p][p] == 1
        assert set(red[p]) & set(pivots) == {p}
    # The pivot rows span every input row.
    for r in rows:
        combo = [Fraction(0)] * n_cols
        for p in pivots:
            for c, v in red[p].items():
                combo[c] += r[p] * v
        assert combo == r
    M = from_rows(rows)
    basis = exactla.kernel_basis(M.row_dicts(), M.n_cols)
    assert len(basis) == n_cols - len(pivots)
    for v in basis:
        assert all(x == 0 for x in M.mat_vec(list(v)))


@st.composite
def consistent_systems(draw):
    """An augmented matrix [A | A X]: its right-hand columns lie in the
    column span of A, so the RREF has no pivot past A's width."""
    A = draw(fraction_matrices())
    width = len(A[0])
    k = draw(st.integers(1, 3))
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    X = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(width)]
    aug = [r + [sum(r[i] * X[i][j] for i in range(width)) for j in range(k)] for r in A]
    return aug, width


@settings(max_examples=60, deadline=None)
@given(consistent_systems())
def test_augmented_reduced_mode_equals_dense_rref(system):
    aug, width = system
    pivots, _, _ = _check_kernel_against_rref(_sparse(aug), dense_rref(aug))
    # The solve oracle relies on this: a consistent system never pivots on
    # its right-hand side.
    assert all(p < width for p in pivots)


def test_inconsistent_system_pivots_on_the_augmented_column():
    # [A | b] with A = [[0, 0], [0, 2]], b = (1, 4): the first row says 0 = 1.
    rows = [{2: Fraction(1)}, {1: Fraction(2), 2: Fraction(4)}]
    pivots, red = _elim_py.eliminate(rows, reduce_full=True)
    assert pivots == [1, 2]
    assert red == {1: {1: Fraction(1)}, 2: {2: Fraction(1)}}
    A = from_rows([[0, 0], [0, 2]])
    assert solve(A, [1, 4]) is None
    assert solve(A, [0, 4]) == [0, 2]


@st.composite
def square_matrices(draw):
    """n x n Fraction matrices, n in 1..5, about a third of the entries
    zero.  In about half of them some rows are replaced, one after the
    other, by integer combinations of the rest; the last one replaced stays
    in the span of the others, so the matrix is singular without being 0."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-10, max_value=10, max_denominator=7),
    )
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True)):
            c = [0 if j == i else draw(st.integers(-2, 2)) for j in range(n)]
            rows[i] = [sum(c[j] * rows[j][k] for j in range(n)) for k in range(n)]
    return rows


def test_square_matrices_include_nonzero_singular_ones():
    find(square_matrices(), lambda rows: any(map(any, rows)) and dense_rank_oracle(rows) < len(rows),
         settings=settings(database=None, max_examples=500, phases=(Phase.generate,)))


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_invert_raises_exactly_when_rank_is_short(rows):
    # The dense inverse oracle that the normal-form and composition tests
    # lean on refuses exactly the matrices of short rank.
    M = from_rows(rows)
    n = len(rows)
    if dense_rank_oracle(rows) < n:
        with pytest.raises(ValueError, match="singular"):
            invert(M)
    else:
        assert M.matmul(invert(M)) == identity(n)


@st.composite
def linear_systems(draw):
    """(A, b) with b = A x for a drawn x, or b drawn outright, which is
    inconsistent whenever it leaves the column span of A."""
    A = draw(fraction_matrices())
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    if draw(st.booleans()):
        x = draw(st.lists(entry, min_size=len(A[0]), max_size=len(A[0])))
        b = [sum(a * v for a, v in zip(r, x)) for r in A]
    else:
        b = draw(st.lists(st.one_of(st.just(Fraction(0)), entry), min_size=len(A), max_size=len(A)))
    return A, b


@settings(max_examples=150, deadline=None)
@given(linear_systems())
def test_solve_is_none_exactly_when_b_raises_the_rank(system):
    A, b = system
    M = from_rows(A)
    x = solve(M, b)
    aug = [r + [v] for r, v in zip(A, b)]
    assert (x is None) == (dense_rank_oracle(aug) > dense_rank_oracle(A))
    if x is not None:
        assert M.mat_vec(x) == b


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), min_size=1, max_size=5))
def test_int_rows_give_the_fraction_rows_results(rows):
    # Integer input must stay exact: every pivot row holds ints or
    # Fractions, equal to those of the same rows given as Fractions, in
    # both modes.  Rows with a +-1 lead on the diagonal and ints right of
    # it pivot on units only, and those come back all-int.
    unit = [
        {i: 1 if r[0] % 2 else -1, **{i + 1 + c: v for c, v in enumerate(r) if v}}
        for i, r in enumerate(rows)
    ]
    for ints, want in ((_sparse(rows), (int, Fraction)), (unit, (int,))):
        fracs = [{c: Fraction(v) for c, v in r.items()} for r in ints]
        for reduce_full in (False, True):
            got = _elim_py.eliminate(ints, reduce_full=reduce_full)
            assert got == _elim_py.eliminate(fracs, reduce_full=reduce_full)
            assert all(type(v) in want for r in got[1].values() for v in r.values())


def test_int_pivot_is_inverted_exactly():
    # 1 / 2 would be the float 0.5, and 1 / 3 an inexact one; an integral
    # entry, the pivot's 1 included, comes back as an int.
    _, red = _elim_py.eliminate([{0: 2, 1: 1}, {0: 3, 1: 1}])
    assert red[0] == {0: 1, 1: Fraction(1, 2)} and type(red[0][1]) is Fraction
    assert red[1] == {1: 1} and type(red[1][1]) is int


def _int_exactly_when_integral(red):
    return all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
               for row in red.values() for v in row.values())


@settings(max_examples=150, deadline=None)
@given(st.one_of(fraction_matrices(),
                 st.lists(st.lists(st.integers(-10, 10), min_size=4, max_size=4),
                          min_size=1, max_size=6)))
def test_entries_are_ints_exactly_when_integral(rows):
    # Int or Fraction input, rank or reduced mode: every returned entry is
    # an int when integral and a Fraction of denominator > 1 otherwise, and
    # the pivot rows are those of the same rows given as Fractions.
    fracs = [{c: Fraction(v) for c, v in r.items()} for r in _sparse(rows)]
    for reduce_full in (False, True):
        got = _elim_py.eliminate(_sparse(rows), reduce_full=reduce_full)
        assert _int_exactly_when_integral(got[1])
        assert got == _elim_py.eliminate(fracs, reduce_full=reduce_full)


@st.composite
def mixed_matrices(draw):
    """Dense rows of ints and non-integral Fractions, some entries zero."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    entry = st.one_of(
        st.just(0),
        st.integers(-10, 10),
        st.fractions(min_value=-10, max_value=10, max_denominator=7).filter(
            lambda q: q.denominator > 1),
    )
    return [draw(st.lists(entry, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]


def _layout(result):
    """The pivots, then each pivot row's (column, value, type) in order."""
    pivots, rows = result
    return pivots, [(p, [(c, v, type(v)) for c, v in row.items()]) for p, row in rows.items()]


@settings(max_examples=100, deadline=None)
@given(mixed_matrices(),
       st.lists(st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
                min_size=6, max_size=6))
def test_rows_scaled_by_positive_rationals_give_the_same_results(rows, scales):
    # Over Q a row enters as a positive int multiple of itself, so a row
    # times any positive rational gives the same pivots, the same pivot
    # rows in the same order, and the same entries of the same types.
    rows = _sparse(rows)
    scaled = [{c: s * v for c, v in r.items()} for r, s in zip(rows, scales)]
    for kernel in (_elim_py.eliminate, _elim_py._echelon):
        for reduce_full in (False, True):
            assert _layout(kernel(scaled, reduce_full)) == _layout(kernel(rows, reduce_full))


def test_non_unit_leads_match_the_dense_oracle():
    # Rows 0..8 put leads 2, 3, 5 on the columns 0..8 and their other
    # entries, a 1 among them, in the free columns 9..11, so none clears
    # another; rows 9..11 are integer combinations of all of them, so the
    # 12 x 12 matrix has rank 9, the combinations are cleared by the
    # fraction-free operation against those leads, and the RREF holds
    # Fractions in the free columns.
    rng = random.Random(2)
    rows = []
    for i in range(9):
        row = [0] * 12
        row[i] = (2, 3, 5)[i % 3]
        row[9], row[10], row[11] = rng.choice((0, -1, 2, 7)), rng.choice((0, 4, -3)), 1
        rows.append(row)
    for _ in range(3):
        c = [rng.choice((-2, -1, 1, 2)) for _ in range(9)]
        rows.append([sum(c[i] * rows[i][j] for i in range(9)) for j in range(12)])
    rng.shuffle(rows)
    want = dense_rref(rows)
    assert len(want) == 9
    pivots, red, _ = _check_kernel_against_rref(_sparse(rows), want)
    assert _int_exactly_when_integral(red)
    _, echelon = _elim_py._echelon(_sparse(rows))
    assert sorted(row[p] for p, row in echelon.items()) == [2, 2, 2, 3, 3, 3, 5, 5, 5]
    assert all(type(v) is int for row in echelon.values() for v in row.values())


PRIMES = (3, 5, 7, 2**61 - 1)


def dense_rref_mod(rows, p):
    """Naive dense Gauss-Jordan elimination over F_p, written independently
    of the sparse kernel: {pivot col: {col: residue in 1..p-1}}."""
    m = [[v % p for v in r] for r in rows]
    n_cols = len(m[0]) if m else 0
    pivots = []
    for col in range(n_cols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    return {p_: {c: v for c, v in enumerate(m[r]) if v} for r, p_ in enumerate(pivots)}


@st.composite
def int_matrices(draw, entry=st.integers(-10, 10)):
    """Dense rows of ints, about a third of the entries zero."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), entry)
    return [draw(st.lists(entry, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]


def _rank_mod(rows, p):
    return len(_elim_py.eliminate(_sparse(rows), modulus=p)[0])


@settings(max_examples=150, deadline=None)
@given(int_matrices(st.one_of(st.integers(-10, 10), st.integers(-2**70, 2**70))),
       st.sampled_from(PRIMES))
def test_eliminate_mod_p_against_dense_oracle(rows, p):
    n_cols = len(rows[0])
    want = dense_rref_mod(rows, p)
    _, _, echelon = _check_kernel_against_rref(_sparse(rows), want, modulus=p)
    # Rank mode: residues with pivot entry 1 and nothing left of the pivot,
    # spanning the same row space mod p.
    for c, row in echelon.items():
        assert row[c] == 1 and min(row) == c
        assert all(type(v) is int and 0 < v < p for v in row.values())
    dense = [[row.get(j, 0) for j in range(n_cols)] for row in echelon.values()]
    assert dense_rref_mod(dense, p) == want


@settings(max_examples=150, deadline=None)
@given(int_matrices(), st.sampled_from(PRIMES))
def test_rank_mod_p_at_most_rank_over_q(rows, p):
    assert _rank_mod(rows, p) <= dense_rank_oracle(rows)


@pytest.mark.parametrize("p", PRIMES[:3])
def test_rank_mod_small_p_can_fall_below_rank_over_q(p):
    # Both cases occur, so the inequality above is not vacuous; any
    # example will do, so find skips shrinking.
    for holds in (lambda a, b: a < b, lambda a, b: a == b):
        find(int_matrices(), lambda rows: holds(_rank_mod(rows, p), dense_rank_oracle(rows)),
             settings=settings(database=None, max_examples=2000,
                               phases=(Phase.generate,)))


def test_names_the_benchmark_reads():
    # perfbench records lieposet.BACKEND and traces exactla._elim.eliminate.
    assert lieposet.BACKEND == "python"
    assert exactla._elim.eliminate is _elim_py.eliminate
