"""The structure constants and their sparse index against the formulas they
replaced.

``build`` reads each commutator's coordinates at the private leading slots
of the root matrices; the oracle is an exact solve per commutator.
``bracket`` and ``coboundary_matrix`` read the structure constants through
``LieAlg.adjacency`` and ``LieAlg.producers``; the oracles are the formulas
that scan every pair of basis indices.  Both sides must agree exactly on
random valid posets of all four families and on the normal form.
"""

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lieposet import cohomology, exactla, indexfrob, liealg, posets
from lieposet.exactla import SparseMat
from oracles import ONE, ZERO, antichain_poset, char_poly, eval_kirillov, solve, transpose
from strategies import algebras


def vectors(dim):
    """Coordinate vectors: a basis vector, sparse, or with no zero entry."""
    nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)
    sparse = st.one_of(st.just(ZERO), nonzero)
    return st.one_of(
        st.integers(0, dim - 1).map(lambda i: [ONE if k == i else ZERO for k in range(dim)]),
        st.lists(sparse, min_size=dim, max_size=dim),
        st.lists(nonzero, min_size=dim, max_size=dim),
    )


def realization_mats(g):
    """``g.realization``'s entry dicts as SparseMats of size 1 + the
    largest position."""
    size = 1 + max((max(p) for E in g.realization for p in E), default=-1)
    return [SparseMat(size, size, E) for E in g.realization]


def build_oracle(mats):
    """Structure constants by one exact solve per nonzero commutator, over
    the matrix positions of the whole basis and of the commutator."""
    brackets = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i].matmul(mats[j]).add(mats[j].matmul(mats[i]), scale=-ONE)
            if not comm.entries:
                continue
            positions = sorted({k for M in mats for k in M.entries} | set(comm.entries))
            pos_idx = {p: r for r, p in enumerate(positions)}
            A = SparseMat(len(positions), len(mats), {
                (pos_idx[p], col): v for col, M in enumerate(mats) for p, v in M.entries.items()
            })
            b = [ZERO] * len(positions)
            for p, v in comm.entries.items():
                b[pos_idx[p]] = v
            coords = solve(A, b)
            assert coords is not None, "commutator outside the basis span"
            vec = {k: c for k, c in enumerate(coords) if c}
            if vec:
                brackets[(i, j)] = vec
    return brackets


def assert_same_constants(built, oracle):
    """Same pairs, keys and values in the same insertion order, and every
    built value an int."""
    assert [(pair, list(vec.items())) for pair, vec in built.items()] == [
        (pair, list(vec.items())) for pair, vec in oracle.items()]
    assert all(type(c) is int for vec in built.values() for c in vec.values())


NAMED = {
    "branch-gl": (posets.branch_poset(), "gl"),
    "branch-sl": (posets.branch_poset(), "sl"),
    "hexagon-C": (posets.hexagon_type_c_poset(), "gl"),
    "chain1-sl": (posets.chain_poset(1), "sl"),
    "chain5-gl": (posets.chain_poset(5), "gl"),
    "chain5-sl": (posets.chain_poset(5), "sl"),
    "antichain3-gl": (antichain_poset(3), "gl"),
    "typeB": (posets.make_poset(range(-2, 3), [(-1, 2), (-2, 1)], "B"), "gl"),
    "typeC-long-root": (posets.make_poset([-2, -1, 1, 2], [(-2, -1), (-1, 1), (1, 2)], "C"), "gl"),
    "typeD": (posets.make_poset([-2, -1, 1, 2], [(-1, 2), (-2, 1)], "D"), "gl"),
}


@settings(max_examples=60, deadline=None)
@given(algebras("ABCD"))
def test_build_matches_per_pair_solve(g):
    # Same pairs, same coefficients, both in the same insertion order.
    assert_same_constants(g.brackets, build_oracle(realization_mats(g)))


@pytest.mark.parametrize("size", range(1, 9))
def test_build_matches_per_pair_solve_on_height_one(size):
    for P in posets.enumerate_height_one(size):
        for variant in ("gl", "sl"):
            g = liealg.build(P, variant)
            assert_same_constants(g.brackets, build_oracle(realization_mats(g)))


def assert_build_contract(g):
    """Pairs strictly ascending in insertion order, each vector's keys
    ascending, every coefficient a nonzero int; the root block, when g is
    two-step, holds exactly the nonzero root values."""
    pairs = list(g.brackets)
    assert all(p < q for p, q in zip(pairs, pairs[1:]))
    for vec in g.brackets.values():
        keys = list(vec)
        assert keys and all(a < b for a, b in zip(keys, keys[1:]))
        assert all(type(c) is int and c for c in vec.values())
    cc = g.cartan_count
    block = g.root_block
    if block is None:
        assert any(i >= cc for i, _ in g.brackets)
    else:
        assert 0 not in block.entries.values()
        assert block.entries == {(k, t - cc): v for t, alpha in g.roots.items()
                                 for k, v in enumerate(alpha) if v}


@settings(max_examples=60, deadline=None)
@given(algebras("ABCD"))
def test_build_output_contract(g):
    assert_build_contract(g)


@pytest.mark.parametrize("variant", ("gl", "sl"))
@pytest.mark.parametrize("N", range(1, 10))
def test_build_output_contract_on_chains(N, variant):
    assert_build_contract(liealg.build(posets.chain_poset(N), variant))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_structure_constants_match_per_pair_solve_in_mixed_basis(data):
    # A unitriangular change of basis inside the Cartan block keeps it
    # diagonal and the root matrices' leading slots private: the shape the
    # read-off needs, so the result must be the oracle's.  Mixing a root
    # matrix in gives brackets of several terms, whose order counts, and
    # breaks that shape: such a basis may be rejected, but never given
    # other coefficients.
    g = data.draw(algebras())
    assume(g.realization is not None)
    mats = realization_mats(g)
    mixed, cartan_only = [], True
    for k, M in enumerate(mats):
        for j in range(k + 1, len(mats)):
            c = data.draw(st.integers(-2, 2))
            if c:
                M = M.add(mats[j], scale=ONE * c)
                cartan_only &= j < g.cartan_count
        mixed.append(M)
    labels = tuple(f"y{k}" for k in range(len(mixed)))
    ents = [{p: int(v) for p, v in M.entries.items()} for M in mixed]
    try:
        got = liealg._structure_constants(ents, labels)
    except liealg.ClosureError:
        assert not cartan_only
    else:
        assert_same_constants(got, build_oracle(mixed))


@pytest.mark.parametrize("name", sorted(NAMED))
def test_build_matches_per_pair_solve_named(name):
    P, variant = NAMED[name]
    g = liealg.build(P, variant)
    assert_same_constants(g.brackets, build_oracle(realization_mats(g)))


@settings(max_examples=60, deadline=None)
@given(algebras("ABCDP"))
def test_integral_scalars_stay_int(g):
    # build and make_phi store their integer structure constants as ints,
    # and the matrices made from them keep them: the root block, the
    # coboundary matrices and the rows of the centre's stacked adjoint
    # reach the elimination kernel as ints.
    def ints(values):
        return all(type(v) is int for v in values)

    assert g.integral and ints(c for vec in g.brackets.values() for c in vec.values())
    if g.root_block is not None:
        assert ints(g.root_block.entries.values())
    for n in range(min(2, g.dim) + 1):
        assert ints(cohomology.coboundary_matrix(g, n).matrix.entries.values())
    stacked = []
    eliminate = exactla._elim.eliminate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla._elim, "eliminate",
                   lambda rows, **kw: stacked.append(rows) or eliminate(rows, **kw))
        liealg.center(g)
    assert len(stacked) == 1 and ints(v for row in stacked[0] for v in row.values())
    # The dense bracket of two basis vectors is an int vector, == to the
    # dense Fraction oracle's.
    units = fraction_units(g.dim)
    for i, j in itertools.product(range(g.dim), repeat=2):
        got = liealg.bracket(g, liealg.basis_vector(g, i), liealg.basis_vector(g, j))
        assert ints(got) and got == bracket_oracle(g, units[i], units[j])


@pytest.mark.parametrize("n", range(1, 6))
def test_phi_principal_element_and_char_poly_stay_int(n):
    # The principal element of Phi_n's structured candidate and its
    # characteristic polynomial are int lists, == to the Fraction oracles':
    # the transposed Kirillov solve and Faddeev-LeVerrier on the dense ad(p).
    g = liealg.make_phi(n)
    f = indexfrob.structured_candidate(g)
    p = indexfrob.principal_element(g, f)
    poly = indexfrob.spectrum(g, p).char_poly
    assert all(type(c) is int for c in p + poly)
    assert p == solve(transpose(eval_kirillov(g, f)), list(f))
    p_frac = [ONE * c for c in p]
    ad = {(r, j): c for j, unit in enumerate(fraction_units(g.dim))
          for r, c in enumerate(bracket_oracle(g, p_frac, unit)) if c}
    assert poly == char_poly(SparseMat(g.dim, g.dim, ad))


def fraction_units(dim):
    return [[ONE if k == i else ZERO for k in range(dim)] for i in range(dim)]


def bracket_oracle(g, x, y):
    out = [ZERO] * g.dim
    for (i, j), vec in g.brackets.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for k, v in vec.items():
                out[k] += c * v
    return out


def coboundary_oracle(g, n):
    """Entries of the degree-n differential by the O(dim^2) scan per k."""
    dim = g.dim
    combos_n = list(itertools.combinations(range(dim), n))
    combos_n1 = list(itertools.combinations(range(dim), n + 1))
    pos_n1 = {S: i for i, S in enumerate(combos_n1)}
    ents = {}

    def add(row_tuple, target, val, col):
        if not val:
            return
        key = (pos_n1[row_tuple] * dim + target, col)
        s = ents.get(key, ZERO) + val
        if s:
            ents[key] = s
        else:
            del ents[key]

    for s_pos, S in enumerate(combos_n):
        in_S = set(S)
        for t in range(dim):
            col = s_pos * dim + t
            for a in range(dim):
                if a in in_S:
                    continue
                G = tuple(sorted(S + (a,)))
                sign = ONE if G.index(a) % 2 == 0 else -ONE
                for m, c in g.structure(a, t).items():
                    add(G, m, sign * c, col)
            for k in S:
                R = tuple(x for x in S if x != k)
                in_R = set(R)
                sign_k = ONE if sum(1 for r in R if r < k) % 2 == 0 else -ONE
                for a in range(dim):
                    if a in in_R:
                        continue
                    for b in range(a + 1, dim):
                        if b in in_R:
                            continue
                        c_ab = g.structure(a, b).get(k)
                        if not c_ab:
                            continue
                        G = tuple(sorted(R + (a, b)))
                        i, j = G.index(a) + 1, G.index(b) + 1
                        sign_ij = ONE if (i + j) % 2 == 0 else -ONE
                        add(G, t, sign_ij * sign_k * c_ab, col)
    return ents


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bracket_matches_pair_scan(data):
    g = data.draw(algebras())
    for _ in range(3):
        x = data.draw(vectors(g.dim))
        y = data.draw(vectors(g.dim))
        assert liealg.bracket(g, x, y) == bracket_oracle(g, x, y)


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_coboundary_matches_pair_scan(g):
    mats = []
    for n in range(min(3, g.dim) + 1):
        cm = cohomology.coboundary_matrix(g, n)
        want = coboundary_oracle(g, n)
        # Same entries in the same insertion order: elimination consumes
        # them in that order, so its pivots and bit growth stay the same.
        assert list(cm.matrix.entries.items()) == list(want.items())
        assert (cm.matrix.n_rows, cm.matrix.n_cols) == (
            math.comb(g.dim, n + 1) * g.dim, math.comb(g.dim, n) * g.dim)
        mats.append(cm.matrix)
    for d_n, d_n1 in zip(mats, mats[1:]):
        assert d_n1.matmul(d_n) == SparseMat(d_n1.n_rows, d_n.n_cols, {})


@settings(max_examples=30, deadline=None)
@given(algebras())
def test_index_shares_bracket_dicts(g):
    assert "adjacency" not in vars(g) and "producers" not in vars(g)  # built lazily
    pairs = {(i, j) for (i, j), vec in g.brackets.items() if vec}
    assert sum(map(len, g.adjacency)) == 2 * len(pairs)
    for i, j in pairs:
        assert g.adjacency[i][j] is g.adjacency[j][i] is g.brackets[(i, j)]
    for row in g.adjacency:
        assert list(row) == sorted(row)
    produced = {(a, b, k): c for k, prods in enumerate(g.producers) for a, b, c in prods}
    assert produced == {(i, j, k): c for (i, j) in pairs for k, c in g.brackets[(i, j)].items()}
    for prods in g.producers:
        assert [p[:2] for p in prods] == sorted(p[:2] for p in prods)

