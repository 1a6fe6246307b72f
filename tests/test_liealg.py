import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from lieposet import liealg
from lieposet.exactla import SparseMat
from lieposet.liealg import (
    CartanWeylError,
    ClosureError,
    LieAlgError,
    basis_vector,
    bracket,
    build,
    center,
    check_jacobi,
    check_realization,
    derived_series,
    make_phi,
    sparsity_pattern,
)
from lieposet.posets import (
    chain_poset,
    branch_poset,
    hexagon_type_c_poset,
    make_poset,
)
from oracles import ONE, ZERO, antichain_poset, transpose
from strategies import valid_posets

CORPUS = [
    ("branch-gl", lambda: build(branch_poset(), "gl")),
    ("branch-sl", lambda: build(branch_poset(), "sl")),
    ("chain2-gl", lambda: build(chain_poset(2), "gl")),
    ("chain3-sl", lambda: build(chain_poset(3), "sl")),
    ("antichain3-gl", lambda: build(antichain_poset(3), "gl")),
    ("hexagon-C", lambda: build(hexagon_type_c_poset())),
    ("typeD", lambda: build(make_poset([-2, -1, 1, 2], [(-1, 2), (-2, 1)], "D"))),
    ("typeB", lambda: build(make_poset(range(-2, 3), [(-1, 2), (-2, 1)], "B"))),
    ("typeC-long-root", lambda: build(make_poset([-1, 1], [(-1, 1)], "C"))),
    ("phi3", lambda: make_phi(3)),
]


@pytest.fixture(params=CORPUS, ids=[name for name, _ in CORPUS])
def corpus_algebra(request):
    return request.param[1]()


class TestBuild:
    def test_branch_gl(self):
        g = build(branch_poset(), "gl")
        assert g.dim == 9
        assert g.cartan_count == 4
        assert sparsity_pattern(g) == {
            (0, 0), (1, 1), (2, 2), (3, 3),
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
        }

    def test_branch_sl(self):
        g = build(branch_poset(), "sl")
        assert g.dim == 8
        assert g.cartan_count == 3

    def test_hexagon_type_c(self):
        g = build(hexagon_type_c_poset())
        assert g.dim == 6
        assert g.cartan_count == 3
        assert sparsity_pattern(g) == {
            (0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
            (0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5),
        }

    def test_antichain_abelian(self):
        g = build(antichain_poset(4), "gl")
        assert g.dim == 4
        assert not g.brackets

    def test_dim_formula(self):
        for P in (branch_poset(), chain_poset(4)):
            assert build(P, "gl").dim == len(P) + len(P.relation)
            assert build(P, "sl").dim == len(P) - 1 + len(P.relation)

    def test_bad_variant(self):
        with pytest.raises(LieAlgError):
            build(branch_poset(), "so")

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from("ABCD").flatmap(valid_posets), st.sampled_from(("gl", "sl")))
    def test_sparsity_pattern_closed_form(self, P, variant):
        assert sparsity_pattern(build(P, variant)) == pattern_oracle(P, variant)

    @pytest.mark.parametrize("P, variant", (
        pytest.param(chain_poset(1), "sl", id="chain1-sl"),
        pytest.param(chain_poset(1), "gl", id="chain1-gl"),
        pytest.param(antichain_poset(3), "sl", id="antichain3-sl"),
        pytest.param(make_poset(range(-2, 3), [(-1, 2), (-2, 1)], "B"), "gl", id="typeB"),
        pytest.param(make_poset(range(-1, 2), [], "B"), "gl", id="typeB-empty"),
    ))
    def test_sparsity_pattern_closed_form_exceptions(self, P, variant):
        assert sparsity_pattern(build(P, variant)) == pattern_oracle(P, variant)

    def test_family_violations_rejected(self):
        P = make_poset([-1, 1], [(-1, 1)], "D")
        with pytest.raises(LieAlgError, match="axioms"):
            build(P)

    def test_form_membership(self, corpus_algebra):
        g = corpus_algebra
        if g.realization is None:
            pytest.skip("abstract algebra")
        assert check_realization(g)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from("BCD").flatmap(valid_posets))
    def test_root_sign_is_the_only_one(self, P):
        # The closed-form sign sigma = s_a s_b puts each two-entry root
        # vector E[a,b] - sigma E[-b,-a] in the form algebra, and the
        # opposite sign does not.
        basis, cartan_count = liealg._basis(P, "gl")
        s = form_signs(P.family, P.elements)
        for _, X in basis[cartan_count:]:
            assert liealg._in_form_algebra(X, s)
            if len(X) == 2:
                (a, b), mirror = X
                assert X[(a, b)] == ONE and X[mirror] == -s[a] * s[b]
                flipped = {(a, b): ONE, mirror: s[a] * s[b]}
                assert not liealg._in_form_algebra(flipped, s)


def pattern_oracle(P, variant):
    """The realization's joint support in closed form: the diagonal at
    every element and (pos a, pos b) for every relation a < b, except that
    sl of a one-element poset has no diagonal and B/C/D leave out label 0,
    which no Cartan generator h_i = E[-i, -i] - E[i, i] touches."""
    pos = {e: t for t, e in enumerate(P.elements)}
    if P.family == "A":
        diagonal = [] if variant == "sl" and len(P) == 1 else P.elements
    else:
        diagonal = [e for e in P.elements if e]
    return {(pos[e], pos[e]) for e in diagonal} | {(pos[a], pos[b]) for a, b in P.relation}


def form_signs(family, elems):
    """s_e = S[e, -e] of the antidiagonal form: -1 only for negative e in C."""
    return {e: -ONE if family == "C" and e < 0 else ONE for e in elems}


def in_form_algebra_oracle(family, elems, X):
    """X^T S + S X == 0 by SparseMat arithmetic on the positions of
    ``elems``, with the form matrix S spelled out entry by entry."""
    idx = {e: t for t, e in enumerate(elems)}
    size = len(elems)
    S = SparseMat(size, size, {
        (idx[e], idx[-e]): ONE if e == 0 or family in ("B", "D") or e > 0 else -ONE
        for e in elems
    })
    M = SparseMat(size, size, {(idx[a], idx[b]): v for (a, b), v in X.items()})
    return transpose(M).matmul(S).add(S.matmul(M)) == SparseMat(size, size, {})


@st.composite
def form_matrices(draw):
    """(family, elems, X): a B/C/D label set of rank 1..3 and a sparse X on
    it as {(a, b): value}.  X is a few mirror pairs X[a, b] = v,
    X[-b, -a] = +-v plus at most one stray entry, so it lies in the form
    algebra often but not always."""
    family = draw(st.sampled_from("BCD"))
    n = draw(st.integers(1, 3))
    elems = [e for e in range(-n, n + 1) if e or family == "B"]
    cell = st.tuples(st.sampled_from(elems), st.sampled_from(elems))
    value = st.integers(-2, 2).map(Fraction)
    X = {}
    for (a, b), v, flip in draw(st.lists(st.tuples(cell, value, st.booleans()), max_size=3)):
        X[(a, b)] = X.get((a, b), ZERO) + v
        X[(-b, -a)] = X.get((-b, -a), ZERO) + (v if flip else -v)
    for p, v in draw(st.dictionaries(cell, value, max_size=1)).items():
        X[p] = X.get(p, ZERO) + v
    return family, elems, {p: v for p, v in X.items() if v}


class TestFormAlgebra:
    @settings(max_examples=300, deadline=None)
    @given(form_matrices())
    def test_entrywise_check_matches_matrix_products(self, fx):
        family, elems, X = fx
        assert liealg._in_form_algebra(X, form_signs(family, elems)) == \
            in_form_algebra_oracle(family, elems, X)

    @pytest.mark.parametrize("outcome", (True, False))
    def test_both_outcomes_occur(self, outcome):
        # A nonzero matrix inside the form algebra and one outside it.
        find(form_matrices(), lambda fx: bool(fx[2]) and liealg._in_form_algebra(
            fx[2], form_signs(fx[0], fx[1])) is outcome)


class TestBracket:
    def test_matrix_units(self):
        g = build(chain_poset(3), "gl")
        # labels: e[1,1] e[2,2] e[3,3] e[1,2] e[1,3] e[2,3]
        i12 = g.basis_labels.index("e[1,2]")
        i23 = g.basis_labels.index("e[2,3]")
        i13 = g.basis_labels.index("e[1,3]")
        out = bracket(g, basis_vector(g, i12), basis_vector(g, i23))
        want = [ZERO] * g.dim
        want[i13] = ONE
        assert out == want

    def test_phi_relations(self):
        g = make_phi(3)
        for i in range(3):
            for j in range(3):
                out = bracket(g, basis_vector(g, i), basis_vector(g, 3 + j))
                want = [ZERO] * 6
                if i == j:
                    want[3 + j] = ONE
                assert out == want

    def test_alternating(self, corpus_algebra):
        g = corpus_algebra
        rng = random.Random(42)
        for _ in range(5):
            x = [Fraction(rng.randint(-3, 3)) for _ in range(g.dim)]
            assert bracket(g, x, x) == [ZERO] * g.dim

    def test_dimension_mismatch(self):
        g = make_phi(1)
        with pytest.raises(Exception):
            bracket(g, [ONE], [ONE, ZERO])


class TestJacobi:
    def test_corpus(self, corpus_algebra):
        assert check_jacobi(corpus_algebra)


class TestDerivedSeries:
    def test_phi2(self):
        series, dl, ks = derived_series(make_phi(2))
        assert [s.dim for s in series] == [4, 2, 0]
        assert (dl, ks) == (1, 2)

    def test_borel_sl3(self):
        series, dl, ks = derived_series(build(chain_poset(3), "sl"))
        assert [s.dim for s in series] == [5, 3, 1, 0]
        assert ks == 3

    def test_hexagon_two_step(self):
        _, _, ks = derived_series(build(hexagon_type_c_poset()))
        assert ks == 2

    def test_abelian(self):
        _, dl, ks = derived_series(build(antichain_poset(3), "gl"))
        assert (dl, ks) == (0, 1)


class TestCenter:
    def test_gl_connected_center_is_identity(self):
        for P in (branch_poset(), chain_poset(3)):
            c = center(build(P, "gl"))
            assert c.dim == 1
            # the center is spanned by the identity matrix: equal diagonal
            # coefficients, nothing on root vectors
            (v,) = c.basis
            n = len(P)
            assert len(set(v[:n])) == 1 and v[0] != 0
            assert all(x == 0 for x in v[n:])

    def test_phi_centerless(self):
        assert center(make_phi(2)).dim == 0

    def test_abelian_full(self):
        g = build(antichain_poset(3), "gl")
        assert center(g).dim == 3


class TestCartanWeyl:
    def test_branch_root(self):
        g = build(branch_poset(), "gl")
        t = g.basis_labels.index("e[1,2]")
        assert g.roots[t] == (ONE, -ONE, ZERO, ZERO)

    def test_hexagon_roots(self):
        g = build(hexagon_type_c_poset())
        t = g.basis_labels.index("e[-2,1]+e[-1,2]")
        assert g.roots[t] == (ONE, ONE, ZERO)

    def test_phi_roots(self):
        g = make_phi(4)
        for i in range(4):
            assert g.roots[4 + i] == tuple(
                ONE if k == i else ZERO for k in range(4)
            )

    def test_non_eigenvector_detected(self):
        # doctor a copy of phi_1 so e is no longer an ad(d)-eigenvector
        g = make_phi(1)
        bad = liealg.LieAlg(
            dim=2,
            basis_labels=g.basis_labels,
            brackets={(0, 1): {0: ONE, 1: ONE}},
            cartan_count=1,
        )
        with pytest.raises(CartanWeylError):
            bad.roots

    @pytest.mark.parametrize("brackets, message", (
        # A non-commuting Cartan pair is reported before any non-eigenvector.
        ({(0, 3): {2: 1}, (1, 2): {2: 1, 3: 1}, (0, 1): {2: 1}},
         "Cartan generators h1, h2 do not commute"),
        # Then the smallest root index t ...
        ({(0, 3): {2: 1}, (1, 2): {3: 1}}, "[h2, x] is not a multiple of x"),
        # ... and for that t the smallest Cartan index k.
        ({(1, 2): {3: 1}, (0, 2): {3: 1}, (0, 3): {3: 1}}, "[h1, x] is not a multiple of x"),
    ), ids=("cartan-pair-first", "smallest-root", "smallest-cartan"))
    def test_first_failure_is_reported(self, brackets, message):
        g = liealg.LieAlg(dim=4, basis_labels=("h1", "h2", "x", "y"),
                          brackets=brackets, cartan_count=2)
        with pytest.raises(CartanWeylError) as info:
            g.roots
        assert str(info.value) == message

    def test_build_runs_the_guard(self, monkeypatch):
        # build itself raises, not a later reader of the roots.
        def non_eigenvector(ents, labels):
            return {(0, len(ents) - 1): {0: ONE, len(ents) - 1: ONE}}

        monkeypatch.setattr(liealg, "_structure_constants", non_eigenvector)
        with pytest.raises(CartanWeylError):
            build(branch_poset(), "gl")


class TestMakePhi:
    def test_n1_nonabelian(self):
        g = make_phi(1)
        assert g.dim == 2
        assert g.brackets

    def test_invalid(self):
        with pytest.raises(LieAlgError):
            make_phi(0)

    def test_height_one_gives_two_step(self):
        # every family-A height-one poset yields a two-step (or abelian) algebra
        from lieposet.posets import enumerate_height_one

        for P in enumerate_height_one(4):
            _, _, ks = derived_series(build(P, "sl"))
            assert ks <= 2


class TestClosureInvariant:
    def test_brackets_stay_in_span(self, corpus_algebra):
        g = corpus_algebra
        if g.realization is None:
            pytest.skip("abstract algebra")
        for i, j in itertools.combinations(range(g.dim), 2):
            vec = g.structure(i, j)
            for k in vec:
                assert 0 <= k < g.dim

    def test_unclosed_basis_rejected(self):
        # e12 and e23 without e13: [e12, e23] = e13 leaves the span.
        with pytest.raises(ClosureError, match="outside the basis span"):
            liealg._structure_constants([{(0, 1): 1}, {(1, 2): 1}], ("e12", "e23"))

    def test_dependent_basis_rejected(self):
        # Closed (all three commute) but dependent: coordinates are not unique.
        with pytest.raises(ClosureError, match="dependent"):
            liealg._structure_constants(
                [{(0, 0): 1}, {(1, 1): 1}, {(0, 0): 1, (1, 1): 1}],
                ("e11", "e22", "e11+e22"),
            )

    @pytest.mark.parametrize("ents", (
        # e12 + e13 leads at (0, 1), which e12 also touches.
        [{(0, 1): 1}, {(0, 1): 1, (0, 2): 1}, {(0, 2): 1}],
        # e11 + e12 is not diagonal, yet leads on the diagonal.
        [{(0, 0): 1, (0, 1): 1}],
        # 2 e12 leads at a private slot, but its entry there is not +-1.
        [{(0, 1): 2}, {(1, 2): 1}, {(0, 2): 1}],
    ), ids=("shared", "diagonal", "non-unit"))
    def test_root_matrix_without_private_leading_slot_rejected(self, ents):
        labels = tuple(f"y{k}" for k in range(len(ents)))
        with pytest.raises(ClosureError,
                           match=r"no private off-diagonal leading slot of entry \+-1"):
            liealg._structure_constants(ents, labels)

    def test_cartan_eigenvalue_differing_across_a_root_matrix_rejected(self):
        # Drop the (1, 1) entry of h1 in type B: the root matrix
        # E[-2,1] - E[-1,2] then has D_rr - D_cc = 0 at (-2, 1) and 1 at
        # (-1, 2), so [h1, e] is no multiple of e, whichever comes first.
        g = build(make_poset(range(-2, 3), [(-1, 2), (-2, 1)], "B"))
        ents = [dict(E) for E in g.realization]
        del ents[0][(3, 3)]
        assert ents[0] == {(1, 1): 1}
        with pytest.raises(ClosureError) as info:
            liealg._structure_constants(ents, g.basis_labels)
        assert str(info.value) == "[h1, e[-2,1]-e[-1,2]] falls outside the basis span"
        with pytest.raises(ClosureError) as info:
            liealg._structure_constants(ents[2:] + ents[:2], g.basis_labels[2:] + g.basis_labels[:2])
        assert str(info.value) == "[e[-2,1]-e[-1,2], h1] falls outside the basis span"

    @pytest.mark.parametrize("t", (3, 4, 5))
    def test_two_entry_commutator_off_the_span_rejected(self, t):
        # Type B on -3..3, covers -3 < -2 < -1 and 1 < 2 < 3: dim 6 and
        # [e[-3,-2]-e[2,3], e[-2,-1]-e[1,2]] = e[-3,-1]-e[1,3].  Flipping
        # the sign of root matrix t's non-leading entry keeps every leading
        # slot and every Cartan-root bracket, but that commutator's second
        # entry no longer matches the coordinate read at its slot.
        P = make_poset(range(-3, 4), [(-3, -2), (-2, -1), (1, 2), (2, 3)], "B")
        g = build(P)
        assert g.dim == 6 and g.brackets[(3, 5)] == {4: 1}
        ents = [dict(E) for E in g.realization]
        (lead, _), (other, _) = sorted(ents[t].items())
        ents[t][other] = -ents[t][other]
        with pytest.raises(ClosureError) as info:
            liealg._structure_constants(ents, g.basis_labels)
        assert str(info.value) == (
            "[e[-3,-2]-e[2,3], e[-2,-1]-e[1,2]] falls outside the basis span")

    def test_closed_basis_accepted(self):
        got = liealg._structure_constants(
            [{(0, 1): 1}, {(1, 2): 1}, {(0, 2): 1}], ("e12", "e23", "e13"))
        assert got == {(0, 1): {2: ONE}} and type(got[(0, 1)][2]) is int
        # A coordinate is the slot entry times the root matrix's +-1 there.
        got = liealg._structure_constants(
            [{(0, 1): 1}, {(1, 2): 1}, {(0, 2): -1}], ("e12", "e23", "-e13"))
        assert got == {(0, 1): {2: -ONE}} and type(got[(0, 1)][2]) is int


class TestRealization:
    def test_dropped_bracket_detected(self):
        # [e12, e23] = e13 as matrices; with no listed bracket the commutator
        # must still be compared with g.structure, which is then zero.
        g = build(chain_poset(3), "gl")
        assert check_realization(g)
        assert not check_realization(dataclasses.replace(g, brackets={}))
        pair = next(iter(g.brackets))
        rest = {p: vec for p, vec in g.brackets.items() if p != pair}
        assert not check_realization(dataclasses.replace(g, brackets=rest))

    def test_changed_coefficient_detected(self):
        g = build(hexagon_type_c_poset())
        (i, j), vec = next(iter(g.brackets.items()))
        doctored = dict(g.brackets)
        doctored[(i, j)] = {k: 2 * c for k, c in vec.items()}
        assert not check_realization(dataclasses.replace(g, brackets=doctored))

    def test_empty_and_abstract(self):
        g = build(chain_poset(1), "sl")
        assert g.dim == 0 and g.realization == ()
        assert check_realization(g)
        assert check_realization(make_phi(2))
