import itertools
import random
from fractions import Fraction

import pytest

from lieposet import liealg
from lieposet.exactla import ONE, ZERO, SparseMat
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
    antichain_poset,
    chain_poset,
    branch_poset,
    hexagon_type_c_poset,
    make_poset,
)

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

    def test_family_violations_rejected(self):
        P = make_poset([-1, 1], [(-1, 1)], "D")
        with pytest.raises(LieAlgError, match="axioms"):
            build(P)

    def test_form_membership(self, corpus_algebra):
        g = corpus_algebra
        if g.realization is None:
            pytest.skip("abstract algebra")
        assert check_realization(g)


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
            liealg.cartan_weyl_extract(bad)


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
        e12 = SparseMat(3, 3, {(0, 1): ONE})
        e23 = SparseMat(3, 3, {(1, 2): ONE})
        with pytest.raises(ClosureError, match="outside the basis span"):
            liealg._structure_constants([e12, e23], ("e12", "e23"))

    def test_dependent_basis_rejected(self):
        # Closed (all three commute) but dependent: coordinates are not unique.
        e11 = SparseMat(2, 2, {(0, 0): ONE})
        e22 = SparseMat(2, 2, {(1, 1): ONE})
        with pytest.raises(ClosureError, match="dependent"):
            liealg._structure_constants(
                [e11, e22, e11.add(e22)], ("e11", "e22", "e11+e22")
            )

    def test_closed_basis_accepted(self):
        e12 = SparseMat(3, 3, {(0, 1): ONE})
        e23 = SparseMat(3, 3, {(1, 2): ONE})
        e13 = SparseMat(3, 3, {(0, 2): ONE})
        assert liealg._structure_constants([e12, e23, e13], ("e12", "e23", "e13")) == {
            (0, 1): {2: ONE}
        }
