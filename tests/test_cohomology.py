import io
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from lieposet import cohomology, exactla, liealg
from lieposet.cohomology import (
    DegreeError,
    coboundary_matrix,
    cochain_dim,
    cohomology_dim,
    cohomology_report,
    dump_complex,
    compare_h2,
    z2_shape_check_phi,
)
from lieposet.indexfrob import index
from lieposet.liealg import build, center, make_phi
from lieposet.posets import (
    antichain_poset,
    chain_poset,
    branch_poset,
    enumerate_height_one,
    hexagon_type_c_poset,
)
from oracles import ZERO
from strategies import algebras

SMALL = [
    make_phi(1),
    make_phi(2),
    build(chain_poset(2), "gl"),
    build(chain_poset(2), "sl"),
    build(antichain_poset(2), "gl"),
    build(hexagon_type_c_poset()),
]


class TestCochainDims:
    def test_formula(self):
        g = make_phi(2)
        for n in range(5):
            assert cochain_dim(g, n) == math.comb(4, n) * 4

    def test_out_of_range(self):
        with pytest.raises(DegreeError):
            cochain_dim(make_phi(1), 3)

    def test_matrix_shapes(self):
        g = make_phi(2)
        for n in range(3):
            cm = coboundary_matrix(g, n)
            assert cm.matrix.n_cols == cochain_dim(g, n)
            assert cm.matrix.n_rows == cochain_dim(g, n + 1)
            assert len(cm.col_index) == cm.matrix.n_cols
            assert len(cm.row_index) == cm.matrix.n_rows

    def test_top_degree_has_no_rows(self):
        g = make_phi(1)
        cm = coboundary_matrix(g, 2)
        assert cm.matrix.n_rows == 0 and not cm.matrix.entries


class TestComplexIsComplex:
    @pytest.mark.parametrize("g", SMALL, ids=lambda g: f"dim{g.dim}")
    def test_d_squared_zero(self, g):
        for n in range(0, min(3, g.dim)):
            d_n = coboundary_matrix(g, n).matrix
            d_n1 = coboundary_matrix(g, n + 1).matrix
            assert not d_n1.matmul(d_n).entries

    @pytest.mark.parametrize("g", SMALL, ids=lambda g: f"dim{g.dim}")
    def test_h0_is_center(self, g):
        assert cohomology_dim(g, 0) == center(g).dim


class TestRigidity:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_h2_phi_vanishes(self, n):
        assert cohomology_dim(make_phi(n), 2) == 0

    def test_h1_phi_vanishes(self):
        for n in (1, 2, 3):
            assert cohomology_dim(make_phi(n), 1) == 0

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_z2_shape(self, n):
        ok, counterexample = z2_shape_check_phi(n)
        assert ok, counterexample

    def test_z2_shape_past_four(self):
        for n in (5, 6):
            ok, counterexample = z2_shape_check_phi(n)
            assert ok, (n, counterexample)

    def test_frobenius_height_one_at_every_degree(self):
        # Every index-0 sl height-one class is two-step and Frobenius, so
        # g = Phi_n and H^k(g, g) = 0 at every k (Kunneth), under the
        # default dimension guard: the full-degree form of rigidity.
        seen = 0
        for size in range(2, 8):
            for P in enumerate_height_one(size):
                g = build(P, "sl")
                if index(g, seed=0).index != 0:
                    continue
                seen += 1
                for k in range(g.dim + 1):
                    assert cohomology_report(g, k)["H"] == 0, (P, k)
        assert seen == 44


class TestGuards:
    def test_no_degree_guard(self):
        # Only the dimension is guarded: every degree is answered, and
        # only a negative one is refused.  H* = 1, 4, 6, 4, 1, 0, ... here.
        g = build(branch_poset(), "gl")
        assert [cohomology_dim(g, k) for k in range(g.dim + 2)] == [1, 4, 6, 4, 1] + [0] * 6
        assert cohomology_report(make_phi(1), 4) == {"C": 0, "Z": 0, "B": 0, "H": 0}
        with pytest.raises(DegreeError):
            cohomology_report(make_phi(1), -1)

    def test_dimension_guard(self):
        g = build(chain_poset(5), "gl")  # dim 15
        with pytest.raises(DegreeError):
            cohomology_report(g, 2)
        # explicit opt-in raises the ceiling
        rep = cohomology_report(g, 0, max_dim=15)
        assert rep["H"] == 1


class TestH2Comparison:
    @pytest.mark.parametrize(
        "P,want",
        [
            (chain_poset(2), 1),
            (chain_poset(3), 3),
            (chain_poset(4), 6),
            (branch_poset(), 6),
        ],
        ids=("chain2", "chain3", "chain4", "branch"),
    )
    def test_type_a_matches(self, P, want):
        r = compare_h2(P, "gl")
        assert r.match
        assert r.lhs == want

    def test_hexagon_mismatch(self):
        r = compare_h2(hexagon_type_c_poset())
        assert not r.match
        assert r.lhs == 0
        assert r.rhs == 3
        # the gap comes entirely from the middle (H^1 of the nerve) piece
        assert r.pieces == (0, 3, 0)


class TestDump:
    def test_triplet_round_trip(self):
        g = make_phi(1)
        cm = coboundary_matrix(g, 1)
        buf = io.StringIO()
        dump_complex(cm, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("# degree 1:")
        ents = {}
        for line in lines[1:]:
            i, j, v = line.split()
            num, den = v.split("/")
            ents[(int(i), int(j))] = Fraction(int(num), int(den))
        assert ents == cm.matrix.entries


class TestReportShape:
    def test_ranks_consistent(self):
        g = build(hexagon_type_c_poset())
        rep = cohomology_report(g, 2)
        assert rep["C"] == math.comb(6, 2) * 6
        assert rep["H"] == rep["Z"] - rep["B"]
        assert rep["H"] == 0

    def test_h1_equals_derivations_mod_inner(self):
        # sanity identity: dim Z^1 - dim B^1 where B^1 = dim g - dim center
        g = make_phi(2)
        rep = cohomology_report(g, 1)
        assert rep["B"] == g.dim - center(g).dim

    @pytest.mark.parametrize(
        "g, n",
        [(build(chain_poset(1)), 2), (make_phi(1), 3)],
        ids=["chain1_deg2", "phi1_deg3"],
    )
    def test_degree_above_dim_is_zero(self, g, n):
        # C^n = 0 above the dimension, inside the degree guard.
        assert n > g.dim
        assert cohomology_report(g, n) == {"C": 0, "Z": 0, "B": 0, "H": 0}


# ---------------------------------------------------------------------------
# The weight-graded report against the full differentials


def full_rank_report(g, n):
    """(C, Z, B, H) from exact ranks of the full differentials d^n, d^(n-1)."""
    if n > g.dim:
        return {"C": 0, "Z": 0, "B": 0, "H": 0}
    c_dim = cochain_dim(g, n)
    z_dim = c_dim - exactla.rank(coboundary_matrix(g, n).matrix)
    b_dim = exactla.rank(coboundary_matrix(g, n - 1).matrix) if n >= 1 else 0
    return {"C": c_dim, "Z": z_dim, "B": b_dim, "H": z_dim - b_dim}


def cochain_weight(g, S, t):
    """wt(x_t) - sum of wt(x_s), s in S, as a tuple of Fractions."""
    def wt(i):
        return g.roots[i] if i >= g.cartan_count else (ZERO,) * g.cartan_count

    return tuple(wt(t)[k] - sum(wt(s)[k] for s in S) for k in range(g.cartan_count))


def weight0_count(g, j):
    """dim C^j_0, counted over every cochain (S, t) by its Fraction weight."""
    zero = (ZERO,) * g.cartan_count
    return sum(
        cochain_weight(g, S, t) == zero
        for S in itertools.combinations(range(g.dim), j)
        for t in range(g.dim)
    )


def relative_cochains(g, j):
    """The weight-0 cochains (S, t) with S a j-tuple of root indices, in
    order, found by their Fraction weights: a basis of R^j."""
    zero = (ZERO,) * g.cartan_count
    return [
        (S, t)
        for S in itertools.combinations(g.root_indices(), j)
        for t in range(g.dim)
        if cochain_weight(g, S, t) == zero
    ]


NAMED_REPORTS = {
    **{f"chain{N}-{v}": build(chain_poset(N), v) for N in range(1, 5) for v in ("gl", "sl")},
    "branch-gl": build(branch_poset(), "gl"),
    "hexagon-C": build(hexagon_type_c_poset()),
    **{f"phi{n}": make_phi(n) for n in range(1, 6)},
}


class TestWeightGradedReport:
    @settings(max_examples=40, deadline=None)
    @given(algebras("ABCD", max_dim=12))
    def test_matches_full_ranks_on_generated(self, g):
        for n in range(4):
            assert cohomology_report(g, n) == full_rank_report(g, n)

    @pytest.mark.parametrize("name", sorted(NAMED_REPORTS))
    def test_matches_full_ranks_named(self, name):
        g = NAMED_REPORTS[name]
        for n in range(4):
            assert cohomology_report(g, n) == full_rank_report(g, n)

    @settings(max_examples=40, deadline=None)
    @given(algebras("ABCD", max_dim=9))
    def test_matches_full_ranks_at_degrees_4_and_5_on_generated(self, g):
        for n in (4, 5):
            assert cohomology_report(g, n) == full_rank_report(g, n)

    @pytest.mark.parametrize("name", sorted(NAMED_REPORTS))
    def test_matches_full_ranks_named_at_degrees_4_and_5(self, name):
        g = NAMED_REPORTS[name]
        for n in (4, 5):
            assert cohomology_report(g, n) == full_rank_report(g, n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_phi_is_rigid_in_degree_3(self, n):
        # Phi_n is aff(1)^n, H*(aff(1), aff(1)) = 0, so by Kunneth every
        # H^k(Phi_n, Phi_n) vanishes.
        assert cohomology_report(make_phi(n), 3, max_dim=20)["H"] == 0

    @settings(max_examples=40, deadline=None)
    @given(algebras("ABCD"))
    def test_differentials_preserve_weight(self, g):
        # The report rests on this: each entry joins cochains of one weight.
        for n in range(min(2, g.dim) + 1):
            cm = coboundary_matrix(g, n)
            for r, c in cm.matrix.entries:
                assert cochain_weight(g, *cm.row_index[r]) == cochain_weight(g, *cm.col_index[c])

    @settings(max_examples=40, deadline=None)
    @given(algebras())
    def test_integer_keys_find_the_weight0_cochains(self, g):
        # The cells are the relative cochains: S holds root indices only.
        cells = cohomology._weight0_cells(g, 3)
        for j, level in enumerate(cells):
            got = [(S, t) for S, ts in level for t in ts]
            assert got == relative_cochains(g, j)

    def test_scaled_weights_stay_exact(self):
        # Halving the Cartan generators halves the roots and changes no
        # grading: the keys scale by the lcm of the denominators back to
        # integers.  The constants are ints, so they are halved as
        # Fractions (v / 2 would be a float).
        g = build(hexagon_type_c_poset())
        cc = g.cartan_count
        halved = liealg.LieAlg(
            dim=g.dim, basis_labels=g.basis_labels, cartan_count=cc,
            brackets={
                (i, j): {k: Fraction(v, 2) for k, v in vec.items()} if i < cc else vec
                for (i, j), vec in g.brackets.items()
            },
        )
        assert halved.roots == {
            t: tuple(Fraction(v, 2) for v in alpha) for t, alpha in g.roots.items()
        }
        assert cohomology._weight0_cells(halved, 3) == cohomology._weight0_cells(g, 3)
        # halved is not integral, so its blocks are assembled from its
        # Fraction constants; it is isomorphic to g, so H is the same.
        assert not halved.integral
        for n in range(4):
            assert cohomology_report(halved, n) == cohomology_report(g, n) == full_rank_report(g, n)

    @pytest.mark.parametrize("name", ["chain4-gl", "branch-gl", "hexagon-C", "phi3"])
    def test_ranks_only_weight0_blocks(self, monkeypatch, name):
        g = NAMED_REPORTS[name]
        blocks = []
        real_eliminate = exactla._elim.eliminate

        def eliminate(rows, **kwargs):
            blocks.append((len(rows), {c for r in rows for c in r}))
            return real_eliminate(rows, **kwargs)

        def no_full_matrix(*args):
            raise AssertionError("cohomology_report assembled a full differential")

        monkeypatch.setattr(exactla._elim, "eliminate", eliminate)
        monkeypatch.setattr(cohomology, "coboundary_matrix", no_full_matrix)
        c0 = [weight0_count(g, j) for j in range(5)]
        r0 = [len(relative_cochains(g, j)) for j in range(5)]
        for n in range(4):
            blocks.clear()
            cohomology_report(g, n)
            # d_R^0, ..., d_R^n in turn: r0[j + 1] rows and columns below
            # r0[j] for d_R^j, each block of the relative complex strictly
            # smaller than the weight-0 block, itself smaller than the full map.
            assert [n_rows for n_rows, _ in blocks] == [r0[j + 1] for j in range(n + 1)]
            assert all(c < r0[j] for j, (_, cols) in enumerate(blocks) for c in cols)
            assert all(c0[m] < cochain_dim(g, m) for m in range(n + 1))
            assert all(r0[m] < c0[m] for m in range(1, n + 2))


class TestRelativeComplex:
    @settings(max_examples=40, deadline=None)
    @given(algebras("ABCD"))
    def test_cartan_terms_cancel(self, g):
        # The full assembly of the relative columns reaches no row whose
        # tuple holds a Cartan index, and skipping the Cartan terms changes
        # no entry.
        cc = g.cartan_count
        cells = cohomology._weight0_cells(g, min(3, g.dim))
        for n, level in enumerate(cells):
            combos = list(itertools.combinations(range(g.dim), n + 1))
            pos_n1 = {G: i for i, G in enumerate(combos)}
            full = cohomology._assemble(g, level, pos_n1, 0)
            assert all(min(combos[r // g.dim]) >= cc for r, _ in full)
            assert full == cohomology._assemble(g, level, pos_n1, cc)

    @pytest.mark.parametrize("name", sorted(NAMED_REPORTS))
    def test_weight0_dims_are_binomial_sums(self, name):
        # dim C^m_0 = sum_i C(cc, i) dim R^(m-i): Lambda h* (x) R.
        g = NAMED_REPORTS[name]
        cc = g.cartan_count
        cells = cohomology._weight0_cells(g, min(4, g.dim))
        r = [sum(len(ts) for _, ts in level) for level in cells]
        for m in range(len(r)):
            lifted = sum(math.comb(cc, i) * r[m - i] for i in range(min(cc, m) + 1))
            assert lifted == weight0_count(g, m)

    @pytest.mark.parametrize("N", range(1, 6))
    def test_chains_at_every_degree(self, N):
        # Leger-Luks: H*(b, b) = 0 for the Borel b of sl_N; the central line
        # of gl_N adds Lambda(z*), so H^k = C(N, k) there (Kostant).
        for variant, want in (("gl", lambda k: math.comb(N, k)), ("sl", lambda k: 0)):
            g = build(chain_poset(N), variant)
            for k in range(g.dim + 1):
                assert cohomology_report(g, k, max_dim=g.dim)["H"] == want(k), (variant, k)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_phi_at_every_degree(self, n):
        # Phi_n = aff(1)^n and H*(aff(1), aff(1)) = 0 (Kunneth).
        g = make_phi(n)
        for k in range(g.dim + 1):
            assert cohomology_report(g, k)["H"] == 0, k

    def test_bracket_on_a_cartan_generator_rejected(self):
        # [e, f] = h: [g, g] is not in the root span, so the weight-0 block
        # is not Lambda h* (x) R.
        sl2 = liealg.LieAlg(
            dim=3, basis_labels=("h", "e", "f"), cartan_count=1,
            brackets={(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        )
        with pytest.raises(ValueError, match=r"\[e, f\].* Cartan generator h"):
            cohomology_report(sl2, 1)


class TestBCDProperties:
    @settings(max_examples=40, deadline=None)
    @given(algebras("BCD"))
    def test_h0_is_center(self, g):
        assert cohomology_report(g, 0)["H"] == center(g).dim
