import bisect
import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieposet import exactla, indexfrob, liealg, posets
from lieposet.indexfrob import (
    BlockFormError,
    NotFrobeniusError,
    compose_isomorphism,
    frobenius_spectrum,
    index,
    normalize_to_phi,
    principal_element,
    spectrum,
    structured_candidate,
)
from lieposet.liealg import build, check_jacobi, derived_series, make_phi
from lieposet.posets import (
    chain_poset,
    branch_poset,
    hexagon_type_c_poset,
)
from oracles import (
    ONE, ZERO, antichain_poset, eval_kirillov, height, identity, invert, is_skew_symmetric,
    scaled as scaled_matrix, solve, transpose,
)
from strategies import algebras, frobenius_bcd_algebras, valid_posets
from test_exactla import dense_rank_oracle
from test_structure_index import NAMED

HALF = Fraction(1, 2)

# Every height-one class up to size 7, in both family-A variants.
HEIGHT_ONE = [
    build(P, variant)
    for n in range(1, 8)
    for P in posets.enumerate_height_one(n)
    for variant in ("gl", "sl")
]


def small_bcd_algebras():
    """The algebra of every valid B/C/D poset of rank 1..3 closed from at
    most three mirror pairs, built as the strategy builds them: random
    B/C/D algebras are rarely Frobenius, and 39 of these are."""
    out = []
    for family in "BCD":
        for n in (1, 2, 3):
            elems = [e for e in range(-n, n + 1) if e or family == "B"]
            reps = sorted({min((a, b), (-b, -a)) for a, b in itertools.combinations(elems, 2)
                           if family == "C" or a != -b})
            for k in range(4):
                for chosen in itertools.combinations(reps, k):
                    relation = posets.transitive_closure(
                        elems, {q for a, b in chosen for q in ((a, b), (-b, -a))})
                    if family in ("B", "D") and any((-e, e) in relation for e in elems if e > 0):
                        continue
                    P = posets.make_poset(elems, relation, family)
                    if posets.validate_family(P).ok:
                        out.append(build(P))
    return out


@st.composite
def valid_algebras(draw):
    """The algebra of a random valid poset of family A (gl or sl) or B/C/D."""
    family = draw(st.sampled_from("ABCD"))
    variant = draw(st.sampled_from(("gl", "sl"))) if family == "A" else "gl"
    return build(draw(valid_posets(family)), variant)


def principal_element_oracle(g, f):
    """The rank check and transposed solve that principal_element replaced."""
    M = eval_kirillov(g, f)
    if exactla.rank(M) != g.dim:
        raise NotFrobeniusError("Kirillov matrix is singular at this functional")
    sol = solve(transpose(M), list(f))
    assert sol is not None
    return sol


class TestKirillov:
    def test_skew(self):
        g = build(hexagon_type_c_poset())
        f = tuple(range(1, g.dim + 1))
        M = eval_kirillov(g, f)
        assert is_skew_symmetric(M)

    def test_entries(self):
        g = make_phi(1)
        f = (0, 5)
        M = eval_kirillov(g, f)
        # f([d, e]) = f(e) = 5
        assert M.entries == {(0, 1): Fraction(5), (1, 0): Fraction(-5)}

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rows_are_the_kirillov_matrix_with_int_entries_when_integral(self, data):
        g = data.draw(algebras("ABCD"))
        g = data.draw(st.sampled_from((g, scaled(g, HALF), scaled(g, -3))))
        coords = data.draw(st.lists(st.integers(-9, 9), min_size=g.dim, max_size=g.dim))
        rows = indexfrob._kirillov_rows(g, coords)
        M = eval_kirillov(g, [Fraction(c) for c in coords])
        assert {(i, j): v for i, row in enumerate(rows) for j, v in row.items()} == M.entries
        kind = int if g.integral else Fraction
        assert all(type(v) is kind for row in rows for v in row.values())

    def test_length_mismatch(self):
        g = make_phi(1)
        with pytest.raises(exactla.DimensionError):
            eval_kirillov(g, (1,))


class TestIndex:
    def test_hexagon_frobenius(self):
        cert = index(build(hexagon_type_c_poset()), seed=0)
        assert cert.index == 0
        assert cert.certified_frobenius
        assert cert.to_json()["claim"] == "exact"

    def test_phi_frobenius(self):
        for n in (1, 2, 3):
            assert index(make_phi(n), seed=0).index == 0

    def test_chain2_gl(self):
        # gl realization carries the central identity matrix: index 1,
        # read off the root block of this two-step algebra.
        g = build(chain_poset(2), "gl")
        cert = index(g, seed=0)
        assert cert.index == 1
        assert not cert.certified_frobenius
        assert cert.trials == 0 and cert.witness == structured_candidate(g)
        assert cert.error_bound is None
        assert cert.to_json()["claim"] == "exact"
        assert "error_bound" not in cert.to_json()

    def test_witnesses_are_int_coordinate_tuples(self):
        # The structured candidate's 0/1 (read off the root block) and a
        # random trial's draws; the JSON pairs are the ints over 1.
        hexagon = build(hexagon_type_c_poset())
        assert structured_candidate(hexagon) == (0, 0, 0, 1, 1, 1)
        for g, trials in ((hexagon, 0), (build(chain_poset(3), "gl"), 3)):
            cert = index(g, seed=0)
            assert cert.trials == trials
            assert type(cert.witness) is tuple and len(cert.witness) == g.dim
            assert all(type(c) is int for c in cert.witness)
            assert cert.to_json()["witness"] == [[c, 1] for c in cert.witness]

    def test_chain3_gl_is_probabilistic_with_schwartz_zippel_bound(self):
        # Three-step, so the trial path: dim 6, d = 6.  The index is
        # positive, so no trial was nonsingular and all three ran.
        g = build(chain_poset(3), "gl")
        cert = index(g, trials=3, entry_bound=10, seed=0)
        assert cert.index == 2 and cert.trials == 3
        assert cert.error_bound == Fraction(6, 21) ** 3
        doc = cert.to_json()
        assert doc["claim"] == "probabilistic-upper-rank"
        assert doc["error_bound"] == "8/343"

    def test_error_bound_uses_largest_even_rank(self):
        # branch gl has odd dim 9, so the rank is at most d = 8.  Entries in
        # {-1, 0, 1} give a vacuous bound, and these trials do undershoot.
        g = build(branch_poset(), "gl")
        assert index(g, seed=0).index == 1
        cert = index(g, trials=2, entry_bound=1, seed=0)
        assert cert.index == 3
        assert cert.to_json()["error_bound"] == "64/9"

    def test_trial_path_frobenius_is_exact_without_bound(self):
        # The first functional is nonsingular, so one of three trials ran.
        g = build(branch_poset(), "sl")
        cert = index(g, seed=0)
        assert cert.index == 0 and cert.trials == 1
        assert cert.to_json()["claim"] == "exact"
        assert cert.error_bound is None and "error_bound" not in cert.to_json()

    def test_algebra_without_cartan_weyl_form_takes_the_trial_path(self):
        # [d, e] = d + e: no root block to read, yet index 0 by trials.
        g = liealg.LieAlg(dim=2, basis_labels=("d", "e"),
                          brackets={(0, 1): {0: ONE, 1: ONE}}, cartan_count=1)
        cert = index(g, seed=0)
        assert cert.index == 0 and cert.trials == 1

    def test_abelian_index_is_dim(self):
        g = build(antichain_poset(3), "gl")
        assert index(g, seed=0).index == 3

    def test_deterministic(self):
        g = build(hexagon_type_c_poset())
        c1 = index(g, seed=17)
        c2 = index(g, seed=17)
        assert c1.to_json() == c2.to_json()

    def test_index_value_stable_across_seeds(self):
        g = build(branch_poset(), "sl")
        values = {index(g, seed=s).index for s in range(5)}
        assert len(values) == 1

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            index(make_phi(1), trials=0)

    @pytest.mark.parametrize("entry_bound", (0, -3))
    def test_bad_entry_bound(self, entry_bound):
        # Checked before any trial: at 0 every trial is the zero functional
        # and the certificate would claim a bound of 512/1, at -3 the draw
        # has an empty range.
        with pytest.raises(ValueError, match="entry_bound must be >= 1"):
            index(build(branch_poset(), "sl"), entry_bound=entry_bound)


def trial_rank(g, trials=3):
    """The largest Kirillov rank over ``trials`` random functionals, ranked
    directly: an oracle for the index that never reads the root block."""
    return max(
        exactla.rank(eval_kirillov(g, indexfrob._random_functional(g.dim, 10**6, 0, t)))
        for t in range(trials)
    )


class TestFamilyProperties:
    """Jacobi, the skew Kirillov rank and a seed-free index on generated
    posets of all four families."""

    @settings(max_examples=100, deadline=None)
    @given(algebras("ABCD"))
    def test_jacobi(self, g):
        assert check_jacobi(g)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_kirillov_rank_is_even(self, data):
        g = data.draw(algebras("ABCD"))
        coords = data.draw(st.lists(st.integers(-9, 9), min_size=g.dim, max_size=g.dim))
        assert exactla.rank(eval_kirillov(g, coords)) % 2 == 0

    @settings(max_examples=100, deadline=None)
    @given(algebras("ABCD"))
    def test_index_is_seed_free(self, g):
        values = {index(g, seed=s).index for s in range(3)}
        assert len(values) == 1

    @settings(max_examples=100, deadline=None)
    @given(algebras("ABCD"))
    def test_exact_index_matches_random_trials_on_two_step(self, g):
        # Two-step decided by the derived series, not by root_block.
        if derived_series(g)[2] > 2:
            return
        cert = index(g, seed=0)
        assert cert.to_json()["claim"] == "exact" and cert.trials == 0
        assert g.dim - cert.index == trial_rank(g)
        assert exactla.rank(eval_kirillov(g, cert.witness)) == g.dim - cert.index


def test_exact_index_matches_random_trials_on_height_one():
    # Every height-one class of sizes 1-7, gl and sl: all two-step.
    for g in HEIGHT_ONE:
        cert = index(g, seed=0)
        assert cert.trials == 0 and cert.to_json()["claim"] == "exact"
        assert g.dim - cert.index == trial_rank(g)
        assert exactla.rank(eval_kirillov(g, cert.witness)) == g.dim - cert.index


def exact_index(g, trials=3, entry_bound=10**6, seed=0):
    """index with every random trial ranked exactly over Q, as
    exactla.rank(eval_kirillov(g, f)): the oracle for the trials ranked mod
    p.  The root-block path ranks nothing at random and is index's own."""
    if g.root_block is not None:
        return index(g, trials, entry_bound, seed)
    best_rank, best_witness = -1, None
    for trial in range(trials):
        f = indexfrob._random_functional(g.dim, entry_bound, seed, trial)
        r = exactla.rank(eval_kirillov(g, f))
        if r > best_rank:
            best_rank, best_witness = r, f
        if best_rank == g.dim:
            break
    return indexfrob.IndexCertificate(index=g.dim - best_rank, witness=best_witness,
                                      trials=trial + 1, entry_bound=entry_bound, seed=seed)


CHAINS = [build(chain_poset(N), v) for N in range(1, 9) for v in ("gl", "sl")]
MERSENNE = [(1 << e) - 1 for e in indexfrob.MERSENNE_EXPONENTS]


def coefficient_bound(g):
    """C = prod a_i over the nonzero rows i of the Kirillov matrix, where
    a_i = sum_j sum_k |c_ijk|, read through g.structure."""
    C = 1
    for i in range(g.dim):
        a = sum(abs(v) for j in range(g.dim) for v in g.structure(i, j).values())
        C *= a or 1
    return C


def scaled(g, c):
    """g with every structure constant times c, still a Lie algebra."""
    return dataclasses.replace(g, brackets={
        key: {k: c * v for k, v in vec.items()} for key, vec in g.brackets.items()
    })


@st.composite
def connected_height_one(draw):
    """A connected family-A poset of height one on 2..12 elements: minimal
    elements 1..k below maximal ones k+1..n along a random spanning tree of
    the bipartite graph, plus up to 8 more relations."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    lows, highs = [1], [k + 1]
    relations = {(1, k + 1)}
    for v in draw(st.permutations([*range(2, k + 1), *range(k + 2, n + 1)])):
        if v <= k:
            relations.add((v, draw(st.sampled_from(highs))))
            lows.append(v)
        else:
            relations.add((draw(st.sampled_from(lows)), v))
            highs.append(v)
    pairs = [(a, b) for a in range(1, k + 1) for b in range(k + 1, n + 1)]
    relations |= set(draw(st.lists(st.sampled_from(pairs), max_size=8)))
    return posets.make_poset(range(1, n + 1), relations, "A")


def closed_form_index(P, variant):
    """|E(Hasse)| - |V| + 1 in sl, one more in gl: B is the incidence
    matrix of the connected Hasse graph on the Cartan, of rank |V| - 1."""
    return len(posets.hasse(P)) - len(P.elements) + (1 if variant == "sl" else 2)


class TestClosedFormIndex:
    """The index of a connected height-one algebra from its Hasse diagram,
    with no elimination: it pins dim - 2 rank(B) on the int root block."""

    @pytest.mark.parametrize("size", range(1, 9))
    def test_every_height_one_class(self, size):
        for P in posets.enumerate_height_one(size):
            for variant in ("gl", "sl"):
                cert = index(build(P, variant), seed=0)
                assert cert.trials == 0 and cert.index == closed_form_index(P, variant)

    @settings(max_examples=100, deadline=None)
    @given(connected_height_one(), st.sampled_from(("gl", "sl")))
    def test_generated_connected_height_one(self, P, variant):
        assert height(P) == 1 and posets.hasse_graph_properties(P)["connected"]
        cert = index(build(P, variant), seed=0)
        assert cert.trials == 0 and cert.index == closed_form_index(P, variant)


class TestModularTrials:
    """index ranks its random trials mod p; the certificates must be those
    of the exact trials."""

    @staticmethod
    def _check(g, **kw):
        for seed in (0, 1):
            cert = index(g, seed=seed, **kw)
            assert cert == exact_index(g, seed=seed, **kw)
            if cert.certified_frobenius:
                assert exactla.rank(eval_kirillov(g, cert.witness)) == g.dim

    @pytest.mark.parametrize("kw", ({}, {"trials": 2, "entry_bound": 3}))
    def test_equals_exact_trials_on_height_one_and_chains(self, kw):
        for g in HEIGHT_ONE + CHAINS:
            self._check(g, **kw)

    @settings(max_examples=100, deadline=None)
    @given(algebras("ABCD"), st.sampled_from(({}, {"trials": 2, "entry_bound": 3})))
    def test_equals_exact_trials_on_generated(self, g, kw):
        self._check(g, **kw)

    def test_listed_moduli_pass_a_fermat_test(self):
        assert all(pow(3, p - 1, p) == 1 for p in MERSENNE)

    @staticmethod
    def _check_modulus(g, entry_bound):
        floor = max(coefficient_bound(g), 2 * entry_bound + 1)
        p = indexfrob._modulus(g, entry_bound)
        assert p in MERSENNE and p > floor
        assert all(q <= floor for q in MERSENNE if q < p)
        return p

    @settings(max_examples=100, deadline=None)
    @given(algebras("ABCD"), st.sampled_from((1, 3, 10**6, 2**100, 2**1000)))
    def test_modulus_is_smallest_listed_prime_above_both_bounds(self, g, entry_bound):
        self._check_modulus(g, entry_bound)

    def test_modulus_above_the_coefficient_bound_of_chains(self):
        # From chain 7 on, C exceeds 2^61, so the coefficients pick p.
        primes = {self._check_modulus(g, 10**6) for g in CHAINS}
        assert {2**61 - 1, 2**89 - 1, 2**107 - 1} <= primes

    def test_no_modulus_for_a_fraction_constant(self):
        g = scaled(build(chain_poset(4), "gl"), HALF)
        assert not g.integral and indexfrob._modulus(g, 10**6) is None
        self._check(g)
        self._check(g, trials=2, entry_bound=3)

    def test_no_modulus_above_the_largest_listed_prime(self):
        g = build(chain_poset(4), "gl")
        assert indexfrob._modulus(g, 2**1300) is None
        self._check(g, entry_bound=2**1300)

    def test_large_coefficients_pick_a_larger_prime(self):
        g = scaled(build(chain_poset(4), "gl"), 2**31)
        assert coefficient_bound(g) > 2**61
        assert indexfrob._modulus(g, 10**6) >= 2**89 - 1
        self._check(g)
        self._check(g, trials=2, entry_bound=3)


class TestFrobeniusFunctional:
    """The functional ``frobenius_spectrum`` picks."""

    def test_structured_preferred(self):
        g = build(hexagon_type_c_poset())
        f = frobenius_spectrum(g, index(g, seed=0))[0]
        assert f == structured_candidate(g)

    def test_none_when_not_frobenius(self):
        g = build(antichain_poset(2), "gl")
        with pytest.raises(NotFrobeniusError):
            frobenius_spectrum(g, index(g, seed=0))

    def test_certificate_witness_stands_in_for_trials(self):
        # The structured candidate of branch (sl) is singular, so the
        # certificate's witness, index's first full-rank trial, is returned.
        g = build(branch_poset(), "sl")
        assert exactla.rank(eval_kirillov(g, structured_candidate(g))) < g.dim
        for seed in range(5):
            cert = index(g, trials=3, entry_bound=50, seed=seed)
            assert cert.certified_frobenius
            f = frobenius_spectrum(g, cert)[0]
            assert f == cert.witness
            assert exactla.rank(eval_kirillov(g, f)) == g.dim


def _evaluate(f, vec):
    """f(vec) for a functional given by its coordinates."""
    return sum(c * v for c, v in zip(f, vec))


class TestPrincipalElement:
    def test_phi(self):
        for n in (1, 2, 4):
            g = make_phi(n)
            f = structured_candidate(g)
            assert principal_element(g, f) == [ONE] * n + [ZERO] * n

    def test_hexagon_half_sum(self):
        g = build(hexagon_type_c_poset())
        f = structured_candidate(g)
        p = principal_element(g, f)
        assert p == [HALF, HALF, HALF, ZERO, ZERO, ZERO]

    def test_defining_identity(self):
        # f([p, x]) = f(x) on every basis vector
        for g in (build(hexagon_type_c_poset()), make_phi(3)):
            f = frobenius_spectrum(g, index(g, seed=0))[0]
            p = principal_element(g, f)
            for j in range(g.dim):
                x = liealg.basis_vector(g, j)
                assert _evaluate(f, liealg.bracket(g, p, x)) == _evaluate(f, x)

    def test_requires_frobenius(self):
        g = build(antichain_poset(2), "gl")
        with pytest.raises(NotFrobeniusError):
            principal_element(g, (1, 1))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_singular_branch_against_the_inverse(self, data):
        # Functionals in [-1, 1]^dim are often singular.  NotFrobeniusError
        # exactly when the Kirillov matrix is; otherwise p = -M^{-1} f, the
        # formula of the inversion that the [M | f] elimination replaced.
        g = data.draw(algebras("ABCDP"))
        f = tuple(data.draw(st.lists(st.integers(-1, 1), min_size=g.dim, max_size=g.dim)))
        M = eval_kirillov(g, f)
        if exactla.rank(M) < g.dim:
            with pytest.raises(NotFrobeniusError):
                principal_element(g, f)
        else:
            assert principal_element(g, f) == [-v for v in invert(M).mat_vec(f)]
        for wrong in (f[:-1], f + (1,)):
            with pytest.raises(exactla.DimensionError):
                principal_element(g, wrong)

    @staticmethod
    def _check_against_oracle(g):
        # The certificate's witness is the structured candidate on two-step
        # algebras, so a random functional is checked too when nonsingular.
        cert = index(g, seed=0)
        if cert.index != 0 or not g.dim:
            return False
        functionals = {frobenius_spectrum(g, cert)[0], cert.witness}
        f = indexfrob._random_functional(g.dim, 10**6, 0, 0)
        if exactla.rank(eval_kirillov(g, f)) == g.dim:
            functionals.add(f)
        for f in functionals:
            assert principal_element(g, f) == principal_element_oracle(g, f)
        return True

    def test_matches_rank_and_solve_on_height_one(self):
        assert sum(self._check_against_oracle(g) for g in HEIGHT_ONE) > 0

    @settings(max_examples=60, deadline=None)
    @given(valid_algebras())
    def test_matches_rank_and_solve_on_generated(self, g):
        self._check_against_oracle(g)


class TestSpectrum:
    def test_phi(self):
        for n in range(1, 6):
            g = make_phi(n)
            sp = spectrum(g, principal_element(g, structured_candidate(g)))
            assert sp.binary
            assert (sp.multiplicity_of_0, sp.multiplicity_of_1) == (n, n)
            assert sp.principal_element == [ONE] * n + [ZERO] * n

    def test_hexagon(self):
        g = build(hexagon_type_c_poset())
        sp = spectrum(g, principal_element(g, structured_candidate(g)))
        # x^3 (x-1)^3
        assert sp.binary
        assert (sp.multiplicity_of_0, sp.multiplicity_of_1) == (3, 3)
        assert sp.char_poly == [0, 0, 0, -1, 3, -3, 1]

    @pytest.mark.parametrize("length", (3, 5))
    def test_length_mismatch(self, length):
        g = make_phi(2)
        with pytest.raises(exactla.DimensionError):
            spectrum(g, [ONE] * length)

    def test_zero_root(self):
        # e2 commutes with everything: x_t = [h, x_t] / alpha_t(h) fails.
        g = dataclasses.replace(make_phi(2), brackets={(0, 2): {2: ONE}})
        with pytest.raises(ValueError, match="root of e2 is zero"):
            spectrum(g, [ONE, ONE, ZERO, ZERO])


class TestFrobeniusSpectrum:
    @staticmethod
    def _check_against_functional_then_spectrum(g):
        # The structured candidate when its Kirillov matrix has full rank,
        # else the certificate's witness, with spectrum() of it.
        cert = index(g, seed=0)
        if not g.dim:
            return False
        if cert.index != 0:
            with pytest.raises(NotFrobeniusError):
                frobenius_spectrum(g, cert)
            return False
        f, sp = frobenius_spectrum(g, cert)
        cand = structured_candidate(g)
        assert f == (cand if exactla.rank(eval_kirillov(g, cand)) == g.dim else cert.witness)
        assert sp == spectrum(g, principal_element(g, f))
        return True

    def test_matches_functional_then_spectrum_on_height_one_and_branch(self):
        # Both branches occur: nonsingular candidates (every height-one
        # class) and a singular one that falls back to the witness (branch sl).
        corpus = HEIGHT_ONE + [build(branch_poset(), "sl")]
        checked = [g for g in corpus if self._check_against_functional_then_spectrum(g)]
        singular = [g for g in checked
                    if exactla.rank(eval_kirillov(g, structured_candidate(g))) < g.dim]
        assert singular and len(singular) < len(checked)

    @settings(max_examples=40, deadline=None)
    @given(valid_algebras())
    def test_matches_functional_then_spectrum_on_generated(self, g):
        self._check_against_functional_then_spectrum(g)


class TestBlockForm:
    """The root block, ``g.root_block``."""

    def test_hexagon(self):
        g = build(hexagon_type_c_poset())
        B = g.root_block
        assert B.n_rows == 3 and B.n_cols == 3
        t = g.basis_labels.index("e[-2,1]+e[-1,2]") - g.cartan_count
        col = [B.entries.get((k, t), ZERO) for k in range(3)]
        assert col == [ONE, ONE, ZERO]

    def test_cached(self):
        g = build(hexagon_type_c_poset())
        assert g.root_block is g.root_block

    def test_three_step_rejected(self):
        assert build(chain_poset(3), "sl").root_block is None

    def test_non_eigenvector_has_none(self):
        # [d, e] = d + e: e is not an ad(d)-eigenvector, so no root block.
        g = liealg.LieAlg(
            dim=2, basis_labels=("d", "e"), brackets={(0, 1): {0: ONE, 1: ONE}},
            cartan_count=1,
        )
        assert g.root_block is None
        assert index(g, seed=0).index == 0
        with pytest.raises(BlockFormError):
            normalize_to_phi(g)

    @staticmethod
    def _check_against_derived_series(g):
        # The root block decides two-step exactly as the derived series does.
        if derived_series(g)[2] > 2:
            assert g.root_block is None
            return
        B = g.root_block
        cc = g.cartan_count
        assert (B.n_rows, B.n_cols) == (cc, g.dim - cc)
        for t in g.root_indices():
            assert [B[(k, t - cc)] for k in range(cc)] == list(g.roots[t])

    def test_matches_derived_series_on_height_one(self):
        for g in HEIGHT_ONE:
            self._check_against_derived_series(g)

    @settings(max_examples=100, deadline=None)
    @given(valid_algebras())
    def test_matches_derived_series_on_generated(self, g):
        self._check_against_derived_series(g)


class TestNormalize:
    def test_chain2_sl(self):
        g = build(chain_poset(2), "sl")
        res = normalize_to_phi(g)
        assert res.n == 1 and res.verified
        # d = h/2 since [h, e] = 2e for the traceless Cartan generator
        assert res.change_of_basis.entries[(0, 0)] == HALF

    def test_hexagon(self):
        g = build(hexagon_type_c_poset())
        res = normalize_to_phi(g)
        assert res.n == 3 and res.verified

    def test_not_frobenius_rejected(self):
        with pytest.raises(NotFrobeniusError):
            g = build(chain_poset(2), "gl")
            normalize_to_phi(g)

    def test_not_two_step_rejected(self):
        # the three-element chain in sl is Frobenius but three-step
        g = build(chain_poset(3), "sl")
        if index(g, seed=0).index == 0:
            with pytest.raises(BlockFormError):
                normalize_to_phi(g)

    def test_frobenius_three_step_rejected(self):
        # 1 < 2 < 3 and 2 < 4 in sl: index 0, but [e12, e23] = e13.
        P = posets.make_poset([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4), (1, 3), (1, 4)], "A")
        g = build(P, "sl")
        cert = index(g, seed=0)
        assert cert.index == 0 and derived_series(g)[2] == 3
        with pytest.raises(BlockFormError):
            normalize_to_phi(g)

    def test_dim_zero_rejected(self):
        # The one-element poset in sl has dimension 0 and index 0; it is not
        # two-step and there is no normal form Phi_0.
        g = build(chain_poset(1), "sl")
        cert = index(g, seed=0)
        assert g.dim == 0 and cert.index == 0
        with pytest.raises(BlockFormError, match="no root vector"):
            normalize_to_phi(g)

    def test_phi_fixed_point(self):
        g = make_phi(2)
        res = normalize_to_phi(g)
        assert res.change_of_basis == identity(4)

    def test_singular_square_root_block_rejected(self):
        # e1 and e2 share the root alpha = (1, 0): B = [[1, 1], [0, 0]] is
        # square but singular, so the index is 4 - 2 rank(B) = 2.
        g = liealg.LieAlg(
            dim=4, basis_labels=("h1", "h2", "e1", "e2"),
            brackets={(0, 2): {2: ONE}, (0, 3): {3: ONE}}, cartan_count=2,
        )
        B = g.root_block
        assert (B.n_rows, B.n_cols) == (2, 2) and exactla.rank(B) == 1
        assert index(g, seed=0).index == 2
        with pytest.raises(NotFrobeniusError, match="singular"):
            normalize_to_phi(g)

    @staticmethod
    def _check_decides_frobenius(g):
        # The inversion of the root block decides Frobenius exactly as the
        # index does; the zero algebra, of index 0 and with no root vector,
        # is rejected as not two-step.  Returns whether g was normalized.
        if g.root_block is None:
            return False
        if not g.dim:
            with pytest.raises(BlockFormError, match="no root vector"):
                normalize_to_phi(g)
            return False
        if index(g, seed=0).index != 0:
            with pytest.raises(NotFrobeniusError):
                normalize_to_phi(g)
            return False
        res = normalize_to_phi(g)
        assert res.verified and 2 * res.n == g.dim
        return True

    @staticmethod
    def _check_against_inverse(g):
        # P is the inverse of the root block B transposed on the Cartan
        # block and the identity on the root block, with B inverted by the
        # dense oracle, and scaled = scale * P entry by entry.  Returns whether
        # g was normalized.
        try:
            res = normalize_to_phi(g)
        except (BlockFormError, NotFrobeniusError):
            return False
        n = res.n
        C = invert(g.root_block)
        want = exactla.SparseMat(g.dim, g.dim, {(k, i): v for (i, k), v in C.entries.items()}
                                 | {(n + i, n + i): 1 for i in range(n)})
        assert res.change_of_basis == want
        assert res.change_of_basis is res.change_of_basis
        assert type(res.scale) is int and res.scale > 0
        assert all(type(v) is int for v in res.scaled.entries.values())
        assert res.scaled.entries.keys() == want.entries.keys()
        assert all(v == res.scale * want[k] for k, v in res.scaled.entries.items())
        return True

    def test_change_of_basis_is_the_inverse_on_height_one_up_to_8(self):
        normalized = [self._check_against_inverse(g) for g in HEIGHT_ONE] + [
            self._check_against_inverse(build(P, variant))
            for P in posets.enumerate_height_one(8) for variant in ("gl", "sl")]
        assert sum(normalized) == 86

    @settings(max_examples=100, deadline=None)
    @given(algebras("BCD"))
    def test_change_of_basis_is_the_inverse_on_generated(self, g):
        self._check_against_inverse(g)

    @settings(max_examples=100, deadline=None)
    @given(frobenius_bcd_algebras())
    def test_change_of_basis_is_the_inverse_on_generated_frobenius_bcd(self, g):
        assert self._check_against_inverse(g)

    def test_change_of_basis_is_the_inverse_on_small_bcd(self):
        assert sum(map(self._check_against_inverse, small_bcd_algebras())) == 39

    def test_succeeds_exactly_at_index_zero_on_height_one(self):
        normalized = [self._check_decides_frobenius(g) for g in HEIGHT_ONE]
        assert any(normalized) and not all(normalized)

    @settings(max_examples=100, deadline=None)
    @given(algebras("ABCD"))
    def test_succeeds_exactly_at_index_zero_on_generated(self, g):
        self._check_decides_frobenius(g)


def root_block_oracles(g, entry_bound=10**6, seed=0):
    """The index certificate and normal form of a two-step g as computed
    before ``g.root_echelon`` was shared: rank(B) by its own elimination,
    and the inverse of B from a fresh one of [B | I]; None for the normal
    form where ``normalize_to_phi`` raises."""
    B = g.root_block
    n = B.n_cols
    cert = indexfrob.IndexCertificate(index=g.dim - 2 * exactla.rank(B),
                                      witness=structured_candidate(g), trials=0,
                                      entry_bound=entry_bound, seed=seed)
    if B.n_rows != n or not n:
        return cert, None
    rows = B.row_dicts()
    for i in range(n):
        rows[i][n + i] = 1
    pivots, red = exactla._elim._echelon(rows, reduce_full=True)
    if pivots[-1] >= n:
        return cert, None
    L = math.lcm(*(red[i][i] for i in range(n)))
    ents = {(c - n, i): v * (L // red[i][i]) for i in range(n) for c, v in red[i].items() if c >= n}
    ents |= {(i, i): L for i in range(n, g.dim)}
    LP = exactla.SparseMat(g.dim, g.dim, ents)
    verified = indexfrob._verify_isomorphism(g, LP, L, make_phi(n))
    return cert, indexfrob.NormalizeResult(n=n, scaled=LP, scale=L, verified=verified)


class TestRootEchelon:
    """Index, principal element and normal form of a two-step algebra, all
    read off the one elimination ``g.root_echelon``, against independent
    routes: ``principal_element`` at the structured candidate, and the
    root block ranked and inverted on its own."""

    @staticmethod
    def _check(g):
        """Returns whether g is two-step and Frobenius."""
        if g.root_block is None:
            assert g.root_echelon is None
            return False
        TestRootEchelon._check_echelon(g)
        cert, normal = root_block_oracles(g)
        assert index(g, seed=0) == cert
        if normal is None:
            with pytest.raises((BlockFormError, NotFrobeniusError)):
                normalize_to_phi(g)
        else:
            assert normalize_to_phi(g) == normal
        if not (g.dim and cert.index == 0):
            return False
        f, sp = frobenius_spectrum(g, cert)
        want = principal_element(g, structured_candidate(g))
        assert f == structured_candidate(g)
        assert sp.principal_element == want
        assert list(map(type, sp.principal_element)) == list(map(type, want))
        assert sp == spectrum(g, want)
        return True

    @staticmethod
    def _check_echelon(g):
        """``g.root_echelon`` of a c x m root block B of any shape: its
        pivots below column m count rank B (against the dense oracle), each
        row's smallest column is its pivot, and a square B keeps the
        reduced form of [B | I]: pivots, rows and key order."""
        B = g.root_block
        c, m = B.n_rows, B.n_cols
        pivots, rows = g.root_echelon
        dense = [[B[i, j] for j in range(m)] for i in range(c)]
        assert bisect.bisect_left(pivots, m) == dense_rank_oracle(dense)
        assert sorted(rows) == pivots and all(min(rows[p]) == p for p in pivots)
        if c == m:
            aug = B.row_dicts()
            for i in range(c):
                aug[i][m + i] = 1
            want_pivots, want_rows = exactla._elim._echelon(aug, reduce_full=True)
            assert pivots == want_pivots
            assert [(p, list(r.items())) for p, r in rows.items()] == \
                [(p, list(r.items())) for p, r in want_rows.items()]

    def test_height_one_up_to_8(self):
        corpus = HEIGHT_ONE + [build(P, variant) for P in posets.enumerate_height_one(8)
                               for variant in ("gl", "sl")]
        assert sum(map(self._check, corpus)) == 86

    def test_phi(self):
        assert all(self._check(make_phi(n)) for n in range(1, 9))

    def test_named_bcd(self):
        bcd = [build(P, variant) for P, variant in NAMED.values() if P.family in "BCD"]
        checked = list(map(self._check, bcd))
        assert len(bcd) == 4 and any(checked)

    @settings(max_examples=100, deadline=None)
    @given(algebras("BCD"))
    def test_generated_bcd(self, g):
        self._check(g)

    @settings(max_examples=100, deadline=None)
    @given(frobenius_bcd_algebras())
    def test_generated_frobenius_bcd(self, g):
        assert self._check(g)

    def test_fraction_coordinates_keep_their_type(self):
        # The star's principal element has denominators 2, 3 and 6; Phi_n's
        # is all ints.
        star = build(posets.make_poset(range(1, 7), [(i, 6) for i in range(1, 6)], "A"), "sl")
        assert self._check(star)
        p = frobenius_spectrum(star, index(star, seed=0))[1].principal_element
        assert p == [Fraction(k, 6) for k in range(1, 6)] + [0] * 5
        assert all(type(c) is int for c in frobenius_spectrum(make_phi(3), None)[1].principal_element)

    def test_shared_and_left_unmodified(self):
        g = build(hexagon_type_c_poset())
        echelon = g.root_echelon
        snapshot = (list(echelon[0]), {p: dict(row) for p, row in echelon[1].items()})
        index(g, seed=0)
        frobenius_spectrum(g, index(g, seed=0))
        normalize_to_phi(g)
        assert g.root_echelon is echelon
        assert (echelon[0], echelon[1]) == snapshot

    def test_every_root_block_shape(self):
        # chain 2 gl's B is 2 x 1 of rank 1: [B | I] pivots on B's column
        # and on one column of I.  The one-element posets have a 1 x 0
        # (gl) and a 0 x 0 (sl) root block.
        g = build(chain_poset(2), "gl")
        assert (g.root_block.n_rows, g.root_block.n_cols) == (2, 1)
        assert g.root_echelon[0] == [0, 1] and index(g, seed=0).index == 1
        self._check(g)
        for variant, shape in (("gl", (1, 0)), ("sl", (0, 0))):
            g = build(chain_poset(1), variant)
            assert (g.root_block.n_rows, g.root_block.n_cols) == shape
            self._check(g)


class TestCompose:
    def test_hexagon_vs_phi3(self):
        g1 = build(hexagon_type_c_poset())
        g2 = make_phi(3)
        r1 = normalize_to_phi(g1)
        r2 = normalize_to_phi(g2)
        M, ok = compose_isomorphism(g1, r1, g2, r2)
        assert ok
        assert exactla.rank(M) == 6

    def test_broken_change_of_basis_fails(self):
        # Doubling the d_1 column keeps P invertible but breaks
        # [d_1, e_1] = e_1, so the composed map no longer intertwines.
        g1 = build(hexagon_type_c_poset())
        g2 = make_phi(3)
        r1 = normalize_to_phi(g1)
        r2 = normalize_to_phi(g2)
        P = r2.scaled
        doubled = exactla.SparseMat(P.n_rows, P.n_cols, {
            (i, j): 2 * v if j == 0 else v for (i, j), v in P.entries.items()
        })
        M, ok = compose_isomorphism(
            g1, r1, g2, dataclasses.replace(r2, scaled=doubled)
        )
        assert not ok
        assert exactla.rank(M) == 6

    def test_singular_change_of_basis_fails(self):
        # Zeroing the e_1 column leaves a homomorphism, which the bracket
        # check alone accepts, but no isomorphism: the rank check refuses it.
        g1 = build(hexagon_type_c_poset())
        g2 = make_phi(3)
        r1 = normalize_to_phi(g1)
        r2 = normalize_to_phi(g2)
        P = r2.scaled
        zeroed = dataclasses.replace(r2, scaled=exactla.SparseMat(
            P.n_rows, P.n_cols, {k: v for k, v in P.entries.items() if k[1] != r2.n}))
        M, ok = compose_isomorphism(g1, r1, g2, zeroed)
        assert ok is False
        assert exactla.rank(M) == 5
        assert indexfrob._verify_isomorphism(g2, *scaled_matrix(M), g1) is True

    @staticmethod
    def _check_against_inverse(corpus):
        """compose_isomorphism on every ordered pair of equal-dimension
        Frobenius algebras of ``corpus``: ok, and M == P2 P1^{-1} with P1
        inverted by the dense oracle, as the map was formed before it was
        read off the root block.  Returns the number of pairs."""
        normalized = []
        for g in corpus:
            try:
                r = normalize_to_phi(g)
            except (BlockFormError, NotFrobeniusError):
                continue
            normalized.append((g, r, invert(r.change_of_basis)))
        pairs = 0
        for (g1, r1, P1_inv), (g2, r2, _) in itertools.product(normalized, repeat=2):
            if g1.dim == g2.dim:
                M, ok = compose_isomorphism(g1, r1, g2, r2)
                assert ok is True
                assert M == r2.change_of_basis.matmul(P1_inv)
                pairs += 1
        return pairs

    def test_direct_map_is_the_inverse_route(self):
        corpus = (HEIGHT_ONE + [make_phi(n) for n in range(1, 7)]
                  + [build(hexagon_type_c_poset())])
        # Ordered pairs, each algebra with itself included.
        assert self._check_against_inverse(corpus) == 737

    def test_direct_map_is_the_inverse_route_on_small_bcd(self):
        # Across the families too: B, C and D algebras of equal dim, with
        # Phi_1..Phi_3 beside them.
        corpus = small_bcd_algebras() + [make_phi(n) for n in (1, 2, 3)]
        assert self._check_against_inverse(corpus) == 1254

    @settings(max_examples=100, deadline=None)
    @given(algebras("BCD"))
    def test_direct_map_is_the_inverse_route_on_generated(self, g):
        # g with itself, and with Phi_n both ways when g is Frobenius.
        corpus = [g]
        if g.dim and g.dim % 2 == 0:
            corpus.append(make_phi(g.dim // 2))
        self._check_against_inverse(corpus)

    @settings(max_examples=100, deadline=None)
    @given(frobenius_bcd_algebras())
    def test_direct_map_is_the_inverse_route_on_generated_frobenius_bcd(self, g):
        # g and Phi_n, each with itself and with the other.
        assert self._check_against_inverse([g, make_phi(g.dim // 2)]) == 4

    def test_mismatched_n(self):
        r1 = normalize_to_phi(make_phi(1))
        r2 = normalize_to_phi(make_phi(2))
        with pytest.raises(ValueError):
            compose_isomorphism(make_phi(1), r1, make_phi(2), r2)
