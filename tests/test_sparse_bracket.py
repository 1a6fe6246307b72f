"""The structure operations on sparse vectors against the dense formulas
they replaced, and ``indexfrob.spectrum`` against Faddeev-LeVerrier on the
dense ad(p).

``derived_series`` brackets ``{index: coefficient}`` vectors through
``liealg._bracket``; ``check_jacobi`` and ``indexfrob._verify_isomorphism``
scatter the stored brackets once.  The oracles below are the earlier
dense versions: every vector is a full coordinate list, bracketed by the
dense walk over ``adjacency``.  Both sides must agree exactly on random
valid posets of families A-D, on every height-one class up to size 7, on
doctored copies with one bracket coefficient perturbed, on which the
Jacobi identity, solvability and the isomorphism onto the normal form can
fail, and on messy copies whose stored vectors carry explicit zeros or
are empty.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieposet import exactla, indexfrob, liealg, posets
from lieposet.exactla import SparseMat
from oracles import ONE, ZERO, char_poly, factor_binary, scaled
from strategies import algebras
from test_exactla import dense_rank_oracle

HEIGHT_ONE = [
    liealg.build(P, variant)
    for n in range(1, 8)
    for P in posets.enumerate_height_one(n)
    for variant in ("gl", "sl")
]


def dense_bracket(g, x, y):
    out = [ZERO] * g.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, vec in g.adjacency[i].items():
            yj = y[j]
            if yj:
                c = xi * yj if i < j else -xi * yj
                for k, v in vec.items():
                    out[k] += c * v
    return out


def jacobi_oracle(g):
    basis = [liealg.basis_vector(g, i) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                s = dense_bracket(g, basis[i], dense_bracket(g, basis[j], basis[k]))
                t = dense_bracket(g, basis[j], dense_bracket(g, basis[k], basis[i]))
                u = dense_bracket(g, basis[k], dense_bracket(g, basis[i], basis[j]))
                if any(a + b + c for a, b, c in zip(s, t, u)):
                    return False
    return True


def span_oracle(g, vectors):
    rows = [{i: v for i, v in enumerate(vec) if v} for vec in vectors]
    pivots, red = exactla._elim.eliminate(rows, reduce_full=True)
    basis = []
    for p in pivots:
        vec = [ZERO] * g.dim
        for c, v in red[p].items():
            vec[c] = v
        basis.append(tuple(vec))
    return liealg.Subspace(ambient_dim=g.dim, basis=tuple(basis))


def derived_series_oracle(g):
    series = [span_oracle(g, [liealg.basis_vector(g, i) for i in range(g.dim)])]
    while series[-1].dim:
        prev = series[-1].basis
        gens = []
        for i in range(len(prev)):
            for j in range(i + 1, len(prev)):
                gens.append(dense_bracket(g, prev[i], prev[j]))
        series.append(span_oracle(g, gens))
        if series[-1].dim >= series[-2].dim and series[-1].dim:
            raise liealg.LieAlgError("derived series does not decrease: not solvable")
    derived_length = len(series) - 2 if g.dim else 0
    return series, max(derived_length, 0), max(derived_length, 0) + 1


def ad_matrix_oracle(g, v):
    ents = {}
    for j in range(g.dim):
        col = dense_bracket(g, v, liealg.basis_vector(g, j))
        for i, c in enumerate(col):
            if c:
                ents[(i, j)] = c
    return SparseMat(g.dim, g.dim, ents)


def verify_isomorphism_oracle(g, P, h):
    cols = [[ZERO] * P.n_rows for _ in range(P.n_cols)]
    for (i, j), v in P.entries.items():
        cols[j][i] = v
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            lhs = dense_bracket(g, cols[i], cols[j])
            rhs = [ZERO] * g.dim
            for k, c in h.structure(i, j).items():
                for r in range(g.dim):
                    rhs[r] += c * cols[k][r]
            if lhs != rhs:
                return False
    return True


def outcome(fn, *args):
    """fn's result, or the type and message of the LieAlgError it raised."""
    try:
        return fn(*args)
    except liealg.LieAlgError as e:
        return type(e), str(e)


def doctor(g, rng):
    """A copy of g whose one bracket coefficient, at a random pair and
    basis index, is moved by +-1 or +-2 (a zero result is dropped)."""
    pair = rng.choice(sorted(g.brackets))
    vec = dict(g.brackets[pair])
    k = rng.randrange(g.dim)
    vec[k] = vec.get(k, ZERO) + rng.choice((-2, -1, 1, 2))
    brackets = dict(g.brackets)
    brackets[pair] = {m: vec[m] for m in sorted(vec) if vec[m]}
    return dataclasses.replace(g, brackets=brackets, realization=None)


def doctored_height_one():
    rng = random.Random(15)
    return [doctor(g, rng) for g in HEIGHT_ONE if g.brackets]


def messy(g):
    """A copy of g with the same brackets in untidy dicts: the pairs in
    reverse order, an explicit zero coefficient at the first free basis
    index of each bracket, and an empty vector for the first commuting
    pair."""
    brackets = {}
    for pair in reversed(list(g.brackets)):
        vec = g.brackets[pair]
        free = [k for k in range(g.dim) if k not in vec]
        brackets[pair] = {free[0]: 0, **vec} if free else dict(vec)
    commuting = [p for p in itertools.combinations(range(g.dim), 2) if p not in brackets]
    if commuting:
        brackets[commuting[0]] = {}
    return dataclasses.replace(g, brackets=brackets, realization=None)


@st.composite
def doctored(draw, g):
    return doctor(g, random.Random(draw(st.integers(0, 2**32))))


class TestJacobi:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_dense_on_generated(self, data):
        g = data.draw(algebras("ABCD"))
        assert liealg.check_jacobi(g) is jacobi_oracle(g) is True
        assert liealg.check_jacobi(messy(g)) is True
        if g.brackets:
            d = data.draw(doctored(g))
            assert liealg.check_jacobi(d) is jacobi_oracle(d)
            assert liealg.check_jacobi(messy(d)) is jacobi_oracle(d)

    def test_height_one_satisfies_it(self):
        for g in HEIGHT_ONE:
            assert liealg.check_jacobi(g)

    def test_matches_dense_on_doctored_height_one(self):
        verdicts = []
        for d in doctored_height_one():
            verdicts.append(liealg.check_jacobi(d))
            assert verdicts[-1] is jacobi_oracle(d)
        # A doctored copy may still be a Lie algebra; both verdicts occur.
        assert True in verdicts and False in verdicts

    def test_matches_dense_on_messy_height_one(self):
        # check_jacobi scatters the stored bracket vectors as they stand, so
        # their order, explicit zeros and empty vectors must not change it.
        verdicts = set()
        for g in HEIGHT_ONE + doctored_height_one():
            verdicts.add(liealg.check_jacobi(messy(g)))
            assert liealg.check_jacobi(messy(g)) is liealg.check_jacobi(g) is jacobi_oracle(g)
        assert verdicts == {True, False}


class TestDerivedSeries:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_dense_on_generated(self, data):
        g = data.draw(algebras("ABCD"))
        assert outcome(liealg.derived_series, g) == outcome(derived_series_oracle, g)
        if g.brackets:
            d = data.draw(doctored(g))
            assert outcome(liealg.derived_series, d) == outcome(derived_series_oracle, d)

    def test_matches_dense_on_height_one(self):
        for g in HEIGHT_ONE:
            assert outcome(liealg.derived_series, g) == outcome(derived_series_oracle, g)

    def test_matches_dense_on_doctored_height_one(self):
        for d in doctored_height_one():
            assert outcome(liealg.derived_series, d) == outcome(derived_series_oracle, d)

    def test_matches_dense_on_messy_height_one(self):
        # derived_series spans g^1 from the stored bracket vectors as they
        # stand, so their order, explicit zeros and empty vectors must not
        # change the series.
        shapes = set()
        for g in HEIGHT_ONE + doctored_height_one():
            m = messy(g)
            shapes.update(
                ("zero" if 0 in vec.values() else "empty" if not vec else "nonzero")
                for vec in m.brackets.values())
            assert outcome(liealg.derived_series, m) == outcome(derived_series_oracle, g)
            assert outcome(liealg.derived_series, m) == outcome(liealg.derived_series, g)
        assert {"zero", "empty"} <= shapes

    def test_non_unit_basis_is_bracketed(self, monkeypatch):
        # h, a, b, c with [h, a] = a, [h, b] = b, [h, c] = 2c, [a, b] = c,
        # in the basis (h, a + h, b, c): g^1 is spanned by (-1, 1, 0, 0),
        # b and c, so g^2 comes from brackets of a non-unit basis.
        g = liealg.LieAlg(
            dim=4, basis_labels=("h", "a+h", "b", "c"), cartan_count=1,
            brackets={(0, 1): {0: -1, 1: 1}, (0, 2): {2: 1}, (0, 3): {3: 2},
                      (1, 2): {2: 1, 3: 1}, (1, 3): {3: 2}},
        )
        assert liealg.check_jacobi(g)
        pairs = []
        bracket = liealg._bracket
        monkeypatch.setattr(liealg, "_bracket", lambda g, x, y: pairs.append((x, y)) or bracket(g, x, y))
        series, dl, ks = liealg.derived_series(g)
        assert pairs and any(len(x) > 1 for pair in pairs for x in pair)
        assert (series, dl, ks) == derived_series_oracle(g)
        assert [s.dim for s in series] == [4, 3, 1, 0]
        assert series[1].basis[0] == (1, -1, 0, 0)

    def test_bases_are_dense_tuples(self):
        series, _, _ = liealg.derived_series(liealg.build(posets.chain_poset(4), "gl"))
        for s in series:
            for vec in s.basis:
                assert type(vec) is tuple and len(vec) == s.ambient_dim
                assert all(type(c) is int for c in vec)

    def test_does_not_decrease(self):
        sl2 = liealg.LieAlg(
            dim=3, basis_labels=("h", "e", "f"), cartan_count=1,
            brackets={(0, 1): {1: Fraction(2)}, (0, 2): {2: Fraction(-2)}, (1, 2): {0: ONE}},
        )
        assert liealg.check_jacobi(sl2)
        want = (liealg.LieAlgError, "derived series does not decrease: not solvable")
        assert outcome(liealg.derived_series, sl2) == outcome(derived_series_oracle, sl2) == want


def vectors(dim):
    coeff = st.one_of(st.just(ZERO), st.fractions(min_value=-9, max_value=9, max_denominator=7))
    return st.lists(coeff, min_size=dim, max_size=dim)


def spectrum_oracle(g, p):
    """The SpectrumRecord of p from Faddeev-LeVerrier on the dense ad(p)."""
    cp = char_poly(ad_matrix_oracle(g, p))
    a, b, residual = factor_binary(cp)
    return indexfrob.SpectrumRecord(
        principal_element=p,
        char_poly=cp,
        multiplicity_of_0=a,
        multiplicity_of_1=b,
        binary=len(residual) <= 1,
        residual_factor=residual,
    )


def check_spectrum(g, p):
    got, want = indexfrob.spectrum(g, p), spectrum_oracle(g, p)
    for field in dataclasses.fields(indexfrob.SpectrumRecord):
        assert getattr(got, field.name) == getattr(want, field.name), field.name
    assert all(type(c) in (int, Fraction) for c in got.char_poly + got.residual_factor)
    if got.binary:
        # Every root value is 0 or 1, an int: the expansion ran on ints.
        assert all(type(c) is int for c in got.char_poly)
    return got


def principal_elements(g):
    """The principal elements of the structured candidate and of the index
    certificate's witness, those of the two that are Frobenius."""
    out = []
    for f in {indexfrob.structured_candidate(g), indexfrob.index(g, seed=0).witness}:
        try:
            out.append(indexfrob.principal_element(g, f))
        except indexfrob.NotFrobeniusError:
            pass
    return out


def random_element(g, rng):
    return [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(g.dim)]


class TestSpectrum:
    """The closed form read off the roots against Faddeev-LeVerrier on the
    dense ad(p), at random p (root-vector parts included) and at the
    principal elements."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_dense_on_generated(self, data):
        g = data.draw(algebras("ABCD"))
        for p in [data.draw(vectors(g.dim))] + principal_elements(g):
            check_spectrum(g, p)

    def test_matches_dense_on_height_one(self):
        rng = random.Random(11)
        binary = 0
        for g in HEIGHT_ONE:
            for p in [random_element(g, rng)] + principal_elements(g):
                binary += check_spectrum(g, p).binary
        assert binary

    def test_matches_dense_on_named(self):
        rng = random.Random(5)
        named = [liealg.build(P, variant)
                 for P in [posets.chain_poset(n) for n in range(1, 9)] + [posets.branch_poset()]
                 for variant in ("gl", "sl")]
        named.append(liealg.build(posets.hexagon_type_c_poset()))
        for g in named:
            nilpotent = [ZERO] * g.cartan_count + random_element(g, rng)[g.cartan_count:]
            for p in [random_element(g, rng), nilpotent] + principal_elements(g):
                check_spectrum(g, p)


@settings(max_examples=60, deadline=None)
@given(algebras("ABCD"))
def test_center_against_dense_oracle(g):
    basis = [liealg.basis_vector(g, i) for i in range(g.dim)]
    z = liealg.center(g)
    for v in z.basis:
        assert all(not any(dense_bracket(g, list(v), b)) for b in basis)
    # Row (j, k), column i: the coefficient of x_k in [x_i, x_j].
    brackets = [[dense_bracket(g, x, y) for y in basis] for x in basis]
    stacked = [[brackets[i][j][k] for i in range(g.dim)]
               for j in range(g.dim) for k in range(g.dim)]
    assert z.dim == g.dim - dense_rank_oracle(stacked)


def verify_isomorphism(g, P, h):
    """``indexfrob._verify_isomorphism`` on a rational P, handed over as
    its int multiple L P and L."""
    return indexfrob._verify_isomorphism(g, *scaled(P), h)


class TestVerifyIsomorphism:
    @staticmethod
    def _normalized():
        out = []
        for g in HEIGHT_ONE:
            cert = indexfrob.index(g, seed=0)
            if g.dim and cert.index == 0 and g.root_block is not None:
                out.append((g, indexfrob.normalize_to_phi(g)))
        return out

    def test_matches_dense_on_height_one(self):
        rng = random.Random(3)
        normalized = self._normalized()
        assert normalized
        for g, res in normalized:
            P, phi = res.change_of_basis, liealg.make_phi(res.n)
            assert res.verified
            assert verify_isomorphism(g, P, phi) is verify_isomorphism_oracle(g, P, phi)
            ents = dict(P.entries)
            key = (rng.randrange(P.n_rows), rng.randrange(P.n_cols))
            ents[key] = ents.get(key, ZERO) + ONE
            Q = SparseMat(P.n_rows, P.n_cols, ents)
            assert verify_isomorphism(g, Q, phi) is verify_isomorphism_oracle(g, Q, phi)

    def test_rejects_perturbed_change_of_basis(self):
        # d_1 + h_k with alpha_1(h_k) != 0 gives [d_1, e_1] = (1 + alpha_1(h_k)) e_1.
        for g, res in self._normalized():
            P, phi = res.change_of_basis, liealg.make_phi(res.n)
            k = min(k for k, t in g.root_block.entries if t == 0)
            ents = dict(P.entries)
            ents[(k, 0)] = ents.get((k, 0), ZERO) + ONE
            Q = SparseMat(P.n_rows, P.n_cols, ents)
            assert verify_isomorphism(g, Q, phi) is False
            assert verify_isomorphism_oracle(g, Q, phi) is False

    def test_rejects_a_defect_only_h_touches(self):
        # With d_1's column zeroed no stored bracket of g reaches the pair
        # (d_1, e_1), while h's [d_1, e_1] = e_1 maps to e_1 != 0.  Zeroing
        # e_1's column instead leaves a homomorphism, both sides vanishing
        # on every pair it meets, which the check accepts as the oracle
        # does: it tests the brackets, and normalize_to_phi's P is
        # invertible by construction.
        for g, res in self._normalized():
            P, phi = res.change_of_basis, liealg.make_phi(res.n)
            Q = SparseMat(P.n_rows, P.n_cols, {p: v for p, v in P.entries.items() if p[1] != 0})
            assert verify_isomorphism(g, Q, phi) is False
            assert verify_isomorphism_oracle(g, Q, phi) is False
            E = SparseMat(P.n_rows, P.n_cols, {p: v for p, v in P.entries.items() if p[1] != res.n})
            assert verify_isomorphism(g, E, phi) is verify_isomorphism_oracle(g, E, phi) is True

    def test_rejects_a_defect_only_the_left_side_touches(self):
        # d_1 + e_2 gives [d_1 + e_2, d_2] = -alpha_2(d_2) e_2 = -e_2, on the
        # pair (d_1, d_2), which is no stored bracket of the normal form.
        checked = 0
        for g, res in self._normalized():
            n = res.n
            if n < 2:
                continue
            P, phi = res.change_of_basis, liealg.make_phi(n)
            assert (0, 1) not in phi.brackets and (n + 1, 0) not in P.entries
            Q = SparseMat(P.n_rows, P.n_cols, P.entries | {(n + 1, 0): ONE})
            assert verify_isomorphism(g, Q, phi) is False
            assert verify_isomorphism_oracle(g, Q, phi) is False
            checked += 1
        assert checked

    def test_matches_dense_on_messy_height_one(self):
        # Both algebras' stored vectors are scattered as they stand: their
        # order, explicit zeros and empty vectors must not change a verdict.
        rng = random.Random(7)
        verdicts = set()
        for g, res in self._normalized():
            P, phi = res.change_of_basis, liealg.make_phi(res.n)
            ents = dict(P.entries)
            key = (rng.randrange(P.n_rows), rng.randrange(P.n_cols))
            ents[key] = ents.get(key, ZERO) + ONE
            for Q in (P, SparseMat(P.n_rows, P.n_cols, ents)):
                want = verify_isomorphism_oracle(g, Q, phi)
                verdicts.add(want)
                for left, right in ((messy(g), phi), (g, messy(phi)), (messy(g), messy(phi))):
                    assert verify_isomorphism(left, Q, right) is want
        assert verdicts == {True, False}

    def test_matches_dense_on_doctored_height_one(self):
        rng = random.Random(15)
        verdicts = set()
        for g, res in self._normalized():
            if not g.brackets:
                continue
            d = doctor(g, rng)
            P, phi = res.change_of_basis, liealg.make_phi(res.n)
            verdicts.add(verify_isomorphism(d, P, phi))
            assert verify_isomorphism(d, P, phi) is verify_isomorphism_oracle(d, P, phi)
            assert verify_isomorphism(messy(d), P, phi) is verify_isomorphism_oracle(d, P, phi)
        assert False in verdicts

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_dense_on_generated(self, data):
        # g against itself under the identity and a random rational P, and,
        # when g normalizes, against Phi_n under its P, doctored copies too.
        g = data.draw(algebras("ABCDP"))
        cell = st.tuples(st.integers(0, g.dim - 1), st.integers(0, g.dim - 1))
        ents = data.draw(st.dictionaries(
            cell, st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=2 * g.dim))
        for P in (SparseMat(g.dim, g.dim, {(i, i): ONE for i in range(g.dim)}),
                  SparseMat(g.dim, g.dim, ents)):
            want = verify_isomorphism_oracle(g, P, g)
            for left, right in ((g, g), (messy(g), g), (g, messy(g))):
                assert verify_isomorphism(left, P, right) is want
        try:
            res = indexfrob.normalize_to_phi(g)
        except (indexfrob.BlockFormError, indexfrob.NotFrobeniusError):
            return
        P, phi = res.change_of_basis, liealg.make_phi(res.n)
        assert verify_isomorphism(g, P, phi) is verify_isomorphism_oracle(g, P, phi) is True
        if g.brackets:
            d = data.draw(doctored(g))
            assert verify_isomorphism(d, P, phi) is verify_isomorphism_oracle(d, P, phi)

    def test_composition_matches_dense(self):
        by_n = {}
        for g, res in self._normalized():
            by_n.setdefault(res.n, []).append((g, res))
        for pairs in by_n.values():
            for (g1, r1), (g2, r2) in zip(pairs, pairs[1:]):
                M, ok = indexfrob.compose_isomorphism(g1, r1, g2, r2)
                assert ok is verify_isomorphism_oracle(g2, M, g1) is True


@pytest.mark.parametrize("x, y, want", [
    ({}, {0: ONE}, {}),
    ({0: ONE}, {1: ONE}, {1: ONE}),
    ({1: ONE}, {0: 2 * ONE}, {1: -2 * ONE}),
    # [d + e, d + e] = e - e: the cancelled coefficient leaves no entry.
    ({0: ONE, 1: ONE}, {0: ONE, 1: ONE}, {}),
])
def test_sparse_bracket_drops_zeros(x, y, want):
    g = liealg.make_phi(1)  # basis (d, e), [d, e] = e
    assert liealg._bracket(g, x, y) == want
    assert liealg.bracket(g, [x.get(k, ZERO) for k in range(2)],
                          [y.get(k, ZERO) for k in range(2)]) == [want.get(k, ZERO) for k in range(2)]
