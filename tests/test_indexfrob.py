from fractions import Fraction

import pytest

from lieposet import exactla, indexfrob, liealg
from lieposet.exactla import ONE, ZERO
from lieposet.indexfrob import (
    BlockFormError,
    Functional,
    NotFrobeniusError,
    block_form,
    compose_isomorphism,
    eval_kirillov,
    frobenius_functional,
    index,
    normalize_to_phi,
    principal_element,
    spectrum,
    structured_candidate,
)
from lieposet.liealg import build, make_phi
from lieposet.posets import (
    antichain_poset,
    chain_poset,
    branch_poset,
    hexagon_type_c_poset,
)

HALF = Fraction(1, 2)


class TestKirillov:
    def test_skew(self):
        g = build(hexagon_type_c_poset())
        f = Functional.from_list(range(1, g.dim + 1))
        M = eval_kirillov(g, f)
        assert M.is_skew_symmetric()

    def test_entries(self):
        g = make_phi(1)
        f = Functional.from_list([0, 5])
        M = eval_kirillov(g, f)
        # f([d, e]) = f(e) = 5
        assert M.entries == {(0, 1): Fraction(5), (1, 0): Fraction(-5)}

    def test_length_mismatch(self):
        g = make_phi(1)
        with pytest.raises(exactla.DimensionError):
            eval_kirillov(g, Functional.from_list([1]))


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
        # gl realization carries the central identity matrix: index 1
        cert = index(build(chain_poset(2), "gl"), seed=0)
        assert cert.index == 1
        assert not cert.certified_frobenius
        assert cert.to_json()["claim"] == "probabilistic-upper-rank"

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


class TestFrobeniusFunctional:
    def test_structured_preferred(self):
        g = build(hexagon_type_c_poset())
        f = frobenius_functional(g, seed=0)
        assert f == structured_candidate(g)

    def test_none_when_not_frobenius(self):
        g = build(antichain_poset(2), "gl")
        assert frobenius_functional(g, seed=0) is None

    def test_certificate_witness_stands_in_for_trials(self):
        # The structured candidate of branch (sl) is singular, so a random
        # trial is returned: the same one with or without the certificate.
        g = build(branch_poset(), "sl")
        assert exactla.rank(eval_kirillov(g, structured_candidate(g))) < g.dim
        for seed in range(5):
            cert = index(g, trials=3, entry_bound=50, seed=seed)
            assert cert.certified_frobenius
            want = frobenius_functional(g, trials=3, entry_bound=50, seed=seed)
            got = frobenius_functional(
                g, trials=3, entry_bound=50, seed=seed, certificate=cert
            )
            assert got == want == cert.witness

    def test_certificate_of_other_parameters_ignored(self):
        g = build(branch_poset(), "sl")
        cert = index(g, seed=1)
        f = frobenius_functional(g, seed=2, certificate=cert)
        assert f == frobenius_functional(g, seed=2) != cert.witness


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
            f = frobenius_functional(g, seed=0)
            p = principal_element(g, f)
            for j in range(g.dim):
                x = liealg.basis_vector(g, j)
                assert f(liealg.bracket(g, p, x)) == f(x)

    def test_requires_frobenius(self):
        g = build(antichain_poset(2), "gl")
        with pytest.raises(NotFrobeniusError):
            principal_element(g, Functional.from_list([1, 1]))


class TestSpectrum:
    def test_phi(self):
        for n in range(1, 6):
            g = make_phi(n)
            sp = spectrum(g, structured_candidate(g))
            assert sp.binary
            assert (sp.multiplicity_of_0, sp.multiplicity_of_1) == (n, n)
            assert sp.principal_element == [ONE] * n + [ZERO] * n

    def test_hexagon(self):
        g = build(hexagon_type_c_poset())
        sp = spectrum(g, structured_candidate(g))
        # x^3 (x-1)^3
        assert sp.binary
        assert (sp.multiplicity_of_0, sp.multiplicity_of_1) == (3, 3)
        assert sp.char_poly == [0, 0, 0, -1, 3, -3, 1]
        assert sp.principal_element == principal_element(g, structured_candidate(g))


class TestBlockForm:
    def test_hexagon(self):
        g = build(hexagon_type_c_poset())
        bf = block_form(g)
        assert bf.is_block
        assert bf.B.n_rows == 3 and bf.B.n_cols == 3
        t = g.basis_labels.index("e[-2,1]+e[-1,2]") - g.cartan_count
        col = [bf.B.entries.get((k, t), ZERO) for k in range(3)]
        assert col == [ONE, ONE, ZERO]

    def test_three_step_rejected(self):
        with pytest.raises(BlockFormError):
            block_form(build(chain_poset(3), "sl"))


class TestNormalize:
    def test_chain2_sl(self):
        g = build(chain_poset(2), "sl")
        res = normalize_to_phi(g, seed=0)
        assert res.n == 1 and res.verified
        # d = h/2 since [h, e] = 2e for the traceless Cartan generator
        assert res.change_of_basis.entries[(0, 0)] == HALF

    def test_hexagon(self):
        res = normalize_to_phi(build(hexagon_type_c_poset()), seed=0)
        assert res.n == 3 and res.verified

    def test_not_frobenius_rejected(self):
        with pytest.raises(NotFrobeniusError):
            normalize_to_phi(build(chain_poset(2), "gl"), seed=0)

    def test_not_two_step_rejected(self):
        # the three-element chain in sl is Frobenius but three-step
        g = build(chain_poset(3), "sl")
        if index(g, seed=0).index == 0:
            with pytest.raises(BlockFormError):
                normalize_to_phi(g, seed=0)

    def test_phi_fixed_point(self):
        g = make_phi(2)
        res = normalize_to_phi(g, seed=0)
        assert res.change_of_basis == exactla.SparseMat.identity(4)


class TestCompose:
    def test_hexagon_vs_phi3(self):
        g1 = build(hexagon_type_c_poset())
        g2 = make_phi(3)
        r1 = normalize_to_phi(g1, seed=0)
        r2 = normalize_to_phi(g2, seed=0)
        M, ok = compose_isomorphism(g1, r1, g2, r2)
        assert ok
        assert exactla.rank(M) == 6

    def test_mismatched_n(self):
        r1 = normalize_to_phi(make_phi(1), seed=0)
        r2 = normalize_to_phi(make_phi(2), seed=0)
        with pytest.raises(ValueError):
            compose_isomorphism(make_phi(1), r1, make_phi(2), r2)
