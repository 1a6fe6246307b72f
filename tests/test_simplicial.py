from hypothesis import given, settings
from hypothesis import strategies as st

from lieposet.posets import (
    chain_poset,
    branch_poset,
    hexagon_type_c_poset,
    make_poset,
    nerve,
)
from lieposet.simplicial import simplicial_cohomology_dim
from oracles import (
    antichain_poset,
    coboundary_matrices,
    complex_dimension,
    euler_characteristic,
)
from strategies import valid_posets
from test_exactla import dense_rank_oracle


class TestCoboundaries:
    def test_delta_squared_zero(self):
        for P in (branch_poset(), chain_poset(4), hexagon_type_c_poset()):
            deltas = coboundary_matrices(P)
            for d0, d1 in zip(deltas, deltas[1:]):
                assert not d1.matmul(d0).entries

    def test_chain_shapes(self):
        # chain on 3 elements: full 2-simplex, so 3 vertices, 3 edges, 1 face
        deltas = coboundary_matrices(chain_poset(3))
        assert (deltas[0].n_rows, deltas[0].n_cols) == (3, 3)
        assert (deltas[1].n_rows, deltas[1].n_cols) == (1, 3)


class TestCohomology:
    def test_contractible_chain(self):
        for N in (1, 2, 3, 4):
            P = chain_poset(N)
            assert simplicial_cohomology_dim(P, 0) == 1
            assert simplicial_cohomology_dim(P, 1) == 0
            assert simplicial_cohomology_dim(P, 2) == 0

    def test_branch_contractible(self):
        P = branch_poset()
        assert simplicial_cohomology_dim(P, 0) == 1
        assert simplicial_cohomology_dim(P, 1) == 0
        assert simplicial_cohomology_dim(P, 2) == 0

    def test_hexagon_is_a_circle(self):
        P = hexagon_type_c_poset()
        assert simplicial_cohomology_dim(P, 0) == 1
        assert simplicial_cohomology_dim(P, 1) == 1
        assert simplicial_cohomology_dim(P, 2) == 0

    def test_antichain_components(self):
        assert simplicial_cohomology_dim(antichain_poset(3), 0) == 3

    def test_disconnected(self):
        P = make_poset([1, 2, 3, 4], [(1, 2), (3, 4)], "A")
        assert simplicial_cohomology_dim(P, 0) == 2

    def test_degree_above_nerve_is_zero(self):
        # The nerve of a 2-chain is an edge: no 3-simplices, so H^3 = 0.
        assert simplicial_cohomology_dim(chain_poset(2), 3) == 0


def dense_rank(M):
    return dense_rank_oracle([[M[i, j] for j in range(M.n_cols)] for i in range(M.n_rows)])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from("ABCD").flatmap(valid_posets))
def test_dims_match_the_coboundary_oracle(P):
    # dim H^k = dim C^k - rank delta^k - rank delta^(k-1), with every delta
    # assembled and ranked by the test oracles, at k = -1..top+1.
    levels = nerve(P)
    ranks = [0] + [dense_rank(d) for d in coboundary_matrices(P)] + [0]
    for k in range(-1, len(levels) + 1):
        n_k = len(levels[k]) if 0 <= k < len(levels) else 0
        want = n_k - ranks[k + 1] - ranks[k] if n_k else 0
        assert simplicial_cohomology_dim(P, k) == want


class TestEuler:
    def test_matches_betti_alternating_sum(self):
        # chain_poset(N)'s nerve is the (N - 1)-simplex.
        for P in (branch_poset(), chain_poset(3), chain_poset(5), chain_poset(6),
                  hexagon_type_c_poset(), antichain_poset(4)):
            top = complex_dimension(nerve(P))
            betti = [simplicial_cohomology_dim(P, k) for k in range(top + 1)]
            assert euler_characteristic(P) == sum((-1) ** k * b for k, b in enumerate(betti))

    def test_values(self):
        assert euler_characteristic(branch_poset()) == 1
        assert euler_characteristic(hexagon_type_c_poset()) == 0
