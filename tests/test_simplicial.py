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
