import itertools
import json

import networkx as nx
import pytest

from lieposet import posets
from lieposet.posets import (
    GuardError,
    PosetError,
    antichain_poset,
    chain_poset,
    enumerate_height_one,
    branch_poset,
    hasse,
    hasse_graph_properties,
    height,
    hexagon_type_c_poset,
    make_poset,
    nerve,
    parse_poset,
    transitive_closure,
    validate_family,
)


class TestParse:
    def test_branch(self):
        doc = json.dumps(
            {"family": "A", "elements": [1, 2, 3, 4], "relations": [[1, 2], [2, 3], [2, 4]]}
        )
        P = parse_poset(doc)
        assert sorted(P.relation) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
        assert P.family == "A"

    def test_singleton(self):
        P = parse_poset({"family": "A", "elements": [1], "relations": []})
        assert P.elements == (1,)
        assert not P.relation

    def test_cycle_rejected(self):
        with pytest.raises(PosetError, match="cycle"):
            parse_poset({"family": "A", "elements": [1, 2], "relations": [[1, 2], [2, 1]]})

    def test_empty_rejected(self):
        with pytest.raises(PosetError):
            parse_poset({"family": "A", "elements": [], "relations": []})

    def test_bad_shape_for_family(self):
        with pytest.raises(PosetError, match="shape"):
            parse_poset({"family": "A", "elements": [2, 3], "relations": []})
        with pytest.raises(PosetError, match="shape"):
            parse_poset({"family": "C", "elements": [-1, 0, 1], "relations": []})
        # B requires the 0 element
        with pytest.raises(PosetError, match="shape"):
            parse_poset({"family": "B", "elements": [-1, 1], "relations": []})

    def test_malformed(self):
        with pytest.raises(PosetError):
            parse_poset("not json {")
        with pytest.raises(PosetError):
            parse_poset({"family": "A", "elements": [1]})
        with pytest.raises(PosetError):
            parse_poset({"family": "A", "elements": [1], "relations": [[1]]})

    def test_json_booleans_rejected(self):
        # isinstance(True, int) holds, so true would otherwise read as 1.
        with pytest.raises(PosetError, match="elements"):
            parse_poset('{"family": "A", "elements": [true, 2], "relations": []}')
        with pytest.raises(PosetError, match="relations"):
            parse_poset('{"family": "A", "elements": [1, 2], "relations": [[true, 2]]}')
        with pytest.raises(PosetError, match="relations"):
            parse_poset('{"family": "A", "elements": [0, 1], "relations": [[false, 1]]}')


class TestClosure:
    def test_idempotent(self):
        P = branch_poset()
        assert transitive_closure(P.elements, P.relation) == P.relation

    def test_hasse_regenerates(self):
        for P in (branch_poset(), chain_poset(4), hexagon_type_c_poset()):
            assert transitive_closure(P.elements, hasse(P)) == P.relation


class TestValidateFamily:
    def test_hexagon_ok(self):
        assert validate_family(hexagon_type_c_poset()).ok

    def test_type_c_allows_minus_i_below_i(self):
        P = make_poset([-1, 1], [(-1, 1)], "C")
        assert validate_family(P).ok
        # same data as family D violates condition 3
        P = make_poset([-1, 1], [(-1, 1)], "D")
        rep = validate_family(P)
        assert not rep.ok
        assert any(cond == 3 for cond, _ in rep.violations)

    def test_condition_2(self):
        # (-2, -1) respects integer order but breaks mirror symmetry
        P = make_poset([-2, -1, 1, 2], [(-2, -1)], "C")
        rep = validate_family(P)
        assert any(cond == 2 for cond, _ in rep.violations)

    def test_condition_1_violation(self):
        # family C poset with a relation descending in integer order is
        # rejected at condition 1 (build it via the dataclass directly,
        # since make_poset only checks label shape)
        P = posets.Poset(
            elements=(-2, -1, 1, 2),
            relation=frozenset({(2, 1), (-1, -2)}),
            family="C",
        )
        rep = validate_family(P)
        assert any(cond == 1 for cond, _ in rep.violations)

    def test_family_a_always_ok(self):
        assert validate_family(branch_poset()).ok


class TestHeightHasse:
    def test_antichain(self):
        assert height(antichain_poset(3)) == 0
        assert hasse(antichain_poset(3)) == frozenset()

    def test_branch(self):
        assert height(branch_poset()) == 2
        assert hasse(branch_poset()) == frozenset({(1, 2), (2, 3), (2, 4)})

    def test_chain(self):
        assert hasse(chain_poset(3)) == frozenset({(1, 2), (2, 3)})

    def test_hexagon_height_one(self):
        assert height(hexagon_type_c_poset()) == 1


class TestGraphProperties:
    def test_branch_tree(self):
        assert hasse_graph_properties(branch_poset()) == {
            "connected": True,
            "acyclic": True,
            "bipartite": True,
        }

    def test_hexagon_cycle(self):
        props = hasse_graph_properties(hexagon_type_c_poset())
        assert props["connected"] and props["bipartite"] and not props["acyclic"]

    def test_disconnected(self):
        P = make_poset([1, 2, 3, 4], [(1, 2), (3, 4)], "A")
        assert not hasse_graph_properties(P)["connected"]


class TestNerve:
    def test_branch(self):
        c = nerve(branch_poset())
        assert c.n_simplices(0) == 4
        assert c.n_simplices(1) == 5
        assert sorted(c.simplices_by_dim[2]) == [(1, 2, 3), (1, 2, 4)]
        assert c.n_simplices(3) == 0

    def test_hexagon(self):
        c = nerve(hexagon_type_c_poset())
        assert c.n_simplices(0) == 6
        assert c.n_simplices(1) == 6
        assert c.n_simplices(2) == 0

    def test_singleton(self):
        c = nerve(make_poset([1], [], "A"))
        assert c.simplices_by_dim == (((1,),),)

    def test_faces_closed_and_edge_count(self):
        for P in (branch_poset(), chain_poset(4), hexagon_type_c_poset()):
            c = nerve(P)
            assert c.n_simplices(1) == len(P.relation)
            for k in range(1, c.dimension + 1):
                lower = set(c.simplices_by_dim[k - 1])
                for s in c.simplices_by_dim[k]:
                    for i in range(len(s)):
                        assert s[:i] + s[i + 1 :] in lower


class TestEnumerate:
    def test_small_counts(self):
        assert len(enumerate_height_one(2)) == 1
        assert len(enumerate_height_one(3)) == 2
        # frozen golden value, confirmed by the exhaustive oracle below
        assert len(enumerate_height_one(4)) == 4

    def test_guard(self):
        with pytest.raises(GuardError):
            enumerate_height_one(9)
        with pytest.raises(GuardError):
            enumerate_height_one(0)

    def test_labels_respect_order(self):
        for P in enumerate_height_one(5):
            for a, b in P.relation:
                assert a <= b
            assert height(P) == 1
            assert hasse_graph_properties(P)["connected"]

    def test_bitmask_connectivity_matches_networkx(self):
        for k, m in itertools.product(range(1, 5), repeat=2):
            if k + m > 5:
                continue
            cells = [(a, b) for a in range(k) for b in range(m)]
            for bits in range(1 << len(cells)):
                edges = [cells[t] for t in range(len(cells)) if bits >> t & 1]
                G = nx.Graph()
                G.add_nodes_from(("u", a) for a in range(k))
                G.add_nodes_from(("v", b) for b in range(m))
                G.add_edges_from((("u", a), ("v", b)) for a, b in edges)
                assert posets._bipartite_connected(edges, k, m) == nx.is_connected(G)

    def test_no_isomorphic_pair(self):
        # brute-force check over all bipartition-respecting bijections
        for n in (4, 5):
            classes = enumerate_height_one(n)
            for P, Q in itertools.combinations(classes, 2):
                assert not _isomorphic(P, Q)


def _isomorphic(P, Q):
    p_min = sorted(e for e in P.elements if not any(b == e for (_, b) in P.relation))
    q_min = sorted(e for e in Q.elements if not any(b == e for (_, b) in Q.relation))
    p_max = sorted(set(P.elements) - set(p_min))
    q_max = sorted(set(Q.elements) - set(q_min))
    if (len(p_min), len(p_max)) != (len(q_min), len(q_max)):
        return False
    for pi in itertools.permutations(q_min):
        for pj in itertools.permutations(q_max):
            send = dict(zip(p_min, pi)) | dict(zip(p_max, pj))
            if {(send[a], send[b]) for a, b in P.relation} == set(Q.relation):
                return True
    return False
