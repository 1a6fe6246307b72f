import itertools
import json
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieposet import posets
from lieposet.posets import (
    GuardError,
    PosetError,
    chain_poset,
    enumerate_height_one,
    branch_poset,
    hasse,
    hasse_graph_properties,
    hexagon_type_c_poset,
    make_poset,
    nerve,
    parse_poset,
    transitive_closure,
    validate_family,
)
from oracles import antichain_poset, complex_dimension, height
from strategies import valid_posets


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

    @pytest.mark.parametrize("elements, relations, message", (
        ([1, 2], [[1, 2], [2, 1]], "cycle through 1 and 2"),
        ([1, 2, 3], [[2, 3], [3, 1], [1, 2]], "cycle through 1 and 2"),
        ([1, 2, 3, 4], [[1, 2], [4, 3], [3, 2], [2, 4]], "cycle through 2 and 3"),
    ), ids=("2-cycle", "3-cycle", "3-cycle-above-1"))
    def test_cycle_names_smallest_pair(self, elements, relations, message):
        # The closure of a cycle holds (a, a) for every a on it; the message
        # names the lexicographically smallest pair a != b with both (a, b)
        # and (b, a) in the closure.
        with pytest.raises(PosetError) as info:
            parse_poset({"family": "A", "elements": elements, "relations": relations})
        assert str(info.value) == message

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

    def test_repeated_element_rejected(self):
        # A repeated label is not merged into one element.
        with pytest.raises(PosetError, match="distinct"):
            parse_poset({"family": "A", "elements": [1, 2, 2], "relations": [[1, 2]]})
        with pytest.raises(PosetError, match="distinct"):
            parse_poset({"family": "C", "elements": [-1, 1, 1], "relations": []})

    @pytest.mark.parametrize("family", "BCD")
    def test_huge_label_rejected_in_little_memory(self, family):
        # Two labels are never a B, C or D label set, so the count rejects
        # them before a range up to the largest label is built.
        doc = {"family": family, "elements": [1, 10**6], "relations": []}
        tracemalloc.start()
        try:
            with pytest.raises(PosetError, match="wrong shape"):
                parse_poset(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=14))))
    def test_matches_networkx_reachability(self, case):
        # Any relation, cycles and loops included: (a, b) is in the closure
        # exactly when a path of length >= 1 leads from a to b.
        n, pairs = case
        G = nx.DiGraph(pairs)
        G.add_nodes_from(range(1, n + 1))
        reach = {a: nx.descendants(G, a) for a in G}
        want = {(a, b) for a in G for b in reach[a]} | {
            (a, a) for a in G if any(s == a or a in reach[s] for s in G.successors(a))}
        assert transitive_closure(range(1, n + 1), pairs) == want


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

    def test_odd_cycle(self):
        # 1<2<3<4 and 1<5<4: the Hasse diagram is a 5-cycle.
        P = make_poset([1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (1, 5), (5, 4)], "A")
        assert hasse_graph_properties(P) == _nx_properties(P) == {
            "connected": True,
            "acyclic": False,
            "bipartite": False,
        }

    def test_disconnected_cycle(self):
        P = make_poset([1, 2, 3, 4, 5], [(1, 2), (1, 3), (2, 4), (3, 4)], "A")
        assert hasse_graph_properties(P) == _nx_properties(P) == {
            "connected": False,
            "acyclic": False,
            "bipartite": True,
        }

    def test_matches_networkx_on_family_a(self):
        # Every order-compatible poset on 1..n, n <= 5: each transitively
        # closed set of pairs (a, b) with a < b.
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for bits in range(1 << len(pairs)):
                rel = {pairs[t] for t in range(len(pairs)) if bits >> t & 1}
                if transitive_closure(range(1, n + 1), rel) != rel:
                    continue
                P = make_poset(range(1, n + 1), rel, "A")
                assert hasse_graph_properties(P) == _nx_properties(P)

    def test_matches_networkx_on_height_one_classes(self):
        for n in range(1, 8):
            for P in enumerate_height_one(n):
                assert hasse_graph_properties(P) == _nx_properties(P)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from("BCD").flatmap(valid_posets))
    def test_matches_networkx_on_bcd(self, P):
        assert hasse_graph_properties(P) == _nx_properties(P)


def _nx_properties(P):
    G = nx.Graph()
    G.add_nodes_from(P.elements)
    G.add_edges_from(hasse(P))
    return {
        "connected": nx.is_connected(G),
        "acyclic": nx.is_forest(G),
        "bipartite": nx.is_bipartite(G),
    }


class TestNerve:
    def test_branch(self):
        levels = nerve(branch_poset())
        assert len(levels) == 3
        assert (len(levels[0]), len(levels[1])) == (4, 5)
        assert levels[2] == ((1, 2, 3), (1, 2, 4))

    def test_hexagon(self):
        levels = nerve(hexagon_type_c_poset())
        assert len(levels) == 2
        assert (len(levels[0]), len(levels[1])) == (6, 6)

    def test_singleton(self):
        assert nerve(make_poset([1], [], "A")) == (((1,),),)

    def test_faces_closed_and_edge_count(self):
        for P in (branch_poset(), chain_poset(4), hexagon_type_c_poset()):
            levels = nerve(P)
            assert len(levels[1]) == len(P.relation)
            for k in range(1, complex_dimension(levels) + 1):
                lower = set(levels[k - 1])
                for s in levels[k]:
                    for i in range(len(s)):
                        assert s[:i] + s[i + 1 :] in lower


class TestEnumerate:
    def test_small_counts(self):
        # OEIS A007776; the oracles below confirm them for n <= 6.
        counts = [len(enumerate_height_one(n)) for n in range(1, 9)]
        assert counts == [1, 1, 2, 4, 10, 27, 88, 328]

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

    def test_component_connectivity_matches_networkx(self):
        # Laid out as enumeration lays it out: minimal a is vertex a,
        # maximal b is vertex k + b, and the BFS starts at vertex 0.
        for k, m in itertools.product(range(1, 5), repeat=2):
            if k + m > 5:
                continue
            cells = [(a, b) for a in range(k) for b in range(m)]
            for bits in range(1 << len(cells)):
                edges = [cells[t] for t in range(len(cells)) if bits >> t & 1]
                G = nx.Graph()
                G.add_nodes_from(range(k + m))
                G.add_edges_from((a, k + b) for a, b in edges)
                nbrs = posets._neighbour_masks(k + m, [(a, k + b) for a, b in edges])
                even, odd = posets._component_sides(nbrs, 0)
                component = nx.node_connected_component(G, 0)
                assert even | odd == sum(1 << v for v in component)
                assert even & ~((1 << k) - 1) == 0 and odd & ((1 << k) - 1) == 0
                assert (even | odd == (1 << (k + m)) - 1) == nx.is_connected(G)

    def test_no_isomorphic_pair(self):
        for n in range(1, 8):
            for group in _classes_by_degrees(n).values():
                for G, H in itertools.combinations(group, 2):
                    assert not nx.is_isomorphic(G, H, node_match=_SAME_SIDE)

    def test_complete(self):
        # Every connected labeled height-one poset on n elements, minimal
        # elements 1..k, is isomorphic to exactly one class.
        for n in range(2, 7):
            classes = _classes_by_degrees(n)
            for k in range(1, n):
                cells = [(a, b) for a in range(1, k + 1) for b in range(k + 1, n + 1)]
                for bits in range(1 << len(cells)):
                    edges = [cells[t] for t in range(len(cells)) if bits >> t & 1]
                    G = _side_graph(range(1, n + 1), edges)
                    if not nx.is_connected(G):
                        continue
                    matches = [
                        H for H in classes.get(_degrees(G), [])
                        if nx.is_isomorphic(G, H, node_match=_SAME_SIDE)
                    ]
                    assert len(matches) == 1, (n, edges)


_SAME_SIDE = nx.algorithms.isomorphism.categorical_node_match("minimal", None)


def _side_graph(elements, edges):
    """Undirected Hasse diagram with each vertex marked minimal or not."""
    upper = {b for _, b in edges}
    G = nx.Graph()
    G.add_nodes_from((e, {"minimal": e not in upper}) for e in elements)
    G.add_edges_from(edges)
    return G


def _degrees(G):
    """The sorted (side, degree) pairs: the split and both degree sequences."""
    return tuple(sorted((side, G.degree(v)) for v, side in G.nodes(data="minimal")))


def _classes_by_degrees(n):
    classes = {}
    for P in enumerate_height_one(n):
        G = _side_graph(P.elements, hasse(P))
        classes.setdefault(_degrees(G), []).append(G)
    return classes
