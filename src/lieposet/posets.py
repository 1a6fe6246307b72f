"""Finite posets with integer labels and a family tag (A, B, C, D).

Relations are stored strictly and transitively closed.  Families B, C, D
carry extra axioms on the signed label set (order-compatibility with the
integers, mirror symmetry, and no -i below i); those are checked by
``validate_family`` as data, not raised as errors.
"""

import itertools
import json
from dataclasses import dataclass

import networkx as nx

FAMILIES = ("A", "B", "C", "D")

ENUM_GUARD = 8  # brute-force isomorphism rejection only scales this far


class PosetError(ValueError):
    """Malformed poset input (bad document, bad labels, cycle)."""


class GuardError(ValueError):
    """Size guard exceeded."""


@dataclass(frozen=True)
class Poset:
    elements: tuple
    relation: frozenset  # strict, transitively closed pairs (a, b): a < b
    family: str

    def __len__(self):
        return len(self.elements)

    def less(self, a, b):
        return (a, b) in self.relation

    def successors(self, a):
        return sorted(b for (x, b) in self.relation if x == a)

    @property
    def n(self):
        """Rank n for signed families (B: 2n+1 elements, C/D: 2n)."""
        return max(abs(e) for e in self.elements)


@dataclass(frozen=True)
class SimplicialComplex:
    """Order complex: k-simplices are strictly increasing (k+1)-chains."""

    simplices_by_dim: tuple  # tuple of tuples of vertex tuples

    def n_simplices(self, k):
        if 0 <= k < len(self.simplices_by_dim):
            return len(self.simplices_by_dim[k])
        return 0

    @property
    def dimension(self):
        return len(self.simplices_by_dim) - 1


def transitive_closure(elements, pairs):
    succ = {e: set() for e in elements}
    for a, b in pairs:
        succ[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in elements:
            extra = set()
            for b in succ[a]:
                extra |= succ[b] - succ[a]
            if extra:
                succ[a] |= extra
                changed = True
    return frozenset((a, b) for a in elements for b in succ[a])


def _expected_elements(family, elements):
    n = max((abs(e) for e in elements), default=0)
    if family == "A":
        return tuple(range(1, len(elements) + 1))
    signed = tuple(e for e in range(-n, n + 1) if e != 0)
    if family == "B":
        return tuple(range(-n, n + 1))
    return signed


def make_poset(elements, relations, family="A"):
    """Build a Poset: validates label shape, closes the relation, rejects cycles."""
    if family not in FAMILIES:
        raise PosetError(f"unknown family {family!r}")
    if not elements:
        raise PosetError("empty poset")
    elements = tuple(sorted(set(elements)))
    if elements != _expected_elements(family, elements):
        raise PosetError(
            f"element set {list(elements)} has the wrong shape for family {family}"
        )
    for a, b in relations:
        if a not in elements or b not in elements:
            raise PosetError(f"relation ({a},{b}) uses unknown elements")
        if a == b:
            raise PosetError(f"reflexive relation ({a},{b}): cycle")
    closed = transitive_closure(elements, relations)
    for a, b in closed:
        if (b, a) in closed or a == b:
            raise PosetError(f"cycle through {a} and {b}")
    return Poset(elements=elements, relation=closed, family=family)


def _is_int(x):
    # JSON true/false arrive as bools, which are ints to isinstance.
    return isinstance(x, int) and not isinstance(x, bool)


def parse_poset(document):
    """Parse the shared JSON poset format (family/elements/relations)."""
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as e:
            raise PosetError(f"invalid JSON: {e}") from e
    else:
        doc = document
    if not isinstance(doc, dict):
        raise PosetError("poset document must be a JSON object")
    missing = {"family", "elements", "relations"} - doc.keys()
    if missing:
        raise PosetError(f"missing fields: {sorted(missing)}")
    elements = doc["elements"]
    relations = doc["relations"]
    if not isinstance(elements, list) or not all(_is_int(e) for e in elements):
        raise PosetError("elements must be an array of integers")
    if not isinstance(relations, list) or not all(
        isinstance(r, list) and len(r) == 2 and all(_is_int(x) for x in r)
        for r in relations
    ):
        raise PosetError("relations must be an array of 2-element integer arrays")
    return make_poset(elements, [tuple(r) for r in relations], doc["family"])


def poset_to_json(P):
    return {
        "family": P.family,
        "elements": list(P.elements),
        "relations": sorted([a, b] for a, b in hasse(P)),
    }


@dataclass(frozen=True)
class FamilyReport:
    ok: bool
    violations: tuple  # (condition number, human-readable witness)


def validate_family(P):
    """Check the defining axioms of P's family; violations are reported, not raised.

    Condition 1: i below j forces i <= j as integers (all families).
    Condition 2: mirror symmetry i below j iff -j below -i, for i != -j (B/C/D).
    Condition 3: -i never below i (B/D only).
    """
    bad = []
    for a, b in sorted(P.relation):
        if a > b:
            bad.append((1, f"{a} below {b} but {a} > {b}"))
    if P.family in ("B", "C", "D"):
        for a, b in sorted(P.relation):
            if a != -b and (-b, -a) not in P.relation:
                bad.append((2, f"{a} below {b} but {-b} not below {-a}"))
    if P.family in ("B", "D"):
        for e in P.elements:
            if e > 0 and (-e, e) in P.relation:
                bad.append((3, f"{-e} below {e}"))
    return FamilyReport(ok=not bad, violations=tuple(bad))


def height(P):
    """Number of edges in a longest chain (0 for antichains)."""
    memo = {}

    def depth(a):
        if a not in memo:
            memo[a] = 1 + max((depth(b) for b in P.successors(a)), default=-1)
        return memo[a]

    return max(depth(a) for a in P.elements)


def hasse(P):
    """Cover pairs: (x, y) with x below y and nothing strictly between."""
    covers = set()
    for a, b in P.relation:
        if not any((a, z) in P.relation and (z, b) in P.relation for z in P.elements):
            covers.add((a, b))
    return frozenset(covers)


def hasse_graph_properties(P):
    G = nx.Graph()
    G.add_nodes_from(P.elements)
    G.add_edges_from(hasse(P))
    return {
        "connected": nx.is_connected(G),
        "acyclic": nx.is_forest(G),
        "bipartite": nx.is_bipartite(G),
    }


def nerve(P):
    """Order complex of P (normalized: strictly increasing chains only)."""
    by_dim = [[(e,) for e in P.elements]]
    current = by_dim[0]
    while True:
        longer = []
        for chain in current:
            for b in P.successors(chain[-1]):
                longer.append(chain + (b,))
        if not longer:
            break
        longer.sort()
        by_dim.append(longer)
        current = longer
    return SimplicialComplex(simplices_by_dim=tuple(tuple(s) for s in by_dim))


# ---------------------------------------------------------------------------
# Enumeration of connected height-one posets (family A) up to isomorphism.
# Isomorphisms respect the minimal/maximal bipartition, which any poset
# isomorphism does; canonical form is the lex-least edge set over the
# invariant-refined relabelings.


def _canonical_bipartite(edges, k, m):
    """Lex-least edge set over Sym(minimals) x Sym(maximals).

    Vertices 0..k-1 are minimal, 0..m-1 maximal (separate index spaces).
    Degree/neighbor-degree invariants prune the permutation search.
    """
    adj_min = [frozenset(b for a, b in edges if a == i) for i in range(k)]
    adj_max = [frozenset(a for a, b in edges if b == j) for j in range(m)]

    def groups(adjs, other_deg):
        inv = [
            (len(nb), tuple(sorted(other_deg[x] for x in nb)))
            for nb in adjs
        ]
        key = {}
        for i, t in enumerate(inv):
            key.setdefault(t, []).append(i)
        return [key[t] for t in sorted(key)]

    deg_min = [len(nb) for nb in adj_min]
    deg_max = [len(nb) for nb in adj_max]
    gmin = groups(adj_min, deg_max)
    gmax = groups(adj_max, deg_min)

    def perms(grouping, size):
        pos = 0
        layout = []
        for grp in grouping:
            layout.append((grp, pos))
            pos += len(grp)
        for combo in itertools.product(
            *[itertools.permutations(grp) for grp, _ in layout]
        ):
            p = [0] * size
            for (grp, start), perm in zip(layout, combo):
                for off, v in enumerate(perm):
                    p[v] = start + off
            yield p

    best = None
    for pmin in perms(gmin, k):
        for pmax in perms(gmax, m):
            relabeled = tuple(sorted((pmin[a], pmax[b]) for a, b in edges))
            if best is None or relabeled < best:
                best = relabeled
    return best


def _bipartite_connected(edges, k, m):
    """Whether the bipartite graph on minimals 0..k-1 and maximals 0..m-1
    with these (minimal, maximal) edges is connected.

    Breadth-first search over neighbour bitmasks: vertex a < k is bit a,
    maximal b is bit k + b.
    """
    nbrs = [0] * (k + m)
    for a, b in edges:
        nbrs[a] |= 1 << (k + b)
        nbrs[k + b] |= 1 << a
    seen = frontier = 1
    while frontier:
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & ~seen
        seen |= frontier
    return seen == (1 << (k + m)) - 1


def enumerate_height_one(n):
    """All connected family-A posets on n elements of height exactly 1
    (the singleton for n = 1), pairwise non-isomorphic, labeled with
    minimal elements first so that i below j implies i <= j.
    """
    if not 1 <= n <= ENUM_GUARD:
        raise GuardError(f"enumerate_height_one supports 1 <= n <= {ENUM_GUARD}")
    if n == 1:
        return [make_poset([1], [], "A")]
    out = []
    for k in range(1, n):
        m = n - k
        cells = [(a, b) for a in range(k) for b in range(m)]
        seen = set()
        for bits in range(1 << len(cells)):
            edges = [cells[t] for t in range(len(cells)) if bits >> t & 1]
            if len(edges) < n - 1:
                continue
            if not _bipartite_connected(edges, k, m):
                continue
            canon = _canonical_bipartite(edges, k, m)
            if canon in seen:
                continue
            seen.add(canon)
            relations = [(a + 1, k + b + 1) for a, b in canon]
            out.append(make_poset(range(1, n + 1), relations, "A"))
    return out


# Named posets used throughout the tests and the verification suites.


def branch_poset():
    """P = {1,2,3,4} with 1 below 2 below 3 and 4."""
    return make_poset([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)], "A")


def hexagon_type_c_poset():
    """The type-C poset on {-3..-1, 1..3} whose Hasse diagram is a hexagon."""
    relations = [(-1, 2), (-1, 3), (-2, 1), (-2, 3), (-3, 1), (-3, 2)]
    return make_poset([-3, -2, -1, 1, 2, 3], relations, "C")


def chain_poset(N):
    return make_poset(range(1, N + 1), [(i, i + 1) for i in range(1, N)], "A")


def antichain_poset(N):
    return make_poset(range(1, N + 1), [], "A")
