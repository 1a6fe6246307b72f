"""Finite posets with integer labels and a family tag (A, B, C, D).

Relations are stored strictly and transitively closed.  Families B, C, D
carry extra axioms on the signed label set (order-compatibility with the
integers, mirror symmetry, and no -i below i); those are checked by
``validate_family`` as data, not raised as errors.
"""

import itertools
import json
from dataclasses import dataclass

FAMILIES = ("A", "B", "C", "D")

ENUM_GUARD = 8  # the class counts are pinned by tests up to this size


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
    """The label set ``family`` requires of a poset with this many
    ``elements``, or None when their count already rules it out: B needs
    2n + 1 labels and C, D need 2n, n the largest |label|, so a lone huge
    label is rejected before any range of that length is built."""
    if family == "A":
        return tuple(range(1, len(elements) + 1))
    n = max(abs(e) for e in elements)
    if len(elements) != 2 * n + (family == "B"):
        return None
    return tuple(e for e in range(-n, n + 1) if e or family == "B")


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
        except RecursionError:
            raise PosetError("invalid JSON: nested too deeply") from None
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
    if len(set(elements)) != len(elements):
        raise PosetError("elements must be distinct integers")
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


def _neighbour_masks(n, edges):
    """Adjacency of an undirected graph on vertices 0..n-1: entry v is the
    bitmask of v's neighbours."""
    nbrs = [0] * n
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    return nbrs


def _component_sides(nbrs, start):
    """Breadth-first search from ``start`` over neighbour bitmasks.

    Returns the masks of the vertices at even and at odd distance from
    ``start``; their union is the component of ``start``.
    """
    sides = [1 << start, 0]
    seen = frontier = 1 << start
    parity = 0
    while frontier:
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & ~seen
        seen |= frontier
        parity ^= 1
        sides[parity] |= frontier
    return sides[0], sides[1]


def hasse_graph_properties(P):
    """Properties of the Hasse diagram of P as an undirected graph.

    ``connected``: the diagram has exactly one component.
    ``acyclic``: it has no cycle (a forest), i.e. |E| = |V| - components.
    ``bipartite``: its vertices split into two classes with every edge
    between them, i.e. it has no odd cycle.
    """
    pos = {e: i for i, e in enumerate(P.elements)}
    edges = [(pos[a], pos[b]) for a, b in hasse(P)]
    nbrs = _neighbour_masks(len(P), edges)
    components = odd = 0
    unseen = (1 << len(P)) - 1
    while unseen:
        even_c, odd_c = _component_sides(nbrs, (unseen & -unseen).bit_length() - 1)
        unseen &= ~(even_c | odd_c)
        odd |= odd_c
        components += 1
    return {
        "connected": components == 1,
        "acyclic": len(edges) == len(P) - components,
        "bipartite": all((odd >> u & 1) != (odd >> v & 1) for u, v in edges),
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
# Enumeration of connected height-one posets (family A) up to isomorphism,
# by orderly generation (Read 1978).  Isomorphisms respect the
# minimal/maximal bipartition, which any poset isomorphism does.  Each vertex
# of the larger side is its neighbourhood, a nonzero bitmask over the s
# vertices of the smaller side, so a class up to relabeling the larger side
# is a sorted tuple of masks; the class representative is the tuple that is
# lex-least under the s! relabelings of the smaller side.


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
    everyone = (1 << n) - 1
    for k in range(1, n):
        m = n - k
        s = min(k, m)
        relabelings = [
            [sum(1 << p[i] for i in range(s) if x >> i & 1) for x in range(1 << s)]
            for p in itertools.permutations(range(s))
        ]
        for masks in itertools.combinations_with_replacement(range(1, 1 << s), n - s):
            if any(tuple(sorted(r[x] for x in masks)) < masks for r in relabelings):
                continue
            # (minimal, maximal) pairs, numbered from 0 on each side.
            if k <= m:
                pairs = [(a, b) for b, x in enumerate(masks) for a in range(s) if x >> a & 1]
            else:
                pairs = [(a, b) for a, x in enumerate(masks) for b in range(s) if x >> b & 1]
            # Minimal a is vertex a, maximal b is vertex k + b.
            nbrs = _neighbour_masks(n, [(a, k + b) for a, b in pairs])
            even, odd = _component_sides(nbrs, 0)
            if even | odd != everyone:
                continue
            relations = [(a + 1, k + b + 1) for a, b in pairs]
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
