"""Seeded random posets of families A, B, C and D.

Every generated poset is valid by construction and is still filtered by
``posets.validate_family``; it is then resampled until the dimension of its
Lie poset algebra lands in the requested band.  The dimension is computed
from the poset alone, so generation never builds an algebra:

- family A, gl: ``|P| + |relation|``; sl: ``|P| - 1 + |relation|``;
- families B, C, D: ``n + number of mirror orbits {(i, j), (-j, -i)}``.

The workload checks compare ``liealg.build(P).dim`` against this formula.
"""

import random

from lieposet import posets

MAX_DRAWS = 200_000


class Sampler:
    """Draws posets from one ``random.Random`` and counts acceptance."""

    def __init__(self, seed, label):
        self.rng = random.Random(f"perfbench:{label}:{seed}")
        self.drawn = 0
        self.accepted = 0

    @property
    def acceptance(self):
        return self.accepted / self.drawn if self.drawn else 0.0

    def _draw_one(self):
        self.drawn += 1
        if self.drawn > MAX_DRAWS:
            raise RuntimeError(f"no poset in band after {MAX_DRAWS} draws")

    def poset(self, family, lo, hi):
        """A valid family poset whose (gl) algebra dimension lies in [lo, hi]."""
        sizes = [s for s in _SIZES[family]
                 if _dim_range(family, s)[1] >= lo and _dim_range(family, s)[0] <= hi]
        if not sizes:
            raise ValueError(f"no {family} size reaches dimension {lo}..{hi}")
        while True:
            self._draw_one()
            size = self.rng.choice(sizes)
            density = self.rng.uniform(0.05, 0.7)
            P = _draw(self.rng, family, size, density)
            if not posets.validate_family(P).ok:
                continue
            if lo <= algebra_dim(P) <= hi:
                self.accepted += 1
                return P

    def height_one(self, n_min, n_max, lo, hi):
        """A connected family-A poset of height one, sl dimension in [lo, hi]."""
        while True:
            self._draw_one()
            n = self.rng.randint(n_min, n_max)
            k = self.rng.randint(1, n - 1)
            density = self.rng.uniform(0.2, 0.8)
            relations = [(a, b) for a in range(1, k + 1) for b in range(k + 1, n + 1)
                         if self.rng.random() < density]
            if not relations:
                continue
            P = posets.make_poset(range(1, n + 1), relations, "A")
            if not posets.validate_family(P).ok:
                continue
            if not posets.hasse_graph_properties(P)["connected"]:
                continue
            if lo <= algebra_dim(P, "sl") <= hi:
                self.accepted += 1
                return P


# Sizes tried per family: N elements for A, rank n for B/C/D.
_SIZES = {"A": range(2, 11), "B": range(1, 10), "C": range(1, 8), "D": range(2, 10)}


def _elements(family, size):
    if family == "A":
        return list(range(1, size + 1))
    if family == "B":
        return list(range(-size, size + 1))
    return [e for e in range(-size, size + 1) if e]


def _orbits(family, size):
    """Candidate relations a < b, one representative per mirror orbit."""
    elems = _elements(family, size)
    pairs = [(a, b) for a in elems for b in elems if a < b]
    if family == "A":
        return pairs
    reps = {min((a, b), (-b, -a)) for a, b in pairs}
    if family in ("B", "D"):
        reps = {(a, b) for a, b in reps if a != -b}  # condition 3: -i not below i
    return sorted(reps)


def _dim_range(family, size):
    """Smallest and largest gl algebra dimension at this size.  For B and D,
    "-i never below i" leaves at most n(n-1)/2 orbits."""
    if family == "A":
        return size, size + size * (size - 1) // 2
    if family == "C":
        return size, size + size * size
    return size, size + size * (size - 1) // 2


def _draw(rng, family, size, density):
    """Order-compatible labels (a < b for every relation), mirror-closed for
    B/C/D.  For B and D an orbit is skipped when its closure would put -i
    below i, which a dense draw otherwise does almost always."""
    elems = _elements(family, size)
    chosen = [p for p in _orbits(family, size) if rng.random() < density]
    if family == "A":
        return posets.make_poset(elems, chosen, family)
    rng.shuffle(chosen)
    relation = frozenset()
    for a, b in chosen:
        closed = posets.transitive_closure(elems, relation | {(a, b), (-b, -a)})
        if family in ("B", "D") and any((-e, e) in closed for e in elems if e > 0):
            continue
        relation = closed
    return posets.make_poset(elems, relation, family)


def algebra_dim(P, variant="gl"):
    if P.family == "A":
        return len(P) - (variant == "sl") + len(P.relation)
    return P.n + len({min((a, b), (-b, -a)) for a, b in P.relation})
