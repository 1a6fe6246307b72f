"""An enumeration oracle independent of ``enumerate_height_one``: the
Pólya/Burnside count of connected bicoloured graphs, in exact Fractions.

A connected height-one poset on n >= 2 elements is a connected bipartite
graph whose k minimal and m = n - k maximal elements are told apart, up to
isomorphisms that keep each side.  Burnside's lemma over S_k x S_m, acting
on the k*m possible edges, counts all such graphs: a pair of permutations
of cycle types lambda and mu has sum gcd(lambda_i, mu_j) cycles on the
edges.  The connected ones follow from the log of that generating function,
since a graph is a multiset of connected components (a lone vertex is a
component of type (1, 0) or (0, 1)).
"""

import math
from collections import Counter
from fractions import Fraction
from functools import cache

from lieposet.posets import enumerate_height_one

N_MAX = 12


def partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def z(lam):
    """The order of the centralizer of a permutation of cycle type lam."""
    out = 1
    for part, mult in Counter(lam).items():
        out *= part**mult * math.factorial(mult)
    return out


def all_graphs(k, m):
    """Bicoloured graphs with k and m vertices on the two sides, up to
    side-preserving isomorphism (Burnside)."""
    total = Fraction(0)
    for lam in partitions(k):
        for mu in partitions(m):
            cycles = sum(math.gcd(a, b) for a in lam for b in mu)
            total += Fraction(2**cycles, z(lam) * z(mu))
    return total


def multiply(f, g):
    out = {}
    for (a, b), u in f.items():
        for (c, d), v in g.items():
            if a + b + c + d <= N_MAX:
                out[(a + c, b + d)] = out.get((a + c, b + d), 0) + u * v
    return out


@cache
def connected_counts():
    """c[(k, m)]: connected bicoloured graphs of each split, k + m <= N_MAX."""
    # log B = sum_j (-1)^(j+1) F^j / j with F = B - 1 and no constant term.
    F = {(k, n - k): all_graphs(k, n - k) for n in range(1, N_MAX + 1) for k in range(n + 1)}
    log, power = {}, {(0, 0): Fraction(1)}
    for j in range(1, N_MAX + 1):
        power = multiply(power, F)
        for key, v in power.items():
            log[key] = log.get(key, 0) + Fraction((-1) ** (j + 1), j) * v
    # log B = sum_r C(x^r, y^r) / r, so C(k, m) = L(k, m) - sum_{r > 1} C(k/r, m/r) / r.
    c = {}
    for n in range(1, N_MAX + 1):
        for k in range(n + 1):
            m = n - k
            c[(k, m)] = log[(k, m)] - sum(
                (c[(k // r, m // r)] / r for r in range(2, n + 1) if k % r == 0 and m % r == 0),
                Fraction(0),
            )
    assert all(v.denominator == 1 for v in c.values())
    return {key: int(v) for key, v in c.items()}


def test_totals():
    c = connected_counts()
    totals = [1] + [sum(c[(k, n - k)] for k in range(1, n)) for n in range(2, N_MAX + 1)]
    assert totals == [1, 1, 2, 4, 10, 27, 88, 328, 1460, 7799, 51196, 422521]


def test_lone_vertices():
    c = connected_counts()
    assert c[(1, 0)] == c[(0, 1)] == 1
    assert all(c[(k, 0)] == c[(0, k)] == 0 for k in range(2, N_MAX + 1))


def test_per_split_counts_match_enumeration():
    c = connected_counts()
    for n in range(2, 9):
        # The number of minimal elements: those below no other element.
        split = Counter(n - len({b for a, b in P.relation if a != b})
                        for P in enumerate_height_one(n))
        assert split == {k: c[(k, n - k)] for k in range(1, n) if c[(k, n - k)]}
