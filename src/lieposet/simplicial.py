"""Simplicial cochain complex of a poset's order complex over the
rationals (unreduced, so H^0 counts connected components).
"""

from . import exactla
from .posets import nerve


def _coboundary_rank(levels, k):
    """Rank of delta^k : C^k -> C^(k+1) of the order complex with simplices
    ``levels``, 0 unless 0 <= k < its top dimension; row sigma of delta^k
    holds (delta f)(sigma) = sum_i (-1)^i f(sigma with vertex i removed)
    as {face position: +-1}."""
    if not 0 <= k < len(levels) - 1:
        return 0
    pos = {s: i for i, s in enumerate(levels[k])}
    rows = [{pos[s[:i] + s[i + 1 :]]: -1 if i % 2 else 1 for i in range(len(s))}
            for s in levels[k + 1]]
    return len(exactla._elim.eliminate(rows)[0])


def simplicial_cohomology_dim(P, k):
    """dim H^k of the order complex with rational coefficients."""
    levels = nerve(P)
    if not 0 <= k < len(levels):
        return 0
    return len(levels[k]) - _coboundary_rank(levels, k) - _coboundary_rank(levels, k - 1)
