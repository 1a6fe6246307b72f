"""Simplicial cochain complex of a poset's order complex over the
rationals (unreduced, so H^0 counts connected components).
"""

from . import exactla
from .exactla import SparseMat
from .posets import nerve


def coboundary_matrices(P):
    """delta^k : C^k -> C^(k+1) for each k below the top dimension.

    (delta f)(sigma) = sum_i (-1)^i f(sigma with vertex i removed).
    """
    return _coboundaries(nerve(P))


def _coboundaries(complex_):
    by_dim = complex_.simplices_by_dim
    out = []
    for k in range(len(by_dim) - 1):
        pos = {s: i for i, s in enumerate(by_dim[k])}
        ents = {}
        for r, simplex in enumerate(by_dim[k + 1]):
            for i in range(len(simplex)):
                face = simplex[:i] + simplex[i + 1 :]
                sign = 1 if i % 2 == 0 else -1
                key = (r, pos[face])
                ents[key] = ents.get(key, 0) + sign
        out.append(SparseMat(len(by_dim[k + 1]), len(by_dim[k]), ents))
    return out


def simplicial_cohomology_dim(P, k):
    """dim H^k of the order complex with rational coefficients."""
    complex_ = nerve(P)
    n_k = complex_.n_simplices(k)
    if n_k == 0:
        return 0
    deltas = _coboundaries(complex_)
    rank_k = exactla.rank(deltas[k]) if k < len(deltas) else 0
    rank_km1 = exactla.rank(deltas[k - 1]) if 1 <= k <= len(deltas) else 0
    return n_k - rank_k - rank_km1


def euler_characteristic(P):
    complex_ = nerve(P)
    return sum(
        (-1) ** k * complex_.n_simplices(k)
        for k in range(complex_.dimension + 1)
    )
