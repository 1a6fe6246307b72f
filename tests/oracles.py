"""Test-side oracles: SparseMat constructors and predicates the package
does not need, an exact linear solve, the Kirillov matrix as a SparseMat,
and characteristic polynomials by Faddeev-LeVerrier for
``indexfrob.spectrum``.

``spectrum`` reads det(x - ad p) off the root data; ``char_poly`` computes
it from the matrix of ad(p) with no structure assumed, and
``factor_binary`` splits off the x^a (x-1)^b factor by synthetic division.
Polynomials are lists of Fractions, lowest degree first.
"""

from fractions import Fraction

from lieposet import exactla, indexfrob
from lieposet.exactla import DimensionError, SparseMat

# The dense oracles' Fraction scalars.
ZERO = Fraction(0)
ONE = Fraction(1)


def from_rows(rows):
    """SparseMat of a dense list of equal-length rows."""
    n_cols = len(rows[0]) if rows else 0
    if any(len(r) != n_cols for r in rows):
        raise DimensionError("ragged rows")
    return SparseMat(len(rows), n_cols, {
        (i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v
    })


def identity(n):
    return SparseMat(n, n, {(i, i): ONE for i in range(n)})


def transpose(M):
    return SparseMat(M.n_cols, M.n_rows, {(j, i): v for (i, j), v in M.entries.items()})


def is_skew_symmetric(M):
    return all(M[(j, i)] == -v for (i, j), v in M.entries.items())


def solve(A, b):
    """Some exact solution x of A*x = b, or None when none exists.

    The system is inconsistent exactly when a pivot of [A | b] lands on
    the augmented column: some combination of the rows is 0 on A and not
    on b.  Otherwise x is read off the reduced echelon form and checked
    against A*x = b all the same: one exact product, so a returned x is a
    verified solution, not one taken on trust from the elimination.
    """
    if len(b) != A.n_rows:
        raise DimensionError("rhs length mismatch")
    aug = A.n_cols
    rows = A.row_dicts()
    for i, v in enumerate(b):
        if v:
            rows[i][aug] = v
    pivots, red = exactla._elim.eliminate(rows, reduce_full=True)
    if pivots and pivots[-1] == aug:
        return None
    x = [ZERO] * A.n_cols
    for p in pivots:
        x[p] = red[p].get(aug, ZERO)
    if A.mat_vec(x) != list(b):
        return None
    return x


def eval_kirillov(g, f):
    """Skew-symmetric matrix with (i, j) entry f([x_i, x_j]), f given by
    its coordinates: the ``indexfrob._kirillov_rows`` of f as a SparseMat."""
    if len(f) != g.dim:
        raise DimensionError("functional length mismatch")
    rows = indexfrob._kirillov_rows(g, f)
    return SparseMat(g.dim, g.dim, {
        (i, j): v for i, row in enumerate(rows) for j, v in row.items()
    })


def char_poly(M):
    """det(xI - M), exact, via Faddeev-LeVerrier over the rationals.

    Returns coefficients lowest degree first (monic of degree n).
    """
    if M.n_rows != M.n_cols:
        raise DimensionError("characteristic polynomial of non-square matrix")
    n = M.n_rows
    coeffs = [ONE]  # c_0 = 1 for x^n
    N = identity(n)
    for k in range(1, n + 1):
        MN = M.matmul(N)
        tr = sum((MN[(i, i)] for i in range(n)), ZERO)
        ck = -tr / k
        coeffs.append(ck)
        if k < n:
            N = MN.add(identity(n), scale=ck)
    return list(reversed(coeffs))


def _divide_linear(coeffs, r):
    """Divide by (x - r); returns (quotient, remainder) by synthetic division."""
    q = [ZERO] * (len(coeffs) - 1)
    acc = ZERO
    for k in range(len(coeffs) - 1, -1, -1):
        acc = acc * r + coeffs[k]
        if k:
            q[k - 1] = acc
    return q, acc


def factor_binary(coeffs):
    """Split p = x^a (x-1)^b * residual; returns (a, b, residual)."""
    p = list(coeffs)
    while p and not p[-1]:
        p.pop()
    a = b = 0
    while p and not p[0]:
        p = p[1:]
        a += 1
    while len(p) > 1:
        q, r = _divide_linear(p, ONE)
        if r:
            break
        p = q
        b += 1
    return a, b, p
