"""Sparse Gaussian elimination over the rationals or modulo a prime, the
package's one elimination kernel.

Rows are dicts mapping column index -> nonzero Fraction or int; pivot
rows are normalized by a Fraction reciprocal, so int input stays exact.
With a ``modulus`` p the entries must be ints; they are taken as residues
mod p and every pivot row holds residues in [0, p).  ``exactla`` builds
rank, kernel, solve and inverse on ``eliminate``, ``liealg`` calls it
directly for spans and for the rank of the Cartan diagonals in ``build``,
and ``indexfrob`` ranks its random Kirillov trials mod p with it.  Every
mode runs the same forward elimination; the reduced form is a
back-substitution pass after it, and both are built from the one row
operation ``_reduce_row``.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def eliminate(rows, reduce_full=False, modulus=None):
    """Row-reduce sparse rows, returning ``(pivot_cols, pivot_rows)``.

    pivot_cols: sorted list of pivot column indices.
    pivot_rows: dict pivot col -> row dict, normalized so the pivot entry
    is 1, in the order the pivots were found.

    The forward pass reduces each row against the pivot rows found so far
    and pivots on what is left, so every pivot row holds no column left of
    its pivot: an echelon form, which is all a rank computation needs.
    With ``reduce_full`` the pivot rows are then back-substituted from the
    last pivot column to the first into the reduced echelon form, which is
    unique: no pivot row contains another pivot column, so kernel vectors
    and solutions can be read off directly.

    With ``modulus`` a prime p and int entries, the same elimination runs
    over F_p: the entries are reduced mod p, the pivot inverse is
    ``pow(v, -1, p)``, and the result is the echelon (or reduced echelon)
    form of the rows mod p, with rank_p <= rank_Q.  Row updates are not
    reduced entry by entry; a row is reduced once, when it has been
    cleared of the pivot columns found so far.

    Rows are consumed in order of increasing sparsity; a row's smallest
    column left after the reduction becomes its pivot.  Every column may
    pivot: a caller with an augmented block reads from where the pivots land
    whether the block was needed (``exactla.solve``, ``exactla.invert``).
    The input rows are not modified.
    """
    if modulus is None:
        rows = (dict(r) for r in rows if r)
    else:
        rows = (r for r in (_residues(r, modulus) for r in rows) if r)
    pivot_rows = {}
    for row in sorted(rows, key=len):
        _reduce_row(row, pivot_rows, modulus)
        if modulus is not None:
            row = _residues(row, modulus)
        if row:
            piv = min(row)
            if modulus is None:
                inv = ONE / row[piv]
                pivot_rows[piv] = {c: v * inv for c, v in row.items()}
            else:
                inv = pow(row[piv], -1, modulus)
                pivot_rows[piv] = {c: v * inv % modulus for c, v in row.items()}
    pivots = sorted(pivot_rows)
    if reduce_full:
        done = {}
        for p in reversed(pivots):
            row = pivot_rows[p]
            _reduce_row(row, done, modulus)
            if modulus is not None:
                row = pivot_rows[p] = _residues(row, modulus)
            done[p] = row
    return pivots, pivot_rows


def _residues(row, modulus):
    """The nonzero residues mod ``modulus`` of an int row, as a new dict."""
    return {c: r for c, v in row.items() if (r := v % modulus)}


def _reduce_row(row, pivot_rows, modulus=None):
    """Subtract multiples of ``pivot_rows`` from ``row`` in place until it
    holds none of their pivot columns.

    With a ``modulus`` the multiplier is reduced mod p but the updated
    entries are not: they stay congruent to the true residues, and the
    caller reduces the row when it is done."""
    zero = ZERO if modulus is None else 0
    while True:
        hit = -1
        for c in row:
            if c in pivot_rows and (hit < 0 or c < hit):
                hit = c
        if hit < 0:
            return
        f = row.pop(hit)
        if modulus is not None:
            f %= modulus
        for cc, v in pivot_rows[hit].items():
            if cc == hit:
                continue
            nv = row.get(cc, zero) - f * v
            if nv:
                row[cc] = nv
            else:
                row.pop(cc, None)
