"""Sparse Gaussian elimination over the rationals, the package's one
elimination kernel.

Rows are dicts mapping column index -> nonzero Fraction or int; pivot
rows are normalized by a Fraction reciprocal, so int input stays exact.
``exactla`` builds rank, kernel, solve and inverse on ``eliminate``, and
``liealg`` calls it directly for spans and for the rank of the Cartan
diagonals in ``build``.  Every mode runs the same forward elimination;
the reduced form is a back-substitution pass after it, and both are
built from the one row operation ``_reduce_row``.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def eliminate(rows, n_cols, pivot_limit=None, reduce_full=False):
    """Row-reduce sparse rows, returning ``(pivot_cols, pivot_rows)``.

    pivot_cols: sorted list of pivot column indices (all < pivot_limit).
    pivot_rows: dict pivot col -> row dict, normalized so the pivot entry
    is 1, in the order the pivots were found.

    The forward pass reduces each row against the pivot rows found so far
    and pivots on what is left, so every pivot row holds no column left of
    its pivot: an echelon form, which is all a rank computation needs.
    With ``reduce_full`` the pivot rows are then back-substituted from the
    last pivot column to the first into the reduced echelon form, which is
    unique: no pivot row contains another pivot column, so kernel vectors
    and solutions can be read off directly.

    Entries at columns >= pivot_limit (e.g. an augmented right-hand side)
    are carried along but never pivoted on.  Rows are consumed in order of
    increasing sparsity; within a row the smallest eligible column becomes
    the pivot.  The input rows are not modified.
    """
    if pivot_limit is None:
        pivot_limit = n_cols
    pivot_rows = {}
    for row in sorted((dict(r) for r in rows if r), key=len):
        _reduce_row(row, pivot_rows, pivot_limit)
        cols = [c for c in row if c < pivot_limit]
        if cols:
            piv = min(cols)
            inv = ONE / row[piv]
            pivot_rows[piv] = {c: v * inv for c, v in row.items()}
    pivots = sorted(pivot_rows)
    if reduce_full:
        done = {}
        for p in reversed(pivots):
            _reduce_row(pivot_rows[p], done, pivot_limit)
            done[p] = pivot_rows[p]
    return pivots, pivot_rows


def _reduce_row(row, pivot_rows, pivot_limit):
    """Subtract multiples of ``pivot_rows`` from ``row`` in place until it
    holds none of their pivot columns."""
    while True:
        hit = -1
        for c in row:
            if c < pivot_limit and c in pivot_rows and (hit < 0 or c < hit):
                hit = c
        if hit < 0:
            return
        f = row.pop(hit)
        for cc, v in pivot_rows[hit].items():
            if cc == hit:
                continue
            nv = row.get(cc, ZERO) - f * v
            if nv:
                row[cc] = nv
            else:
                row.pop(cc, None)
