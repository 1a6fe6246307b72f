"""Sparse Gaussian elimination over the rationals, the package's one
elimination kernel.

Rows are dicts mapping column index -> nonzero Fraction.  ``exactla``
builds rank, kernel, solve and inverse on ``eliminate``, and
``liealg`` calls it directly for spans and the structure-constant
factorization.
"""

from fractions import Fraction

ZERO = Fraction(0)


def eliminate(rows, n_cols, pivot_limit=None, reduce_full=False):
    """Row-reduce sparse rows, returning ``(pivot_cols, pivot_rows)``.

    pivot_cols: sorted list of pivot column indices (all < pivot_limit).
    pivot_rows: dict pivot col -> row dict, normalized so the pivot entry
    is 1.

    With ``reduce_full`` the result is a reduced echelon form maintained
    incrementally (Gauss-Jordan): no pivot row contains another pivot
    column, so kernel vectors and solutions can be read off directly.
    Without it only a forward echelon form is produced, which is all a
    rank computation needs.

    Entries at columns >= pivot_limit (e.g. an augmented right-hand side)
    are carried along but never pivoted on.  Rows are consumed in order of
    increasing sparsity; within a row the smallest eligible column becomes
    the pivot.
    """
    if pivot_limit is None:
        pivot_limit = n_cols
    pivot_rows = {}
    occupancy = {}  # col -> set of pivot cols whose rows contain col
    work = sorted((dict(r) for r in rows if r), key=len)
    for row in work:
        _reduce_row(row, pivot_rows, pivot_limit)
        cols = [c for c in row if c < pivot_limit]
        if not cols:
            continue
        piv = min(cols)
        inv = 1 / row[piv]
        new_row = {c: v * inv for c, v in row.items()}
        pivot_rows[piv] = new_row
        if not reduce_full:
            continue
        for c in new_row:
            occupancy.setdefault(c, set()).add(piv)
        # Clear the new pivot column from every older pivot row; new_row
        # holds no other pivot columns, so the Jordan invariant survives.
        for q in list(occupancy.get(piv, ())):
            if q == piv:
                continue
            q_row = pivot_rows[q]
            f = q_row.pop(piv)
            occupancy[piv].discard(q)
            for cc, v in new_row.items():
                if cc == piv:
                    continue
                nv = q_row.get(cc, ZERO) - f * v
                if nv:
                    if cc not in q_row:
                        occupancy.setdefault(cc, set()).add(q)
                    q_row[cc] = nv
                elif cc in q_row:
                    del q_row[cc]
                    occupancy[cc].discard(q)
    return sorted(pivot_rows), pivot_rows


def _reduce_row(row, pivot_rows, pivot_limit):
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
