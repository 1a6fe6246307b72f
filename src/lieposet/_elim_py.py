"""Sparse Gaussian elimination over the rationals or modulo a prime, the
package's one elimination kernel.

Rows are dicts mapping column index -> nonzero int or Fraction, never a
float; root blocks, coboundary blocks, derived-series spans and Kirillov
trials of integral algebras arrive as ints.  Over Q the elimination is
fraction-free.  Every pivot row is an int row with a positive lead: a
row holding a Fraction is multiplied by the lcm of its denominators as
it enters, and a column c is cleared against a pivot row p of lead l by
the one row operation r <- (l/g) r - (r_c/g) p, g = gcd(l, r_c), which
is the plain r - r_c p when l is 1.  A new pivot row whose lead is not
1, and a row that the operation scaled during back-substitution, is
divided by its content, signed to make the lead positive.  ``eliminate``
divides only when it hands the result back, and only the pivot rows
whose lead is not 1, so that every entry it returns is an ``int``
exactly when it is integral.  ``_echelon`` is the integer core it
wraps, for a caller that reads the leads or only counts the pivots:
``liealg.LieAlg.root_echelon`` eliminates the root block's [B | I] with
it once, whatever B's shape, and ``indexfrob`` reads the index, the
principal element and the normal form of a two-step algebra off those
rows; ``exactla.rank`` counts its pivots.
With a ``modulus`` p the entries must be ints; they are taken as residues
mod p and every pivot row holds residues in [0, p).  ``exactla`` builds
its kernel on ``eliminate`` (``liealg.center`` and the
2-cocycles of ``Phi_n`` go through its ``kernel_basis``); ``liealg``
calls it directly for the derived series' spans and for the rank of the
Cartan diagonals in ``build``, ``cohomology`` for the ranks of the
relative blocks d_R^j, ``simplicial`` for the ranks of the order
complex's coboundaries, and ``indexfrob`` ranks its random Kirillov trials
mod p and solves for principal elements with it (``principal_element``,
which ``frobenius_spectrum`` calls unless the root block is square and
invertible).  Every mode runs the same forward elimination; the reduced
form is a back-substitution pass after it, and both are built from the
one row operation ``_reduce_row``.
"""

from fractions import Fraction
from math import gcd, lcm


def eliminate(rows, reduce_full=False, modulus=None):
    """Row-reduce sparse rows, returning ``(pivot_cols, pivot_rows)``.

    pivot_cols: sorted list of pivot column indices.
    pivot_rows: dict pivot col -> row dict, normalized so the pivot entry
    is 1, in the order the pivots were found.  Over Q an entry is an
    ``int`` exactly when it is integral, and a ``Fraction`` otherwise.

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
    whether the block was needed (``indexfrob.principal_element``, and
    ``liealg.LieAlg.root_echelon`` through ``_echelon``).  The input rows
    are not modified.
    """
    pivots, pivot_rows = _echelon(rows, reduce_full, modulus)
    if modulus is None:
        for p, row in pivot_rows.items():
            if (lead := row[p]) != 1:
                pivot_rows[p] = {c: v // lead if v % lead == 0 else Fraction(v, lead)
                                 for c, v in row.items()}
    return pivots, pivot_rows


def _echelon(rows, reduce_full=False, modulus=None):
    """``eliminate`` before its final division: over Q every pivot row is
    an int row with a positive lead, a positive multiple of the normalized
    row ``eliminate`` returns; mod p the rows are already normalized."""
    if modulus is None:
        rows = [r.copy() if type(sum(r.values())) is int else _int_row(r)
                for r in rows if r]
    else:
        rows = (r for r in (_residues(r, modulus) for r in rows) if r)
    pivot_rows = {}
    for row in sorted(rows, key=len):
        _reduce_row(row, pivot_rows, modulus)
        if modulus is not None:
            row = _residues(row, modulus)
        if row:
            piv = min(row)
            lead = row[piv]
            if modulus is not None:
                inv = pow(lead, -1, modulus)
                row = {c: v * inv % modulus for c, v in row.items()}
            elif lead != 1:
                row = _primitive(row, lead)
            pivot_rows[piv] = row
    pivots = sorted(pivot_rows)
    if reduce_full:
        done = {}
        for p in reversed(pivots):
            row = pivot_rows[p]
            scaled = _reduce_row(row, done, modulus)
            if modulus is not None:
                row = pivot_rows[p] = _residues(row, modulus)
            elif scaled:
                row = pivot_rows[p] = _primitive(row, row[p])
            done[p] = row
    return pivots, pivot_rows


def _int_row(row):
    """``row``, which holds a Fraction, times the lcm of its entries'
    denominators: a new int row."""
    scale = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (scale // v.denominator) for c, v in row.items()}


def _primitive(row, lead):
    """``row`` divided by its content, signed so that ``lead`` turns
    positive: a new dict unless that divisor is 1."""
    d = gcd(*row.values())
    if lead < 0:
        d = -d
    return row if d == 1 else {c: v // d for c, v in row.items()}


def _residues(row, modulus):
    """The nonzero residues mod ``modulus`` of an int row, as a new dict."""
    return {c: r for c, v in row.items() if (r := v % modulus)}


def _reduce_row(row, pivot_rows, modulus=None):
    """Subtract multiples of ``pivot_rows`` from ``row`` in place until it
    holds none of their pivot columns.

    Over Q, clearing column c against a pivot row p of lead l != 1 first
    scales the row by l/g, g = gcd(l, r_c), and then subtracts (r_c/g) p;
    returns whether any operation scaled the row, whose content the caller
    then divides out.  With a ``modulus`` every lead is 1 and the
    multiplier is reduced mod p but the updated entries are not: they stay
    congruent to the true residues, and the caller reduces the row when it
    is done."""
    scaled = False
    while True:
        hit = -1
        for c in row:
            if c in pivot_rows and (hit < 0 or c < hit):
                hit = c
        if hit < 0:
            return scaled
        f = row.pop(hit)
        prow = pivot_rows[hit]
        if modulus is not None:
            f %= modulus
        elif (a := prow[hit]) != 1:
            g = gcd(a, f)
            a //= g
            f //= g
            if a != 1:
                for c in row:
                    row[c] *= a
                scaled = True
        for cc, v in prow.items():
            if cc == hit:
                continue
            old = row.get(cc)
            nv = -(f * v) if old is None else old - f * v
            if nv:
                row[cc] = nv
            else:
                row.pop(cc, None)
