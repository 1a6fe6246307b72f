"""Exact rational linear algebra: sparse matrices, rank and kernels.

A value is an ``int`` unless a division created a ``fractions.Fraction``:
the kernel's final division by a lead, ``IndexCertificate.error_bound``,
or ``SparseMat``'s exact conversion of an entry that is neither.  There is
no floating point anywhere in this package, so every rank and dimension
below is exact.

Every rank and kernel runs through one sparse elimination kernel,
``_elim_py``, reached here as ``_elim``: ``rank`` counts the pivots of
its integer core ``_echelon``, ``kernel_basis`` reads ``eliminate``'s
reduced rows.  ``BACKEND`` names it; it is a constant, kept for reports
that record it.  ``kernel_basis``, on plain row dicts as the kernel
takes them, is the package's one null-space read-off.
Over Q the kernel eliminates fraction-free on int rows and divides by
each lead once, on the way out, so a returned entry (of a kernel vector
too) is an ``int`` exactly when it is integral, with results
``==`` to the same rows' as Fractions; with a prime ``modulus`` its
entries are int residues mod p, which is how ``indexfrob.index`` ranks
its random trials.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import _elim_py as _elim

BACKEND = "python"


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class SparseMat:
    """Immutable sparse matrix over the rationals.

    ``entries`` maps (row, col) -> nonzero int or Fraction, as given (any
    other number becomes its exact Fraction); the constructor alone
    range-checks indices and drops zeros, so sums may be handed to it raw.
    """

    n_rows: int
    n_cols: int
    entries: dict = None

    def __post_init__(self):
        n_rows, n_cols = self.n_rows, self.n_cols
        if n_rows < 0 or n_cols < 0:
            raise DimensionError("negative matrix dimension")
        ents = {}
        for (i, j), v in (self.entries or {}).items():
            if not (0 <= i < n_rows and 0 <= j < n_cols):
                raise DimensionError(f"entry ({i},{j}) outside {n_rows}x{n_cols}")
            if not isinstance(v, (int, Fraction)):
                v = Fraction(v)
            if v:
                ents[(i, j)] = v
        object.__setattr__(self, "entries", ents)

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def __repr__(self):
        return f"SparseMat({self.n_rows}x{self.n_cols}, {len(self.entries)} entries)"

    def row_dicts(self):
        rows = [dict() for _ in range(self.n_rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def mat_vec(self, v):
        if len(v) != self.n_cols:
            raise DimensionError("vector length mismatch")
        out = [0] * self.n_rows
        for (i, j), a in self.entries.items():
            if v[j]:
                out[i] += a * v[j]
        return out

    def matmul(self, other):
        if self.n_cols != other.n_rows:
            raise DimensionError("inner dimension mismatch")
        by_row = other.row_dicts()
        ents = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row[k].items():
                ents[(i, j)] = ents.get((i, j), 0) + a * b
        return SparseMat(self.n_rows, other.n_cols, ents)

    def add(self, other, scale=1):
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise DimensionError("shape mismatch")
        ents = dict(self.entries)
        for key, v in other.entries.items():
            ents[key] = ents.get(key, 0) + scale * v
        return SparseMat(self.n_rows, self.n_cols, ents)


def rank(M):
    """Exact rank over the rationals: the pivots of ``_elim._echelon``."""
    return len(_elim._echelon(M.row_dicts())[0])


def kernel_basis(rows, width):
    """Right null space of the ``width``-column matrix whose rows are the
    list ``rows`` of sparse dicts (DimensionError on a column outside
    0..width-1): one tuple per free column, with a 1 there, width - rank in all.
    """
    cols = set().union(*rows)
    if cols and (min(cols) < 0 or max(cols) >= width):
        raise DimensionError(f"column outside 0..{width - 1}")
    pivots, red = _elim.eliminate(rows, reduce_full=True)
    basis = []
    for j in range(width):
        if j in red:
            continue
        v = [0] * width
        v[j] = 1
        for p in pivots:
            c = red[p].get(j)
            if c:
                v[p] = -c
        basis.append(tuple(v))
    return basis

