"""Exact rational linear algebra: sparse matrices, rank, kernels and
inverses.

A value is an ``int`` unless a division created a ``fractions.Fraction``:
the kernel's pivot reciprocal, ``IndexCertificate.error_bound``, or
``SparseMat``'s exact conversion of an entry that is neither.  There is no
floating point anywhere in this package, so every rank and dimension
below is exact.

Every rank, kernel and inverse runs through one sparse elimination
kernel, ``_elim_py.eliminate``, reached here as ``_elim.eliminate``.
``BACKEND`` names it; it is a constant, kept for reports that record it.
Over Q the kernel keeps int rows int while its pivots are units, with
results ``==`` to the same rows' as Fractions; with a prime ``modulus``
its entries are int residues mod p, which is how ``indexfrob.index``
ranks its random trials.
"""

from fractions import Fraction

from . import _elim_py as _elim

BACKEND = "python"


class DimensionError(ValueError):
    pass


class SingularMatrixError(ValueError):
    pass


class SparseMat:
    """Immutable sparse matrix over the rationals.

    ``entries`` maps (row, col) -> nonzero int or Fraction, as given (any
    other number becomes its exact Fraction); zero values are dropped at
    construction, indices are range-checked.
    """

    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(self, n_rows, n_cols, entries=None):
        if n_rows < 0 or n_cols < 0:
            raise DimensionError("negative matrix dimension")
        ents = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < n_rows and 0 <= j < n_cols):
                raise DimensionError(f"entry ({i},{j}) outside {n_rows}x{n_cols}")
            if not isinstance(v, (int, Fraction)):
                v = Fraction(v)
            if v:
                ents[(i, j)] = v
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "entries", ents)

    def __setattr__(self, name, value):
        raise AttributeError("SparseMat is immutable")

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMat)
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.entries == other.entries
        )

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
                key = (i, j)
                s = ents.get(key, 0) + a * b
                if s:
                    ents[key] = s
                else:
                    ents.pop(key, None)
        return SparseMat(self.n_rows, other.n_cols, ents)

    def add(self, other, scale=1):
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise DimensionError("shape mismatch")
        ents = dict(self.entries)
        for key, v in other.entries.items():
            s = ents.get(key, 0) + scale * v
            if s:
                ents[key] = s
            else:
                ents.pop(key, None)
        return SparseMat(self.n_rows, self.n_cols, ents)


def rank(M):
    """Exact rank over the rationals."""
    pivots, _ = _elim.eliminate(M.row_dicts())
    return len(pivots)


def kernel_basis(M):
    """Basis of the right null space; each vector satisfies M*v = 0.

    Returns one tuple per free column, with a 1 in that column, so
    len(result) = n_cols - rank(M).
    """
    pivots, rows = _elim.eliminate(M.row_dicts(), reduce_full=True)
    pivot_set = set(pivots)
    basis = []
    for j in range(M.n_cols):
        if j in pivot_set:
            continue
        v = [0] * M.n_cols
        v[j] = 1
        for p in pivots:
            c = rows[p].get(j)
            if c:
                v[p] = -c
        basis.append(tuple(v))
    return basis


def invert(M):
    """Exact inverse of a square matrix; raises SingularMatrixError.

    [M | I] has rank n whatever M is, so M is invertible exactly when all
    n pivots lie in M's columns; then row p of the reduced echelon form is
    [e_p | row p of M^{-1}].
    """
    if M.n_rows != M.n_cols:
        raise DimensionError("inverse of non-square matrix")
    n = M.n_rows
    rows = M.row_dicts()
    for i in range(n):
        rows[i][n + i] = 1
    pivots, red = _elim.eliminate(rows, reduce_full=True)
    if pivots and pivots[-1] >= n:
        raise SingularMatrixError("matrix is singular")
    ents = {}
    for p in pivots:
        for c, v in red[p].items():
            if c >= n:
                ents[(p, c - n)] = v
    return SparseMat(n, n, ents)
