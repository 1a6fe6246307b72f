"""Exact rational linear algebra: sparse matrices, rank, kernels, solves
and inverses.

Scalars are ``fractions.Fraction`` throughout (canonical reduced form,
positive denominator), so every rank and dimension below is exact; there
is no floating point anywhere in this package.

Every rank, kernel, solve and inverse runs through one sparse elimination
kernel, ``_elim_py.eliminate``, reached here as ``_elim.eliminate``.
``BACKEND`` names it; it is a constant, kept for reports that record it.
The functions here call it over Q; the same kernel also takes int rows
with a prime ``modulus``, where its entries are int residues mod p, which
is how ``indexfrob.index`` ranks its random trials.
"""

from fractions import Fraction

from . import _elim_py as _elim

BACKEND = "python"

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionError(ValueError):
    pass


class SingularMatrixError(ValueError):
    pass


def _rat(v):
    return v if isinstance(v, Fraction) else Fraction(v)


class SparseMat:
    """Immutable sparse matrix over the rationals.

    ``entries`` maps (row, col) -> nonzero Fraction; zero values are
    dropped at construction, indices are range-checked.
    """

    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(self, n_rows, n_cols, entries=None):
        if n_rows < 0 or n_cols < 0:
            raise DimensionError("negative matrix dimension")
        ents = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < n_rows and 0 <= j < n_cols):
                raise DimensionError(f"entry ({i},{j}) outside {n_rows}x{n_cols}")
            v = _rat(v)
            if v:
                ents[(i, j)] = v
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "entries", ents)

    def __setattr__(self, name, value):
        raise AttributeError("SparseMat is immutable")

    @classmethod
    def from_rows(cls, rows):
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        ents = {}
        for i, r in enumerate(rows):
            if len(r) != n_cols:
                raise DimensionError("ragged rows")
            for j, v in enumerate(r):
                if v:
                    ents[(i, j)] = _rat(v)
        return cls(n_rows, n_cols, ents)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): ONE for i in range(n)})

    def __getitem__(self, key):
        return self.entries.get(key, ZERO)

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

    def transpose(self):
        return SparseMat(
            self.n_cols, self.n_rows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def mat_vec(self, v):
        if len(v) != self.n_cols:
            raise DimensionError("vector length mismatch")
        out = [ZERO] * self.n_rows
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
                s = ents.get(key, ZERO) + a * b
                if s:
                    ents[key] = s
                else:
                    ents.pop(key, None)
        return SparseMat(self.n_rows, other.n_cols, ents)

    def add(self, other, scale=ONE):
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise DimensionError("shape mismatch")
        ents = dict(self.entries)
        for key, v in other.entries.items():
            s = ents.get(key, ZERO) + scale * v
            if s:
                ents[key] = s
            else:
                ents.pop(key, None)
        return SparseMat(self.n_rows, self.n_cols, ents)

    def is_skew_symmetric(self):
        for (i, j), v in self.entries.items():
            if self.entries.get((j, i), ZERO) != -v:
                return False
        return True


def rank(M):
    """Exact rank over the rationals."""
    pivots, _ = _elim.eliminate(M.row_dicts())
    return len(pivots)


def kernel_basis(M):
    """Basis of the right null space; each vector satisfies M*v = 0.

    Returns one tuple of Fractions per free column, with a 1 in that
    column, so len(result) = n_cols - rank(M).
    """
    pivots, rows = _elim.eliminate(M.row_dicts(), reduce_full=True)
    pivot_set = set(pivots)
    basis = []
    for j in range(M.n_cols):
        if j in pivot_set:
            continue
        v = [ZERO] * M.n_cols
        v[j] = ONE
        for p in pivots:
            c = rows[p].get(j)
            if c:
                v[p] = -c
        basis.append(tuple(v))
    return basis


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
        v = _rat(v)
        if v:
            rows[i][aug] = v
    pivots, red = _elim.eliminate(rows, reduce_full=True)
    if pivots and pivots[-1] == aug:
        return None
    x = [ZERO] * A.n_cols
    for p in pivots:
        x[p] = red[p].get(aug, ZERO)
    if A.mat_vec(x) != [_rat(v) for v in b]:
        return None
    return x


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
        rows[i][n + i] = ONE
    pivots, red = _elim.eliminate(rows, reduce_full=True)
    if pivots and pivots[-1] >= n:
        raise SingularMatrixError("matrix is singular")
    ents = {}
    for p in pivots:
        for c, v in red[p].items():
            if c >= n:
                ents[(p, c - n)] = v
    return SparseMat(n, n, ents)
