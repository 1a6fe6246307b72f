"""Lie poset algebras as sparse matrix algebras, plus the normal form.

``build`` realizes the algebra generated by a poset inside gl/sl (family
A) or inside the form algebra {X : X^T S + S X = 0} (families B, C, D),
extracts exact structure constants, and verifies closure, the Jacobi
identity and the Cartan-Weyl property.  Basis order is always Cartan
generators first, then root vectors.

``make_phi`` builds the 2n-dimensional normal form with basis
(d_1..d_n, e_1..e_n) and the single family of relations [d_i, e_i] = e_i.
"""

from dataclasses import dataclass
from functools import cached_property

from . import exactla
from .exactla import ONE, ZERO, SparseMat
from .posets import validate_family


class LieAlgError(ValueError):
    pass


class ClosureError(LieAlgError):
    """Constructed basis not closed under the bracket (internal guard)."""


class CartanWeylError(LieAlgError):
    """A non-Cartan basis element is not a simultaneous ad-eigenvector."""


@dataclass(frozen=True)
class Subspace:
    ambient_dim: int
    basis: tuple  # echelonized coordinate vectors (tuples of Fractions)

    @property
    def dim(self):
        return len(self.basis)


@dataclass(frozen=True)
class LieAlg:
    dim: int
    basis_labels: tuple
    # brackets[(i, j)] for i < j maps basis index k -> coefficient of x_k
    # in [x_i, x_j]; pairs with zero bracket are absent.
    brackets: dict
    cartan_count: int
    realization: tuple = None  # optional SparseMat per basis element
    roots: dict = None  # root-vector index t -> tuple of alpha_t(h_k)

    def structure(self, i, j):
        """[x_i, x_j] as a sparse dict, any index order."""
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        return {k: -v for k, v in self.brackets.get((j, i), {}).items()}

    def root_indices(self):
        return range(self.cartan_count, self.dim)

    # The sparse structure index: built on first use, once per instance,
    # from ``brackets`` alone, sharing its dicts (O(nnz), no copies).

    @cached_property
    def adjacency(self):
        """adjacency[i] maps j -> brackets[(min(i, j), max(i, j))] for every
        nonzero pair, keys ascending; [x_i, x_j] is that dict for i < j and
        its negative for i > j."""
        adjacency = tuple({} for _ in range(self.dim))
        for i, j in sorted(self.brackets):
            vec = self.brackets[(i, j)]
            if vec:
                adjacency[i][j] = vec
                adjacency[j][i] = vec
        return adjacency

    @cached_property
    def producers(self):
        """producers[k] = ((a, b, c), ...) with a < b ascending, where c != 0
        is the coefficient of x_k in [x_a, x_b]."""
        producers = tuple([] for _ in range(self.dim))
        for a, b in sorted(self.brackets):
            for k, c in self.brackets[(a, b)].items():
                producers[k].append((a, b, c))
        return tuple(tuple(p) for p in producers)


def bracket(g, x, y):
    """Bilinear extension of the structure tensor to coordinate vectors.

    Walks only the support of x and, per i there, the nonzero brackets
    [x_i, x_j]."""
    if len(x) != g.dim or len(y) != g.dim:
        raise exactla.DimensionError("coordinate vector length mismatch")
    out = [ZERO] * g.dim
    adjacency = g.adjacency
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, vec in adjacency[i].items():
            yj = y[j]
            if yj:
                c = xi * yj if i < j else -xi * yj
                for k, v in vec.items():
                    out[k] += c * v
    return out


def basis_vector(g, i):
    v = [ZERO] * g.dim
    v[i] = ONE
    return v


def make_phi(n):
    """The normal form: basis (d_1..d_n, e_1..e_n), [d_i, e_i] = e_i."""
    if n < 1:
        raise LieAlgError("make_phi requires n >= 1")
    labels = tuple(f"d{i}" for i in range(1, n + 1)) + tuple(
        f"e{i}" for i in range(1, n + 1)
    )
    brackets = {(i, n + i): {n + i: ONE} for i in range(n)}
    roots = {
        n + i: tuple(ONE if k == i else ZERO for k in range(n)) for i in range(n)
    }
    return LieAlg(
        dim=2 * n,
        basis_labels=labels,
        brackets=brackets,
        cartan_count=n,
        realization=None,
        roots=roots,
    )


# ---------------------------------------------------------------------------
# Matrix realizations


def _form_matrix(P):
    """Defining bilinear form S for families B, C, D (antidiagonal)."""
    elems = P.elements
    size = len(elems)
    idx = {e: t for t, e in enumerate(elems)}
    ents = {}
    for e in elems:
        if e == 0:
            ents[(idx[0], idx[0])] = ONE
        else:
            val = ONE if P.family in ("B", "D") else (ONE if e > 0 else -ONE)
            ents[(idx[e], idx[-e])] = val
    return SparseMat(size, size, ents)


def _in_form_algebra(X, S):
    return X.transpose().matmul(S).add(S.matmul(X)) == SparseMat(
        X.n_rows, X.n_cols, {}
    )


def _family_a_basis(P, variant):
    elems = P.elements
    N = len(elems)
    idx = {e: t for t, e in enumerate(elems)}
    cartan, labels = [], []
    if variant == "gl":
        for e in elems:
            cartan.append(SparseMat(N, N, {(idx[e], idx[e]): ONE}))
            labels.append(f"e[{e},{e}]")
    elif variant == "sl":
        for a, b in zip(elems, elems[1:]):
            cartan.append(
                SparseMat(N, N, {(idx[a], idx[a]): ONE, (idx[b], idx[b]): -ONE})
            )
            labels.append(f"e[{a},{a}]-e[{b},{b}]")
    else:
        raise LieAlgError(f"unknown variant {variant!r} (expected gl or sl)")
    roots, rlabels = [], []
    for a, b in sorted(P.relation):
        roots.append(SparseMat(N, N, {(idx[a], idx[b]): ONE}))
        rlabels.append(f"e[{a},{b}]")
    return cartan + roots, labels + rlabels, len(cartan)


def _family_bcd_basis(P):
    elems = P.elements
    size = len(elems)
    idx = {e: t for t, e in enumerate(elems)}
    S = _form_matrix(P)
    n = P.n
    cartan, labels = [], []
    for i in range(1, n + 1):
        # Sign convention: +1 on the -i diagonal slot, so that root values
        # on the Borel come out nonnegative with rows ordered -n..n.
        h = SparseMat(size, size, {(idx[-i], idx[-i]): ONE, (idx[i], idx[i]): -ONE})
        if not _in_form_algebra(h, S):
            raise ClosureError(f"Cartan generator h{i} not in the form algebra")
        cartan.append(h)
        labels.append(f"h{i}")
    # One root vector per mirror orbit {(i, j), (-j, -i)}.
    orbits = {}
    for a, b in P.relation:
        rep = min((a, b), (-b, -a))
        orbits.setdefault(rep, (a, b))
    roots, rlabels = [], []
    for a, b in sorted(orbits):
        if a == -b:
            # Self-paired long root, only possible in family C.
            X = SparseMat(size, size, {(idx[a], idx[b]): ONE})
            label = f"e[{a},{b}]"
            if not _in_form_algebra(X, S):
                raise ClosureError(f"long root at ({a},{b}) not in the form algebra")
        else:
            X = None
            for sigma in (ONE, -ONE):
                cand = SparseMat(
                    size,
                    size,
                    {(idx[a], idx[b]): ONE, (idx[-b], idx[-a]): -sigma},
                )
                if _in_form_algebra(cand, S):
                    X = cand
                    label = (
                        f"e[{a},{b}]{'-' if sigma == ONE else '+'}e[{-b},{-a}]"
                    )
                    break
            if X is None:
                raise ClosureError(f"no sign makes ({a},{b}) orbit lie in the algebra")
        roots.append(X)
        rlabels.append(label)
    return cartan + roots, labels + rlabels, n


def _structure_constants(mats, labels):
    """brackets[(i, j)] = {k: c_k}, k ascending, with [M_i, M_j] = sum c_k M_k
    for every nonzero commutator of the basis matrices ``mats``.

    One elimination of the basis, taken as rows over matrix positions,
    picks dim positions at which the stacked basis is invertible; that
    block is inverted once, the coordinates of a commutator are the inverse
    applied to its entries at those positions, and each is checked exactly
    by summing the basis back.  Raises ClosureError when the basis is
    dependent or a commutator falls outside its span.
    """
    dim = len(mats)
    positions = sorted({p for M in mats for p in M.entries})
    col_of = {p: c for c, p in enumerate(positions)}
    rows = [{col_of[p]: v for p, v in M.entries.items()} for M in mats]
    pivots, _ = exactla._elim.eliminate(rows, len(positions))
    if len(pivots) != dim:
        raise ClosureError(
            f"the {dim} basis matrices are dependent (rank {len(pivots)})"
        )
    pivot_of = {positions[c]: r for r, c in enumerate(pivots)}
    block = SparseMat(dim, dim, {
        (pivot_of[p], k): v
        for k, M in enumerate(mats)
        for p, v in M.entries.items()
        if p in pivot_of
    })
    # inverse_cols[r] = column r of the inverse, as {k: value}.
    inverse_cols = [{} for _ in range(dim)]
    for (k, r), v in exactla.invert(block).entries.items():
        inverse_cols[r][k] = v
    by_row = [M.row_dicts() for M in mats]
    rows_of = [{r for r, _ in M.entries} for M in mats]
    cols_of = [{c for _, c in M.entries} for M in mats]
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            # M_i M_j is zero unless a column of M_i meets a row of M_j.
            ij = not cols_of[i].isdisjoint(rows_of[j])
            ji = not cols_of[j].isdisjoint(rows_of[i])
            if not (ij or ji):
                continue
            comm = _product(mats[i], by_row[j]) if ij else {}
            if ji:
                for p, v in _product(mats[j], by_row[i]).items():
                    comm[p] = comm.get(p, ZERO) - v
            comm = {p: v for p, v in comm.items() if v}
            if not comm:
                continue
            coords = {}
            for p, v in comm.items():
                r = pivot_of.get(p)
                if r is not None:
                    for k, w in inverse_cols[r].items():
                        coords[k] = coords.get(k, ZERO) + v * w
            vec = {k: coords[k] for k in sorted(coords) if coords[k]}
            back = {}
            for k, c in vec.items():
                for p, v in mats[k].entries.items():
                    back[p] = back.get(p, ZERO) + c * v
            if {p: v for p, v in back.items() if v} != comm:
                raise ClosureError(
                    f"[{labels[i]}, {labels[j]}] falls outside the basis span"
                )
            brackets[(i, j)] = vec
    return brackets


def _product(A, B_rows):
    """A B as {position: value}, zeros kept; B is given by its row dicts."""
    out = {}
    for (r, k), a in A.entries.items():
        for c, b in B_rows[k].items():
            out[(r, c)] = out.get((r, c), ZERO) + a * b
    return out


def build(P, variant="gl"):
    """Lie poset algebra of P with sparse matrix realization.

    Family A uses the gl (default) or sl Cartan; families B/C/D ignore
    the variant.  Raises ClosureError if the constructed basis is
    dependent or fails to close under the commutator (must not happen on
    valid input).
    """
    report = validate_family(P)
    if not report.ok:
        raise LieAlgError(f"poset violates family axioms: {report.violations}")
    if P.family == "A":
        mats, labels, cartan_count = _family_a_basis(P, variant)
    else:
        mats, labels, cartan_count = _family_bcd_basis(P)
    labels = tuple(labels)
    brackets = _structure_constants(mats, labels)
    return LieAlg(
        dim=len(mats),
        basis_labels=labels,
        brackets=brackets,
        cartan_count=cartan_count,
        realization=tuple(mats),
        roots=_root_values(brackets, cartan_count, labels),
    )


def cartan_weyl_extract(g):
    """Verify every non-Cartan basis element is a simultaneous ad(h)
    eigenvector and return {t: (alpha_t(h_1), ..., alpha_t(h_cc))}.
    """
    return _root_values(g.brackets, g.cartan_count, g.basis_labels)


def _root_values(brackets, cartan_count, labels):
    for k in range(cartan_count):
        for l in range(k + 1, cartan_count):
            if brackets.get((k, l)):
                raise CartanWeylError(
                    f"Cartan generators {labels[k]}, {labels[l]} do not commute"
                )
    roots = {}
    for t in range(cartan_count, len(labels)):
        alpha = []
        for k in range(cartan_count):
            vec = brackets.get((k, t), {})
            if any(m != t for m in vec):
                raise CartanWeylError(
                    f"[{labels[k]}, {labels[t]}] is not a multiple of {labels[t]}"
                )
            alpha.append(vec.get(t, ZERO))
        roots[t] = tuple(alpha)
    return roots


def check_jacobi(g):
    """Exact Jacobi identity over all basis triples."""
    basis = [basis_vector(g, i) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                s = bracket(g, basis[i], bracket(g, basis[j], basis[k]))
                t = bracket(g, basis[j], bracket(g, basis[k], basis[i]))
                u = bracket(g, basis[k], bracket(g, basis[i], basis[j]))
                if any(a + b + c for a, b, c in zip(s, t, u)):
                    return False
    return True


def check_realization(g):
    """Matrix commutators agree with the structure constants."""
    if g.realization is None:
        return True
    mats = g.realization
    for (i, j), vec in g.brackets.items():
        expected = SparseMat(mats[0].n_rows, mats[0].n_cols, {})
        for k, c in vec.items():
            expected = expected.add(mats[k], scale=c)
        comm = mats[i].matmul(mats[j]).add(mats[j].matmul(mats[i]), scale=-ONE)
        if comm != expected:
            return False
    return True


def _span(g, vectors):
    from .exactla import _elim

    rows = [
        {i: v for i, v in enumerate(vec) if v} for vec in vectors
    ]
    pivots, red = _elim.eliminate(rows, g.dim, reduce_full=True)
    basis = []
    for p in pivots:
        vec = [ZERO] * g.dim
        for c, v in red[p].items():
            vec[c] = v
        basis.append(tuple(vec))
    return Subspace(ambient_dim=g.dim, basis=tuple(basis))


def derived_series(g):
    """(subspaces g^0 >= g^1 >= ... >= 0, derived_length, k_step).

    derived_length is the last k with g^k != 0; k_step = derived_length + 1
    ("(k+1)-step solvable").  Lie poset algebras are always solvable, so
    the series reaches zero.
    """
    series = [_span(g, [basis_vector(g, i) for i in range(g.dim)])]
    while series[-1].dim:
        prev = series[-1].basis
        gens = []
        for i in range(len(prev)):
            for j in range(i + 1, len(prev)):
                gens.append(bracket(g, prev[i], prev[j]))
        series.append(_span(g, gens))
        if series[-1].dim >= series[-2].dim and series[-1].dim:
            raise LieAlgError("derived series does not decrease: not solvable")
    derived_length = len(series) - 2 if g.dim else 0
    return series, max(derived_length, 0), max(derived_length, 0) + 1


def center(g):
    """Kernel of the stacked adjoint action: {x : [x, b] = 0 for all b}."""
    ents = {}
    for j in range(g.dim):
        for i, vec in g.adjacency[j].items():
            for k, c in vec.items():
                ents[(j * g.dim + k, i)] = c if i < j else -c
    A = SparseMat(g.dim * g.dim, g.dim, ents)
    return Subspace(ambient_dim=g.dim, basis=tuple(exactla.kernel_basis(A)))


def sparsity_pattern(g):
    """Joint support of the matrix realization (set of (row, col) pairs)."""
    if g.realization is None:
        raise LieAlgError("algebra has no matrix realization")
    pattern = set()
    for M in g.realization:
        pattern |= set(M.entries)
    return pattern


def algebra_to_json(g):
    return {
        "dim": g.dim,
        "cartan_count": g.cartan_count,
        "basis_labels": list(g.basis_labels),
        "brackets": [
            {
                "pair": [i, j],
                "value": {str(k): [v.numerator, v.denominator] for k, v in vec.items()},
            }
            for (i, j), vec in sorted(g.brackets.items())
        ],
    }
