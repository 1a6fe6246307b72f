"""Lie poset algebras as sparse matrix algebras, plus the normal form.

``build`` realizes the algebra generated by a poset inside gl/sl (family
A) or inside the form algebra {X : X^T S + S X = 0} (families B, C, D),
reads off exact structure constants, and verifies closure and the
Cartan-Weyl property (``check_jacobi`` tests the Jacobi identity
separately).  Basis order is always Cartan generators first, then root
vectors.  Each ``LieAlg`` derives its root values and, when it is
two-step, its root block from its brackets on first use.

``make_phi`` builds the 2n-dimensional normal form with basis
(d_1..d_n, e_1..e_n) and the single family of relations [d_i, e_i] = e_i.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, starmap
from operator import eq

from . import exactla
from .exactla import SparseMat
from .posets import validate_family


class LieAlgError(ValueError):
    pass


class ClosureError(LieAlgError):
    """Constructed basis dependent, not of the shape the structure constants
    are read off, or not closed under the bracket (internal guard)."""


class CartanWeylError(LieAlgError):
    """A non-Cartan basis element is not a simultaneous ad-eigenvector."""


@dataclass(frozen=True)
class Subspace:
    ambient_dim: int
    basis: tuple  # echelonized coordinate vectors (ints; a Fraction after a division)

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
    realization: tuple = None  # optional {(row, col): +-1 int} dict per basis element

    def structure(self, i, j):
        """[x_i, x_j] as a sparse dict, any index order."""
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        return {k: -v for k, v in self.brackets.get((j, i), {}).items()}

    def root_indices(self):
        return range(self.cartan_count, self.dim)

    # The sparse structure index and the root data: built on first use,
    # once per instance, from ``brackets`` alone (the index shares its
    # dicts: O(nnz), no copies).

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

    @cached_property
    def integral(self):
        """True when every structure constant is an int, as ``build`` and
        ``make_phi`` store them."""
        return all(type(v) is int for vec in self.brackets.values() for v in vec.values())

    @cached_property
    def roots(self):
        """roots[t] = (alpha_t(h_1), ..., alpha_t(h_cc)) for every root vector
        t, where [h_k, x_t] = alpha_t(h_k) x_t, from one pass over ``brackets``:
        the stored [h_k, x_t] is a multiple of x_t exactly when t is its
        only key, so it fails when ``len(vec) > (t in vec)``.

        Raises CartanWeylError when two Cartan generators do not commute
        (checked first) or a root vector x_t is not a simultaneous
        ad(h)-eigenvector (the smallest t, then k, is reported)."""
        cc, labels = self.cartan_count, self.basis_labels
        alpha = {t: [0] * cc for t in self.root_indices()}
        noncommuting, off = [], []
        for (k, t), vec in self.brackets.items():
            if k < cc <= t:
                alpha[t][k] = vec.get(t, 0)
                if len(vec) > (t in vec):
                    off.append((t, k))
            elif k < t < cc and vec:
                noncommuting.append((k, t))
        if noncommuting:
            k, l = min(noncommuting)
            raise CartanWeylError(f"Cartan generators {labels[k]}, {labels[l]} do not commute")
        if off:
            t, k = min(off)
            raise CartanWeylError(f"[{labels[k]}, {labels[t]}] is not a multiple of {labels[t]}")
        return {t: tuple(a) for t, a in alpha.items()}

    @cached_property
    def root_block(self):
        """The root block B[k][t] = alpha_t(h_k), an int cartan_count x
        (dim - cartan_count) SparseMat of the nonzero root values, or None.

        This is the package's two-step test.  B exists when no root-root
        bracket is nonzero and ``roots`` passes its Cartan-Weyl check;
        then [g, g] lies in the abelian span of the root vectors, so g is
        at most two-step solvable.  Conversely, the roots of a Lie poset
        algebra are nonzero, so a nonzero root-root bracket lies in
        [[g, g], [g, g]] and g is not two-step.
        """
        cc = self.cartan_count
        if any(vec for (i, _), vec in self.brackets.items() if i >= cc):
            return None
        try:
            roots = self.roots
        except CartanWeylError:
            return None
        return SparseMat(cc, self.dim - cc, {
            (k, t - cc): v for t, alpha in roots.items() for k, v in enumerate(alpha) if v
        })

    @cached_property
    def root_echelon(self):
        """The integer echelon form ``(pivots, rows)`` of [B | I_c], B =
        ``root_block`` of shape c x m, from ``exactla._elim._echelon``,
        reduced when B is square; None when there is no root block.

        The one elimination of a two-step algebra that ``indexfrob`` reads
        its index, its principal element and its normal form from.  Each
        row's smallest column is its pivot, and the leading columns of an
        echelon basis depend only on the row space, so the pivots below
        column m count rank B and their rows are an echelon form of B's
        row space, whatever the shape.  [B | I_c] has rank c, so a square
        B is invertible exactly when the pivots are the columns 0..m-1;
        then row i is l_i [e_i | row i of B^{-1}] with lead l_i > 0.  The
        rows are shared: callers must not modify them.
        """
        B = self.root_block
        if B is None:
            return None
        c, m = B.n_rows, B.n_cols
        rows = B.row_dicts()
        for i in range(c):
            rows[i][m + i] = 1
        return exactla._elim._echelon(rows, reduce_full=c == m)


def _bracket(g, x, y):
    """[x, y] for sparse coordinate vectors {basis index: coefficient}, as
    such a dict with its zero coefficients dropped (the elimination kernel
    would pivot on an explicit zero).

    Walks only the support of x and, per i there, the nonzero brackets
    [x_i, x_j]."""
    out = {}
    adjacency = g.adjacency
    for i, xi in x.items():
        for j, vec in adjacency[i].items():
            yj = y.get(j)
            if yj:
                c = xi * yj if i < j else -xi * yj
                for k, v in vec.items():
                    out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def bracket(g, x, y):
    """Bilinear extension of the structure tensor to dense coordinate
    vectors: ``_bracket`` on their supports."""
    if len(x) != g.dim or len(y) != g.dim:
        raise exactla.DimensionError("coordinate vector length mismatch")
    return _dense(_bracket(g, _support(x), _support(y)), g.dim)


def _support(vec):
    return {i: v for i, v in enumerate(vec) if v}


def _dense(vec, dim):
    """The coordinate list of a sparse vector {basis index: coefficient}."""
    out = [0] * dim
    for k, v in vec.items():
        out[k] = v
    return out


def basis_vector(g, i):
    return _dense({i: 1}, g.dim)


def make_phi(n):
    """The normal form: basis (d_1..d_n, e_1..e_n), [d_i, e_i] = e_i."""
    if n < 1:
        raise LieAlgError("make_phi requires n >= 1")
    labels = tuple(f"d{i}" for i in range(1, n + 1)) + tuple(
        f"e{i}" for i in range(1, n + 1)
    )
    brackets = {(i, n + i): {n + i: 1} for i in range(n)}
    return LieAlg(dim=2 * n, basis_labels=labels, brackets=brackets, cartan_count=n)


# ---------------------------------------------------------------------------
# Matrix realizations


def _in_form_algebra(X, s):
    """X^T S + S X == 0 for X given as {(a, b): value} on the poset's labels
    and the antidiagonal form S[e, -e] = s[e].

    Entry (r, c) of X^T S + S X is s[-c] X[-c, r] + s[r] X[-r, c].  It can
    be nonzero only at the cells (b, -a) and (-a, b) of an entry (a, b) of
    X, and as s[-e] = +-s[e] it is there +-(s[a] X[a, b] + s[b] X[-b, -a]).
    """
    return not any(s[a] * v + s[b] * X.get((-b, -a), 0) for (a, b), v in X.items())


def _basis(P, variant):
    """([(label, {(a, b): +-1}), ...], cartan_count): the basis matrices on
    P's own labels, Cartan generators first.  The entries are ints, the
    one scalar type of the basis from here to ``_structure_constants``.

    Family A spans gl or sl plus E[a, b] per relation a < b.  Families
    B, C, D lie in the form algebra of S[e, -e] = s_e (s_e = -1 only for
    negative e in family C); every basis element is checked against it.
    """
    elems = P.elements
    if P.family == "A":
        if variant == "gl":
            cartan = [(f"e[{e},{e}]", {(e, e): 1}) for e in elems]
        elif variant == "sl":
            cartan = [(f"e[{a},{a}]-e[{b},{b}]", {(a, a): 1, (b, b): -1})
                      for a, b in zip(elems, elems[1:])]
        else:
            raise LieAlgError(f"unknown variant {variant!r} (expected gl or sl)")
        roots = [(f"e[{a},{b}]", {(a, b): 1}) for a, b in sorted(P.relation)]
        return cartan + roots, len(cartan)
    s = {e: -1 if P.family == "C" and e < 0 else 1 for e in elems}
    # Sign convention: +1 on the -i diagonal slot, so that root values on
    # the Borel come out nonnegative with rows ordered -n..n.
    basis = [(f"h{i}", {(-i, -i): 1, (i, i): -1}) for i in range(1, P.n + 1)]
    # One root vector per mirror orbit {(i, j), (-j, -i)}.
    orbits = {min((a, b), (-b, -a)) for a, b in P.relation}
    for a, b in sorted(orbits):
        if a == -b:
            # Self-paired long root, only possible in family C.
            basis.append((f"e[{a},{b}]", {(a, b): 1}))
        else:
            # X = E[a,b] - sigma E[-b,-a]; the (-a, b) entry of
            # X^T S + S X = 0 forces sigma = s_a s_b.
            sigma = s[a] * s[b]
            basis.append((f"e[{a},{b}]{'-' if sigma == 1 else '+'}e[{-b},{-a}]",
                          {(a, b): 1, (-b, -a): -sigma}))
    for label, X in basis:
        if not _in_form_algebra(X, s):
            raise ClosureError(f"{label} not in the form algebra")
    return basis, P.n


def _structure_constants(ents, labels):
    """brackets[(i, j)] = {k: c_k}, k ascending, with [M_i, M_j] = sum c_k M_k
    for every nonzero commutator of the square basis matrices given by
    their nonzero integer entries ``ents``, {(row, col): value} each; the
    coefficients are ints.

    No elimination: the coordinates are read off.  The basis must have the
    shape of a Lie poset algebra's.  The diagonal matrices are the Cartan
    generators.  Every other matrix, a root vector, has a private leading
    slot: its first position in (row, column) order, off the diagonal,
    nonzero in no other basis matrix, and of entry +-1.  So the root
    matrices are independent of each other and of the Cartan ones, and the
    basis is independent when the Cartan diagonals have full rank, the one
    rank computed here.  Every commutator lies in the nilradical, the span
    of the root matrices.  A Cartan-root commutator is read off a table of
    the diagonals, at[r] = {k: D_k[r]}: [D_k, M_t] = (D_k[r] - D_k[c]) M_rc
    entrywise, so the dict difference at[r] - at[c] at each entry (r, c)
    of M_t gives alpha_t(D_k) for every k at once when the entries agree
    on it, and puts [D_k, M_t] outside the span when they do not.  A
    root-root commutator comes from one pass over the root entries,
    against one index of them by row; its coordinate on root vector k is
    its entry at k's slot times M_k's +-1 there, an int, and the sum of
    those coordinates times the basis is subtracted from it in place: it
    lies in the span exactly when every residual entry is 0.  The first
    failing pair in sorted order is reported.

    Raises ClosureError when a root matrix has no private off-diagonal
    leading slot of entry +-1, when the basis is dependent, or when a
    commutator falls outside the span of the root matrices.
    """
    dim = len(ents)
    cartan, roots = [], []
    for k, E in enumerate(ents):
        (cartan if all(starmap(eq, E)) else roots).append(k)
    touched = Counter(p for k in roots for p in ents[k])
    slot_of = {}
    for k in roots:
        slot = min(ents[k])
        if slot[0] == slot[1] or touched[slot] > 1 or ents[k][slot] not in (1, -1):
            raise ClosureError(
                f"root matrix {labels[k]} has no private off-diagonal leading slot"
                " of entry +-1"
            )
        slot_of[slot] = k
    diag = {k: {r: v for (r, _), v in ents[k].items()} for k in cartan}
    rank = len(roots) + len(exactla._elim.eliminate(list(diag.values()))[0])
    if rank != dim:
        raise ClosureError(f"the {dim} basis matrices are dependent (rank {rank})")
    at = defaultdict(dict)  # diagonal position r -> {k: D_k[r]} over the Cartan k
    for k, D in diag.items():
        for r, v in D.items():
            at[r][k] = v
    coords = {}  # pair -> its coordinates, or None when it leaves the span
    for t in roots:
        alpha, disagree = None, set()
        for r, c in ents[t]:
            diff = dict(at.get(r, {}))
            for k, v in at.get(c, {}).items():
                diff[k] = diff.get(k, 0) - v
            if alpha is None:
                alpha = diff
            elif diff != alpha:
                disagree.update(k for k in alpha.keys() | diff.keys()
                                if alpha.get(k, 0) != diff.get(k, 0))
        for k, a in alpha.items():
            if a:
                coords[(k, t) if k < t else (t, k)] = {t: a if k < t else -a}
        for k in disagree:
            coords[(k, t) if k < t else (t, k)] = None
    in_row = defaultdict(list)
    for j in roots:
        for (m, c), b in ents[j].items():
            in_row[m].append((j, c, b))
    comms = defaultdict(dict)
    for i in roots:
        for (r, m), a in ents[i].items():
            # Entry (r, m) of M_i meets entry (m, c) of M_j: a b at (r, c)
            # of M_i M_j, which is + in [M_i, M_j] and - in [M_j, M_i].
            for j, c, b in in_row.get(m, ()):
                if i < j:
                    comm, v = comms[(i, j)], a * b
                elif j < i:
                    comm, v = comms[(j, i)], -a * b
                else:
                    continue
                comm[(r, c)] = comm.get((r, c), 0) + v
    for pair, comm in comms.items():
        vec = {}
        for p, v in comm.items():
            k = slot_of.get(p)
            if k is not None and v:
                vec[k] = v * ents[k][p]
        for k, c in vec.items():
            for p, v in ents[k].items():
                comm[p] = comm.get(p, 0) - c * v
        closed = not any(comm.values())
        coords[pair] = {k: vec[k] for k in sorted(vec)} if closed else None
    brackets = {}
    for pair in sorted(coords):
        vec = coords[pair]
        if vec is None:
            i, j = pair
            raise ClosureError(f"[{labels[i]}, {labels[j]}] falls outside the basis span")
        if vec:
            brackets[pair] = vec
    return brackets


def build(P, variant="gl"):
    """Lie poset algebra of P with its matrix realization as int entry dicts.

    Family A uses the gl (default) or sl Cartan; families B/C/D ignore
    the variant.  Raises ClosureError if the constructed basis is
    dependent, lacks the private leading slots the structure constants are
    read at, or fails to close under the commutator, and CartanWeylError
    if a root vector is not an ad(h)-eigenvector (neither must happen on
    valid input).
    """
    report = validate_family(P)
    if not report.ok:
        raise LieAlgError(f"poset violates family axioms: {report.violations}")
    basis, cartan_count = _basis(P, variant)
    pos = {e: t for t, e in enumerate(P.elements)}
    ents = [{(pos[a], pos[b]): v for (a, b), v in X.items()} for _, X in basis]
    labels = tuple(label for label, _ in basis)
    g = LieAlg(
        dim=len(ents),
        basis_labels=labels,
        brackets=_structure_constants(ents, labels),
        cartan_count=cartan_count,
        realization=tuple(ents),
    )
    g.roots  # the Cartan-Weyl guard fails here, at build time
    return g


def check_jacobi(g):
    """Exact Jacobi identity over all basis triples, by one scatter over
    the stored brackets.

    For a < b < c the identity is J(a, b, c) = [x_a, [x_b, x_c]]
    + [x_b, [x_c, x_a]] + [x_c, [x_a, x_b]] = 0.  Each stored (j, k), j < k,
    with c x_m in [x_j, x_k], and each nonzero [x_i, x_m] (``adjacency``),
    i not j or k, add c [x_i, x_m] to J of the sorted triple, negated when
    j < i < k, where the triple's term is [x_i, [x_k, x_j]].  A triple
    this never reaches has J = 0; the identity holds when every
    accumulated coefficient is 0."""
    adjacency = g.adjacency
    total = {}
    for (j, k), vec in g.brackets.items():
        for m, c in vec.items():
            for i, w in adjacency[m].items():
                if i == j or i == k:
                    continue
                s = c if i < m else -c
                if i < j:
                    triple = (i, j, k)
                elif i < k:
                    triple, s = (j, i, k), -s
                else:
                    triple = (j, k, i)
                for n, v in w.items():
                    key = (triple, n)
                    total[key] = total.get(key, 0) + s * v
    return not any(total.values())


def check_realization(g):
    """Matrix commutators agree with the structure constants, for every
    pair of basis elements (a pair absent from ``brackets`` must commute),
    by SparseMat products, independent of the read-off they check."""
    if g.realization is None:
        return True
    size = 1 + max((max(p) for E in g.realization for p in E), default=-1)
    mats = [SparseMat(size, size, E) for E in g.realization]
    for i, j in combinations(range(g.dim), 2):
        expected = SparseMat(size, size, {})
        for k, c in g.structure(i, j).items():
            expected = expected.add(mats[k], scale=c)
        comm = mats[i].matmul(mats[j]).add(mats[j].matmul(mats[i]), scale=-1)
        if comm != expected:
            return False
    return True


def derived_series(g):
    """(subspaces g^0 >= g^1 >= ... >= 0, derived_length, k_step).

    derived_length is the last k with g^k != 0; k_step = derived_length + 1
    ("(k+1)-step solvable").  Lie poset algebras are always solvable, so
    the series reaches zero.  g^0 is the unit basis; each g^(k+1) is the
    span of the brackets of the reduced echelon basis of g^k, the pivot
    rows of one elimination.  While that basis is unit vectors x_i, i in S
    (always, on a Lie poset algebra), those brackets are the stored ones
    with both indices in S; only another basis is bracketed pair by pair.
    The entries stay ints until the kernel divides out a lead that is not
    +-1 (as [h, e] = 2e in sl), which gives a Fraction.
    """
    dim = g.dim
    basis = [{i: 1} for i in range(dim)]
    series = [Subspace(dim, tuple(tuple(_dense(x, dim)) for x in basis))]
    while series[-1].dim:
        if all(len(x) == 1 for x in basis):
            span = {i for x in basis for i in x}
            # The kernel would pivot on an explicit zero coefficient.
            rows = [{k: v for k, v in vec.items() if v}
                    for (i, j), vec in g.brackets.items() if i in span and j in span]
        else:
            rows = [_bracket(g, x, y) for x, y in combinations(basis, 2)]
        pivots, red = exactla._elim.eliminate(rows, reduce_full=True)
        basis = [red[p] for p in pivots]
        series.append(Subspace(dim, tuple(tuple(_dense(x, dim)) for x in basis)))
        if 0 < series[-1].dim >= series[-2].dim:
            raise LieAlgError("derived series does not decrease: not solvable")
    derived_length = max(len(series) - 2, 0)
    return series, derived_length, derived_length + 1


def center(g):
    """Kernel of the stacked adjoint action: {x : [x, b] = 0 for all b}.
    Its nonzero rows (j, k), {i: coefficient of x_k in [x_i, x_j]}, in
    (j, k) order, go to ``exactla.kernel_basis``."""
    rows = defaultdict(dict)
    for j in range(g.dim):
        for i, vec in g.adjacency[j].items():
            for k, c in vec.items():
                if c:
                    rows[(j, k)][i] = c if i < j else -c
    return Subspace(g.dim, tuple(exactla.kernel_basis([rows[r] for r in sorted(rows)], g.dim)))


def sparsity_pattern(g):
    """Joint support of the matrix realization (set of (row, col) pairs)."""
    if g.realization is None:
        raise LieAlgError("algebra has no matrix realization")
    return set().union(*g.realization)


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
