"""Chevalley-Eilenberg cochain complex with adjoint coefficients.

Cochain coordinates are (strictly increasing basis-index tuple, target
basis index), ordered lexicographically by tuple then target; that order
is frozen so dumped matrices are stable.  The degree-0 differential is
d(x)(g1) = [g1, x], which makes H^0 the center -- all other signs then
follow from the standard alternating-sum formula.
"""

import bisect
import itertools
import math
from dataclasses import dataclass

from . import exactla, liealg, simplicial
from .exactla import SparseMat

DEFAULT_MAX_DIM = 12


class DegreeError(ValueError):
    pass


@dataclass(frozen=True)
class CoboundaryMap:
    degree: int
    matrix: SparseMat
    col_index: tuple  # (tuple, target) per column of C^degree
    row_index: tuple  # (tuple, target) per row of C^(degree+1)


def cochain_dim(g, n):
    """dim C^n(g, g) = C(dim, n) * dim."""
    if not 0 <= n <= g.dim:
        raise DegreeError(f"degree {n} out of range for dim {g.dim}")
    return math.comb(g.dim, n) * g.dim


def coboundary_matrix(g, n):
    """Exact matrix of the degree-n differential C^n -> C^(n+1).

    At n = dim the target space is zero and the matrix has no rows.
    """
    if not 0 <= n <= g.dim:
        raise DegreeError(f"degree {n} out of range for dim {g.dim}")
    dim = g.dim
    combos_n = list(itertools.combinations(range(dim), n))
    combos_n1 = list(itertools.combinations(range(dim), n + 1))
    pos_n1 = {G: i for i, G in enumerate(combos_n1)}
    cells = ((S, range(dim)) for S in combos_n)
    ents = _assemble(g, cells, pos_n1, 0)
    rows = math.comb(dim, n + 1) * dim
    cols = math.comb(dim, n) * dim
    return CoboundaryMap(
        degree=n,
        matrix=SparseMat(rows, cols, ents),
        col_index=tuple((S, t) for S in combos_n for t in range(dim)),
        row_index=tuple((S, t) for S in combos_n1 for t in range(dim)),
    )


def _assemble(g, cells, pos_n1, skip_below):
    """Entries {(row, col): value} of the differential on some columns.

    The entries are sums of g's structure constants and of their
    negatives, so they are ints when these are.  ``cells`` yields
    (S, targets): a degree-n tuple S and the ascending targets t of its
    columns (S, t), numbered consecutively in that order.  Row (G, t) of
    C^(n+1) is ``pos_n1[G] * g.dim + t``.

    Every term that brackets with a basis index a < ``skip_below`` is left
    out: ``coboundary_matrix`` passes 0 and keeps them all, the relative
    blocks pass ``g.cartan_count``, whose Cartan terms cancel (see
    "Weight grading and the relative complex").
    """
    dim, adjacency, producers = g.dim, g.adjacency, g.producers
    ents = {}

    def add(row, val, col):
        if not val:
            return
        key = (row, col)
        old = ents.get(key)
        if old is None:
            ents[key] = val
            return
        s = old + val
        if s:
            ents[key] = s
        else:
            del ents[key]

    col = 0
    for S, targets in cells:
        # Module term: insert a into S at position p; the cochain eats the
        # rest.  Row offset and sign depend on (S, a) only, and are found
        # on first use (None when a is in S).
        inserted = {}
        # Bracket term: replace k in S by a bracketed pair (a, b).  It does
        # not depend on the target t, so its rows and values are shared.
        replaced = []
        for q, k in enumerate(S):
            R = S[:q] + S[q + 1:]
            in_R = set(R)
            for a, b, c in producers[k]:
                # a < b, so a pair with a Cartan index has it as a.
                if a < skip_below or a in in_R or b in in_R:
                    continue
                G = tuple(sorted(R + (a, b)))
                i, j = G.index(a) + 1, G.index(b) + 1
                # (-1)^(i + j) from the pair, (-1)^q from removing k.
                val = c if (i + j + q) % 2 == 0 else -c
                replaced.append((pos_n1[G] * dim, val))
        for t in targets:
            for a, vec in adjacency[t].items():
                if a < skip_below:
                    continue
                if a in inserted:
                    ins = inserted[a]
                else:
                    p = bisect.bisect_left(S, a)
                    ins = inserted[a] = (
                        (pos_n1[S[:p] + (a,) + S[p:]] * dim, p % 2 == 0)
                        if p == len(S) or S[p] != a
                        else None
                    )
                if ins is None:
                    continue
                base, even = ins
                # [x_a, x_t] is vec for a < t and -vec for a > t.
                positive = even == (a < t)
                for m, c in vec.items():
                    add(base + m, c if positive else -c, col)
            for base, val in replaced:
                add(base + t, val, col)
            col += 1
    return ents


# ---------------------------------------------------------------------------
# Weight grading and the relative complex
#
# The Cartan generators act diagonally: weight 0 on themselves and
# roots[t] on root vector t.  A cochain (S, t) has weight
# wt(t) - sum of wt(s) over s in S, and every differential preserves it.
# By Cartan's formula theta(h) = d iota(h) + iota(h) d, theta(h) is
# null-homotopic, and it acts on the weight-lambda cochains by lambda(h);
# so every block of nonzero weight is acyclic (Hochschild-Serre).  Its
# ranks follow by counting: rank d^n_lambda is the alternating sum of
# dim C^j_lambda over j <= n.  Only the weight-0 block needs elimination.
#
# When moreover [g, g] lies in the root span n, as it does for every
# algebra ``build`` and ``make_phi`` produce, the weight-0 block is, as a
# complex, Lambda h* (x) C(g, h; g).  The relative complex R = C(g, h; g)
# is spanned in degree j by the weight-0 cochains (S, t) whose S holds j
# root indices and no Cartan index.  An alpha in h*, pulled back along
# g -> g/n, has d alpha = 0 because [g, g] lies in n; a relative f has
# iota(h) df = theta(h) f - d iota(h) f = 0, so df is relative again, and
# d(alpha ^ f) = +-alpha ^ df.  Hence, with cc = dim h,
#     dim C^m_0 = sum over i of C(cc, i) dim R^(m-i),
#     rank d^m_0 = sum over i of C(cc, i) rank d_R^(m-i),
# and only the blocks d_R^j are assembled and ranked.  In a relative
# column (S, t), a Cartan index a contributes a module term and a bracket
# term (the pair (a, k) in place of k in S) to the same row, S with a
# inserted; together they are the cochain's weight at h_a, which is 0, so
# ``_assemble`` skips both.


def _weight_keys(g):
    """One int per basis element, additive in the weights and exact.

    The root values, scaled by the lcm of their denominators, are integer
    vectors with components of size at most M.  A cochain weight sums at
    most dim + 1 of them, so its components stay below (dim + 1) * M, and
    packing them in base 2 * (dim + 1) * M + 1 is additive and injective:
    a cochain has weight 0 exactly when its key sum is 0.
    """
    roots = g.roots
    scale = math.lcm(*(v.denominator for alpha in roots.values() for v in alpha))
    ints = {t: [int(v * scale) for v in alpha] for t, alpha in roots.items()}
    bound = max((abs(v) for alpha in ints.values() for v in alpha), default=0)
    radix = 2 * (g.dim + 1) * bound + 1
    keys = [0] * g.dim
    for t, alpha in ints.items():
        for v in reversed(alpha):
            keys[t] = keys[t] * radix + v
    return keys


def _weight0_cells(g, top):
    """cells[j], j = 0..top: (S, targets) for every degree-j tuple S of
    root indices that has weight-0 cochains (S, t), with those targets
    ascending; they span R^j, the relative complex in degree j."""
    keys = _weight_keys(g)
    targets = {}
    for t, key in enumerate(keys):
        targets.setdefault(key, []).append(t)
    roots, key = range(g.cartan_count, g.dim), keys.__getitem__
    return [
        [(S, targets[w]) for S in itertools.combinations(roots, j)
         if (w := sum(map(key, S))) in targets]
        for j in range(top + 1)
    ]


def _relative_rank(g, j, cells):
    """Exact rank over Q of d_R^j: R^j -> R^(j+1), assembled column by
    column from the cells of degree j with the Cartan terms skipped; its
    rows are the cells of degree j + 1.  The row dicts go to the kernel as
    assembled: ints on an integral algebra, which stay ints while the
    pivots are units."""
    dim = g.dim
    # Tuples are numbered among the relative cells only.
    pos_n1, row_of = {}, {}
    for i, (G, ts) in enumerate(cells[j + 1]):
        pos_n1[G] = i
        for t in ts:
            row_of[i * dim + t] = len(row_of)
    rows = [{} for _ in row_of]
    # A row outside row_of or pos_n1 would be a weight the differential
    # does not preserve; the KeyError stops the report rather than miscount.
    for (r, c), v in _assemble(g, cells[j], pos_n1, g.cartan_count).items():
        rows[row_of[r]][c] = v
    return len(exactla._elim.eliminate(rows)[0])


def cohomology_report(g, n, max_dim=DEFAULT_MAX_DIM):
    """Dims of C^n, Z^n, B^n, H^n.

    Only the relative complex R = C(g, h; g) is eliminated exactly, its
    blocks d_R^0..d_R^n.  The weight-0 block is Lambda h* (x) R as a
    complex (see "Weight grading and the relative complex"), so with
    cc = dim h its dims and ranks are binomial sums:
    c0_m = sum_i C(cc, i) r_(m-i) and rank d^m_0 = sum_i C(cc, i)
    rank d_R^(m-i), with r_j = dim R^j and c0_m = dim C^m_0.  The blocks
    of nonzero weight are acyclic, so their ranks are counted:
    rank d^m = rank d^m_0 + sum over j <= m of (-1)^(m-j) (c_j - c0_j),
    with c_j = dim C^j.  Above the algebra's dimension C^n = 0, so all
    four are 0.

    Every degree n >= 0 is answered; a negative n raises DegreeError.  The
    one guard, dim > ``max_dim`` (DegreeError), bounds every degree: the
    cells are tuples of the r <= dim - 1 root indices, 2^r at most in all.

    Raises ValueError, naming the bracket, when a bracket has a component
    on a Cartan generator: then [g, g] is not in the root span and the
    splitting fails.  ``build`` and ``make_phi`` never produce one.
    """
    if n < 0:
        raise DegreeError(f"degree {n} < 0")
    if g.dim > max_dim:
        raise DegreeError(f"dimension guard: dim {g.dim} > {max_dim}")
    cc, labels = g.cartan_count, g.basis_labels
    for k in range(cc):
        if g.producers[k]:
            a, b, _ = g.producers[k][0]
            raise ValueError(
                f"[{labels[a]}, {labels[b]}] has a component on the Cartan "
                f"generator {labels[k]}: [g, g] is not in the root span"
            )
    if n > g.dim:
        return {"C": 0, "Z": 0, "B": 0, "H": 0}
    cells = _weight0_cells(g, n + 1)
    r_dim = [sum(len(ts) for _, ts in level) for level in cells]
    r_rank = [_relative_rank(g, j, cells) for j in range(n + 1)]

    def weight0(seq, m):  # degree m of Lambda h* (x) R
        return sum(math.comb(cc, i) * seq[m - i] for i in range(min(cc, m) + 1))

    # rank d^m on the nonzero weights, m = 0..n: exactness there gives
    # rank d^m = (c_m - c0_m) - rank d^(m-1).
    nonzero_rank, r = [], 0
    for m in range(n + 1):
        r = cochain_dim(g, m) - weight0(r_dim, m) - r
        nonzero_rank.append(r)
    c_dim = cochain_dim(g, n)
    z_dim = c_dim - weight0(r_rank, n) - nonzero_rank[n]
    b_dim = weight0(r_rank, n - 1) + nonzero_rank[n - 1] if n >= 1 else 0
    return {"C": c_dim, "Z": z_dim, "B": b_dim, "H": z_dim - b_dim}


def cohomology_dim(g, n, max_dim=DEFAULT_MAX_DIM):
    return cohomology_report(g, n, max_dim=max_dim)["H"]


# ---------------------------------------------------------------------------
# Shape of Z^2 for the normal form


def _cochain_from_vector(cm, vec):
    out = {}
    for col, v in enumerate(vec):
        if v:
            out[cm.col_index[col]] = v
    return out


def _coeff(F2, pair, target):
    """Coefficient of x_target in F2(x_a, x_b) for an ordered pair (a, b)."""
    a, b = pair
    if a < b:
        return F2.get(((a, b), target), 0)
    return -F2.get(((b, a), target), 0)


def z2_shape_check_phi(n):
    """Verify every 2-cocycle of the normal form Phi_n has the constrained
    support shape, and that the explicit 1-cochain recipe cobounds it.

    Returns (True, None), or (False, counterexample cochain dict).
    """
    g = liealg.make_phi(n)
    d2 = coboundary_matrix(g, 2)
    kernel = exactla.kernel_basis(d2.matrix.row_dicts(), d2.matrix.n_cols)
    d1 = coboundary_matrix(g, 1)
    col_pos = {key: c for c, key in enumerate(d1.col_index)}
    d = list(range(n))  # indices of d_1..d_n
    e = [n + i for i in range(n)]  # indices of e_1..e_n
    for vec in kernel:
        F2 = _cochain_from_vector(d2, vec)
        if not _shape_ok(F2, n, d, e) or not _recipe_cobounds(d1, col_pos, F2, n, d, e):
            return False, F2
    return True, None


def _shape_ok(F2, n, d, e):
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            allowed = {e[i], e[j]}
            for pair in ((e[i], e[j]), (d[i], d[j]), (d[i], e[j])):
                for t in range(2 * n):
                    if t not in allowed and _coeff(F2, pair, t):
                        return False
    # Coupled diagonal constraint on F2(d_i, e_i).
    for i in range(n):
        for t in range(2 * n):
            val = _coeff(F2, (d[i], e[i]), t)
            if t == e[i] or t == d[i]:
                continue
            if t in e:
                k = e.index(t)
                if val != -_coeff(F2, (d[k], e[i]), e[k]):
                    return False
            else:
                k = d.index(t)
                if val != -_coeff(F2, (e[i], e[k]), e[k]):
                    return False
    return True


def _recipe_cobounds(d1, col_pos, F2, n, d, e):
    """Build the 1-cochain from the closed-form recipe and check dF1 = F2.

    ``d1`` is the degree-1 differential and ``col_pos`` maps its column
    keys to positions."""
    F1 = {}

    def put(src, tgt, val):
        if val:
            F1[(src, tgt)] = F1.get((src, tgt), 0) + val

    for i in range(n):
        for j in range(n):
            if i != j:
                put(e[i], d[j], _coeff(F2, (e[i], e[j]), e[j]))
                put(d[j], e[i], _coeff(F2, (d[i], d[j]), e[i]))
                put(e[j], e[i], _coeff(F2, (d[i], e[j]), e[i]))
            put(d[i], d[j], _coeff(F2, (d[i], e[j]), e[j]))
        put(e[i], d[i], -_coeff(F2, (d[i], e[i]), d[i]))

    vec = [0] * len(d1.col_index)
    for (src, tgt), val in F1.items():
        vec[col_pos[((src,), tgt)]] += val
    image = d1.matrix.mat_vec(vec)
    want = [0] * len(d1.row_index)
    for r, key in enumerate(d1.row_index):
        want[r] = F2.get(key, 0)
    return image == want


# ---------------------------------------------------------------------------
# The three-component comparison for type-A second cohomology


@dataclass(frozen=True)
class H2ComparisonReport:
    lhs: int
    rhs: int
    pieces: tuple  # (wedge^2 h* x center, h* x H^1(nerve), H^2(nerve))
    match: bool


def compare_h2(P, variant="gl", max_dim=DEFAULT_MAX_DIM):
    """Compare dim H^2(g, g) against the three simplicial components
    C(dim h, 2)*dim(center) + dim h * dim H^1(nerve) + dim H^2(nerve),
    computed along fully independent code paths.
    """
    g = liealg.build(P, variant=variant)
    lhs = cohomology_dim(g, 2, max_dim=max_dim)
    h_dim = g.cartan_count
    c_dim = liealg.center(g).dim
    h1 = simplicial.simplicial_cohomology_dim(P, 1)
    h2 = simplicial.simplicial_cohomology_dim(P, 2)
    pieces = (math.comb(h_dim, 2) * c_dim, h_dim * h1, h2)
    rhs = sum(pieces)
    return H2ComparisonReport(lhs=lhs, rhs=rhs, pieces=pieces, match=(lhs == rhs))


def dump_complex(cm, stream):
    """Sparse triplet text: one 'row col numerator/denominator' per line."""
    stream.write(f"# degree {cm.degree}: {cm.matrix.n_rows} x {cm.matrix.n_cols}\n")
    for (i, j), v in sorted(cm.matrix.entries.items()):
        stream.write(f"{i} {j} {v.numerator}/{v.denominator}\n")


__all__ = [
    "CoboundaryMap",
    "H2ComparisonReport",
    "cochain_dim",
    "coboundary_matrix",
    "cohomology_dim",
    "cohomology_report",
    "dump_complex",
    "compare_h2",
    "z2_shape_check_phi",
]
