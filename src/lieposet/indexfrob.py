"""Index, Frobenius functionals, block form, normalization, and spectra.

On a two-step algebra (one with a ``root_block`` B) the index is exact:
in the Cartan-first basis the Kirillov matrix at f is
[[0, B D_f], [-(B D_f)^T, 0]] with D_f = diag(f(e_t)), so
ind g = dim - 2 rank(B), and the structured candidate attains that rank.
Every other algebra is evaluated at random functionals, ranked modulo a
prime above the coefficients of every minor (``_modulus``): a nonsingular
evaluation proves index 0 outright, while a positive index is
probabilistic (the rank of a random evaluation can only undershoot the
generic rank, off a hypersurface of functionals), and the certificate says
so and carries the Schwartz-Zippel bound on the chance that it is wrong.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import exactla, liealg
from .exactla import SparseMat
# bracket and derived_series are not called here; they are re-exported
# because perfbench's self-test traces their bindings as indexfrob.bracket
# and indexfrob.derived_series.
from .liealg import bracket, derived_series  # noqa: F401


class NotFrobeniusError(ValueError):
    pass


class BlockFormError(ValueError):
    pass


@dataclass(frozen=True)
class IndexCertificate:
    index: int
    witness: tuple  # a functional's coordinates, one int per basis element
    # Random trials run: all allowed unless one was nonsingular, where the
    # loop stops; 0 when the index was read off the root block.
    trials: int
    entry_bound: int
    seed: int

    @property
    def certified_frobenius(self):
        """Index 0 is proved by the witness's exactly nonsingular evaluation."""
        return self.index == 0

    @property
    def error_bound(self):
        """Schwartz-Zippel bound on the chance that a positive index from
        random trials is too large; None when the index is exact (read off
        the root block, or 0 as proved by the witness).

        A trial undershoots the generic rank r only where an r x r minor,
        a polynomial of degree r in f's coordinates, vanishes: with
        probability at most r / (2 entry_bound + 1).  That holds for a
        trial ranked mod p too, since ``_modulus`` picks p above every
        coefficient of every minor and above 2 entry_bound + 1.  The rank
        is even and at most dim, so r <= d, the largest even number <= dim.
        """
        if self.trials == 0 or self.index == 0:
            return None
        d = len(self.witness) // 2 * 2
        return Fraction(d, 2 * self.entry_bound + 1) ** self.trials

    def to_json(self):
        bound = self.error_bound
        out = {
            "index": self.index,
            "witness": [[c.numerator, c.denominator] for c in self.witness],
            "trials": self.trials,
            "entry_bound": self.entry_bound,
            "seed": self.seed,
            "certified_frobenius": self.certified_frobenius,
            "claim": "exact" if bound is None else "probabilistic-upper-rank",
        }
        if bound is not None:
            out["error_bound"] = f"{bound.numerator}/{bound.denominator}"
        return out


def _kirillov_rows(g, coords):
    """Rows of the skew-symmetric matrix with (i, j) entry f([x_i, x_j]),
    f the functional with coordinates ``coords``: one dict per row, zero
    entries left out.

    The entries are ints when the coordinates and the structure constants
    are (``g.integral``), and Fractions otherwise.
    """
    rows = [{} for _ in range(g.dim)]
    for (i, j), vec in g.brackets.items():
        val = sum(coords[k] * v for k, v in vec.items())
        if val:
            rows[i][j] = val
            rows[j][i] = -val
    return rows


# Exponents e of the Mersenne primes 2^e - 1 that the random trials of
# ``index`` may be ranked modulo, smallest first.
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279)


def _modulus(g, entry_bound):
    """The prime the random trials of ``index`` are ranked modulo: the
    smallest Mersenne prime 2^e - 1, e in MERSENNE_EXPONENTS, above both
    2 entry_bound + 1 and C = prod a_i over the nonzero rows i of the
    Kirillov matrix K, where a_i = sum_j sum_k |c_ijk|.  None, so that the
    trials are ranked exactly over Q, when a structure constant is not an
    integer or no listed prime is large enough.

    Why a trial ranked mod p certifies what an exact one would:
    - K(f) is an integer matrix at an integer f, so rank_p <= rank_Q, and
      a trial of full rank mod p proves index 0 exactly;
    - a nonzero r x r minor of K is a polynomial in f whose coefficients
      are at most the product of a_i over its rows (all nonzero, so each
      a_i >= 1), hence at most C < p, in absolute value: a minor nonzero
      over Q stays nonzero mod p;
    - [-entry_bound, entry_bound] injects into F_p, so by Schwartz-Zippel
      over F_p a trial misses the generic rank with probability at most
      r / (2 entry_bound + 1), the bound ``error_bound`` states.
    """
    if not g.integral:
        return None
    weight = [0] * g.dim
    for (i, j), vec in g.brackets.items():
        a = sum(abs(v) for v in vec.values())
        weight[i] += a
        weight[j] += a
    floor = max(math.prod(a for a in weight if a), 2 * entry_bound + 1)
    return next((p for p in ((1 << e) - 1 for e in MERSENNE_EXPONENTS) if p > floor), None)


def _random_functional(dim, entry_bound, seed, trial):
    gen = random.Random(f"{seed}:{trial}")
    return tuple(gen.randint(-entry_bound, entry_bound) for _ in range(dim))


def index(g, trials=3, entry_bound=10**6, seed=0):
    """Index certificate of g.

    When g has a root block B (``g.root_block``), the index is
    dim - 2 rank(B) exactly, with the structured candidate as witness and
    no random trial (``trials`` 0 in the certificate).  Otherwise the
    commutator tensor is evaluated at up to ``trials`` random functionals
    with entries in [-entry_bound, entry_bound], stopping at the first
    nonsingular one; the certificate records the trials run.  Each trial
    is ranked modulo the prime ``_modulus`` picks (exactly when it picks
    none), which keeps index 0 proved and ``error_bound`` a proven bound.
    Deterministic given (seed, trials, entry_bound); per-trial generators
    are derived from the seed by trial number, so trials are order-free.
    """
    for name, value in (("trials", trials), ("entry_bound", entry_bound)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    if g.root_block is not None:
        return IndexCertificate(
            index=g.dim - 2 * exactla.rank(g.root_block),
            witness=structured_candidate(g),
            trials=0,
            entry_bound=entry_bound,
            seed=seed,
        )
    p = _modulus(g, entry_bound)
    best_rank, best_witness = -1, None
    for trial in range(trials):
        f = _random_functional(g.dim, entry_bound, seed, trial)
        r = len(exactla._elim.eliminate(_kirillov_rows(g, f), modulus=p)[0])
        if r > best_rank:
            best_rank, best_witness = r, f
        if best_rank == g.dim:
            break
    return IndexCertificate(
        index=g.dim - best_rank,
        witness=best_witness,
        trials=trial + 1,
        entry_bound=entry_bound,
        seed=seed,
    )


def structured_candidate(g):
    """1 on every root-vector (non-Cartan) coordinate, 0 on the Cartan."""
    return (0,) * g.cartan_count + (1,) * (g.dim - g.cartan_count)


def principal_element(g, f):
    """The unique p with f([p, x]) = f(x) for all x; needs f Frobenius.

    In coordinates f([p, x_j]) = sum_i p_i M[i][j] with M the Kirillov
    matrix of f, so p solves M^T p = f; M is skew, hence p = -M^{-1} f.
    One reduced elimination of [M | f] decides and gives p: M is
    nonsingular (else NotFrobeniusError) exactly when the pivots are the
    columns 0..dim-1, and then column dim holds M^{-1} f.
    """
    if len(f) != g.dim:
        raise exactla.DimensionError("functional length mismatch")
    rows = _kirillov_rows(g, f)
    for row, c in zip(rows, f):
        if c:
            row[g.dim] = c
    pivots, red = exactla._elim.eliminate(rows, reduce_full=True)
    if pivots != list(range(g.dim)):
        raise NotFrobeniusError("Kirillov matrix is singular at this functional")
    return [-red[i].get(g.dim, 0) for i in range(g.dim)]


@dataclass(frozen=True)
class SpectrumRecord:
    principal_element: list
    char_poly: list
    multiplicity_of_0: int
    multiplicity_of_1: int
    binary: bool
    residual_factor: list


def _expand(values):
    """Coefficients of prod (x - v) over ``values``, lowest degree first."""
    coeffs = [1]
    for v in values:
        coeffs = [a - v * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def spectrum(g, p_elt):
    """The principal element ``p_elt`` of a Frobenius functional and the
    characteristic polynomial of its adjoint, with the x^a (x-1)^b
    factorization pulled out; binary means nothing is left.

    The polynomial is read off the root data, with no elimination:
    det(x - ad p) = x^cc prod_t (x - alpha_t(p_h)), where p_h is p's
    Cartan part, so alpha_t(p_h) = sum_k p_k alpha_t(h_k) (``g.roots``).
    The identity needs g solvable, which ``build`` and ``make_phi``
    always give.  Proof: by Lie's theorem ad(g) is triangular on some
    flag, and its diagonal characters vanish on [g, g].  Every root
    alpha_t is nonzero, so x_t = [h, x_t] / alpha_t(h) lies in [g, g] for
    an h with alpha_t(h) != 0, hence p - p_h does too, and ad(p) has the
    characteristic polynomial of ad(p_h), which is diagonal in the basis.

    Each alpha_t(p_h) is computed as alpha_t(L p_h) / L, with L the lcm of
    the denominators of p_h: in ints when the roots are ints, and an int
    whenever L divides it, so that ``_expand`` multiplies ints on every
    binary spectrum.

    Raises DimensionError when ``p_elt`` does not have g.dim coordinates,
    ValueError when a root is zero, where the proof fails, and
    CartanWeylError (from ``g.roots``) when ad(p_h) is not diagonal.
    """
    if len(p_elt) != g.dim:
        raise exactla.DimensionError("principal element length mismatch")
    cc = g.cartan_count
    scale = math.lcm(*(p.denominator for p in p_elt[:cc]))
    q = [p.numerator * (scale // p.denominator) for p in p_elt[:cc]]
    values = []
    for t, alpha in g.roots.items():
        if not any(alpha):
            raise ValueError(f"the root of {g.basis_labels[t]} is zero")
        v = sum(a * p for a, p in zip(alpha, q) if a)
        values.append(v // scale if v % scale == 0 else Fraction(v, scale))
    residual = [v for v in values if v not in (0, 1)]
    return SpectrumRecord(
        principal_element=p_elt,
        char_poly=_expand([0] * cc + values),
        multiplicity_of_0=cc + values.count(0),
        multiplicity_of_1=values.count(1),
        binary=not residual,
        residual_factor=_expand(residual),
    )


def frobenius_spectrum(g, certificate):
    """(f, spectrum(g, principal_element(g, f))) for a Frobenius
    functional f: the structured candidate, so that Frobenius witnesses
    stay readable, when its Kirillov matrix is nonsingular, and the index
    ``certificate``'s witness otherwise.

    One elimination of the candidate's [M | f] both decides which and
    gives its principal element; NotFrobeniusError means the witness is
    singular too.
    """
    f = structured_candidate(g)
    try:
        p_elt = principal_element(g, f)
    except NotFrobeniusError:
        f = certificate.witness
        p_elt = principal_element(g, f)
    return f, spectrum(g, p_elt)


@dataclass(frozen=True)
class NormalizeResult:
    n: int
    change_of_basis: SparseMat  # column i = coords of the new basis vector
    verified: bool


def normalize_to_phi(g):
    """Constructive isomorphism onto the normal form Phi_n.

    g must be two-step, with its root block B = ``g.root_block``
    (BlockFormError when it has none).  Since ind g = dim - 2 rank(B), g
    is Frobenius exactly when B is square and invertible, so the one
    inversion of B decides it (NotFrobeniusError when B is not square or
    singular) and gives the change of basis: root vectors become
    e_1..e_n as-is, and row i of B^{-1} holds the Cartan coefficients of
    d_i, so that alpha_j(d_i) = delta_ij.  BlockFormError also when g has
    no root vector: the zero algebra (sl of a one-element poset) has index
    0 but is not two-step, and there is no normal form Phi_0.
    All bracket relations of the normal form are re-verified exactly under
    the change of basis.
    """
    B = g.root_block
    if B is None:
        raise BlockFormError("not a two-step algebra in Cartan-Weyl form")
    n = B.n_cols
    if B.n_rows != n:
        raise NotFrobeniusError(
            f"root block is {B.n_rows} x {n}, not square: not Frobenius"
        )
    if not n:
        raise BlockFormError("no root vector: not a two-step algebra")
    try:
        C = exactla.invert(B)  # row i = Cartan coefficients of d_i
    except exactla.SingularMatrixError:
        raise NotFrobeniusError("root block is singular: not Frobenius") from None
    P = SparseMat(g.dim, g.dim, {(k, i): v for (i, k), v in C.entries.items()}
                  | {(n + i, n + i): 1 for i in range(n)})
    phi = liealg.make_phi(n)
    verified = _verify_isomorphism(g, P, phi)
    return NormalizeResult(n=n, change_of_basis=P, verified=verified)


def _verify_isomorphism(g, P, h):
    """Check P maps h's structure onto g's: [P u_i, P u_j]_g = P [u_i, u_j]_h.

    Checked on LP, with L the lcm of P's denominators, as
    [LP u_i, LP u_j]_g = L (LP) [u_i, u_j]_h: the same statement times
    L^2 != 0, in ints when g's and h's structure constants are ints.

    Both sides are scattered into one difference, keyed (i, j, r) for the
    coefficient of x_r in the pair i < j.  With [P u_i, P u_j] = sum over
    a, b of P[a, i] P[b, j] [x_a, x_b], each stored bracket (a, b) of g
    adds P[a, i] P[b, j] [x_a, x_b] to the pair (i, j), for i and j in the
    supports of P's rows a and b, negated when i > j (the pair is kept as
    (j, i)); each stored bracket of h subtracts its image under P.  Every
    pair that neither touches is 0 = 0; P is an isomorphism exactly when
    the difference is 0 everywhere."""
    scale = math.lcm(*(v.denominator for v in P.entries.values()))
    cols = [{} for _ in range(P.n_cols)]
    rows = [{} for _ in range(P.n_rows)]
    for (r, k), v in P.entries.items():
        cols[k][r] = rows[r][k] = v.numerator * (scale // v.denominator)
    diff = {}
    for (a, b), vec in g.brackets.items():
        for i, pa in rows[a].items():
            for j, pb in rows[b].items():
                if i < j:
                    pair, c = (i, j), pa * pb
                elif j < i:
                    pair, c = (j, i), -pa * pb
                else:
                    continue
                for r, v in vec.items():
                    key = pair + (r,)
                    diff[key] = diff.get(key, 0) + c * v
    for pair, vec in h.brackets.items():
        for k, c in vec.items():
            for r, v in cols[k].items():
                key = pair + (r,)
                diff[key] = diff.get(key, 0) - scale * c * v
    return not any(diff.values())


def compose_isomorphism(g1, r1, g2, r2):
    """Isomorphism g1 -> g2 through the shared normal form.

    r1, r2 are NormalizeResult records for g1, g2 (same n).  Returns the
    matrix of the map in basis coordinates together with an exact
    verification that it intertwines the brackets.
    """
    if r1.n != r2.n:
        raise ValueError("normal forms have different n")
    # Coordinates: v in g1 equals P1 w with w in normal-form coordinates,
    # so the map is v -> P2 P1^{-1} v.
    M = r2.change_of_basis.matmul(exactla.invert(r1.change_of_basis))
    return M, _verify_isomorphism(g2, M, g1)
