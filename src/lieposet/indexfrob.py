"""Index, Frobenius functionals, block form, normalization, and spectra.

The index is computed by evaluating the commutator tensor at functionals:
an exactly nonsingular evaluation proves index 0 outright, while positive
index claims are probabilistic (rank of a random evaluation can only
undershoot the generic rank, off a hypersurface of functionals) and the
certificate says so.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from . import exactla, liealg
from .exactla import ONE, ZERO, SparseMat
from .liealg import LieAlg, basis_vector, bracket, derived_series


class IndexError_(ValueError):
    pass


class NotFrobeniusError(ValueError):
    pass


class BlockFormError(ValueError):
    pass


@dataclass(frozen=True)
class Functional:
    """A vector in the dual space: value on each basis element."""

    coords: tuple

    def __call__(self, vec):
        return sum((c * v for c, v in zip(self.coords, vec) if v), ZERO)

    @classmethod
    def from_list(cls, values):
        return cls(coords=tuple(Fraction(v) for v in values))


@dataclass(frozen=True)
class IndexCertificate:
    index: int
    witness: Functional
    trials: int
    entry_bound: int
    seed: int
    certified_frobenius: bool

    def to_json(self):
        return {
            "index": self.index,
            "witness": [
                [c.numerator, c.denominator] for c in self.witness.coords
            ]
            if self.witness is not None
            else None,
            "trials": self.trials,
            "entry_bound": self.entry_bound,
            "seed": self.seed,
            "certified_frobenius": self.certified_frobenius,
            "claim": "exact"
            if self.certified_frobenius or self.index == 0
            else "probabilistic-upper-rank",
        }


def eval_kirillov(g, f):
    """Skew-symmetric matrix with (i, j) entry f([x_i, x_j])."""
    if len(f.coords) != g.dim:
        raise exactla.DimensionError("functional length mismatch")
    ents = {}
    for (i, j), vec in g.brackets.items():
        val = sum((f.coords[k] * v for k, v in vec.items()), ZERO)
        if val:
            ents[(i, j)] = val
            ents[(j, i)] = -val
    return SparseMat(g.dim, g.dim, ents)


def _random_functional(dim, entry_bound, seed, trial):
    gen = random.Random(f"{seed}:{trial}")
    return Functional(
        coords=tuple(Fraction(gen.randint(-entry_bound, entry_bound)) for _ in range(dim))
    )


def index(g, trials=3, entry_bound=10**6, seed=0):
    """Index certificate by randomized evaluation of the commutator tensor.

    Deterministic given (seed, trials, entry_bound); per-trial generators
    are derived from the seed by trial number, so trials are order-free.
    """
    if trials < 1:
        raise IndexError_("trials must be >= 1")
    best_rank, best_witness = -1, None
    for trial in range(trials):
        f = _random_functional(g.dim, entry_bound, seed, trial)
        r = exactla.rank(eval_kirillov(g, f))
        if r > best_rank:
            best_rank, best_witness = r, f
        if best_rank == g.dim:
            break
    if g.dim == 0:
        best_rank, best_witness = 0, Functional(coords=())
    idx = g.dim - best_rank
    return IndexCertificate(
        index=idx,
        witness=best_witness,
        trials=trials,
        entry_bound=entry_bound,
        seed=seed,
        certified_frobenius=(idx == 0),
    )


def structured_candidate(g):
    """1 on every root-vector (non-Cartan) coordinate, 0 on the Cartan."""
    return Functional(
        coords=tuple(
            ONE if i >= g.cartan_count else ZERO for i in range(g.dim)
        )
    )


def frobenius_functional(g, trials=3, entry_bound=10**6, seed=0, certificate=None):
    """A functional with exactly nonsingular Kirillov matrix, or None.

    The structured candidate (sum of root-vector coordinate functionals)
    is tried before random sampling, so Frobenius witnesses stay readable.
    A Frobenius ``certificate`` from ``index`` at the same trials, bound
    and seed stands in for the random trials: ``index`` stops at the first
    full-rank trial, which is the one the trials here would return.
    """
    cand = structured_candidate(g)
    if exactla.rank(eval_kirillov(g, cand)) == g.dim:
        return cand
    if (
        certificate is not None
        and certificate.certified_frobenius
        and (certificate.trials, certificate.entry_bound, certificate.seed)
        == (trials, entry_bound, seed)
    ):
        return certificate.witness
    for trial in range(trials):
        f = _random_functional(g.dim, entry_bound, seed, trial)
        if exactla.rank(eval_kirillov(g, f)) == g.dim:
            return f
    return None


def principal_element(g, f):
    """The unique p with f([p, x]) = f(x) for all x; needs f Frobenius.

    In coordinates this is the solve M_f^T a = f, with M_f the Kirillov
    matrix of f.
    """
    M = eval_kirillov(g, f)
    if exactla.rank(M) != g.dim:
        raise NotFrobeniusError("Kirillov matrix is singular at this functional")
    sol = exactla.solve(M.transpose(), list(f.coords))
    assert sol is not None
    return sol


@dataclass(frozen=True)
class SpectrumRecord:
    principal_element: list
    char_poly: list
    multiplicity_of_0: int
    multiplicity_of_1: int
    binary: bool
    residual_factor: list


def ad_matrix(g, v):
    """Matrix of ad(v) in the basis: column j = [v, x_j]."""
    ents = {}
    for j in range(g.dim):
        col = bracket(g, v, basis_vector(g, j))
        for i, c in enumerate(col):
            if c:
                ents[(i, j)] = c
    return SparseMat(g.dim, g.dim, ents)


def spectrum(g, f):
    """The principal element of f and the characteristic polynomial of its
    adjoint, with the x^a (x-1)^b factorization pulled out; binary means
    nothing is left.
    """
    p_elt = principal_element(g, f)
    cp = exactla.char_poly(ad_matrix(g, p_elt))
    a, b, residual = exactla.factor_binary(cp)
    return SpectrumRecord(
        principal_element=p_elt,
        char_poly=cp,
        multiplicity_of_0=a,
        multiplicity_of_1=b,
        binary=(len(residual) <= 1),
        residual_factor=residual,
    )


@dataclass(frozen=True)
class BlockForm:
    is_block: bool
    B: SparseMat  # rows: Cartan generators, cols: root vectors; entries alpha_t(h_k)


def block_form(g):
    """Confirm the Cartan-first commutator tensor is block off-diagonal
    and extract the root-value block B[k][t] = alpha_t(h_k).

    Requires g two-step solvable; a nonzero bracket of two root vectors
    contradicts that and raises.
    """
    _, _, k_step = derived_series(g)
    if k_step > 2:
        raise BlockFormError(f"algebra is {k_step}-step solvable, not two-step")
    cc = g.cartan_count
    for (i, j), vec in g.brackets.items():
        if i < cc and j < cc and vec:
            raise BlockFormError("nonzero bracket between Cartan generators")
        if i >= cc and j >= cc and vec:
            raise BlockFormError("nonzero bracket between two root vectors")
    roots = g.roots if g.roots is not None else liealg.cartan_weyl_extract(g)
    ents = {}
    for t in g.root_indices():
        for k, val in enumerate(roots[t]):
            if val:
                ents[(k, t - cc)] = val
    return BlockForm(is_block=True, B=SparseMat(cc, g.dim - cc, ents))


@dataclass(frozen=True)
class NormalizeResult:
    n: int
    change_of_basis: SparseMat  # column i = coords of the new basis vector
    verified: bool


def normalize_to_phi(g, certificate=None, seed=0):
    """Constructive isomorphism onto the normal form.

    Root vectors become e_1..e_n as-is; each d_i is solved for in the
    Cartan span so that alpha_j(d_i) = delta_ij.  All bracket relations of
    the normal form are re-verified exactly under the change of basis.
    """
    if certificate is None:
        certificate = index(g, seed=seed)
    if certificate.index != 0 or not certificate.certified_frobenius:
        raise NotFrobeniusError("algebra is not certified Frobenius")
    _, _, k_step = derived_series(g)
    if k_step != 2:
        raise BlockFormError(f"algebra is {k_step}-step solvable, not two-step")
    if g.dim % 2:
        raise NotFrobeniusError("odd dimension cannot be Frobenius (skew rank)")
    cc = g.cartan_count
    n = g.dim - cc
    if cc != n:
        raise NotFrobeniusError(
            "Cartan and root-vector counts differ; Frobenius two-step input"
            " must split evenly (internal inconsistency)"
        )
    roots = g.roots if g.roots is not None else liealg.cartan_weyl_extract(g)
    A = SparseMat(
        cc,
        n,
        {
            (k, t): roots[cc + t][k]
            for t in range(n)
            for k in range(cc)
            if roots[cc + t][k]
        },
    )
    C = exactla.invert(A)  # row i = Cartan coefficients of d_i
    ents = {}
    for i in range(n):
        for k in range(cc):
            v = C[(i, k)]
            if v:
                ents[(k, i)] = v
        ents[(cc + i, n + i)] = ONE
    P = SparseMat(g.dim, g.dim, ents)
    phi = liealg.make_phi(n)
    verified = _verify_isomorphism(g, P, phi)
    return NormalizeResult(n=n, change_of_basis=P, verified=verified)


def _columns(M):
    cols = [[ZERO] * M.n_rows for _ in range(M.n_cols)]
    for (i, j), v in M.entries.items():
        cols[j][i] = v
    return cols


def _verify_isomorphism(g, P, h):
    """Check P maps h's structure onto g's: [P u_i, P u_j]_g = P [u_i, u_j]_h."""
    cols = _columns(P)
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            lhs = bracket(g, cols[i], cols[j])
            rhs = [ZERO] * g.dim
            for k, c in h.structure(i, j).items():
                for r in range(g.dim):
                    rhs[r] += c * cols[k][r]
            if lhs != rhs:
                return False
    return True


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
    cols = _columns(M)
    ok = True
    for i in range(g1.dim):
        for j in range(i + 1, g1.dim):
            img = [ZERO] * g1.dim
            for k, c in g1.structure(i, j).items():
                for r in range(g1.dim):
                    img[r] += c * cols[k][r]
            if bracket(g2, cols[i], cols[j]) != img:
                ok = False
    return M, ok
