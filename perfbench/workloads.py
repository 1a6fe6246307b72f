"""The three workloads: their inputs, job lists and per-job checks.

A workload's ``setup(seed, workdir)`` generates its inputs and returns a
``Setup``: the job list of one pass plus what generation accepted.  A job's
``run`` is the timed call; ``digest`` turns its result into a comparable
value and ``check`` judges that value.  Both run outside the timed region.

Why these workloads (see README.md for the per-layer predictions):

- ``cohomology``: coboundary assembly and rank-mode elimination on large
  sparse +-1 matrices; never calls ``liealg.bracket``.
- ``classify``: many small algebras through ``cli.main``: the dense bracket,
  enumeration, reduce-full elimination (solve/invert) on small dense
  Kirillov and Cartan matrices, and the CLI report.
- ``structure``: few large algebras: ``build`` and the dense bracket at
  scale; never assembles a coboundary.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

from lieposet import cli, cohomology, indexfrob, liealg, posets

import gen

MAX_DIM = 15  # chain_poset(5) gl is 15-dimensional; the library default is 12


@dataclass
class Job:
    name: str
    run: object  # () -> raw result, timed
    check: object  # digest -> None when correct, else a reason string
    digest: object = None  # raw result -> comparable value, untimed


@dataclass
class Setup:
    jobs: list
    acceptance: float  # random posets accepted / drawn
    inputs: list  # comparable description of every input


def _expect(cond, reason):
    return None if cond else reason


# ---------------------------------------------------------------------------
# cohomology

# Random slots: one poset per (family, dimension), sixteen per family.  Exact
# dimensions, not a band, because the cost of a degree-3 report grows like
# C(dim, 4) * dim.  The degree-3 reports at dimension 9 (about 100-150 ms)
# form the group that job_p90_ms falls in, below the named jobs of the same
# size or more; the many cheap jobs at dimensions 5..8 push the p90 to the
# middle of that group, so it is set by many jobs' samples, not by one
# job's, and not by whichever random job happens to be the slowest.
# job_p50_ms falls among the degree-2 reports and compare_h2 calls of
# dimensions 7..9.  With 64 random posets their share of a pass varies
# little from seed to seed.
COHOMOLOGY_SLOTS = [(fam, d) for fam in "ABCD"
                    for d in (5, 5, 6, 6, 6, 7, 7, 7, 7, 8, 8, 8, 9, 9, 9, 9)]


class _Differentials:
    """Coboundary matrices of one algebra at a time, built once for the
    d(d) = 0 checks of its degree-2 and degree-3 reports."""

    def __init__(self):
        self.key, self.cache = None, {}

    def get(self, key, g, n):
        if key != self.key:
            self.key, self.cache = key, {}
        if n not in self.cache:
            self.cache[n] = cohomology.coboundary_matrix(g, n).matrix
        return self.cache[n]

    def dd_zero(self, key, g, n):
        """d_n . d_(n-1) = 0 for the two differentials a degree-n report builds."""
        prod = self.get(key, g, n).matmul(self.get(key, g, n - 1))
        return not prod.entries


def _report_job(name, g, n, dd, want_h=None):
    def check(rep):
        c_dim = cohomology.cochain_dim(g, n)
        if rep["C"] != c_dim or rep["H"] != rep["Z"] - rep["B"]:
            return f"inconsistent dims {rep}"
        if not 0 <= rep["B"] <= rep["Z"] <= rep["C"]:
            return f"dims out of order {rep}"
        if want_h is not None and rep["H"] != want_h:
            return f"H^{n} = {rep['H']}, expected {want_h}"
        return _expect(dd.dd_zero(name, g, n), f"d{n} d{n - 1} != 0")

    return Job(f"{name}:H{n}", lambda: cohomology.cohomology_report(g, n, max_dim=MAX_DIM),
               check)


def _compare_job(name, P, want_match):
    def check(rep):
        return _expect(rep.match == want_match,
                       f"compare_h2 match={rep.match} (lhs {rep.lhs}, rhs {rep.rhs})")

    return Job(f"{name}:compare_h2",
               lambda: cohomology.compare_h2(P, "gl", max_dim=MAX_DIM), check)


def cohomology_setup(seed, workdir):
    dd = _Differentials()
    named = [(f"phi{n}", None, liealg.make_phi(n), 0) for n in range(4, 8)]
    for N in range(3, 6):
        P = posets.chain_poset(N)
        named.append((f"chain{N}", P, liealg.build(P, "gl"), None))
    named.append(("branch", posets.branch_poset(), liealg.build(posets.branch_poset()), None))
    hexagon = posets.hexagon_type_c_poset()
    named.append(("hexagon", hexagon, liealg.build(hexagon), None))
    sampler = gen.Sampler(seed, "cohomology")
    for fam, d in COHOMOLOGY_SLOTS:
        P = sampler.poset(fam, d, d)
        named.append((f"rand{fam}{d}", P, liealg.build(P), None))
    jobs, inputs = [], []
    for name, P, g, want_h in named:
        inputs.append((name, posets.poset_to_json(P) if P else g.dim))
        for n in (2, 3):
            jobs.append(_report_job(name, g, n, dd, want_h))
        if P is not None and (P.family == "A" or P == hexagon):
            # The three-component formula holds for family A and fails on
            # the type-C hexagon, whose nerve is a circle.
            jobs.append(_compare_job(name, P, want_match=P.family == "A"))
    return Setup(jobs, sampler.acceptance, inputs)


# ---------------------------------------------------------------------------
# classify (everything through cli.main)

ENUMERATION_CLASSES = {6: 27, 7: 88}  # see README.md for the source
SUITES = ("patterns", "rigidity", "classification", "crossval", "spectrum")
CLASSIFY_RANDOM = 20  # random height-one posets, 7..9 elements
CLASSIFY_BAND = (15, 18)  # their sl dimension


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_digest(raw):
    code, text = raw
    report = json.loads(text)
    report.pop("wall_time_s", None)
    return code, report


def _cli_job(name, argv, check_results):
    def check(digest):
        code, report = digest
        if code != cli.EXIT_OK:
            return f"exit code {code}: {report.get('error')}"
        if report.get("schema") != cli.SCHEMA or report.get("command") != argv[0]:
            return "wrong schema or command"
        return check_results(report["results"])

    return Job(name, lambda: _cli(argv), check, _cli_digest)


def _classify_check(P):
    dim = gen.algebra_dim(P, "sl")
    tree = posets.hasse_graph_properties(P)["acyclic"]

    def check(res):
        idx = res["certificate"]["index"]
        if res["dim"] != dim or res["k_step"] != 2:
            return f"dim {res['dim']} k_step {res['k_step']}, expected {dim} and 2"
        if tree and idx != 0:
            return f"tree Hasse diagram with index {idx}"
        cls = res["classification"]
        if idx == 0:
            return _expect(cls.get("verified") is True and 2 * cls["phi_n"] == dim,
                           f"classification {cls.get('verified')} n={cls.get('phi_n')}")
        return _expect(cls.get("applicable") is False, "classified a non-Frobenius algebra")

    return check


def _index_check(P):
    dim = gen.algebra_dim(P, "sl")
    tree = posets.hasse_graph_properties(P)["acyclic"]

    def check(res):
        cert = res["certificate"]
        idx = cert["index"]
        if not 0 <= idx <= dim or (dim - idx) % 2:
            return f"index {idx} impossible at dim {dim} (Kirillov rank is even)"
        if tree and idx != 0:
            return f"tree Hasse diagram with index {idx}"
        if idx == 0:
            return _expect(cert["certified_frobenius"] and "spectrum" in res,
                           "Frobenius without certificate or spectrum")
        return None

    return check


def _enumerate_check(size):
    def check(res):
        cases = res["cases"]
        if res["total_isomorphism_classes"] != ENUMERATION_CLASSES[size]:
            return f"{res['total_isomorphism_classes']} classes at size {size}"
        return _expect(res["reported"] == len(cases) == ENUMERATION_CLASSES[size]
                       and all(c["dim"] == gen.algebra_dim(posets.parse_poset(c["poset"]), "sl")
                               for c in cases), "enumeration cases disagree")

    return check


def _suite_check(res):
    failed = [c["name"] for c in res["cases"] if not c["passed"]]
    return _expect(res["passed"] and not failed, f"suite cases failed: {failed}")


def classify_setup(seed, workdir):
    targets = []
    for n in range(2, 8):
        for i, P in enumerate(posets.enumerate_height_one(n)):
            targets.append((f"enum{n}.{i}", P))
    sampler = gen.Sampler(seed, "classify")
    for i in range(CLASSIFY_RANDOM):
        targets.append((f"rand{i}", sampler.height_one(7, 9, *CLASSIFY_BAND)))
    jobs, inputs = [], []
    s = str(seed)
    for size in (6, 7):
        jobs.append(_cli_job(f"enumerate{size}", ["enumerate", "--size", str(size), "--seed", s],
                             _enumerate_check(size)))
    for name, P in targets:
        doc = posets.poset_to_json(P)
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        inputs.append((name, doc))
        jobs.append(_cli_job(f"{name}:classify",
                             ["classify", path, "--variant", "sl", "--seed", s],
                             _classify_check(P)))
        jobs.append(_cli_job(f"{name}:index",
                             ["index", path, "--variant", "sl", "--seed", s], _index_check(P)))
    for suite in SUITES:
        jobs.append(_cli_job(f"verify-{suite}", ["verify", suite, "--seed", s], _suite_check))
    return Setup(jobs, sampler.acceptance, inputs)


# ---------------------------------------------------------------------------
# structure

# Twenty-eight random posets, seven per family at exact dimensions 22..25:
# above 21, so check_jacobi runs on chain_poset(6) alone.  Three jobs per
# algebra sort into three latency groups: the derived series (roughly 50-300
# ms), build (10-45 ms), and index with center (3-12 ms; index alone costs
# one trial on a Frobenius algebra and three otherwise, which would split a
# group of its own in two).  With the named chain jobs on top, job_p90_ms
# falls inside the group of random derived series and job_p50_ms inside the
# group of builds, never on the edge between two groups, where the percentile
# would jump between them from run to run.
STRUCTURE_SLOTS = [(fam, d) for fam in "ABCD" for d in (22, 22, 23, 23, 24, 24, 25)]
JACOBI_MAX_DIM = 21


def _chain_checks(N):
    """Closed forms for chain_poset(N) gl, checked for N = 2..9: derived
    length floor(log2(N - 1)) + 1, index ceil(N / 2), one-dimensional center."""
    return {
        "derived_series": lambda out: _expect(
            out[1] == (N - 1).bit_length(), f"derived length {out[1]}"),
        "index": lambda cert: _expect(cert.index == math.ceil(N / 2), f"index {cert.index}"),
        "center": lambda z: _expect(z.dim == 1, f"center dim {z.dim}"),
    }


def _center_ok(g, z):
    basis = [liealg.basis_vector(g, i) for i in range(g.dim)]
    return all(not any(liealg.bracket(g, list(v), b)) for v in z.basis for b in basis)


def structure_setup(seed, workdir):
    named = [(f"chain{N}", posets.chain_poset(N)) for N in range(6, 10)]
    sampler = gen.Sampler(seed, "structure")
    named += [(f"rand{fam}{d}", sampler.poset(fam, d, d)) for fam, d in STRUCTURE_SLOTS]
    jobs, inputs = [], []
    for name, P in named:
        inputs.append((name, posets.poset_to_json(P)))
        dim = gen.algebra_dim(P)
        closed = _chain_checks(len(P)) if name.startswith("chain") else {}
        built = {}

        def build(P=P, built=built):
            built["g"] = liealg.build(P, "gl")
            return built["g"]

        def check_build(g, dim=dim):
            if g.dim != dim:
                return f"dim {g.dim}, expected {dim}"
            return _expect(liealg.check_realization(g), "brackets disagree with matrices")

        def invariants(built=built):
            return indexfrob.index(built["g"]), liealg.center(built["g"])

        def check_invariants(out, built=built, extra_index=closed.get("index"),
                             extra_center=closed.get("center")):
            cert, z = out
            dim = built["g"].dim
            if not 0 <= cert.index <= dim or (dim - cert.index) % 2:
                return f"index {cert.index} impossible at dim {dim}"
            if not _center_ok(built["g"], z):
                return "center element fails to commute"
            return (extra_index and extra_index(cert)) or (extra_center and extra_center(z))

        def check_derived(out, built=built, extra=closed.get("derived_series")):
            dims = [s.dim for s in out[0]]
            if dims[0] != built["g"].dim or dims[-1] != 0 or dims != sorted(dims, reverse=True):
                return f"derived series dims {dims}"
            return extra(out) if extra else None

        jobs.append(Job(f"{name}:build", build, check_build))
        jobs.append(Job(f"{name}:derived_series", lambda b=built: liealg.derived_series(b["g"]),
                        check_derived))
        jobs.append(Job(f"{name}:index_center", invariants, check_invariants))
        if dim <= JACOBI_MAX_DIM:
            jobs.append(Job(f"{name}:check_jacobi", lambda b=built: liealg.check_jacobi(b["g"]),
                            lambda ok: _expect(ok is True, "Jacobi identity fails")))
    return Setup(jobs, sampler.acceptance, inputs)


WORKLOADS = {
    "cohomology": cohomology_setup,
    "classify": classify_setup,
    "structure": structure_setup,
}
