"""Command-line front end.

JSON reports only (``--pretty`` for indentation), schema
``lieposet-report/1``.  Exit codes: 0 ok, 1 verification failure,
2 input error, 3 guard violation, 4 internal error (a construction guard
such as ``ClosureError`` or ``CartanWeylError`` failed on valid input).
Randomized subcommands require an explicit ``--seed`` so certificates are
reproducible.
"""

import argparse
import hashlib
import json
import sys
import time

from . import cohomology, indexfrob, liealg, posets, suites
from .cohomology import DegreeError
from .exactla import SingularMatrixError
from .posets import GuardError, PosetError

SCHEMA = "lieposet-report/1"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4

# Largest --size of ``enumerate``.  The library goes to posets.ENUM_GUARD = 8,
# but size 8 (328 classes, about 10 s of enumeration before any index
# certificate) is too slow for a command-line report.
ENUM_MAX_SIZE = 7


class CliInputError(Exception):
    pass


def _read_poset(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CliInputError(f"cannot read {path}: {e}") from e
    try:
        P = posets.parse_poset(raw.decode("utf-8"))
    except (PosetError, UnicodeDecodeError) as e:
        raise CliInputError(str(e)) from e
    return P, hashlib.sha256(raw).hexdigest()


def _report(command, results, digest=None, params=None, started=None):
    rep = {"schema": SCHEMA, "command": command}
    if digest is not None:
        rep["input_sha256"] = digest
    if params:
        rep["params"] = params
    rep["results"] = results
    if started is not None:
        rep["wall_time_s"] = round(time.monotonic() - started, 6)
    return rep


def _emit(rep, pretty):
    json.dump(rep, sys.stdout, indent=2 if pretty else None, sort_keys=True)
    sys.stdout.write("\n")


def _frac_str(v):
    return f"{v.numerator}/{v.denominator}"


def _poly_str(coeffs):
    return [f"{c.numerator}/{c.denominator}" for c in coeffs]


def cmd_build(args):
    started = time.monotonic()
    P, digest = _read_poset(args.file)
    g = liealg.build(P, variant=args.variant)
    pattern = sorted(liealg.sparsity_pattern(g))
    results = {
        "family": P.family,
        "dim": g.dim,
        "cartan_count": g.cartan_count,
        "root_count": g.dim - g.cartan_count,
        "sparsity_pattern": [list(p) for p in pattern],
    }
    if args.dump_algebra:
        results["algebra"] = liealg.algebra_to_json(g)
    _emit(
        _report("build", results, digest, {"variant": args.variant}, started),
        args.pretty,
    )
    return EXIT_OK


def cmd_index(args):
    started = time.monotonic()
    if args.bound < 1:
        raise CliInputError(f"--bound must be >= 1, got {args.bound}")
    P, digest = _read_poset(args.file)
    g = liealg.build(P, variant=args.variant)
    cert = indexfrob.index(
        g, trials=args.trials, entry_bound=args.bound, seed=args.seed
    )
    results = {"certificate": cert.to_json()}
    if cert.certified_frobenius and g.dim:
        f = indexfrob.frobenius_functional(
            g, trials=args.trials, entry_bound=args.bound, seed=args.seed,
            certificate=cert,
        )
        sp = indexfrob.spectrum(g, f)
        results["frobenius_functional"] = [_frac_str(c) for c in f.coords]
        results["principal_element"] = [_frac_str(c) for c in sp.principal_element]
        results["spectrum"] = {
            "char_poly": _poly_str(sp.char_poly),
            "multiplicity_of_0": sp.multiplicity_of_0,
            "multiplicity_of_1": sp.multiplicity_of_1,
            "binary": sp.binary,
        }
    params = {
        "variant": args.variant,
        "seed": args.seed,
        "trials": args.trials,
        "bound": args.bound,
    }
    _emit(_report("index", results, digest, params, started), args.pretty)
    return EXIT_OK


def cmd_cohomology(args):
    started = time.monotonic()
    P, digest = _read_poset(args.file)
    g = liealg.build(P, variant=args.variant)
    rep = cohomology.cohomology_report(g, args.degree, max_dim=args.max_dim)
    results = {"degree": args.degree, "dims": rep}
    if args.dump_complex:
        try:
            fh = open(args.dump_complex, "w")
        except OSError as e:
            raise CliInputError(f"cannot write {args.dump_complex}: {e}") from e
        with fh:
            for n in range(min(args.degree + 1, g.dim) + 1):
                cohomology.dump_complex(cohomology.coboundary_matrix(g, n), fh)
        results["dumped_to"] = args.dump_complex
    params = {"variant": args.variant, "degree": args.degree}
    _emit(_report("cohomology", results, digest, params, started), args.pretty)
    return EXIT_OK


def cmd_classify(args):
    started = time.monotonic()
    P, digest = _read_poset(args.file)
    g = liealg.build(P, variant=args.variant)
    _, derived_length, k_step = liealg.derived_series(g)
    cert = indexfrob.index(g, seed=args.seed)
    results = {
        "dim": g.dim,
        "derived_length": derived_length,
        "k_step": k_step,
        "certificate": cert.to_json(),
    }
    if cert.certified_frobenius and k_step == 2 and g.dim:
        res = indexfrob.normalize_to_phi(g, certificate=cert)
        results["classification"] = {
            "phi_n": res.n,
            "verified": res.verified,
            "change_of_basis": [
                [_frac_str(res.change_of_basis[(i, j)]) for j in range(g.dim)]
                for i in range(g.dim)
            ],
        }
    else:
        reasons = []
        if not cert.certified_frobenius:
            reasons.append(f"index {cert.index} != 0")
        if k_step != 2:
            reasons.append(f"{k_step}-step solvable")
        results["classification"] = {"applicable": False, "reason": "; ".join(reasons)}
    params = {"variant": args.variant, "seed": args.seed}
    _emit(_report("classify", results, digest, params, started), args.pretty)
    return EXIT_OK


def cmd_verify(args):
    started = time.monotonic()
    result = suites.run_suite(args.suite, seed=args.seed)
    _emit(
        _report("verify", result, params={"suite": args.suite, "seed": args.seed},
                started=started),
        args.pretty,
    )
    return EXIT_OK if result["passed"] else EXIT_VERIFY


def cmd_enumerate(args):
    started = time.monotonic()
    if args.size > ENUM_MAX_SIZE:
        raise GuardError(f"enumerate guard: size <= {ENUM_MAX_SIZE}")
    all_posets = posets.enumerate_height_one(args.size)
    cases = []
    kept = 0
    for i, P in enumerate(all_posets):
        g = liealg.build(P, variant=args.variant)
        cert = indexfrob.index(g, seed=args.seed + i)
        entry = {
            "poset": posets.poset_to_json(P),
            "dim": g.dim,
            "certificate": cert.to_json(),
        }
        if args.filter == "frobenius" and cert.index != 0:
            continue
        kept += 1
        cases.append(entry)
    results = {
        "size": args.size,
        "total_isomorphism_classes": len(all_posets),
        "reported": kept,
        "cases": cases,
    }
    params = {
        "size": args.size,
        "filter": args.filter,
        "variant": args.variant,
        "seed": args.seed,
    }
    _emit(_report("enumerate", results, params=params, started=started), args.pretty)
    return EXIT_OK


def build_parser():
    top = argparse.ArgumentParser(
        prog="lieposet",
        description="Exact computations on Lie poset algebras",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, poset_file=True, variant=True):
        if poset_file:
            p.add_argument("file", help="poset JSON file")
        if variant:
            p.add_argument("--variant", choices=("gl", "sl"), default="gl",
                           help="family-A realization (ignored for B/C/D)")
        p.add_argument("--pretty", action="store_true", help="indent JSON output")

    p = sub.add_parser("build", help="construct the algebra, report shape")
    common(p)
    p.add_argument("--dump-algebra", action="store_true")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("index", help="index certificate, Frobenius data")
    common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--bound", type=int, default=10**6)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("cohomology", help="Chevalley-Eilenberg dims at a degree")
    common(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-dim", type=int, default=cohomology.DEFAULT_MAX_DIM)
    p.add_argument("--dump-complex", metavar="PATH",
                   help="write coboundary matrices as sparse triplets")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("classify", help="solvability class and normal form")
    common(p)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=suites.SUITES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="height-one family-A posets up to iso")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--filter", choices=("all", "frobenius"), default="all")
    p.add_argument("--variant", choices=("gl", "sl"), default="sl")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as e:
        _emit({"schema": SCHEMA, "error": str(e), "kind": "input"}, True)
        return EXIT_INPUT
    except (GuardError, DegreeError) as e:
        _emit({"schema": SCHEMA, "error": str(e), "kind": "guard"}, True)
        return EXIT_GUARD
    except (liealg.ClosureError, liealg.CartanWeylError) as e:
        _emit({"schema": SCHEMA, "error": str(e), "kind": "internal"}, True)
        return EXIT_INTERNAL
    except (liealg.LieAlgError, SingularMatrixError, ValueError) as e:
        _emit({"schema": SCHEMA, "error": str(e), "kind": "input"}, True)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
