"""Command-line front end.

JSON reports only (``--pretty`` for indentation), schema
``lieposet-report/1``.  Exit codes: 0 ok, 1 verification failure,
2 input error (also a command line that does not parse, or a report that
cannot be written), 3 guard violation, 4 internal error (a construction
guard such as ``ClosureError`` or ``CartanWeylError`` failed on valid input).
Randomized subcommands require an explicit ``--seed`` so certificates are
reproducible.  Each ``cmd_*`` returns ``(results, params, digest)``;
``main`` alone assembles and emits the report and picks the exit code.
"""

import argparse
import contextlib
import functools
import hashlib
import json
import math
import sys
import time

from . import cohomology, indexfrob, liealg, posets, suites
from .cohomology import DegreeError
from .posets import GuardError, PosetError

SCHEMA = "lieposet-report/1"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line is an input error; --help exits 0
        raise CliInputError(f"{self.prog}: {message}")


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


def _algebra(args):
    P, digest = _read_poset(args.file)
    return P, liealg.build(P, variant=args.variant), digest


def _frac_str(v):
    return f"{v.numerator}/{v.denominator}"


def cmd_build(args):
    P, g, digest = _algebra(args)
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
    return results, {"variant": args.variant}, digest


def cmd_index(args):
    for flag, value in (("--trials", args.trials), ("--bound", args.bound)):
        if value < 1:
            raise CliInputError(f"{flag} must be >= 1, got {value}")
    _, g, digest = _algebra(args)
    # error_bound is (d / base) ** trials, d the largest even number <= dim:
    # its numerator and denominator divide d ** trials and base ** trials,
    # which must print in `limit` digits (0 or no getter: no limit).  With
    # m = max(d, base), 2 ** (bits - trials) <= m ** trials < 2 ** bits and
    # 8 ** limit < 10 ** limit < 16 ** limit, so only a pair between the two
    # bounds computes the power.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    m = max(g.dim // 2 * 2, 2 * args.bound + 1)
    bits = args.trials * m.bit_length()
    if limit and bits > 3 * limit and (bits - args.trials >= 4 * limit
                                       or m ** args.trials >= 10 ** limit):
        raise CliInputError(
            f"--trials {args.trials} at --bound {args.bound}: the error bound "
            f"would have more than {limit} digits"
        )
    cert = indexfrob.index(
        g, trials=args.trials, entry_bound=args.bound, seed=args.seed
    )
    results = {"certificate": cert.to_json()}
    if cert.certified_frobenius and g.dim:
        f, sp = indexfrob.frobenius_spectrum(g, cert)
        results["frobenius_functional"] = [_frac_str(c) for c in f]
        results["principal_element"] = [_frac_str(c) for c in sp.principal_element]
        results["spectrum"] = {
            "char_poly": [_frac_str(c) for c in sp.char_poly],
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
    return results, params, digest


def cmd_cohomology(args):
    for flag, value in (("--degree", args.degree), ("--max-dim", args.max_dim)):
        if value < 0:
            raise CliInputError(f"{flag} must be >= 0, got {value}")
    _, g, digest = _algebra(args)
    top = min(args.degree + 1, g.dim)
    if args.dump_complex:
        # The dump holds every full differential up to degree + 1; refuse it,
        # before assembling anything, above the largest one the default
        # guard admits, the (2^D - 1) D rows of the whole complex at dim D.
        rows = sum(math.comb(g.dim, n + 1) for n in range(top + 1)) * g.dim
        d = cohomology.DEFAULT_MAX_DIM
        cap = (2 ** d - 1) * d
        if rows > cap:
            raise DegreeError(f"dump guard: --dump-complex at degree {args.degree} "
                              f"would write {rows} rows > {cap}")
    dims = cohomology.cohomology_report(g, args.degree, max_dim=args.max_dim)
    results = {"degree": args.degree, "dims": dims}
    if args.dump_complex:
        # Opening, writing and the closing flush can each fail.
        try:
            with open(args.dump_complex, "w") as fh:
                for n in range(top + 1):
                    cohomology.dump_complex(cohomology.coboundary_matrix(g, n), fh)
        except OSError as e:
            raise CliInputError(f"cannot write {args.dump_complex}: {e}") from e
        results["dumped_to"] = args.dump_complex
    return results, {"variant": args.variant, "degree": args.degree}, digest


def cmd_classify(args):
    _, g, digest = _algebra(args)
    if g.root_block is None:
        _, derived_length, k_step = liealg.derived_series(g)
    else:
        # A root block puts [g, g] in the abelian span of the root
        # vectors: g is two-step unless every bracket vanishes.
        derived_length = 1 if any(g.brackets.values()) else 0
        k_step = derived_length + 1
    cert = indexfrob.index(g, seed=args.seed)
    results = {
        "dim": g.dim,
        "derived_length": derived_length,
        "k_step": k_step,
        "certificate": cert.to_json(),
    }
    if cert.certified_frobenius and k_step == 2:
        res = indexfrob.normalize_to_phi(g)
        scale = res.scale
        rows = [["0/1"] * g.dim for _ in range(g.dim)]
        for (i, j), v in res.scaled.entries.items():
            d = math.gcd(v, scale)
            rows[i][j] = f"{v // d}/{scale // d}"
        results["classification"] = {
            "phi_n": res.n,
            "verified": res.verified,
            "change_of_basis": rows,
        }
    else:
        reasons = []
        if not cert.certified_frobenius:
            reasons.append(f"index {cert.index} != 0")
        if k_step != 2:
            reasons.append(f"{k_step}-step solvable")
        results["classification"] = {"applicable": False, "reason": "; ".join(reasons)}
    return results, {"variant": args.variant, "seed": args.seed}, digest


def cmd_verify(args):
    results = suites.run_suite(args.suite, seed=args.seed)
    return results, {"suite": args.suite, "seed": args.seed}, None


def cmd_enumerate(args):
    all_posets = posets.enumerate_height_one(args.size)
    cases = []
    for i, P in enumerate(all_posets):
        g = liealg.build(P, variant=args.variant)
        cert = indexfrob.index(g, seed=args.seed + i)
        if args.filter == "frobenius" and cert.index != 0:
            continue
        cases.append({
            "poset": posets.poset_to_json(P),
            "dim": g.dim,
            "certificate": cert.to_json(),
        })
    results = {
        "size": args.size,
        "total_isomorphism_classes": len(all_posets),
        "reported": len(cases),
        "cases": cases,
    }
    params = {
        "size": args.size,
        "filter": args.filter,
        "variant": args.variant,
        "seed": args.seed,
    }
    return results, params, None


def build_parser():
    top = _Parser(
        prog="lieposet",
        description="Exact computations on Lie poset algebras",
    )
    sub = top.add_subparsers(dest="command", required=True)
    # Each subcommand's parser, by name, for ``_parse_args``; the command
    # is its default, so that it parses a namespace on its own.
    top.commands = {}

    def command(name, help):
        p = top.commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(command=name)
        return p

    def common(p):
        p.add_argument("file", help="poset JSON file")
        p.add_argument("--variant", choices=("gl", "sl"), default="gl",
                       help="family-A realization (ignored for B/C/D)")
        p.add_argument("--pretty", action="store_true", help="indent JSON output")

    p = command("build", "construct the algebra, report shape")
    common(p)
    p.add_argument("--dump-algebra", action="store_true")

    p = command("index", "index certificate, Frobenius data")
    common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--bound", type=int, default=10**6)

    p = command("cohomology", "Chevalley-Eilenberg dims at a degree")
    common(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-dim", type=int, default=cohomology.DEFAULT_MAX_DIM,
                   help="refuse a larger algebra with exit 3 (default %(default)s)")
    p.add_argument("--dump-complex", metavar="PATH",
                   help="write coboundary matrices as sparse triplets")

    p = command("classify", "solvability class and normal form")
    common(p)
    p.add_argument("--seed", type=int, required=True)

    p = command("verify", "run a named verification suite")
    p.add_argument("suite", choices=suites.SUITES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pretty", action="store_true")

    p = command("enumerate", "height-one family-A posets up to iso")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--filter", choices=("all", "frobenius"), default="all")
    p.add_argument("--variant", choices=("gl", "sl"), default="sl")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pretty", action="store_true")

    return top


@functools.cache
def _parser():
    return build_parser()


def _parse_args(argv):
    """The namespace ``_parser().parse_args(argv)`` gives, from the named
    subcommand's parser alone when it parses all of the rest.

    The top-level parse hands everything after the subcommand to that
    parser's ``parse_known_args`` and fails on anything it leaves over, so
    when nothing is left the namespaces agree and the top-level pass is
    skipped.  Anything else (leftovers, a ``--``, an unknown or missing
    command, a top-level ``-h``) is parsed from the top, which keeps every
    error report and every help text as it is."""
    top = _parser()
    if argv is None:
        argv = sys.argv[1:]
    sub = top.commands.get(argv[0]) if argv and "--" not in argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            return args
    return top.parse_args(argv)


def main(argv=None):
    args = None
    try:
        args = _parse_args(argv)
        started = time.monotonic()
        # Looked up per call, so a rebound cmd_* (a tracer, a test) is reached.
        results, params, digest = globals()[f"cmd_{args.command}"](args)
    except CliInputError as e:
        code, rep = EXIT_INPUT, {"error": str(e), "kind": "input"}
    except (GuardError, DegreeError) as e:
        code, rep = EXIT_GUARD, {"error": str(e), "kind": "guard"}
    except (liealg.ClosureError, liealg.CartanWeylError) as e:
        code, rep = EXIT_INTERNAL, {"error": str(e), "kind": "internal"}
    except (liealg.LieAlgError, ValueError) as e:
        code, rep = EXIT_INPUT, {"error": str(e), "kind": "input"}
    else:
        rep = {"command": args.command, "params": params, "results": results}
        if digest is not None:
            rep["input_sha256"] = digest
        rep["wall_time_s"] = round(time.monotonic() - started, 6)
        # Only a verification suite fails without an error: its report is
        # printed in full, with exit code 1.
        failed = args.command == "verify" and not results["passed"]
        code = EXIT_VERIFY if failed else EXIT_OK
    rep["schema"] = SCHEMA
    try:
        indent = 2 if getattr(args, "pretty", False) else None  # args None: unparsed
        # Unindented, json.dumps takes the C encoder; json.dump never does.
        sys.stdout.write(json.dumps(rep, indent=indent, sort_keys=True) + "\n")
        sys.stdout.flush()
    except OSError as e:
        # stderr may be unwritable too; the exit code still says why.
        with contextlib.suppress(OSError):
            print(f"lieposet: cannot write the report: {e}", file=sys.stderr)
        # The unwritten report stays buffered; closing the stream keeps the
        # interpreter from flushing it again at exit and exiting with 120.
        with contextlib.suppress(OSError):
            sys.stdout.close()
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
