"""End-to-end and per-layer benchmark of lieposet.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout; nothing is built or
installed.  A run sets up its seeded inputs several times (``setup_s`` is the
median), then repeats its fixed job list in whole passes, closed loop and in
this one process, until the passes have taken about ``--seconds`` of wall
time (the pass boundary nearest to it) and, untraced, pooled at least 100 job
latencies.  Between jobs, off the clock, it runs the calibration units of
calib.py; job times are reported scaled to the reference machine speed
defined there.  Every job's output is checked against the workload's
correctness checks on the first pass and must be identical on every later
one; checks run outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the traced
ones (see spans.py), plus ``trace.overhead_frac``.  The last line of standard
output is the result object; the line before it is the run's context: the
environment block, pass times, the raw (unscaled) end-to-end figures, the
calibration, sample counts, ``failed_frac`` and the generator's acceptance
ratio.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from calib import Calibration
from spans import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
MIN_SAMPLES = 100  # p90 then has at least 10 samples beyond it
HARD_LIMIT_S = 150  # start no pass that would end the run after this

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

CALLS = ["liealg.bracket", "cohomology.coboundary_matrix", "exactla.rank",
         "exactla.eliminate", "indexfrob.eval_kirillov"]
TOTALS = ["liealg.bracket", "liealg.check_jacobi", "liealg.derived_series", "liealg.build",
          "liealg.center", "cohomology.cohomology_report", "cohomology.compare_h2",
          "exactla.rank", "exactla.solve", "exactla.invert", "exactla.kernel_basis",
          "indexfrob.index", "indexfrob.spectrum", "simplicial.simplicial_cohomology_dim",
          "cli.main"]
SELFS = ["liealg.build", "cohomology.coboundary_matrix", "exactla.eliminate",
         "posets.enumerate_height_one", "indexfrob.normalize_to_phi",
         "indexfrob.compose_isomorphism", "cli.main"]
COUNTS = {"cohomology.coboundary_matrix.nnz": "count", "cohomology.coboundary_matrix.rows": "count",
          "cohomology.coboundary_matrix.cols": "count", "exactla.rank.nnz_in": "count",
          "exactla.eliminate.pivots": "count", "exactla.eliminate.max_bits": "bits",
          "posets.classes": "count"}
PER_LAYER = {
    **{f"{n}.calls": "count" for n in CALLS},
    **{f"{n}.total_s": "s" for n in TOTALS},
    **{f"{n}.self_s": "s" for n in SELFS},
    **COUNTS,
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def import_seconds():
    """Time to import the package in a fresh interpreter (measured inside it)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import lieposet.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout)


def environment(seed, workload, trace):
    import lieposet

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "lieposet")
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if os.path.isfile(path) and name.endswith((".py", ".pyx")):
            with open(path, "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "backend": lieposet.BACKEND,
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "workload": workload,
        "trace": trace,
    }


def _commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", *head[5:].split("/"))) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def setup(workload, seed, workdir, calib):
    """Set up SETUP_REPEATS times; the inputs must come out identical."""
    from workloads import WORKLOADS

    samples, first = [], None
    for _ in range(SETUP_REPEATS):
        calib.unit()
        imp = import_seconds()
        t0 = time.perf_counter()
        made = WORKLOADS[workload](seed, workdir)
        samples.append(imp + time.perf_counter() - t0)
        if first is None:
            first = made
        elif made.inputs != first.inputs:
            raise RuntimeError("input generation is not deterministic")
    return made, samples


class Checker:
    """First-pass checks, then identical outputs on every later pass."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.reference = [None] * len(jobs)  # (digest, reason or None)
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, outcomes):
        for i, (job, (raw, error)) in enumerate(zip(self.jobs, outcomes)):
            self.attempted += 1
            reason = error
            if reason is None:
                try:
                    value = job.digest(raw) if job.digest else raw
                    if self.reference[i] is None:
                        self.reference[i] = (value, job.check(value))
                        reason = self.reference[i][1]
                    elif value != self.reference[i][0]:
                        reason = "output differs from the first pass"
                    else:
                        reason = self.reference[i][1]
                except Exception as e:  # a failing check counts against the job
                    reason = f"check raised {type(e).__name__}: {e}"
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(f"{job.name}: {reason}")


def run_pass(jobs, tracer=None, calib=None):
    """One pass over the jobs; returns the jobs' total time, their latencies
    and outcomes.  Calibration units run between jobs, off the clock."""
    latencies, outcomes = [], []
    if tracer is not None:
        tracer.reset()
        tracer.active = True
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            outcome = (job.run(), None)
        except Exception as e:  # the job fails; the run goes on
            outcome = (None, f"raised {type(e).__name__}: {e}")
        latencies.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        if calib is not None:
            calib.due()
    if tracer is not None:
        tracer.active = False
    return sum(latencies), latencies, outcomes


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[-(-9 * len(ordered) // 10) - 1]


def measure(jobs, seconds, trace, begun, calib):
    """Run whole passes, alternating untraced and traced ones when tracing,
    until they have taken about ``seconds`` of wall time.

    Returns the checker, untraced pass times, pooled untraced latencies,
    traced pass times and one per-layer sample per traced pass.
    """
    checker = Checker(jobs)
    plain_times, latencies, traced_times, layers = [], [], [], []
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    start = last = time.perf_counter()
    walls = []
    try:
        while True:
            traced = trace and len(traced_times) < len(plain_times)
            elapsed, lat, outcomes = run_pass(jobs, tracer if traced else None, calib)
            now = time.perf_counter()
            walls.append(now - last)
            last = now
            checker.record(outcomes)
            if traced:
                traced_times.append(elapsed)
                layers.append(layer_sample(tracer))
            else:
                plain_times.append(elapsed)
                latencies.extend(lat)
            done = now - start
            if trace:
                enough = len(traced_times) == len(plain_times)
                step = walls[-1] + walls[-2] if enough else 0.0
            else:
                enough = len(latencies) >= MIN_SAMPLES
                step = walls[-1]
            # Stop at the pass boundary nearest to the time asked for.
            if enough and done + step / 2 >= seconds:
                break
            if (enough or not trace) and now - begun + walls[-1] > HARD_LIMIT_S:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    return checker, plain_times, latencies, traced_times, layers


def layer_sample(tracer):
    by_name, by_layer = tracer.summary()
    sample = {"trace.spans": len(tracer.spans)}
    for name in CALLS:
        sample[f"{name}.calls"] = by_name.get(name, (0, 0.0, 0.0))[0]
    for name in TOTALS:
        sample[f"{name}.total_s"] = by_name.get(name, (0, 0.0, 0.0))[1]
    for name in SELFS:
        sample[f"{name}.self_s"] = by_name.get(name, (0, 0.0, 0.0))[2]
    for name in COUNTS:
        sample[name] = tracer.counters.get(name, 0)
    for layer in LAYERS:
        sample[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    return sample


def per_layer_metrics(layers, plain_times, traced_times, factor=1.0):
    """Counts must repeat exactly across traced passes; times are medians,
    multiplied by the calibration factor."""
    values, consistent = {}, True
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            values[name] = statistics.median(traced_times) / statistics.median(plain_times) - 1
        elif unit == "s":
            values[name] = statistics.median(s[name] for s in layers) * factor
        else:
            seen = {s[name] for s in layers}
            consistent &= len(seen) == 1
            values[name] = layers[0][name]
    return values, consistent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cohomology", "classify", "structure"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lieposet", "__init__.py")):
        print(f"perfbench: no lieposet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    begun = time.perf_counter()
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    calib = Calibration()
    try:
        made, setup_samples = setup(args.workload, args.seed, workdir, calib)
        checker, plain_times, latencies, traced_times, layers = measure(
            made.jobs, args.seconds, args.trace, begun, calib)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = checker.failed == 0
    factor = calib.factor
    raw = {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": len(made.jobs) * len(plain_times) / sum(plain_times),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_p90_ms": p90(latencies) * 1e3,
    }
    if args.trace:
        values, consistent = per_layer_metrics(layers, plain_times, traced_times, factor)
        correct &= consistent
        units = PER_LAYER
    else:
        values = {
            "setup_s": raw["setup_s"],
            "jobs_per_s": raw["jobs_per_s"] / factor,
            "job_p50_ms": raw["job_p50_ms"] * factor,
            "job_p90_ms": raw["job_p90_ms"] * factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    context = {
        "env": environment(args.seed, args.workload, args.trace),
        "jobs_per_pass": len(made.jobs),
        "passes": len(plain_times),
        "traced_passes": len(traced_times),
        "pass_s": plain_times,
        "traced_pass_s": traced_times,
        "latency_samples": len(latencies),
        "setup_samples_s": setup_samples,
        "raw": raw,
        "calibration": calib.summary(),
        "acceptance": made.acceptance,
        "failed_frac": checker.failed / checker.attempted,
        "failures": checker.reasons,
    }
    for reason in checker.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(json.dumps(context))
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
