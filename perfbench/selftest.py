"""Self-test of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It asserts that:

- BENCHMARK.json names exactly the metrics run.py prints, with their units;
- tracing patches every binding of each traced function (the names
  ``indexfrob`` imported from ``liealg``, the kernel reached through
  ``exactla._elim``) and restores all of them, leaving nothing patched;
- on a small smoke subset of every workload, a traced pass gives outputs
  identical to an untraced one, the count metrics repeat exactly, and no job
  fails (``failed_frac = 0``);
- without the package beside it the benchmark exits non-zero and prints no
  result.
"""

import json
import os
import shutil
import subprocess
import sys

import run

sys.path.insert(0, run.SRC)

import spans  # noqa: E402
import workloads  # noqa: E402
from lieposet import exactla, indexfrob, liealg  # noqa: E402

SMOKE = {
    "cohomology": ("phi4:", "chain3:", "hexagon:", "randA8:", "randB8:", "randC8:", "randD8:"),
    "classify": ("enumerate6", "enum2.", "enum3.", "enum4.", "rand0:", "verify-patterns",
                 "verify-spectrum"),
    "structure": ("chain6:", "randB22:"),
}


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END, (e2e, run.END_TO_END)
    assert layer == run.PER_LAYER, set(layer) ^ set(run.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def bindings():
    return {(mod.__name__, attr): obj for mod in spans.lieposet_modules()
            for attr, obj in vars(mod).items()}


def check_hygiene():
    before = bindings()
    originals = spans.targets()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for fn in (liealg.bracket, indexfrob.bracket, liealg.derived_series,
                   indexfrob.derived_series, exactla._elim.eliminate, exactla.rank):
            assert hasattr(fn, "__perfbench_original__"), fn
        assert indexfrob.bracket is liealg.bracket
        unpatched = [key for key, obj in bindings().items() if callable(obj) and obj in originals]
        assert not unpatched, f"bindings left unwrapped: {unpatched}"
    finally:
        tracer.restore()
    after = bindings()
    assert not spans.leftover_wrappers(), spans.leftover_wrappers()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed, f"bindings not restored: {changed}"


def check_smoke(name, workdir):
    made = workloads.WORKLOADS[name](0, workdir)
    jobs = [job for job in made.jobs if job.name.startswith(SMOKE[name])]
    assert jobs, name
    checker = run.Checker(jobs)
    checker.record(run.run_pass(jobs)[2])
    tracer = spans.Tracer()
    tracer.install()
    try:
        samples = []
        for _ in range(2):
            checker.record(run.run_pass(jobs, tracer)[2])
            samples.append(run.layer_sample(tracer))
            assert tracer.spans, f"{name}: traced pass recorded no spans"
    finally:
        tracer.restore()
    assert checker.failed == 0, f"{name}: {checker.reasons}"
    _, consistent = run.per_layer_metrics(samples, [1.0], [1.0])
    assert consistent, f"{name}: counts differ between traced passes"
    print(f"smoke {name}: {len(jobs)} jobs x 3 passes, failed_frac 0")


def check_refuses_without_package(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "structure",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and not out.stdout.strip(), out


def main():
    workdir = os.path.join(run.HERE, "_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        check_benchmark_json()
        check_hygiene()
        for name in workloads.WORKLOADS:
            check_smoke(name, workdir)
        check_hygiene()
        check_refuses_without_package(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest ok")


if __name__ == "__main__":
    main()
