"""Smoke test for benchmarks/bench_elim.py: its matrices still build and its
kernel-level rank agrees with exactla.rank on each of them."""

import importlib.util
import pathlib

from lieposet import _elim_py, exactla

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_elim.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_elim", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_elim_ranks_agree():
    bench = _load()
    mats = bench.collect_matrices()
    assert mats
    for label, M in mats:
        assert bench.rank_with(_elim_py, M) == exactla.rank(M), label
