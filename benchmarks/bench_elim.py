"""Compare the compiled and pure-Python elimination kernels.

Workloads mirror real use: Kirillov-matrix ranks and Chevalley-Eilenberg
coboundary ranks.  Run as ``python3 benchmarks/bench_elim.py``.
"""

import random
import time
from fractions import Fraction

from lieposet import _elim_py, cohomology, indexfrob, liealg, posets

try:
    from lieposet import _elim_cy
except ImportError:
    _elim_cy = None


def rank_with(backend, M):
    rows = [{} for _ in range(M.n_rows)]
    for (i, j), v in M.entries.items():
        rows[i][j] = v
    pivots, _ = backend.eliminate(rows, M.n_cols)
    return len(pivots)


def collect_matrices():
    mats = []
    for n in (4, 5, 6):
        g = liealg.make_phi(n)
        mats.append((f"coboundary d2 phi_{n}", cohomology.coboundary_matrix(g, 2).matrix))
    g = liealg.build(posets.hexagon_type_c_poset())
    mats.append(("coboundary d2 hexagon", cohomology.coboundary_matrix(g, 2).matrix))
    rng = random.Random(0)
    g = liealg.build(posets.chain_poset(4), "gl")
    for trial in range(3):
        f = indexfrob.Functional(coords=tuple(
            Fraction(rng.randint(-10**6, 10**6)) for _ in range(g.dim)))
        mats.append((f"kirillov chain4 trial {trial}", indexfrob.eval_kirillov(g, f)))
    return mats


def main():
    backends = [("python", _elim_py)]
    if _elim_cy is not None:
        backends.append(("cython", _elim_cy))
    mats = collect_matrices()
    print(f"{'matrix':<28} {'shape':>12} " +
          " ".join(f"{name:>10}" for name, _ in backends) + "   speedup")
    totals = [0.0] * len(backends)
    for label, M in mats:
        times = []
        ranks = set()
        for k, (_, backend) in enumerate(backends):
            t0 = time.perf_counter()
            r = rank_with(backend, M)
            dt = time.perf_counter() - t0
            times.append(dt)
            totals[k] += dt
            ranks.add(r)
        assert len(ranks) == 1, f"backend disagreement on {label}"
        speed = f"{times[0] / times[-1]:.2f}x" if len(times) > 1 else "-"
        print(f"{label:<28} {M.n_rows:>5}x{M.n_cols:<6} " +
              " ".join(f"{t * 1e3:>8.2f}ms" for t in times) + f"   {speed}")
    print("-" * 70)
    speed = f"{totals[0] / totals[-1]:.2f}x" if len(totals) > 1 else "-"
    print(f"{'total':<28} {'':>12} " +
          " ".join(f"{t * 1e3:>8.2f}ms" for t in totals) + f"   {speed}")


if __name__ == "__main__":
    main()
