"""Machine-speed calibration: scales measured times to a reference speed.

The machines this benchmark runs on are shared, and how fast they run
Python code drifts by up to 1.5x within a minute, with the other tenants'
load; code that allocates much (dicts keyed by tuples, ``Fraction``
arithmetic: lieposet's inner loops) drifts most.  So a run measures the
machine's speed alongside the jobs: between jobs, at most every ``EVERY_S``
seconds and outside every timed job, it runs one calibration unit, four
small fixed kernels (integer arithmetic, ``Fraction`` accumulation in a
tuple-keyed dict, sparse +-1 row reduction, tuple allocation), and records
each kernel's time.

Every job time is then multiplied by the run's factor
``(REFERENCE_S / U) ** EXPONENT``, where ``U`` is the sum over the kernels of
the median of each kernel's times: it reads as the time the jobs would have
taken at the speed at which one unit takes ``REFERENCE_S``.  The jobs do not
follow the kernels one for one.  Over five-minute recordings (a coboundary
report, a derived series, a ``build`` and a CLI ``classify``, each timed
alternately with the kernels) and over whole benchmark runs, the log-log
slope of job time against ``U`` ranged from 0.5 to 1.3, mostly 0.6 to 0.9;
``EXPONENT`` is 0.75.  On those recordings the scaled times spread two to
four times less than the raw ones.  ``setup_s`` is not scaled: it is mostly
process start-up and import, which did not follow the kernels.

The kernels are not lieposet code, so no change to the package moves them;
a change that makes the package faster makes the scaled times smaller by the
same ratio as the raw ones.  The raw (unscaled) figures, the factor and the
kernels' times are printed in every run's context line.
"""

import statistics
import time
from fractions import Fraction

# Median time of one unit (all four kernels) on the machine where the
# benchmark was defined: a 2-core x86-64 VM, CPython 3.11.7.
REFERENCE_S = 0.025
EXPONENT = 0.75
EVERY_S = 0.25  # at most this long between two units while jobs run


def _integers():
    s = 0
    for i in range(57000):
        s += i * i % 7
    return s


def _fractions():
    acc = {}
    for i in range(420):
        key = (i % 61, i % 59, i % 53)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 1 + i % 17)
    total = sum(acc.values(), Fraction(0))
    for i in range(8):
        for j in range(40):
            v = Fraction(i + j, 1 + j % 5)
            total += v * v
    return total


def _sparse_rows():
    pivots = {}
    for i in range(900):
        row = {(i * 7 + j) % 7919: 1 if (i + j) % 3 else -1 for j in range(12)}
        for c in sorted(row):
            if c in pivots and row.get(c):
                f = row[c]
                for cc, v in pivots[c].items():
                    nv = row.get(cc, 0) - f * v
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
                if len(row) > 60:
                    break
        if row:
            pivots[min(row)] = row
    return sum(len(r) for r in pivots.values())


def _tuples():
    return len({tuple(sorted((i % 13, i % 7, i % 11))) for i in range(8000)})


KERNELS = (_integers, _fractions, _sparse_rows, _tuples)


class Calibration:
    """Kernel timings of one run."""

    def __init__(self):
        self.samples = {k.__name__: [] for k in KERNELS}
        self.units = 0
        self._results = {}
        self._last = float("-inf")

    def unit(self):
        for kernel in KERNELS:
            t0 = time.perf_counter()
            value = kernel()
            self.samples[kernel.__name__].append(time.perf_counter() - t0)
            if self._results.setdefault(kernel.__name__, value) != value:
                raise RuntimeError(f"calibration kernel {kernel.__name__} changed its result")
        self.units += 1
        self._last = time.perf_counter()

    def due(self):
        """Run a unit when the last one ended at least EVERY_S ago."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.unit()

    def unit_seconds(self):
        return sum(statistics.median(s) for s in self.samples.values())

    @property
    def factor(self):
        """Multiply a job time by this to scale it to the reference speed."""
        return (REFERENCE_S / self.unit_seconds()) ** EXPONENT

    def summary(self):
        return {"factor": self.factor, "units": self.units,
                "kernel_median_s": {k: statistics.median(s) for k, s in self.samples.items()}}
