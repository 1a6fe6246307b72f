"""Span tracing of lieposet's public functions, from outside the package.

``Tracer.install`` wraps every public module-level function of the layer
modules, plus the elimination kernel reached as ``exactla._elim.eliminate``,
and rebinds each wrapper under every name that held the original in any
loaded ``lieposet`` module (``indexfrob.bracket`` is ``liealg.bracket``, for
example).  ``Tracer.restore`` puts every original back.

While ``active`` is set, each call records one span ``(name, start, end,
parent, job)`` in memory.  Counters read from arguments and results (nnz,
pivots, bit lengths) are computed after the span closes, and the time they
take is removed from the trace clock, so they do not inflate any span.
"""

import functools
import inspect
import sys
import time

LAYERS = ("posets", "liealg", "cohomology", "exactla", "indexfrob", "simplicial", "cli")


def _coboundary_counts(tr, args, result):
    M = result.matrix
    tr.count("cohomology.coboundary_matrix.nnz", len(M.entries))
    tr.count("cohomology.coboundary_matrix.rows", M.n_rows)
    tr.count("cohomology.coboundary_matrix.cols", M.n_cols)


def _rank_counts(tr, args, result):
    tr.count("exactla.rank.nnz_in", len(args[0].entries))


def _eliminate_counts(tr, args, result):
    pivots, rows = result
    tr.count("exactla.eliminate.pivots", len(pivots))
    bits = 0
    for row in rows.values():
        for v in row.values():
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    tr.maximum("exactla.eliminate.max_bits", bits)


def _enumerate_counts(tr, args, result):
    tr.count("posets.classes", len(result))


COUNTERS = {
    "cohomology.coboundary_matrix": _coboundary_counts,
    "exactla.rank": _rank_counts,
    "exactla.eliminate": _eliminate_counts,
    "posets.enumerate_height_one": _enumerate_counts,
}


class Tracer:
    """Patches the traced functions and, while ``active``, records their spans."""

    def __init__(self):
        self.active = False
        self.job = None
        self.spans = []
        self.counters = {}
        self._stack = []
        self._excluded = 0.0
        self._patched = []  # (module, attribute, original)

    def clock(self):
        return time.perf_counter() - self._excluded

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def maximum(self, name, n):
        self.counters[name] = max(self.counters.get(name, 0), n)

    def reset(self):
        self.spans, self.counters, self._stack = [], {}, []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx] = (name, start, self.clock(), parent, self.job)
                self._stack.pop()
            if counter is not None:
                t0 = time.perf_counter()
                counter(self, args, result)
                self._excluded += time.perf_counter() - t0
            return result

        traced.__perfbench_original__ = fn
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        by_original = {fn: self._wrap(name, fn) for fn, name in targets().items()}
        for mod in lieposet_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = by_original.get(obj) if callable(obj) else None
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []
        self.active = False

    def summary(self):
        """Per span name: calls, total and self seconds; per layer: self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, self_s + end - start - child[idx])
        layers = {}
        for name, (_, _, self_s) in out.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return out, layers


def targets():
    """{original function: span name} for every traced function."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"lieposet.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                out[obj] = f"{layer}.{attr}"
    out[sys.modules["lieposet.exactla"]._elim.eliminate] = "exactla.eliminate"
    return out


def lieposet_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lieposet" or name.startswith("lieposet."))]


def leftover_wrappers():
    """Names in lieposet modules still bound to a tracing wrapper."""
    return [f"{mod.__name__}.{attr}" for mod in lieposet_modules()
            for attr, obj in vars(mod).items()
            if hasattr(obj, "__perfbench_original__")]
