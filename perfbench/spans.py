"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the package: `installed` swaps each
layer entry point for a wrapper that opens a span (name, start, end,
parent) and adds the call's work counts. vineshift modules bind
functions by name (`rvine.kendall_tau`, `bicopula.kendall_tau`,
`adapt.permutation_test`, ...), so a module-level function is replaced
at every module attribute that holds it, not only where it is defined.
Methods are replaced on their class, which every instance consults.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """Spans and work counters of one traced repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start, end, parent index or None, nested in a same-name span]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        nested = any(self.spans[i][0] == name for i in self._stack)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, nested])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, func, count=None):
        """func with a span per call; count(*args, **kwargs) -> {counter: increment}."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(idx)
            self.counts[f"{name}.calls"] += 1
            if count is not None:
                for key, inc in count(*args, **kwargs).items():
                    self.counts[f"{name}.{key}"] += inc
            return result
        return traced

    def times(self) -> tuple[dict, dict]:
        """(busy, self) seconds per span name.

        busy sums the outermost span of each name, so a layer re-entering
        itself is not counted twice; self time is a span's duration minus
        the part its direct children cover.
        """
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, nested) in enumerate(self.spans):
            own[name] += (t1 - t0) - covered[i]
            if not nested:
                busy[name] += t1 - t0
        return busy, own

    def children(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose direct parent is a parent_name span."""
        return sum(1 for name, _, _, parent, _ in self.spans
                   if name == child_name and parent is not None
                   and self.spans[parent][0] == parent_name)

    def to_doc(self) -> dict:
        return {"run_id": self.run_id,
                "fields": ["name", "start", "end", "parent", "run_id"],
                "spans": [[name, t0, t1, parent, self.run_id]
                          for name, t0, t1, parent, _ in self.spans],
                "counts": dict(sorted(self.counts.items()))}


def _kernel1d_evals(self, x):
    return {"kernel_evals": int(np.size(x)) * int(self.centers.size)}


def _copula_evals(self, u, v):
    queries = np.broadcast(np.asarray(u), np.asarray(v)).size
    return {"kernel_evals": int(queries) * int(self.n)}


def _mmd_work(X, Y, config):
    pooled = int(np.shape(X)[0]) + int(np.shape(Y)[0])
    return {"pooled_rows": pooled,
            "kernel_bytes": 8 * pooled * pooled + 8 * pooled * int(config.permutations)}


def _regress_queries(vine, X_feat, grid):
    return {"queries": int(np.atleast_2d(X_feat).shape[0]) * int(grid.points.size)}


def layer_entry_points() -> list:
    """(owner, attribute, span name, work counter) for every traced entry point."""
    from vineshift import adapt, bicopula, mmd, modelfile, regress, rvine, statcore, synth

    kernel1d = statcore.GaussianKernel1D
    kernel = bicopula.KernelCopula
    return [
        (statcore, "kendall_tau", "statcore.kendall_tau",
         lambda x, y: {"rows": int(np.size(x))}),
        (kernel1d, "cdf", "statcore.kernel1d", _kernel1d_evals),
        (kernel1d, "logpdf", "statcore.kernel1d", _kernel1d_evals),
        (kernel1d, "pdf", "statcore.kernel1d", _kernel1d_evals),
        (kernel, "cdf_u_given_v", "bicopula.h", _copula_evals),
        (kernel, "cdf_v_given_u", "bicopula.h", _copula_evals),
        (kernel, "log_density", "bicopula.log_density", _copula_evals),
        (kernel, "fit", "bicopula.fit", None),
        (bicopula.GaussianCopula, "fit", "bicopula.fit", None),
        (mmd, "permutation_test", "mmd.permutation_test", _mmd_work),
        (rvine, "fit_vine", "rvine.fit_vine", None),
        (rvine, "build_first_tree", "rvine.tree_build", None),
        (rvine, "build_next_tree", "rvine.tree_build", None),
        (rvine.VineModel, "log_density", "rvine.log_density", None),
        (adapt, "adapt_vine", "adapt.adapt_vine", None),
        (regress, "conditional_density_batch", "regress.conditional_density_batch",
         _regress_queries),
        (regress, "default_grid", "regress.default_grid", None),
        (modelfile, "save", "modelfile.save",
         lambda model, path: {"bytes": os.path.getsize(path)}),
        (modelfile, "load", "modelfile.load", None),
        (synth, "regression_task", "synth", None),
        (synth, "gaussian_copula_chain", "synth", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Route every layer entry point through tracer; restore them on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "vineshift" or name.startswith("vineshift."))]
    undo = []
    try:
        for owner, attr, name, count in layer_entry_points():
            raw = owner.__dict__[attr]
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(name, raw.__func__, count))
                else:
                    new = tracer.wrap(name, raw, count)
                setattr(owner, attr, new)
                undo.append((owner, attr, raw))
                continue
            new = tracer.wrap(name, raw, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        setattr(mod, key, new)
                        undo.append((mod, key, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


class RssSampler:
    """Peak resident set of this process, sampled by a background thread.

    Stands in for tracemalloc, whose per-allocation hook slows the pure
    Python parts of the package (the Kendall tau merge sort) twentyfold.
    Reads /proc/self/statm, so it needs Linux. Short-lived arrays between
    two samples can be missed, and memory the allocator keeps after a
    stage is not seen again by the next one.
    """

    def __init__(self, interval: float = 0.001):
        self._interval = interval
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._lock = threading.Lock()
        self._peak = self.rss()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def rss(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _sample(self):
        while not self._stop.wait(self._interval):
            value = self.rss()
            with self._lock:
                self._peak = max(self._peak, value)

    def reset(self) -> int:
        """Start a new window at the current resident set; returns it."""
        value = self.rss()
        with self._lock:
            self._peak = value
        return value

    def peak(self) -> int:
        value = self.rss()
        with self._lock:
            return max(self._peak, value)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.close(self._fd)
