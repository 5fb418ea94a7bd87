"""Per-layer tracing of fucik from outside the package.

``Tracer.install()`` replaces the layer functions listed in ``TARGETS`` with
wrappers that record a span (name, start, end, parent) per call, in every
fucik module that holds the function under that name (``cli`` and
``semilinear`` import several of them by name).  A few fallbacks are counted
where they show from outside:

- a warm ``minimize_on_sphere`` that raises ``MaxIterations`` (``_m_eval``
  then retries it as a multistart);
- a ``_locate_root`` call with ``careful=True``;
- a ``LinAlgError`` from ``scipy.linalg.cho_factor`` inside a
  ``_maximize_t`` span (the Newton step falls back to a gradient step);
- ``scipy.linalg.lstsq`` inside a ``solve`` span (phase-2 Newton fallback).

Spans stay in memory and are written once, by ``write_spans``, when the run
ends.  ``round_stats`` turns the spans and counters of one round into the
per-layer metrics: call counts, self time (a span's duration minus the
parts its child spans cover), and the counters.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.linalg

from fucik import cli, operator, semilinear, spectrum
from fucik.errors import MaxIterations

# (owner, attribute, span name)
TARGETS = (
    (operator, "assemble", "operator.assemble"),
    (operator, "eigenpairs", "operator.eigenpairs"),
    (operator, "load_basis", "operator.load_basis"),
    (cli, "run", "cli.run"),
    (spectrum, "trace_curve", "spectrum.trace_curve"),
    (spectrum, "beta_of_alpha", "spectrum.beta_of_alpha"),
    (spectrum, "_locate_root", "spectrum.locate_root"),
    (spectrum, "minimize_on_sphere", "spectrum.minimize_on_sphere"),
    (spectrum._SphereSolver, "descend", "spectrum.descend"),
    (spectrum._SphereSolver, "freeze_refine", "spectrum.freeze_refine"),
    (spectrum, "_maximize_t", "spectrum.maximize_t"),
    (semilinear, "problem_from_dict", "semilinear.problem_from_dict"),
    (semilinear, "classify", "semilinear.classify"),
    (semilinear.Nonlinearity, "validate", "semilinear.nonlinearity_validate"),
    (semilinear.Nonlinearity, "primitive", "semilinear.primitive"),
    (semilinear, "check_gll", "semilinear.check_gll"),
    (semilinear, "solve", "semilinear.solve"),
    (semilinear, "_maximize_low_E", "semilinear.maximize_low_E"),
)

# per-layer metrics reported by a traced run: name -> unit
PER_LAYER = {
    "operator.assemble.calls": "count",
    "operator.assemble.self_s": "s",
    "operator.assemble.peak_mb": "MiB",
    "operator.eigenpairs.calls": "count",
    "operator.eigenpairs.self_s": "s",
    "operator.load_basis.self_s": "s",
    "cli.run.self_s": "s",
    "cli.artifact_bytes": "B",
    "spectrum.trace_curve.self_s": "s",
    "spectrum.beta_of_alpha.calls": "count",
    "spectrum.beta_of_alpha.self_s": "s",
    "spectrum.beta_of_alpha.repeat_calls": "count",
    "spectrum.locate_root.careful_calls": "count",
    "spectrum.minimize_on_sphere.multistart_calls": "count",
    "spectrum.minimize_on_sphere.warm_calls": "count",
    "spectrum.minimize_on_sphere.retry_calls": "count",
    "spectrum.minimize_on_sphere.iterations": "count",
    "spectrum.minimize_on_sphere.self_s": "s",
    "spectrum.descend.calls": "count",
    "spectrum.descend.self_s": "s",
    "spectrum.freeze_refine.calls": "count",
    "spectrum.freeze_refine.self_s": "s",
    "spectrum.maximize_t.calls": "count",
    "spectrum.maximize_t.iterations": "count",
    "spectrum.maximize_t.self_s": "s",
    "spectrum.cholesky_fallbacks": "count",
    "semilinear.problem_from_dict.self_s": "s",
    "semilinear.classify.self_s": "s",
    "semilinear.nonlinearity_validate.self_s": "s",
    "semilinear.primitive.calls": "count",
    "semilinear.primitive.points": "count",
    "semilinear.primitive.self_s": "s",
    "semilinear.fcache_entries": "count",
    "semilinear.check_gll.calls": "count",
    "semilinear.check_gll.self_s": "s",
    "semilinear.solve.iterations": "count",
    "semilinear.solve.self_s": "s",
    "semilinear.maximize_low_E.calls": "count",
    "semilinear.maximize_low_E.self_s": "s",
    "semilinear.lstsq_fallbacks": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * _PAGE


def _holders(original):
    """Every fucik module that binds `original`, with the name it is bound to."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if modname != "fucik" and not modname.startswith("fucik."):
            continue
        for attr, value in vars(mod).items():
            if value is original:
                out.append((mod, attr))
    return out


class Tracer:
    """Spans and counters for one process; install() patches, uninstall() restores."""

    def __init__(self):
        self.names = []  # span name per span index
        self.spans = []  # (name index, start, end, parent index, op index)
        self.counts = Counter()
        self.peak_mb = 0.0
        self._name_ids = {}
        self._stack = []
        self._op = -1
        self._op_keys = set()
        self._op_nonlinearities = []
        self.fcache_max = 0
        self._patches = []

    # -- operations ---------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self._op += 1
        self._op_keys = set()
        self._op_nonlinearities = []
        self._open("op:" + label)

    def end_op(self) -> None:
        self._close(self._stack[-1], time.perf_counter())
        for nl in self._op_nonlinearities:
            self.fcache_max = max(self.fcache_max, len(nl._fcache))
        self._op_nonlinearities = []

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, end: float) -> None:
        self.spans[idx][2] = end
        self._stack.pop()

    def _inside(self, name: str, innermost: bool = False) -> bool:
        nid = self._name_ids.get(name)
        if nid is None or not self._stack:
            return False
        if innermost:
            return self.spans[self._stack[-1]][0] == nid
        return any(self.spans[i][0] == nid for i in self._stack)

    def wrap(self, name: str, fn, before=None, after=None, failed=None):
        """A span-recording replacement for fn.

        before(bound) sees the call's inspect.BoundArguments and may return a
        context value handed to after(ctx, result) or failed(ctx, exc).  Only
        a before hook pays for binding the arguments.
        """
        sig = inspect.signature(fn) if before else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                ctx = before(bound)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, time.perf_counter())
                if failed:
                    failed(ctx, exc)
                raise
            self._close(idx, time.perf_counter())
            if after:
                after(ctx, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def _hooks(self, name: str) -> dict:
        c = self.counts
        if name == "spectrum.minimize_on_sphere":
            def before(b):
                multistart = b.arguments["multistart"] or b.arguments["warm"] is None
                c["spectrum.minimize_on_sphere.multistart_calls" if multistart
                  else "spectrum.minimize_on_sphere.warm_calls"] += 1
                return multistart

            def after(multistart, point):
                c["spectrum.minimize_on_sphere.iterations"] += point.iterations

            def failed(multistart, exc):
                if not multistart and isinstance(exc, MaxIterations):
                    c["spectrum.minimize_on_sphere.retry_calls"] += 1

            return {"before": before, "after": after, "failed": failed}
        if name == "spectrum.locate_root":
            def before(b):
                if b.arguments["careful"]:
                    c["spectrum.locate_root.careful_calls"] += 1

            return {"before": before}
        if name == "spectrum.beta_of_alpha":
            def before(b):
                basis, k = b.arguments["basis"], b.arguments["k"]
                key = (float(b.arguments["alpha"]), id(basis.operator),
                       basis.k if k is None else k, b.arguments["seed"])
                if key in self._op_keys:
                    c["spectrum.beta_of_alpha.repeat_calls"] += 1
                self._op_keys.add(key)

            return {"before": before}
        if name == "spectrum.maximize_t":
            def after(_, result):
                c["spectrum.maximize_t.iterations"] += result[2]

            return {"after": after}
        if name == "semilinear.solve":
            def after(_, result):
                c["semilinear.solve.iterations"] += result.iterations

            return {"after": after}
        if name == "semilinear.primitive":
            def before(b):
                c["semilinear.primitive.points"] += int(np.size(b.arguments["t"]))

            return {"before": before}
        if name == "semilinear.problem_from_dict":
            def after(_, problem):
                self._op_nonlinearities.append(problem.nonlinearity)

            return {"after": after}
        return {}

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, **self._hooks(name))
            if name == "operator.assemble":
                wrapped = self._with_peak_memory(wrapped)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
            else:
                for holder, held_as in _holders(original):
                    self._patch(holder, held_as, wrapped)
        self._patch(scipy.linalg, "cho_factor", self._counting(
            scipy.linalg.cho_factor, lambda: self._inside("spectrum.maximize_t", innermost=True),
            "spectrum.cholesky_fallbacks", on_error=scipy.linalg.LinAlgError))
        self._patch(scipy.linalg, "lstsq", self._counting(
            scipy.linalg.lstsq, lambda: self._inside("semilinear.solve"), "semilinear.lstsq_fallbacks"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _counting(self, fn, where, counter, on_error=None):
        """Count calls of fn while where() holds; given on_error, only its raises of that type."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_error is None and where():
                self.counts[counter] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None and isinstance(exc, on_error) and where():
                    self.counts[counter] += 1
                raise

        return wrapper

    def _with_peak_memory(self, fn):
        """Track how far resident memory rises above its level at the start of each call.

        A sampler thread reads /proc/self/statm every millisecond while the
        call runs; unlike tracemalloc it leaves the traced code's speed alone.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = _rss_bytes()
            peak = [base]
            done = threading.Event()

            def sample():
                while not done.wait(0.001):
                    peak[0] = max(peak[0], _rss_bytes())

            sampler = threading.Thread(target=sample, daemon=True)
            sampler.start()
            try:
                return fn(*args, **kwargs)
            finally:
                done.set()
                sampler.join()
                peak[0] = max(peak[0], _rss_bytes())
                self.peak_mb = max(self.peak_mb, (peak[0] - base) / 2**20)

        return wrapper

    # -- results ------------------------------------------------------------

    def mark(self) -> tuple:
        """Start a round: the position its statistics are taken from."""
        self.peak_mb = 0.0
        self.fcache_max = 0
        return len(self.spans), Counter(self.counts)

    def round_stats(self, mark: tuple) -> dict:
        """Calls, self time and counters of the spans opened since mark."""
        start, counts_before = mark
        calls = Counter()
        self_s = Counter()
        for nid, t0, t1, parent, _ in self.spans[start:]:
            name = self.names[nid]
            dur = t1 - t0
            calls[name] += 1
            self_s[name] += dur
            if parent >= 0:
                self_s[self.names[self.spans[parent][0]]] -= dur
        stats = {}
        for key, unit in PER_LAYER.items():
            layer, _, what = key.rpartition(".")
            if what == "calls":
                stats[key] = calls[layer]
            elif what == "self_s":
                stats[key] = self_s[layer]
            elif key == "trace.spans":
                stats[key] = len(self.spans) - start
            else:
                stats[key] = self.counts[key] - counts_before[key]
        stats["operator.assemble.peak_mb"] = self.peak_mb
        stats["semilinear.fcache_entries"] = self.fcache_max
        return stats

    def write_spans(self, path: Path, origin: float) -> None:
        """One line per span: op, name, start and end (s since origin), parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write("op,name,start_s,end_s,parent\n")
            for nid, t0, t1, parent, op in self.spans:
                f.write(f"{op},{self.names[nid]},{t0 - origin:.9f},{t1 - origin:.9f},{parent}\n")
