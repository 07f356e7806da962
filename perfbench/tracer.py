"""In-memory span and count recording around driftmpc's layer boundaries.

Nothing here edits the program: a `Tracer` replaces a function at the
module attribute where its caller looks it up (for example
`driftmpc.harness.solve_dep`), records one span per call, and puts the
original back on `close()`.  Spans hold (name, start, end, parent span,
group); the group is one episode or one BO iteration.  Counters on very
hot functions (the dynamics call, the GP kernel) record no span: each
call adds one to the innermost open span's count.
"""
from __future__ import annotations

import importlib
import math
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name): every public function a layer exposes at
# the names where harness, mpc and bo call it, plus the package names the
# benchmark itself calls
SPANNED = [
    ("driftmpc", "run_episode", "harness.run_episode"),
    ("driftmpc", "tune", "harness.tune"),
    ("driftmpc", "bo_loop", "bo.bo_loop"),
    ("driftmpc.harness", "run_episode", "harness.run_episode"),
    ("driftmpc.harness", "bo_loop", "bo.bo_loop"),
    ("driftmpc.harness", "project", "paths.project"),
    ("driftmpc.harness", "errors_from_projection", "paths.errors_from_projection"),
    ("driftmpc.harness", "ppt_radius", "tracking.ppt_radius"),
    ("driftmpc.harness", "apt_radius", "tracking.apt_radius"),
    ("driftmpc.harness", "steer_feedback", "tracking.steer_feedback"),
    ("driftmpc.harness", "solve_dep", "equilibrium.solve_dep"),
    ("driftmpc.harness", "linearize", "mpc.linearize"),
    ("driftmpc.harness", "augment", "mpc.augment"),
    ("driftmpc.harness", "solve_mpc", "mpc.solve_mpc"),
    ("driftmpc.harness", "step", "vehicle.step"),
    ("driftmpc.mpc", "solve_qp", "qp.solve_qp"),
    ("driftmpc.bo", "gp_fit", "gp.gp_fit"),
    ("driftmpc.bo", "gp_predict", "gp.gp_predict"),
    ("driftmpc.bo", "gp_predict_batch", "gp.gp_predict_batch"),
    ("driftmpc.bo", "acquire_next", "bo.acquire_next"),
    ("driftmpc.bo", "expected_improvement", "bo.expected_improvement"),
]

# (module, attribute, counter name): counted per call, attributed to the
# innermost open span
COUNTED = [
    ("driftmpc.vehicle", "dynamics", "dynamics"),
    ("driftmpc.mpc", "dynamics", "dynamics"),
    ("driftmpc.equilibrium", "dynamics", "dynamics"),
    ("driftmpc.gp", "matern52_matrix", "kernel"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "group", "error", "info")

    def __init__(self, name, start, parent, group):
        self.name = name
        self.start = start
        self.end = math.nan
        self.parent = parent
        self.group = group
        self.error = False
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs wrappers on construction and removes them on close()."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, defaultdict] = {}
        self.group = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.acquired = None    # the point acquire_next returned last
        self.acquisitions = 0
        self.fallbacks = 0
        for mod, attr, name in SPANNED:
            self._install(mod, attr, lambda fn: self._spanned(fn, name))
        for mod, attr, name in COUNTED:
            self._install(mod, attr, lambda fn: self._counted(fn, name))

    def _install(self, mod, attr, wrap):
        module = importlib.import_module(mod)
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, wrap(original))

    def close(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def new_group(self) -> None:
        self.group += 1

    def _spanned(self, fn, name):
        tracer = self
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            if name == "harness.run_episode":
                tracer.note_evaluation(args[1] if len(args) > 1 else kwargs.get("theta"))
                tracer.new_group()
            span = Span(name, 0.0, stack[-1] if stack else -1, tracer.group)
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = perf_counter()
                span.error = True
                stack.pop()
                raise
            span.end = perf_counter()
            stack.pop()
            tracer._after(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts.setdefault(name, defaultdict(int))
        stack = self._stack

        def wrapper(*args, **kwargs):
            counts[stack[-1] if stack else -1] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, span, args, kwargs, result) -> None:
        """Per-layer facts read off a call's arguments and result, outside
        the timed interval."""
        name = span.name
        if name == "qp.solve_qp":
            span.info = (result.iterations, len(result.active))
        elif name == "mpc.solve_mpc":
            # the certificate solve_mpc already computed for the QP it solved
            r = result.kkt
            span.info = max(r["stationarity"], r["feasibility"], r["complementarity"])
        elif name == "gp.gp_fit":
            span.info = "refit" if kwargs.get("hypers") is not None else "fit"
        elif name == "gp.gp_predict_batch":
            span.info = len(args[1])
        elif name == "bo.acquire_next":
            self.acquired = np.array(result, float)
            self.acquisitions += 1
            self.new_group()

    def note_evaluation(self, theta) -> None:
        """Called when the BO runner receives a point: a point other than
        the one acquire_next returned means bo_loop used its fallback."""
        if self.acquired is None or theta is None:
            return
        t = np.asarray(theta, float)[-len(self.acquired):]
        if not np.array_equal(t, self.acquired):
            self.fallbacks += 1
        self.acquired = None

    # ------------------------------------------------------------------
    # queries

    def of(self, name: str, info=None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (info is None or s.info == info)]

    def self_times(self, name: str) -> list[float]:
        """Duration of each `name` span minus the time its direct child
        spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - child[i] for i, s in enumerate(self.spans) if s.name == name]

    def count_in(self, counter: str, name: str, info=None) -> int:
        """Calls of `counter` made while a `name` span was innermost."""
        counts = self.counts.get(counter, {})
        return sum(counts.get(i, 0) for i, s in enumerate(self.spans)
                   if s.name == name and (info is None or s.info == info))

    def total(self, counter: str) -> int:
        return sum(self.counts.get(counter, {}).values())
