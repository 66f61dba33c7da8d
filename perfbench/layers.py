"""Per-layer measurement for traced runs, installed from outside ``src/``.

* :class:`LayerProfile` wraps ``cProfile`` and splits self time by
  package under ``src/repro/``.  Time in C builtins, numpy and the
  standard library is charged to the repro package that called it
  (through chains of non-repro callers, in proportion to each caller's
  share of the callee's time), so ``hash_join``'s numpy work counts as
  ``relational``.  Its call counts give exact event, process, bus
  transfer and mini-join totals.
* :class:`SpanRecorder` keeps spans in memory around the calls into the
  layers; :func:`install_spans` wraps the service, estimator and cache
  entry points, and ``TertiaryJoinMethod.run`` to collect every
  ``JoinStats`` the round produced.
"""

from __future__ import annotations

import cProfile
import contextlib
import functools
import os
import pstats
import sys
import time

#: The layers the benchmark reports, as packages under ``src/repro/``.
LAYERS = (
    "simulator", "storage", "buffering", "relational", "core",
    "costmodel", "service", "hsm",
)

#: (file suffix, function name) -> counter name.
COUNTED = {
    ("repro/simulator/engine.py", "step"): "events",
    ("repro/simulator/process.py", "__init__"): "processes",
    ("repro/storage/bus.py", "transfer"): "bus_transfers",
    ("repro/relational/join_core.py", "hash_join"): "mini_joins",
}

_MARK = f"{os.sep}repro{os.sep}"


def package_of(filename: str) -> str | None:
    """The ``repro`` subpackage a source file belongs to, else None."""
    at = filename.rfind(_MARK)
    if at < 0:
        return None
    parts = filename[at + len(_MARK):].split(os.sep)
    return parts[0] if len(parts) > 1 else "api"


class LayerProfile:
    """cProfile over selected calls, reduced to per-package self time."""

    def __init__(self):
        self._profile = cProfile.Profile()

    @contextlib.contextmanager
    def active(self):
        self._profile.enable()
        try:
            yield
        finally:
            self._profile.disable()

    def reduce(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self seconds per package, exact call counts)."""
        stats = pstats.Stats(self._profile).stats
        weights: dict = {}

        def weight(func) -> dict[str, float]:
            if func in weights:
                return weights[func]
            package = package_of(func[0])
            if package is not None:
                weights[func] = {package: 1.0}
                return weights[func]
            weights[func] = {"other": 1.0}  # cycle guard while recursing
            callers = stats[func][4] if func in stats else {}
            total = sum(edge[3] for edge in callers.values())
            if total > 0:
                mix: dict[str, float] = {}
                for caller, edge in callers.items():
                    for name, share in weight(caller).items():
                        mix[name] = mix.get(name, 0.0) + share * edge[3] / total
                weights[func] = mix
            return weights[func]

        self_s: dict[str, float] = {}
        counts = dict.fromkeys(COUNTED.values(), 0)
        for func, (_cc, calls, tottime, _ct, callers) in stats.items():
            for (suffix, name), counter in COUNTED.items():
                if func[2] == name and func[0].endswith(suffix.replace("/", os.sep)):
                    counts[counter] += calls
            package = package_of(func[0])
            if package is not None or not callers:
                key = package or "other"
                self_s[key] = self_s.get(key, 0.0) + tottime
                continue
            for caller, edge in callers.items():
                for name, share in weight(caller).items():
                    self_s[name] = self_s.get(name, 0.0) + share * edge[2]
        return self_s, counts


class SpanRecorder:
    """Spans (name, id, parent, start, end) held in memory until exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, span_id: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, span_id, parent, time.perf_counter() - self.origin, None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][4] = time.perf_counter() - self.origin

    def total(self, name: str) -> float:
        return float(sum(end - start for n, _i, _p, start, end in self.spans if n == name))

    def current_id(self) -> str:
        return self.spans[self._stack[-1]][1] if self._stack else ""

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "id": i, "parent": p, "start_s": s, "end_s": e}
            for n, i, p, s, e in self.spans
        ]


def _job_name() -> str:
    """The service job whose process called into the cache.

    ``JoinService`` calls the cache from frames holding the job in a
    local named ``job``; the nearest such frame up the stack names it.
    """
    frame = sys._getframe(1)
    while frame is not None:
        job = frame.f_locals.get("job")
        if job is not None and hasattr(job, "request"):
            return job.request.name
        frame = frame.f_back
    return "?"


def install_spans(recorder: SpanRecorder, joins: list) -> None:
    """Wrap layer entry points in this process; ``joins`` collects JoinStats."""
    from repro.core.base import TertiaryJoinMethod
    from repro.hsm.cache import PartitionCache
    from repro.service.estimators import SimulatedEstimator
    from repro.service.scheduler import JoinService

    def wrap(cls, attr, name, ident):
        original = getattr(cls, attr)

        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            with recorder.span(name, ident(self, *args)):
                return original(self, *args, **kwargs)

        setattr(cls, attr, wrapper)

    passes: dict[str, int] = {}

    def pass_id(self, *args):
        """``<unit>/cold`` for a service's first run, ``<unit>/warm`` after."""
        unit = recorder.current_id()
        passes[unit] = passes.get(unit, 0) + 1
        return f"{unit}/{'cold' if passes[unit] == 1 else 'warm'}"

    same_id = lambda self, *args: recorder.current_id()
    job_id = lambda self, job, *args: f"{recorder.current_id()}/{job.request.name}"
    cache_id = lambda self, *args: f"{recorder.current_id()}/{_job_name()}"
    wrap(JoinService, "run", "service.run", pass_id)
    wrap(JoinService, "admit", "service.admit", same_id)
    wrap(SimulatedEstimator, "profile", "estimator.profile", job_id)
    wrap(PartitionCache, "lookup", "hsm.lookup", cache_id)
    wrap(PartitionCache, "admit", "hsm.admit", cache_id)

    method_run = TertiaryJoinMethod.run

    @functools.wraps(method_run)
    def run(self, spec):
        stats = method_run(self, spec)
        joins.append(stats)
        return stats

    TertiaryJoinMethod.run = run
