"""In-memory spans around the program's public entry points.

The tracer wraps functions and methods from the outside — nothing in the
program changes. Each span records (layer, thread, start, end, depth, op);
a layer's self time is its duration minus the time its child spans in the
same thread cover. Spans stay in memory and are written once, at the end.

Layers spanned (``install``):

=================================== ======================================
layer                               entry point
=================================== ======================================
``io.read_csv`` / ``io.write_csv``  ``repro.core.io.read_csv`` / ``write_csv``
``config.build_hierarchies``        ``repro.api.config.build_hierarchies``
``config.build_schema``             ``repro.api.config.build_schema``
``executor.run`` / ``run_batch``    ``repro.api.executor.run`` / ``run_batch``
``executor.plan``                   ``BatchPlanner.plan``
``algorithms.flash`` (etc.)         ``Flash/Incognito/Mondrian.anonymize``
``engine.stats``                    ``LatticeEvaluator.stats``
``generalize.apply_partition_recoding`` the function of that name
``metrics.compute``                 ``MetricRegistry.compute``
=================================== ======================================

Counters are read where the program already exposes them: every
evaluator seen by ``engine.stats`` during an op reports ``cache_info()``
when the op ends, and each ``run`` result's ``partition_cache``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ENGINE_COUNTERS = ("hits", "misses", "from_rows", "rollups", "coalesced")
CACHE_COUNTERS = ("evictions", "recomputed_after_evict")
PARTITION_COUNTERS = (
    "groups_materialized", "histogram_splits", "checks_fast", "checks_legacy", "raw_rescans",
)


def union_seconds(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    """Span and counter store; ``op`` tags spans with the current op id."""

    def __init__(self, harvest_engines: bool = True):
        self.harvest_engines = harvest_engines
        self.spans: list[tuple] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.peak_cache_bytes = 0
        self.op: int | None = None
        self.ops = 0
        self._op_start = 0.0
        self.op_walls: list[float] = []
        self._evaluators: dict[int, object] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            with self._lock:
                self.self_time[name] += duration - frame[0]
                self.calls[name] += 1
            self.spans.append((name, threading.get_ident(), start, end, len(stack), self.op))

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    # -- ops -----------------------------------------------------------------

    def begin_op(self) -> None:
        self.op = self.ops
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        self.op_walls.append(time.perf_counter() - self._op_start)
        cache_bytes = 0
        for evaluator in self._evaluators.values():
            info = evaluator.cache_info()
            for name in ENGINE_COUNTERS:
                self.count(f"engine.{name}", info.get(name, 0))
            for name in CACHE_COUNTERS:
                self.count(f"cache.{name}", info.get(name, 0))
            cache_bytes += info.get("bytes", 0)
        self.peak_cache_bytes = max(self.peak_cache_bytes, cache_bytes)
        self._evaluators.clear()
        self.op = None
        self.ops += 1

    def covered(self) -> float:
        """Seconds of op wall clock inside a top-level span."""
        return union_seconds(
            (start, end) for _, _, start, end, depth, op in self.spans
            if depth == 0 and op is not None
        )

    # -- summary -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-op means: self time (``<layer>_s``), calls and counters."""
        ops = max(self.ops, 1)
        out: dict[str, float] = {}
        for name, seconds in self.self_time.items():
            out[f"{name}_s"] = seconds / ops
            out[f"{name}.calls"] = self.calls[name] / ops
        for name, value in self.counters.items():
            out[name] = value / ops
        out["cache.peak_bytes"] = float(self.peak_cache_bytes)
        return out

    def dump(self, path: Path, extra: dict | None = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "ops": self.ops,
            "op_walls": self.op_walls,
            "covered_s": self.covered(),
            "layers": self.layer_metrics(),
            "spans": self.spans,
            **(extra or {}),
        }
        path.write_text(json.dumps(payload))

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch_function(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``module.attr`` and every ``from module import attr`` copy."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, before, after)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def patch_method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, before, after))
        self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def install(self) -> None:
        """Span every layer entry point listed in the module docstring."""
        import repro.api.config as config
        import repro.api.executor as executor
        import repro.api.registry as registry
        import repro.core.engine as engine
        import repro.core.generalize as generalize
        import repro.core.io as rio
        from repro.algorithms.flash import Flash
        from repro.algorithms.incognito import Incognito
        from repro.algorithms.mondrian import Mondrian

        def bytes_in(args, kwargs):
            self.count("io.bytes_in", os.path.getsize(args[0] if args else kwargs["path"]))

        def bytes_out(args, kwargs, _result):
            self.count("io.bytes_out", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))

        def batch_done(args, kwargs, results):
            failures = sum(isinstance(r, executor.JobFailure) for r in results)
            self.count("executor.job_failures", failures)

        def run_done(args, kwargs, result):
            partition = (result.release.info or {}).get("partition_cache") or {}
            for key in PARTITION_COUNTERS:
                self.count(f"partition_engine.{key}", partition.get(key, 0))

        def seen_evaluator(args, kwargs):
            if self.harvest_engines and self.op is not None:
                self._evaluators[id(args[0])] = args[0]

        self.patch_function(rio, "read_csv", "io.read_csv", before=bytes_in)
        self.patch_function(rio, "write_csv", "io.write_csv", after=bytes_out)
        self.patch_function(config, "build_hierarchies", "config.build_hierarchies")
        self.patch_function(config, "build_schema", "config.build_schema")
        self.patch_function(executor, "run", "executor.run", after=run_done)
        self.patch_function(executor, "run_batch", "executor.run_batch", after=batch_done)
        self.patch_method(executor.BatchPlanner, "plan", "executor.plan")
        self.patch_method(Flash, "anonymize", "algorithms.flash")
        self.patch_method(Incognito, "anonymize", "algorithms.incognito")
        self.patch_method(Mondrian, "anonymize", "algorithms.mondrian")
        self.patch_method(engine.LatticeEvaluator, "stats", "engine.stats", before=seen_evaluator)
        self.patch_function(
            generalize, "apply_partition_recoding", "generalize.apply_partition_recoding"
        )
        self.patch_method(registry.MetricRegistry, "compute", "metrics.compute")
