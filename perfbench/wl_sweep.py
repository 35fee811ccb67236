"""sweep-lattice-50k: one op is one in-process ``run_batch(jobs, table, workers=2)``.

The batch is 40 jobs over 10 environments (every 3-of-5 QI subset x
{Flash k=5, Flash k=25+l=2, Incognito k=10, Incognito k=50+l=2}), so an
op is hierarchy build, planning and cold lattice-engine fills, with no
import or CSV cost. Set-up pays the import (timed in a fresh
interpreter), ``read_csv`` and one warm-up op.
"""

from __future__ import annotations

import hashlib
import statistics
import subprocess
import sys
import time

import datagen
import jobs
from check import check_columns
from common import SETUP_REPEATS, Context, Outcome, python, vm_hwm_mb

ROWS = 50_000
WORKERS = 2
#: ``peak_rss_mb`` is read after this many timed rounds (after the set-up
#: rounds). Resident memory grows with later rounds by steps that depend
#: on which worker thread's malloc arena served what, so it is only
#: comparable at a pinned, early round count; the loop runs at least this
#: many rounds whatever ``--seconds`` says.
RSS_ROUNDS = 1
CATEGORICAL = ["zipcode", "job", "sex", "edu", "disease"]
NUMERIC = ["age"]


def import_seconds(ctx: Context) -> float:
    """``import repro.api`` timed inside a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import repro.api; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [python(), "-c", code], env=ctx.env, capture_output=True, text=True, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def _digest(results) -> str:
    """sha256 over every release's columns, in job order."""
    h = hashlib.sha256()
    for result in results:
        for column in result.release.table:
            h.update(column.name.encode())
            if column.is_categorical:
                h.update(repr(column.categories).encode())
                h.update(column.codes.tobytes())
            else:
                h.update(column.values.tobytes())
    return h.hexdigest()


class SweepOps:
    def __init__(self, ctx: Context, outcome: Outcome):
        sys.path.insert(0, str(ctx.root / "src"))
        from repro.api import AnonymizationConfig

        self.ctx = ctx
        self.outcome = outcome
        self.path = datagen.dataset(ctx.out, ROWS, ctx.seed)
        self.specs = jobs.sweep_jobs()
        self.configs = [AnonymizationConfig.from_dict(spec) for spec in self.specs]
        self.table = None
        self.digest: str | None = None

    def read(self) -> float:
        from repro.core.io import read_csv

        start = time.perf_counter()
        self.table = read_csv(self.path, categorical=CATEGORICAL, numeric=NUMERIC)
        return time.perf_counter() - start

    def op(self, tracer=None) -> float | None:
        from repro.api import JobFailure, run_batch

        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            results = run_batch(self.configs, self.table, workers=WORKERS, on_error="collect")
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
        self.outcome.attempted += 1
        if any(isinstance(result, JobFailure) for result in results):
            self.outcome.failed += 1
            return None
        return wall if self.checked(results) else None

    def checked(self, results) -> bool:
        digest = _digest(results)
        if self.digest is None:
            for spec, result in zip(self.specs, results):
                names = [*jobs.qi_names(spec), jobs.SENSITIVE]
                table = result.release.table
                columns = {name: table.column(name).decode() for name in names}
                k, l = jobs.model_bounds(spec)
                reason = check_columns(columns, jobs.qi_names(spec), jobs.SENSITIVE, k, l)
                if reason:
                    self.outcome.fail_check(reason)
                    return False
            self.digest = digest
        elif digest != self.digest:
            self.outcome.fail_check("sweep releases differ from the first op's")
            return False
        return True

    def loop(self, seconds: float, min_ops: int = 1, tracer=None):
        latencies: list[float] = []
        rss_mb = None
        start = time.perf_counter()
        rounds = 0
        while time.perf_counter() - start < seconds or rounds < min_ops:
            wall = self.op(tracer)
            rounds += 1
            if wall is not None:
                latencies.append(wall)
            if rounds == min_ops:
                rss_mb = vm_hwm_mb()
        return latencies, time.perf_counter() - start, rss_mb


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    repeats = 1 if ctx.trace else SETUP_REPEATS
    imports = [import_seconds(ctx) for _ in range(repeats)]
    ops = SweepOps(ctx, outcome)
    reads = []
    for import_s in imports:
        start = time.perf_counter()
        reads.append(ops.read())
        ops.op()
        outcome.setups.append(import_s + time.perf_counter() - start)
    if not ctx.trace:
        outcome.latencies, elapsed, outcome.peak_rss_mb = ops.loop(ctx.seconds, RSS_ROUNDS)
        outcome.jobs_per_s = len(ops.configs) * len(outcome.latencies) / elapsed
        return outcome

    from spans import Tracer

    untraced, _, _ = ops.loop(ctx.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, _ = ops.loop(ctx.seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.dump(ctx.work_dir("sweep") / "spans.json")
    outcome.latencies = untraced
    outcome.samples["traced_latency_s"] = traced
    if not (traced and untraced):
        return outcome
    layers = tracer.layer_metrics()
    walls = sum(tracer.op_walls)
    covered = tracer.covered()
    layers.update({
        "repro.import_s": imports[0],
        "io.read_csv_s": reads[0],
        "io.bytes_in": float(ops.path.stat().st_size),
        "trace.coverage": covered / walls,
        "trace.unattributed_s": (walls - covered) / tracer.ops,
        "trace.overhead": statistics.median(traced) / statistics.median(untraced),
        "trace.ops": tracer.ops,
    })
    outcome.layers = layers
    return outcome
