"""cli-flash-200k: one op is ``python -m repro in.csv out.csv --config job.json --report``.

Each op is a fresh interpreter, so an op pays import, CSV ingest, the
Flash lattice search, release egress and the report metrics. The traced
variant runs the same argv through ``traced_main.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import time

import datagen
import jobs
from check import check_csv
from common import SETUP_REPEATS, Context, Outcome, python

ROWS = 200_000


class CliOps:
    def __init__(self, ctx: Context, outcome: Outcome):
        self.ctx = ctx
        self.outcome = outcome
        self.data = datagen.dataset(ctx.out, ROWS, ctx.seed)
        self.work = ctx.work_dir("cli")
        self.config = jobs.cli_job()
        self.job = self.work / "job.json"
        self.job.write_text(json.dumps(self.config))
        self.digest: str | None = None
        self.rss_mb: list[float] = []
        self.traces: list[dict] = []

    def op(self, traced: bool = False) -> float | None:
        """Run one op; its wall seconds, or None if it failed."""
        release = self.work / "out.csv"
        release.unlink(missing_ok=True)
        argv = [str(self.data), str(release), "--config", str(self.job), "--report"]
        spans = self.work / f"spans-{len(self.traces)}.json"
        if traced:
            script = self.ctx.root / "perfbench" / "traced_main.py"
            command = [python(), str(script), str(spans), "--", *argv]
        else:
            command = [python(), "-m", "repro", *argv]
        with open(self.work / "stderr.txt", "wb") as stderr:
            start = time.perf_counter()
            process = subprocess.Popen(
                command, env=self.ctx.env, stdout=subprocess.DEVNULL, stderr=stderr
            )
            _, status, usage = os.wait4(process.pid, 0)
            wall = time.perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)
        self.outcome.attempted += 1
        if process.returncode != 0:
            self.outcome.failed += 1
            return None
        self.rss_mb.append(usage.ru_maxrss / 1024)
        published = release.read_bytes()
        release.unlink()
        if not self.checked(published):
            return None
        if traced:
            trace = json.loads(spans.read_text())
            trace["wall"] = wall
            self.traces.append(trace)
        return wall

    def checked(self, data: bytes) -> bool:
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            k, l = jobs.model_bounds(self.config)
            reason = check_csv(data, jobs.qi_names(self.config), jobs.SENSITIVE, k, l)
            if reason:
                self.outcome.fail_check(reason)
                return False
            self.digest = digest
        elif digest != self.digest:
            self.outcome.fail_check("release differs from the first op's release")
            return False
        return True

    def loop(self, seconds: float, traced: bool = False) -> tuple[list[float], float]:
        """Closed loop for ``seconds``: (latencies, wall of the loop)."""
        latencies: list[float] = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            wall = self.op(traced)
            if wall is not None:
                latencies.append(wall)
        return latencies, time.perf_counter() - start


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    ops = CliOps(ctx, outcome)
    if not ctx.trace:
        for _ in range(SETUP_REPEATS):
            wall = ops.op()
            if wall is not None:
                outcome.setups.append(wall)
        outcome.latencies, elapsed = ops.loop(ctx.seconds)
        outcome.jobs_per_s = len(outcome.latencies) / elapsed
        outcome.peak_rss_mb = max(ops.rss_mb)
        outcome.samples["peak_rss_mb"] = ops.rss_mb
        return outcome

    ops.op()
    untraced, _ = ops.loop(ctx.seconds / 2)
    traced, _ = ops.loop(ctx.seconds / 2, traced=True)
    outcome.latencies = untraced
    outcome.samples["traced_latency_s"] = traced
    if not (traced and untraced):
        return outcome
    layers: dict[str, float] = {}
    for trace in ops.traces:
        values = {**trace["layers"], "repro.import_s": trace["import_s"]}
        for name, value in values.items():
            layers[name] = layers.get(name, 0.0) + value / len(ops.traces)
    walls = sum(t["wall"] for t in ops.traces)
    covered = sum(t["covered_s"] + t["import_s"] for t in ops.traces)
    layers["trace.coverage"] = covered / walls
    layers["trace.unattributed_s"] = (walls - covered) / len(ops.traces)
    layers["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    layers["trace.ops"] = len(ops.traces)
    outcome.layers = layers
    return outcome
