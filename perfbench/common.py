"""Shared plumbing: run context, outcome, statistics, process helpers."""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Set-up is repeated this many times per timed run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: End-to-end metrics, reported by every workload with tracing off.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics, reported by every traced run (0 where a layer does
#: not run). Times are self seconds per op, counts are per op.
PER_LAYER = {
    "repro.import_s": "s",
    "io.read_csv_s": "s",
    "io.write_csv_s": "s",
    "io.bytes_in": "bytes",
    "io.bytes_out": "bytes",
    "config.build_hierarchies_s": "s",
    "config.build_schema_s": "s",
    "executor.run_s": "s",
    "executor.run_batch_s": "s",
    "executor.plan_s": "s",
    "executor.job_failures": "count",
    "algorithms.flash_s": "s",
    "algorithms.incognito_s": "s",
    "algorithms.mondrian_s": "s",
    "engine.stats_calls": "count",
    "engine.stats_s": "s",
    "engine.from_rows": "count",
    "engine.rollups": "count",
    "engine.hits": "count",
    "engine.misses": "count",
    "engine.coalesced": "count",
    "engine.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.recomputed_after_evict": "count",
    "cache.peak_bytes": "bytes",
    "partition_engine.groups_materialized": "count",
    "partition_engine.histogram_splits": "count",
    "partition_engine.checks_fast": "count",
    "partition_engine.checks_legacy": "count",
    "partition_engine.raw_rescans": "count",
    "generalize.apply_partition_recoding_s": "s",
    "metrics.compute_s": "s",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.poll_lag_s": "s",
    "service.release_s": "s",
    "service.release_bytes": "bytes",
    "service.rejected": "count",
    "service.tenant_hits": "count",
    "service.tenant_from_rows": "count",
    "trace.coverage": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
    "trace.ops": "count",
    "error_rate": "ratio",
}


@dataclass
class Context:
    root: Path  # the checkout the benchmark runs from
    seed: int
    seconds: float
    trace: bool

    @property
    def out(self) -> Path:
        """Scratch outputs (data cache, releases, spans, run records)."""
        return self.root / ".perfbench_out"

    @property
    def env(self) -> dict[str, str]:
        """Environment for program subprocesses: ``src`` on the path, and
        temporary files (the service spools CSVs through them) kept inside
        the checkout."""
        path = os.environ.get("PYTHONPATH")
        src = str(self.root / "src")
        tmp = self.out / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        return {
            **os.environ,
            "PYTHONPATH": f"{src}:{path}" if path else src,
            "TMPDIR": str(tmp),
        }

    def work_dir(self, workload: str) -> Path:
        path = self.out / "work" / f"{workload}-{self.seed}-{os.getpid()}"
        path.mkdir(parents=True, exist_ok=True)
        return path


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    check_failures: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    jobs_per_s: float = 0.0
    peak_rss_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def fail_check(self, reason: str) -> None:
        self.check_failures.append(reason)
        self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.check_failures and self.attempted > self.failed

    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric, filled in from the traced run's values."""
        values = dict(self.layers)
        values.setdefault("engine.stats_calls", values.get("engine.stats.calls", 0.0))
        lookups = values.get("engine.hits", 0.0) + values.get("engine.misses", 0.0)
        values["engine.hit_ratio"] = values.get("engine.hits", 0.0) / lookups if lookups else 0.0
        values["error_rate"] = self.failed / self.attempted if self.attempted else 0.0
        return {name: float(values.get(name, 0.0)) for name in PER_LAYER}

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setups),
            "latency_p50_s": statistics.median(self.latencies),
            "latency_p90_s": percentile(self.latencies, 90),
            "jobs_per_s": self.jobs_per_s,
            "peak_rss_mb": self.peak_rss_mb,
        }


def percentile(samples: list[float], p: int) -> float:
    """The ``p``-th percentile (inclusive interpolation) of ``samples``."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def tail_percentile(n: int) -> int:
    """Highest percentile with at least ten of ``n`` samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p
    return 0


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and count for the run record."""
    if not samples:
        return {"n": 0}
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"n": len(samples), "median": statistics.median(samples), "q1": q1, "q3": q3}


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stop(process: subprocess.Popen, timeout: float = 20.0) -> int:
    """SIGTERM a child, wait for it, SIGKILL it if it lingers."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    return process.returncode


def python() -> str:
    return sys.executable or "python3"
