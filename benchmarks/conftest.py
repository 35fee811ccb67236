"""Shared benchmark fixtures: datasets sized for quick, stable runs.

Also home to the machine-readable results writer: every executor-tier
experiment (E34-E37, E39-E41) calls :func:`write_results` with its wall clocks and
counters, producing ``BENCH_<EXP>.json`` under ``$BENCH_RESULTS_DIR``, or by
default under the git-ignored ``.bench_out/`` at the repository root, so a
gate run (as CI makes) leaves the committed records alone. To re-record a
committed record on purpose, point ``BENCH_RESULTS_DIR`` at this directory
(``cd benchmarks && BENCH_RESULTS_DIR=. python bench_e41_partition_engine.py``).
Shrunken pytest-tier runs skip the write unless ``BENCH_RESULTS_DIR`` is set.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro.data import (
    adult_hierarchies,
    adult_schema,
    load_adult,
    load_medical,
    medical_hierarchies,
    medical_schema,
)


@pytest.fixture(scope="session")
def adult():
    return load_adult(n_rows=2000, seed=42)


@pytest.fixture(scope="session")
def adult_env(adult):
    return adult, adult_schema(), adult_hierarchies()


@pytest.fixture(scope="session")
def medical():
    return load_medical(n_rows=2000, seed=42)


@pytest.fixture(scope="session")
def medical_env(medical):
    return medical, medical_schema(), medical_hierarchies()


def print_series(title, header, rows):
    """Render an experiment series as the table the paper would show."""
    print(f"\n=== {title} ===")
    print(" | ".join(f"{h:>16}" for h in header))
    for row in rows:
        print(" | ".join(f"{_fmt(v):>16}" for v in row))


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def cpu_count():
    """CPUs actually available to this process (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def peak_rss_bytes():
    """Peak resident set size of this process, in bytes."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak if sys.platform == "darwin" else peak * 1024


def write_results(experiment, payload):
    """Write ``BENCH_<EXP>.json``: the experiment's machine-readable record.

    ``payload`` holds the experiment-specific series (wall clocks, cache
    counters, gate verdicts); host facts (CPU count, python, peak RSS) are
    stamped alongside so a number can be judged against the machine that
    produced it. Writes under ``$BENCH_RESULTS_DIR``, else under the
    git-ignored ``.bench_out/``; the committed records beside the scripts
    change only when ``BENCH_RESULTS_DIR`` names their directory. Returns
    the path written, or ``None`` when skipped (pytest tier without
    ``BENCH_RESULTS_DIR`` — shrunken runs must not overwrite full-size
    records).
    """
    out_dir = os.environ.get("BENCH_RESULTS_DIR")
    if out_dir is None:
        if os.environ.get("PYTEST_CURRENT_TEST"):
            return None
        out_dir = Path(__file__).resolve().parent.parent / ".bench_out"
        out_dir.mkdir(exist_ok=True)
    path = Path(out_dir) / f"BENCH_{experiment}.json"
    record = {
        "experiment": experiment,
        "host": {
            "cpus": cpu_count(),
            "python": sys.version.split()[0],
            "platform": sys.platform,
        },
        "peak_rss_bytes": peak_rss_bytes(),
        **payload,
    }
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"[results] wrote {path}")
    return path
