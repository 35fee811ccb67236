"""E39 — Chaos gate: seeded job faults surface as structured failures.

A multi-environment sweep runs under ``on_error="collect"`` while the
deterministic fault-injection subsystem (:mod:`repro.core.faults`) raises
seeded errors at the engine's ``evaluate-node`` point.

Gates (exit code — what CI enforces):

1. at least one job fails, and every failure is a structured
   ``JobFailure`` with the ``"fault"`` taxonomy label;
2. two runs with the same seed produce the same failure sequence (the same
   fired-fault log and the same per-job outcomes);
3. jobs that stayed healthy are byte-identical to the fault-free
   sequential baseline (sha256 of raw column codes).

Results are recorded to ``BENCH_E39.json`` via the shared writer. Runnable
standalone (``python benchmarks/bench_e39_chaos.py [--rows N]``, non-zero
exit on failure) or via pytest (a small instance; every gate is
size-independent).
"""

import argparse
import hashlib
import sys
import time

import numpy as np

from conftest import cpu_count, print_series, write_results

from repro.api import AnonymizationConfig, JobFailure, run_batch
from repro.core import faults
from repro.core.table import Column, Table
from repro.data.synthetic import _binary_tree_hierarchy

#: Four QI environments, each swept over two k values.
ENVIRONMENTS = (
    ["zip", "job"],
    ["zip", "edu"],
    ["job", "edu"],
    ["zip", "city"],
)
K_SWEEP = (5, 25)

#: Seed for the injected-failure gate: deterministic evaluate-node faults.
FAULT_SEED = 1011
FAULT_RATE = 0.05

DOMAINS = {"zip": 64, "job": 32, "edu": 16, "city": 32}
SENSITIVE_VALUES = [f"d{i}" for i in range(8)]


def _make_table(n_rows, seed):
    rng = np.random.default_rng(seed)
    columns = []
    for name, domain in DOMAINS.items():
        codes = rng.integers(0, domain, size=n_rows)
        columns.append(
            Column.from_codes(name, codes, [f"{name}_{i}" for i in range(domain)])
        )
    columns.append(
        Column.from_codes(
            "disease", rng.integers(0, len(SENSITIVE_VALUES), size=n_rows), SENSITIVE_VALUES
        )
    )
    return Table(columns)


def _hierarchies():
    return {
        name: _binary_tree_hierarchy([f"{name}_{i}" for i in range(domain)])
        for name, domain in DOMAINS.items()
    }


def _sweep():
    return [
        AnonymizationConfig.from_dict(
            {
                "quasi_identifiers": qis,
                "sensitive": ["disease"],
                "models": [{"model": "k-anonymity", "k": k}],
                "algorithm": {"algorithm": "flash", "max_suppression": 0.05},
            }
        )
        for qis in ENVIRONMENTS
        for k in K_SWEEP
    ]


def _table_digest(table):
    digest = hashlib.sha256()
    for col in table:
        digest.update(col.name.encode())
        if col.is_categorical:
            digest.update(repr(col.categories).encode())
            digest.update(np.ascontiguousarray(col.codes).data)
        else:
            digest.update(np.ascontiguousarray(col.values).data)
    return digest.hexdigest()


def _release_prints(results):
    return [
        (r.release.node, _table_digest(r.release.table))
        if not isinstance(r, JobFailure)
        else ("failed", r.error_type)
        for r in results
    ]


def _timed(configs, table, hierarchies, **kwargs):
    start = time.perf_counter()
    results = run_batch(configs, table, hierarchies=hierarchies, **kwargs)
    return results, time.perf_counter() - start


def run_bench(n_rows=200_000, seed=42):
    bench_start = time.perf_counter()
    table = _make_table(n_rows, seed)
    hierarchies = _hierarchies()
    configs = _sweep()

    sequential, sequential_seconds = _timed(configs, table, hierarchies)
    reference_prints = _release_prints(sequential)
    del sequential

    fault_plan = {
        "points": {"evaluate-node": {"rate": FAULT_RATE}},
        "seed": FAULT_SEED,
    }

    def _collect_round():
        with faults.injection(fault_plan):
            results, seconds = _timed(
                configs, table, hierarchies, on_error="collect"
            )
            log = faults.fired()
        return _release_prints(results), log, seconds

    first_prints, first_log, collect_seconds = _collect_round()
    second_prints, second_log, _ = _collect_round()
    deterministic = first_prints == second_prints and first_log == second_log
    n_injected = sum(1 for p in first_prints if p[0] == "failed")
    failures_structured = all(
        p == ("failed", "fault")
        for p in first_prints
        if p[0] == "failed"
    )
    survivors_identical = all(
        p == ref
        for p, ref in zip(first_prints, reference_prints)
        if p[0] != "failed"
    )

    print_series(
        f"E39: chaos gate (n={n_rows}, {len(configs)}-job "
        f"{len(ENVIRONMENTS)}-environment sweep, {cpu_count()} CPUs)",
        ["path", "seconds", "failed jobs"],
        [
            ("sequential (baseline)", sequential_seconds, 0),
            (f"collect, rate={FAULT_RATE}", collect_seconds, n_injected),
        ],
    )
    print(
        f"injected-fault round (rate={FAULT_RATE}, seed={FAULT_SEED}): "
        f"{n_injected} structured failure(s), deterministic: {deterministic}, "
        f"survivors byte-identical: {survivors_identical}"
    )

    ok = (
        deterministic
        and failures_structured
        and survivors_identical
        and n_injected > 0
    )
    elapsed = time.perf_counter() - bench_start
    write_results(
        "E39",
        {
            "n_rows": n_rows,
            "n_jobs": len(configs),
            "sequential_seconds": sequential_seconds,
            "collect_seconds": collect_seconds,
            "injected_failures": n_injected,
            "total_seconds": elapsed,
            "deterministic": deterministic,
            "failures_structured": failures_structured,
            "survivors_identical": survivors_identical,
            "ok": ok,
        },
    )
    return ok


def test_e39_chaos():
    # Small instance for the pytest tier: every gate is size-independent.
    assert run_bench(n_rows=20_000), "injected faults must stay structured"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=200_000,
                        help="synthetic table size (CI default)")
    args = parser.parse_args()
    sys.exit(0 if run_bench(n_rows=args.rows) else 1)
