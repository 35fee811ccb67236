"""E35 — Batch execution: run_batch vs N independent run() calls.

A multi-config sweep over one table (here: a privacy-parameter sweep — the
"which k / which models" question every release goes through) re-explores
the same generalization lattice per job. ``run_batch`` shares a single
LatticeEvaluator across jobs with equal roles/hierarchies, so GroupStats
computed by one search are memo hits for the rest — node statistics are
model-independent, only the (cheap) model predicates differ per job.

The bench runs the same 5-job Flash sweep both ways and reports wall clock
plus the engine's own cache telemetry. The gate is on node *recomputation*
(batch must compute several times fewer node stats than the independent
runs summed, with nonzero cross-job hits) because cache counters are
deterministic where CI wall clock is noisy; typical observed wall-clock
advantage is 1.4-1.6x.

Runnable standalone (``python benchmarks/bench_e35_batch_api.py``, exits
non-zero when sharing fails — this is what CI runs) or via pytest.
"""

import sys
import time

from conftest import print_series, write_results

from repro.api import AnonymizationConfig, run, run_batch
from repro.data import adult_hierarchies, adult_schema, load_adult

MODEL_SWEEP = [
    [{"model": "k-anonymity", "k": 3}],
    [{"model": "k-anonymity", "k": 5}],
    [
        {"model": "k-anonymity", "k": 5},
        {"model": "distinct-l-diversity", "l": 2, "sensitive": "occupation"},
    ],
    [{"model": "k-anonymity", "k": 8}],
    [
        {"model": "k-anonymity", "k": 5},
        {"model": "t-closeness", "t": 0.4, "sensitive": "occupation"},
    ],
]


def _configs(schema):
    base = {
        "quasi_identifiers": schema.categorical_quasi_identifiers,
        "numeric_quasi_identifiers": schema.numeric_quasi_identifiers,
        "sensitive": schema.sensitive,
        "algorithm": {"algorithm": "flash", "max_suppression": 0.02},
    }
    return [
        AnonymizationConfig.from_dict({**base, "models": models})
        for models in MODEL_SWEEP
    ]


def run_bench(n_rows=5000, seed=42):
    table = load_adult(n_rows=n_rows, seed=seed)
    schema, hierarchies = adult_schema(), adult_hierarchies()
    configs = _configs(schema)

    start = time.perf_counter()
    solo_results = [run(config, table, hierarchies=hierarchies) for config in configs]
    solo_seconds = time.perf_counter() - start
    # Each solo job is a batch of one with its own engine; its cache
    # counters are that job's node computations.
    solo_computed = 0
    for result in solo_results:
        info = result.engine.cache_info()
        solo_computed += info["from_rows"] + info["rollups"]

    start = time.perf_counter()
    batch_results = run_batch(configs, table, hierarchies=hierarchies)
    batch_seconds = time.perf_counter() - start
    info = batch_results[0].engine.cache_info()
    batch_computed = info["from_rows"] + info["rollups"]

    for solo, batch in zip(solo_results, batch_results):
        assert solo.release.node == batch.release.node, "sharing changed a release"

    speedup = solo_seconds / batch_seconds if batch_seconds else float("inf")
    print_series(
        f"E35: batch API sharing (n={n_rows}, {len(configs)}-job model sweep)",
        ["path", "seconds", "node stats computed", "cross-job hits"],
        [
            ("independent run()", solo_seconds, solo_computed, 0),
            ("run_batch shared", batch_seconds, batch_computed, info["hits"]),
        ],
    )
    print(f"wall-clock speedup: {speedup:.2f}x")
    write_results(
        "E35",
        {
            "n_rows": n_rows,
            "n_jobs": len(configs),
            "solo_seconds": solo_seconds,
            "batch_seconds": batch_seconds,
            "solo_computed": solo_computed,
            "batch_computed": batch_computed,
            "cross_job_hits": info["hits"],
            "speedup": speedup,
        },
    )
    # Shared nodes are computed once for the whole sweep: the batch must do
    # several times less stats work than the independent runs combined.
    return batch_computed * 2 <= solo_computed and info["hits"] > 0


def test_e35_batch_sharing():
    assert run_bench(), "run_batch must share node evaluations across jobs"


if __name__ == "__main__":
    ok = run_bench()
    sys.exit(0 if ok else 1)
