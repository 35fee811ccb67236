"""E36 — Parallel batch execution: run_batch(workers=4) vs sequential.

The next scaling step after E35's cross-job cache sharing: one
``run_batch`` call dispatches a same-environment sweep (equal QI roles and
hierarchies, varying models/algorithms — so every job shares one
LatticeEvaluator) across worker threads, which on one evaluator take
the jobs in input order. The engine's memo cache is
thread-safe and *single-flight*: concurrent searches never evaluate one
lattice node twice — a worker that wants a node already being computed
blocks on its in-flight marker instead (the ``coalesced`` counter), and
the heavy per-node work (LUT gathers, mixed-radix packing, ``np.unique``
sorts, bincounts) runs in numpy with the GIL released, so workers overlap
on real cores.

Gates (exit code — what CI enforces):

1. releases are byte-identical between ``workers=4`` and sequential mode;
2. no node is ever evaluated twice: with zero evictions,
   ``from_rows + rollups == entries`` in both modes;
3. the parallel run shows sharing (``hits`` > 0) under the shared engine.
4. on hosts with >= 4 CPUs, wall-clock speedup at ``workers=4`` must
   exceed 1.5x (best of two rounds — the second round only runs when the
   first misses the bar, damping noisy-neighbor contention on shared CI
   runners). On smaller hosts (this includes single-core CI sandboxes)
   the speedup is printed but not gated — wall clock cannot scale past
   the physical core count, while gates 1-3 are scheduling-independent.

Runnable standalone (``python benchmarks/bench_e36_parallel_batch.py``,
non-zero exit on failure — this is what CI runs) or via pytest.
"""

import os
import sys
import time

from conftest import print_series, write_results

from repro.api import AnonymizationConfig, run_batch
from repro.data import adult_hierarchies, load_adult

#: Same-environment sweep: one data scenario (roles + hierarchies fixed),
#: the model/algorithm grid a real release would sweep over.
QIS = ["workclass", "education", "occupation", "native_country", "sex"]
BASE = {
    "quasi_identifiers": QIS,
    "numeric_quasi_identifiers": ["age"],
    "sensitive": ["marital_status"],
    "metrics": ["gcp", "linkage", "non_uniform_entropy", "precision", "discernibility"],
}
ALGORITHMS = (
    {"algorithm": "flash", "max_suppression": 0.02},
    {"algorithm": "ola", "max_suppression": 0.05},
)
MODEL_GRID = [
    [{"model": "k-anonymity", "k": 3}],
    [{"model": "k-anonymity", "k": 10}],
    [{"model": "k-anonymity", "k": 25}],
    [
        {"model": "k-anonymity", "k": 5},
        {"model": "distinct-l-diversity", "l": 3, "sensitive": "marital_status"},
    ],
    [
        {"model": "k-anonymity", "k": 10},
        {"model": "t-closeness", "t": 0.5, "sensitive": "marital_status"},
    ],
]


def _sweep():
    return [
        AnonymizationConfig.from_dict({**BASE, "algorithm": algorithm, "models": models})
        for algorithm in ALGORITHMS
        for models in MODEL_GRID
    ]


def _fingerprint(table):
    return table.fingerprint()


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _measure(configs, table, hierarchies, workers):
    """One timed sequential-vs-parallel round with its correctness verdicts."""
    start = time.perf_counter()
    sequential = run_batch(configs, table, hierarchies=hierarchies)
    sequential_seconds = time.perf_counter() - start
    sequential_info = sequential[0].engine.cache_info()

    start = time.perf_counter()
    parallel = run_batch(configs, table, hierarchies=hierarchies, workers=workers)
    parallel_seconds = time.perf_counter() - start
    parallel_info = parallel[0].engine.cache_info()

    identical = all(
        a.release.node == b.release.node
        and _fingerprint(a.release.table) == _fingerprint(b.release.table)
        for a, b in zip(sequential, parallel)
    )

    def computed(info):
        return info["from_rows"] + info["rollups"]

    # With zero evictions every insertion is one computation, so equality
    # with `entries` proves single-flight: no node was evaluated twice.
    single_flight = all(
        info["evictions"] == 0 and computed(info) == info["entries"]
        for info in (sequential_info, parallel_info)
    )
    speedup = sequential_seconds / parallel_seconds if parallel_seconds else float("inf")
    return {
        "sequential_seconds": sequential_seconds,
        "parallel_seconds": parallel_seconds,
        "sequential_computed": computed(sequential_info),
        "parallel_computed": computed(parallel_info),
        "coalesced": parallel_info["coalesced"],
        "hits": parallel_info["hits"],
        "identical": identical,
        "single_flight": single_flight,
        "speedup": speedup,
    }


def run_bench(n_rows=25000, seed=42, workers=4):
    table = load_adult(n_rows=n_rows, seed=seed)
    hierarchies = {
        name: hierarchy
        for name, hierarchy in adult_hierarchies().items()
        if name in QIS + ["age"]
    }
    configs = _sweep()

    rounds = [_measure(configs, table, hierarchies, workers)]
    if _cpus() >= 4 and rounds[0]["speedup"] <= 1.5:
        # Wall clock on shared runners is noisy; determinism gates are not.
        # One retry, best speedup counts — both rounds must stay correct.
        print("(first round missed the wall-clock bar; retrying once)")
        rounds.append(_measure(configs, table, hierarchies, workers))
    best = max(rounds, key=lambda r: r["speedup"])

    identical = all(r["identical"] for r in rounds)
    single_flight = all(r["single_flight"] for r in rounds)
    speedup = best["speedup"]

    print_series(
        f"E36: parallel batch (n={n_rows}, {len(configs)}-job same-environment sweep, "
        f"workers={workers}, {_cpus()} CPUs)",
        ["path", "seconds", "node stats computed", "coalesced waits"],
        [
            (
                "run_batch sequential",
                best["sequential_seconds"],
                best["sequential_computed"],
                0,
            ),
            (
                f"run_batch workers={workers}",
                best["parallel_seconds"],
                best["parallel_computed"],
                best["coalesced"],
            ),
        ],
    )
    print(f"wall-clock speedup: {speedup:.2f}x")
    print(f"byte-identical releases: {identical}")
    print(f"single-flight (no node evaluated twice): {single_flight}")

    ok = identical and single_flight and best["hits"] > 0
    if _cpus() >= 4:
        ok = ok and speedup > 1.5
    else:
        print(f"({_cpus()} CPU(s): wall-clock gate skipped, cannot scale past cores)")
    write_results(
        "E36",
        {
            "n_rows": n_rows,
            "n_jobs": len(configs),
            "workers": workers,
            "sequential_seconds": best["sequential_seconds"],
            "parallel_seconds": best["parallel_seconds"],
            "sequential_computed": best["sequential_computed"],
            "parallel_computed": best["parallel_computed"],
            "coalesced": best["coalesced"],
            "speedup": speedup,
            "identical": identical,
            "single_flight": single_flight,
            "ok": ok,
        },
    )
    return ok


def test_e36_parallel_batch():
    # Smaller instance for the pytest tier: the determinism and
    # single-flight gates are scheduling-independent at any size.
    assert run_bench(n_rows=4000), "parallel run_batch must match sequential"


if __name__ == "__main__":
    ok = run_bench()
    sys.exit(0 if ok else 1)
