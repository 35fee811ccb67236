"""E37 — Cache pressure: per-job engine budgets on an over-budget sweep.

The scaling step after E36's parallel executor: what happens when a batch's
engine-cache working set overflows the byte budget. Each QI set of a batch
is served by one evaluator, and the evaluators of one table environment
share one store holding their jobs' own ``cache_bytes``; here every job
gets half the measured working set, so the store evicts its least
recently used entries mid-run. Counters are read once per store, not once
per evaluator. Node statistics are pure functions of (table, hierarchies,
node), so eviction may cost recomputation
(``cache_info()["recomputed_after_evict"]``, printed and recorded) but
must never change a release.

The bench also pins the determinism half of the cache design: Incognito
pre-seeds each subset's bottom node before searching, so the engine's
from_rows/rollups profile is identical sequentially and at ``workers=4``
(racing workers used to see emptier caches and compute more nodes from
rows).

Gates (exit code — what CI enforces):

1. on a sweep over 3 QI sets with every job's ``cache_bytes`` at half the
   largest measured working set, the store evicts in every budgeted run
   (the fewest ``evictions`` of any round and mode is > 0), so the budget
   really binds. The record holds the chosen round's counts per mode
   (``sequential_evictions``, ``parallel_recomputed_after_evict``, ...);
2. that budgeted sweep — sequential and at ``workers=4`` — releases
   byte-identical tables to the unconstrained sequential reference;
3. parallel Incognito's ``cache_info()`` from_rows/rollups counts equal the
   sequential profile, with byte-identical releases;
4. on hosts with >= 4 CPUs, budgeted wall clock at ``workers=4`` beats
   sequential budgeted execution by > 1.5x (best of two rounds, as in
   E36). On smaller hosts the speedup is printed but not gated.

Runnable standalone (``python benchmarks/bench_e37_cache_pressure.py``,
non-zero exit on failure — this is what CI runs) or via pytest.
"""

import os
import sys
import time

from conftest import print_series, write_results

from repro.api import AnonymizationConfig, run_batch
from repro.data import adult_hierarchies, load_adult

#: Three QI sets of one table — three evaluators over one shared store.
ENVIRONMENTS = (
    ["workclass", "education", "occupation", "native_country", "sex"],
    ["workclass", "education", "marital_status", "race", "sex"],
    ["education", "occupation", "native_country", "race"],
)
JOBS_PER_ENV = (
    ({"algorithm": "flash"}, [{"model": "k-anonymity", "k": 5}]),
    ({"algorithm": "flash"}, [{"model": "k-anonymity", "k": 20}]),
    ({"algorithm": "ola"}, [{"model": "k-anonymity", "k": 10}]),
)

INCOGNITO_QIS = ["workclass", "education", "marital_status"]


def _sweep(cache_bytes=None):
    configs = []
    for qis in ENVIRONMENTS:
        for algorithm, models in JOBS_PER_ENV:
            spec = {
                "quasi_identifiers": qis,
                "numeric_quasi_identifiers": ["age"],
                "sensitive": ["salary"],
                "algorithm": algorithm,
                "models": models,
            }
            if cache_bytes is not None:
                spec["cache_bytes"] = cache_bytes
            configs.append(AnonymizationConfig.from_dict(spec))
    return configs


def _incognito_sweep():
    return [
        AnonymizationConfig.from_dict(
            {
                "quasi_identifiers": INCOGNITO_QIS,
                "sensitive": ["salary"],
                "algorithm": {"algorithm": "incognito"},
                "models": [{"model": "k-anonymity", "k": k}],
            }
        )
        for k in (3, 7, 15)
    ]


def _fingerprint(table):
    return table.fingerprint()


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _stores(results):
    """Each distinct engine cache store once: evaluators share stores."""
    stores = []
    for result in results:
        if result.engine is not None and result.engine.cache not in stores:
            stores.append(result.engine.cache)
    return stores


def _identical(reference, results):
    return all(
        a.release.node == b.release.node
        and _fingerprint(a.release.table) == _fingerprint(b.release.table)
        for a, b in zip(reference, results)
    )


def _counter(results, name):
    return sum(store.info()[name] for store in _stores(results))


def _measure(configs, table, hierarchies, workers):
    """One timed sequential-vs-parallel round of the budgeted sweep."""
    start = time.perf_counter()
    sequential = run_batch(configs, table, hierarchies=hierarchies)
    sequential_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_batch(configs, table, hierarchies=hierarchies, workers=workers)
    parallel_seconds = time.perf_counter() - start
    return {
        "sequential": sequential,
        "parallel": parallel,
        "sequential_seconds": sequential_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": (
            sequential_seconds / parallel_seconds if parallel_seconds else float("inf")
        ),
    }


def run_bench(n_rows=20000, seed=42, workers=4):
    table = load_adult(n_rows=n_rows, seed=seed)
    hierarchies = adult_hierarchies()

    # Unconstrained sequential reference: measures each store's actual
    # working set, from which the deliberately undersized budget is derived.
    start = time.perf_counter()
    reference = run_batch(_sweep(), table, hierarchies=hierarchies)
    reference_seconds = time.perf_counter() - start
    working_sets = [store.info()["bytes"] for store in _stores(reference)]
    budget = max(working_sets) // 2
    configs = _sweep(cache_bytes=budget)

    rounds = [_measure(configs, table, hierarchies, workers)]
    if _cpus() >= 4 and rounds[0]["speedup"] <= 1.5:
        print("(first round missed the wall-clock bar; retrying once)")
        rounds.append(_measure(configs, table, hierarchies, workers))
    best = max(rounds, key=lambda r: r["speedup"])

    identical = all(
        _identical(reference, r["sequential"]) and _identical(reference, r["parallel"])
        for r in rounds
    )
    evictions = min(
        _counter(r[mode], "evictions") for r in rounds for mode in ("sequential", "parallel")
    )
    # Each recorded count comes from one run: the chosen round, per mode.
    counts = {
        f"{mode}_{name}": _counter(best[mode], name)
        for mode in ("sequential", "parallel")
        for name in ("evictions", "recomputed_after_evict")
    }

    # Deterministic parallel cache fill: Incognito's pre-seeded subsets give
    # sequential and parallel runs the same from_rows/rollups profile.
    incognito_configs = _incognito_sweep()
    incognito_seq = run_batch(incognito_configs, table, hierarchies=hierarchies)
    incognito_par = run_batch(
        incognito_configs, table, hierarchies=hierarchies, workers=workers
    )
    seq_info = incognito_seq[0].engine.cache_info()
    par_info = incognito_par[0].engine.cache_info()
    profile_equal = (
        seq_info["from_rows"] == par_info["from_rows"]
        and seq_info["rollups"] == par_info["rollups"]
    )
    incognito_identical = _identical(incognito_seq, incognito_par)

    rows = [
        (
            "sequential, unconstrained",
            reference_seconds,
            _counter(reference, "evictions"),
            _counter(reference, "recomputed_after_evict"),
            1,
        )
    ]
    for mode, label in (
        ("sequential", "budgeted, sequential"),
        ("parallel", f"budgeted, workers={workers}"),
    ):
        rows.append(
            (
                label,
                best[f"{mode}_seconds"],
                counts[f"{mode}_evictions"],
                counts[f"{mode}_recomputed_after_evict"],
                int(_identical(reference, best[mode])),
            )
        )
    print_series(
        f"E37: cache pressure (n={n_rows}, {len(configs)}-job sweep over 3 QI sets, "
        f"cache_bytes={budget // 1024} KiB per job vs {max(working_sets) // 1024} KiB "
        f"largest working set, workers={workers}, {_cpus()} CPUs)",
        ["path", "seconds", "evictions", "recomputed-after-evict", "byte-identical"],
        rows,
    )
    print(f"wall-clock speedup (budgeted, workers={workers}): {best['speedup']:.2f}x")
    print(
        "incognito profile sequential vs parallel: "
        f"from_rows {seq_info['from_rows']}/{par_info['from_rows']}, "
        f"rollups {seq_info['rollups']}/{par_info['rollups']}, equal: {profile_equal}"
    )

    ok = evictions > 0 and identical and profile_equal and incognito_identical
    if _cpus() >= 4:
        ok = ok and best["speedup"] > 1.5
    else:
        print(f"({_cpus()} CPU(s): wall-clock gate skipped, cannot scale past cores)")
    write_results(
        "E37",
        {
            "n_rows": n_rows,
            "n_jobs": len(configs),
            "workers": workers,
            "cache_bytes": budget,
            "largest_working_set_bytes": max(working_sets),
            "working_set_bytes": sum(working_sets),
            "unconstrained_seconds": reference_seconds,
            "sequential_seconds": best["sequential_seconds"],
            "parallel_seconds": best["parallel_seconds"],
            "speedup": best["speedup"],
            **counts,
            "identical": identical,
            "incognito_profile_equal": profile_equal,
            "ok": ok,
        },
    )
    return ok


def test_e37_cache_pressure():
    # Smaller instance for the pytest tier: every gate except wall clock is
    # deterministic at any size (and wall clock only gates on >= 4 CPUs).
    assert run_bench(n_rows=3000), "budgeted run_batch must evict and match sequential"


if __name__ == "__main__":
    ok = run_bench()
    sys.exit(0 if ok else 1)
