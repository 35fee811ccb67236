"""E41 — Local-recoding throughput on the partition engine, with a golden release.

The local-recoding family (Mondrian, TopDownSpecialization, MDAV,
k-member) runs on the partition engine: per-group row indices,
flattened-bincount histograms, and incremental split deltas (child
histogram = parent − sibling). Mondrian's range-scored modes additionally
run on a frontier-vectorized BFS driver that derives every per-(group, QI)
quantity — spans, medians, cut sizes, child histograms, model verdicts —
from a handful of fused bincounts and cumulative sums per tree level.

The gate run is relaxed Mondrian under k=10 + distinct 3-diversity +
0.35-t-closeness on a 100k-row Adult-schema table (seed 42). It is timed
``REPEATS`` times (the median is the ``partition_seconds`` headline) and
gated on:

1. **golden release** — the published CSV bytes hash to
   ``GOLDEN_DIGEST``, recorded when the per-row reference implementation
   still shipped beside the partition engine and produced the same bytes
   (the family-wide goldens are tier-1 tests in
   ``tests/test_partition_engine.py``);
2. **no raw rescans** — after the root materialization every feasibility
   check is served from cached counts (``raw_rescans == 0``) and the
   delta-histogram path is exercised (``histogram_splits > 0``).

Results are recorded to ``BENCH_E41.json`` via the shared writer.
Runnable standalone (``python benchmarks/bench_e41_partition_engine.py``,
non-zero exit on failure — this is what CI runs) or via pytest.
"""

import hashlib
import statistics
import sys
import time

from conftest import print_series, write_results

from repro.algorithms import Mondrian
from repro.data import adult_hierarchies, adult_schema, load_adult
from repro.privacy import DistinctLDiversity, KAnonymity, TCloseness
from repro.service.data import release_csv_bytes

SENSITIVE = "occupation"
N_ROWS = 100_000
SEED = 42
REPEATS = 3

#: sha256 of the gate run's release CSV bytes (what the CLI would write).
GOLDEN_DIGEST = "8a5780e279494b55ea6f4136484f3cc03aa6d84cbdbaea75040cdedeab557255"


def _gate_models():
    return [
        KAnonymity(10),
        DistinctLDiversity(3, SENSITIVE),
        TCloseness(0.35, SENSITIVE),
    ]


def run_bench():
    schema, hierarchies = adult_schema(), adult_hierarchies()
    table = load_adult(n_rows=N_ROWS, seed=SEED)
    models = _gate_models()

    # A small untimed run first so one-time costs (imports, allocator
    # warm-up) don't land on the first timed run.
    Mondrian(mode="relaxed").anonymize(
        load_adult(n_rows=2_000, seed=SEED), schema, hierarchies, models
    )

    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        release = Mondrian(mode="relaxed").anonymize(table, schema, hierarchies, models)
        runs.append(time.perf_counter() - start)
    seconds = statistics.median(runs)
    cache = release.info["partition_cache"]

    digest = hashlib.sha256(release_csv_bytes(release.table)).hexdigest()
    ok_golden = digest == GOLDEN_DIGEST
    ok_cache = cache["raw_rescans"] == 0 and cache["histogram_splits"] > 0

    print_series(
        f"E41: gate run (relaxed Mondrian, k=10 + l=3 + t=0.35, n={N_ROWS})",
        ["median seconds", "min seconds", "max seconds", "rows/sec", "leaves"],
        [(seconds, min(runs), max(runs), N_ROWS / seconds, release.info["n_leaves"])],
    )

    ok = ok_golden and ok_cache
    print(
        f"\ngates: golden release {'ok' if ok_golden else 'FAIL (' + digest + ')'}"
        f" | raw_rescans={cache['raw_rescans']}"
        f" histogram_splits={cache['histogram_splits']}"
        f" {'ok' if ok_cache else 'FAIL'}"
    )
    write_results(
        "E41",
        {
            "n_rows": N_ROWS,
            "partition_seconds": seconds,
            "partition_seconds_runs": runs,
            "partition_cache": cache,
            "release_sha256": digest,
            "golden_identical": ok_golden,
            "ok": ok,
        },
    )
    return ok


def test_e41_partition_engine():
    assert run_bench(), "partition-engine gates must hold"


if __name__ == "__main__":
    sys.exit(0 if run_bench() else 1)
