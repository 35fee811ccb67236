"""E41 — Local-recoding throughput on the partition engine, with a golden release.

Mondrian runs on the partition engine and splits a whole tree level at
once, range- or InfoGain-scored: per level, each QI's spans, medians and
cut sizes for every group come from one sort of (group, code) keys, left
children's sensitive histograms from one bincount and right children's as
parent − left, every model's verdicts from one ``ok_mask`` call per QI and
side, and the chosen cuts of all groups are applied by one stable sort
that lays out the next level.

The gate run is relaxed Mondrian under k=10 + distinct 3-diversity +
0.35-t-closeness on a 100k-row Adult-schema table (seed 42). It is timed
``REPEATS`` times (the median is the ``partition_seconds`` headline) and
gated on:

1. **golden release** — the published CSV bytes hash to
   ``GOLDEN_DIGEST`` (the family-wide goldens are tier-1 tests in
   ``tests/test_partition_engine.py``). It was first recorded when the
   per-row reference implementation still shipped beside the partition
   engine, and re-recorded when local recoding started translating column
   codes into the hierarchy's ground domain: the earlier release labelled
   263,990 of its 600,000 categorical QI cells with a value the row does
   not hold;
2. **verified** — :func:`repro.verify.violations`, the naive verifier that
   shares no code with the engines, finds no class of the release breaking
   ``SPECS`` (``verify_seconds`` records its cost);
3. **delta histograms** — right children's histograms are derived as
   parent − left (``histogram_splits > 0``).

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
from repro.api import model_registry
from repro.data import adult_hierarchies, adult_schema, load_adult
from repro.service.data import release_csv_bytes
from repro.verify import violations

SENSITIVE = "occupation"
N_ROWS = 100_000
SEED = 42
REPEATS = 3

#: sha256 of the gate run's release CSV bytes (what the CLI would write).
GOLDEN_DIGEST = "74904c69be6c7dae780f48e9067544d249561154dfdc52911142a7f0e667a49e"


#: The gate run's privacy models, as the JSON specs the verifier reads.
SPECS = [
    {"model": "k-anonymity", "k": 10},
    {"model": "distinct-l-diversity", "l": 3, "sensitive": SENSITIVE},
    {"model": "t-closeness", "t": 0.35, "sensitive": SENSITIVE},
]


def run_bench():
    schema, hierarchies = adult_schema(), adult_hierarchies()
    table = load_adult(n_rows=N_ROWS, seed=SEED)
    models = [model_registry.from_spec(spec) for spec in SPECS]

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
    start = time.perf_counter()
    found = violations(release.table, schema.quasi_identifiers, SPECS)
    verify_seconds = time.perf_counter() - start
    ok_verified = not found
    ok_cache = cache["histogram_splits"] > 0

    print_series(
        f"E41: gate run (relaxed Mondrian, k=10 + l=3 + t=0.35, n={N_ROWS})",
        ["median seconds", "min seconds", "max seconds", "rows/sec", "leaves"],
        [(seconds, min(runs), max(runs), N_ROWS / seconds, release.info["n_leaves"])],
    )

    ok = ok_golden and ok_verified and ok_cache
    print(
        f"\ngates: golden release {'ok' if ok_golden else 'FAIL (' + digest + ')'}"
        f" | violations={len(found)} {'ok' if ok_verified else 'FAIL ' + repr(found[:3])}"
        f" | histogram_splits={cache['histogram_splits']}"
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
            "violations": len(found),
            "verify_seconds": verify_seconds,
            "ok": ok,
        },
    )
    return ok


def test_e41_partition_engine():
    assert run_bench(), "partition-engine gates must hold"


if __name__ == "__main__":
    sys.exit(0 if run_bench() else 1)
