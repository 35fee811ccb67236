"""E34 — Node-evaluation throughput: legacy path vs the GroupStats engine.

Every lattice-search experiment (E5 scalability, E12 pruning, E17 OLA, E23
Flash) is bounded by how fast one candidate node can be checked. The legacy
path rebuilds a generalized Table and re-partitions it from raw rows per
node; the engine replays precomputed LUTs and bincounts. This bench measures
node-evaluations/sec of both on the Adult-style synthetic dataset at
n >= 10k rows. Typical observed advantage is 8-11x; both entry points gate
at a conservative 3x so wall-clock noise on a loaded machine cannot fail
the run without a real regression.

The legacy path's verdicts are written out inline — min class size, then
one distinct-value count per class over a bincount of every class — so its
cost stays that of the per-class row path the engine replaced.

Runnable standalone (``python benchmarks/bench_e34_engine_speedup.py``,
exits non-zero below the gate — this is what CI runs) or via pytest.
"""

import sys
import time

import numpy as np
from conftest import print_series, write_results

from repro.core import GeneralizationLattice, LatticeEvaluator, apply_node, partition_by_qi
from repro.data import adult_hierarchies, adult_schema, load_adult
from repro.privacy import DistinctLDiversity, KAnonymity


def _sample_nodes(lattice, limit=40):
    """A deterministic spread of nodes across all strata."""
    nodes = list(lattice.nodes())
    step = max(1, len(nodes) // limit)
    return nodes[::step][:limit]


def _legacy_evaluate(table, hierarchies, qi, node, k, l, sensitive):
    candidate = apply_node(table, hierarchies, qi, node)
    partition = partition_by_qi(candidate, qi)
    if partition.min_size() < k:
        return False
    codes = candidate.codes(sensitive)
    n_cats = len(candidate.column(sensitive).categories)
    counts = [np.bincount(codes[group], minlength=n_cats) for group in partition.groups]
    return all(np.count_nonzero(c) >= l for c in counts)


def run(n_rows=10_000, seed=42, n_nodes=40):
    table = load_adult(n_rows=n_rows, seed=seed)
    schema, hierarchies = adult_schema(), adult_hierarchies()
    qi = schema.quasi_identifiers
    table = table.drop(*schema.identifying) if schema.identifying else table
    k, l, sensitive = 5, 2, schema.sensitive[0]
    models = [KAnonymity(k), DistinctLDiversity(l, sensitive)]
    lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
    nodes = _sample_nodes(lattice, n_nodes)

    start = time.perf_counter()
    legacy_verdicts = [
        _legacy_evaluate(table, hierarchies, qi, node, k, l, sensitive) for node in nodes
    ]
    legacy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    evaluator = LatticeEvaluator(table, qi, hierarchies)  # amortized once per search
    engine_verdicts = [evaluator.check(node, models) for node in nodes]
    engine_seconds = time.perf_counter() - start

    assert legacy_verdicts == engine_verdicts, "engine and legacy verdicts diverged"
    speedup = legacy_seconds / engine_seconds if engine_seconds else float("inf")
    print_series(
        f"E34: node-evaluation throughput (n={n_rows}, {len(nodes)} nodes)",
        ["path", "seconds", "nodes/sec", "speedup"],
        [
            ("legacy apply_node", legacy_seconds, len(nodes) / legacy_seconds, 1.0),
            ("engine GroupStats", engine_seconds, len(nodes) / engine_seconds, speedup),
        ],
    )
    write_results(
        "E34",
        {
            "n_rows": n_rows,
            "n_nodes": len(nodes),
            "legacy_seconds": legacy_seconds,
            "engine_seconds": engine_seconds,
            "speedup": speedup,
            "gate": GATE,
        },
    )
    return speedup


GATE = 3.0


def test_e34_engine_speedup():
    assert run() >= GATE, "engine must evaluate nodes several times faster than legacy"


if __name__ == "__main__":
    speedup = run()
    print(f"speedup: {speedup:.1f}x (gate: {GATE:.0f}x)")
    sys.exit(0 if speedup >= GATE else 1)
