"""E9 — Membership inference vs generalization level (δ-presence).

Canonical figure (δ-presence paper): as the release is generalized further,
the attacker's membership advantage against a public population table falls;
the per-class beliefs respect the δ bound the checker computes.
"""

import numpy as np
from conftest import print_series

from repro.attacks import membership_attack
from repro.core.engine import LatticeEvaluator
from repro.core.generalize import apply_node
from repro.core.release import Release
from repro.privacy import DeltaPresence


def test_e09_membership_vs_generalization(medical_env, benchmark):
    table, schema, hierarchies = medical_env
    qi = schema.quasi_identifiers
    rng = np.random.default_rng(17)
    member_rows = np.sort(rng.choice(table.n_rows, size=table.n_rows // 4, replace=False))
    member_mask = np.zeros(table.n_rows, dtype=bool)
    member_mask[member_rows] = True
    research = table.take(member_rows)

    heights = [hierarchies[name].height for name in qi]
    nodes = [
        tuple(min(level, h) for h in heights)
        for level in range(max(heights) + 1)
    ]
    rows = []
    advantages = []
    evaluator = LatticeEvaluator(research, qi, hierarchies)
    for node in nodes:
        research_general = apply_node(research, hierarchies, qi, node)
        population_general = apply_node(table, hierarchies, qi, node)
        release = Release(
            table=research_general, schema=schema, algorithm="node",
            node=node, original_n_rows=research.n_rows,
        )
        result = membership_attack(release, population_general, member_mask)
        beliefs = DeltaPresence(0.0, 1.0, table).beliefs(evaluator.stats(node))
        max_belief = float(beliefs[np.isfinite(beliefs)].max())
        rows.append((str(node), result["advantage"], result["mean_belief_gap"], max_belief))
        advantages.append(result["advantage"])
    print_series(
        "E9: membership inference vs generalization",
        ["node", "advantage", "belief_gap", "max_belief(delta)"],
        rows,
    )
    # Shape: full generalization leaves (near-)zero advantage; raw leaves most.
    assert advantages[-1] <= advantages[0]
    assert advantages[-1] <= 0.31  # sampling fraction ~0.25 + slack

    node = nodes[1]
    benchmark(lambda: membership_attack(
        Release(
            table=apply_node(research, hierarchies, qi, node),
            schema=schema, algorithm="node", node=node,
            original_n_rows=research.n_rows,
        ),
        apply_node(table, hierarchies, qi, node),
        member_mask,
    ))
