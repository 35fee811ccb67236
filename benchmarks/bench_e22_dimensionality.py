"""E22 — The curse of dimensionality (Aggarwal) and the LKC escape.

Canonical figure: as the number of quasi-identifiers grows, (a) the raw
data's population-unique fraction races toward 1 and (b) the information
loss needed for k-anonymity climbs with it. LKC-privacy — bounding only
what an L-bounded adversary can use — needs far less generalization at high
dimensionality under the same full-domain machinery.
"""

from conftest import print_series

from repro import Datafly, KAnonymity, LKCPrivacy, Mondrian
from repro.core.generalize import apply_node
from repro.core.partition import partition_by_qi
from repro.core.release import Release
from repro.core.schema import Schema
from repro.data import adult_hierarchies, load_adult
from repro.metrics import gcp

ALL_QIS = ["workclass", "education", "marital_status", "race", "sex", "native_country"]


def schema_with(n_qis):
    return Schema.build(
        quasi_identifiers=ALL_QIS[:n_qis],
        numeric_quasi_identifiers=["age"],
        sensitive=["occupation"],
        insensitive=["salary", "education_num", "hours_per_week", "capital_gain"],
    )


def greedy_full_domain_loss(table, schema, hierarchies, check):
    """Loss of the first Datafly-style full-domain node passing ``check``."""
    qi = schema.quasi_identifiers
    node = [0] * len(qi)
    heights = [hierarchies[n].height for n in qi]
    for _ in range(sum(heights) + 1):
        candidate = apply_node(table, hierarchies, qi, node)
        if check(candidate, qi):
            release = Release(table=candidate, schema=schema, algorithm="fd",
                              node=tuple(node), original_n_rows=table.n_rows)
            return gcp(table, release, hierarchies, qi_names=qi)
        raisable = [i for i in range(len(qi)) if node[i] < heights[i]]
        if not raisable:
            break
        best = max(raisable, key=lambda i: candidate.column(qi[i]).n_distinct())
        node[best] += 1
    return 1.0


def test_e22_dimensionality_curse(benchmark):
    table = load_adult(n_rows=1500, seed=8)
    hierarchies = adult_hierarchies()
    k = 10
    rows = []
    unique_fractions, mondrian_losses = [], []
    for n_qis in (2, 4, 6):
        schema = schema_with(n_qis)
        partition = partition_by_qi(table, schema.quasi_identifiers)
        unique = float((partition.sizes() == 1).mean())
        release = Mondrian().anonymize(table, schema, hierarchies, [KAnonymity(k)])
        loss = gcp(table, release, hierarchies)
        rows.append((n_qis + 1, unique, loss))
        unique_fractions.append(unique)
        mondrian_losses.append(loss)
    print_series(
        "E22a: the curse — raw uniqueness and Mondrian loss vs #QIs (k=10)",
        ["n_QIs", "raw_unique_frac", "mondrian GCP"],
        rows,
    )
    assert unique_fractions == sorted(unique_fractions)
    assert mondrian_losses == sorted(mondrian_losses)

    # The LKC escape at full dimensionality, same full-domain machinery.
    schema = schema_with(6)
    lkc_model = LKCPrivacy(2, k, 0.9, "occupation", schema.quasi_identifiers)

    def k_check(candidate, qi):
        return partition_by_qi(candidate, qi).min_size() >= k

    def lkc_check(candidate, qi):
        return lkc_model.check(candidate)

    loss_k = greedy_full_domain_loss(table, schema, hierarchies, k_check)
    loss_lkc = greedy_full_domain_loss(table, schema, hierarchies, lkc_check)
    print_series(
        "E22b: LKC escape at 7 QIs (full-domain, no suppression)",
        ["model", "GCP"],
        [(f"{k}-anonymity", loss_k), ("LKC(2,10,0.9)", loss_lkc)],
    )
    assert loss_lkc < loss_k

    benchmark(lambda: Mondrian().anonymize(table, schema, hierarchies, [KAnonymity(k)]))
