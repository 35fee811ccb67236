"""The partition engine: golden release digests + cache counters.

Mondrian, TopDownSpecialization, MDAV, and k-member run on
:class:`~repro.core.partition_engine.PartitionEngine`; these tests pin the
contract that makes it trustworthy:

* **golden releases** — every case of the grid (Mondrian strict/relaxed/
  InfoGain, TDS, MDAV, k-member, bottom-up across model mixes) publishes the
  exact CSV bytes recorded in :data:`GOLDEN_DIGESTS`, and the k/l/t grid's
  releases pass :func:`repro.verify.violations`;
* **cached counts** — sensitive-model mixes exercise the delta-histogram
  path (``histogram_splits > 0``);
* **batch identity** — the newly registered algorithms run through
  ``run_batch`` JSON configs with ``workers=2`` byte-identical to sequential;
* **closed-form relaxed cut** — ``Mondrian._cut_positions`` reproduces the
  one-row-at-a-time balancing append loop exactly, row for row.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.api import AnonymizationConfig, run_batch
from repro.api.registry import algorithm_registry, model_registry
from repro.cli import main as cli_main
from repro.algorithms import (
    Anatomy,
    BottomUpGeneralization,
    Flash,
    KMemberClustering,
    MDAVMicroaggregation,
    Mondrian,
    Slicing,
    TopDownSpecialization,
)
from repro.algorithms.mondrian import _value_views
from repro.core.generalize import apply_node
from repro.core.partition_engine import PartitionEngine, grouped_histograms
from repro.data import adult_hierarchies, adult_schema, load_adult
from repro.data.synthetic import random_scenario
from repro.errors import ConfigError
from repro.service.data import release_csv_bytes
from repro.privacy import (
    AlphaKAnonymity,
    BetaLikeness,
    CompositeModel,
    DistinctLDiversity,
    EntropyLDiversity,
    KAnonymity,
    DeltaPresence,
    KEAnonymity,
    RecursiveCLDiversity,
    TCloseness,
)
from repro.verify import violations

SENSITIVE = "occupation"


@pytest.fixture(scope="module")
def table():
    return load_adult(n_rows=1200, seed=7)


@pytest.fixture(scope="module")
def small_table():
    return load_adult(n_rows=400, seed=3)


@pytest.fixture(scope="module")
def schema():
    return adult_schema()


@pytest.fixture(scope="module")
def hierarchies():
    return adult_hierarchies()


def _model_mix(name):
    return {
        "k": [KAnonymity(5)],
        "k+l": [KAnonymity(4), DistinctLDiversity(2, SENSITIVE)],
        "k+el+t": [
            KAnonymity(4),
            EntropyLDiversity(2.0, SENSITIVE),
            TCloseness(0.5, SENSITIVE),
        ],
        "k4": [KAnonymity(4)],
        "rcl": [KAnonymity(3), RecursiveCLDiversity(3.0, 2, SENSITIVE)],
        "ak": [AlphaKAnonymity(0.5, 4, SENSITIVE)],
        "beta": [KAnonymity(3), BetaLikeness(4.0, SENSITIVE)],
        "ordered-t": [KAnonymity(3), TCloseness(0.3, SENSITIVE, "ordered")],
        "hier-t": [
            KAnonymity(3),
            TCloseness(
                0.3, SENSITIVE, "hierarchical",
                hierarchy=adult_hierarchies()[SENSITIVE],
            ),
        ],
        "ke": [KEAnonymity(4, 10.0, "hours_per_week")],
        "composite": [
            CompositeModel(KAnonymity(4), DistinctLDiversity(2, SENSITIVE)),
            AlphaKAnonymity(0.7, 3, SENSITIVE),
        ],
    }[name]


#: Mixes beyond k, distinct/entropy-l and equal t, whose verdicts are not
#: covered by the k/l/t grid above.
MODEL_MIXES = ["rcl", "ak", "beta", "ordered-t", "hier-t", "ke", "composite"]

_ALGORITHMS = {
    "mondrian-strict": lambda: Mondrian(mode="strict"),
    "mondrian-relaxed": lambda: Mondrian(mode="relaxed"),
    "tds": TopDownSpecialization,
    "bug-s05": lambda: BottomUpGeneralization(max_suppression=0.05),
}


#: sha256 of each case's release CSV bytes (exactly what the CLI writes).
#: Recorded while the per-row reference implementations of these four
#: algorithms still shipped beside the partition engine, with both
#: producing these bytes under two ``PYTHONHASHSEED`` values.
GOLDEN_DIGESTS = {
    "mondrian-strict-k": "c6261ddf8ea883ce9fd2a028b88c37d7192590f5e10eee0a80260a7080cf6771",
    "mondrian-strict-k+l": "c98eecb858c5388dedc61a1e1e206dee9968776c381eb7ce898e82bc3a30a0a8",
    "mondrian-strict-k+el+t": "48b72c4d66a6aa52bab00d6bf3ca12aa215f3d5a7c8ba57a11fc3e9c86f2d04d",
    "mondrian-strict-k4": "c98eecb858c5388dedc61a1e1e206dee9968776c381eb7ce898e82bc3a30a0a8",
    "mondrian-relaxed-k": "7f8477db9b9f565d45bfc4da6c16e71afc003301f91f017b8c90c9a00bc5fe43",
    "mondrian-relaxed-k+l": "b5ea2fd8ea1a6bf84c2cb33270caadc57b97a058b6a6de9b9ee5556112100b12",
    "mondrian-relaxed-k+el+t": "8a38657fbb2cb52461d34dfd2c478311cbf5c8e8d1078b31c29931c3fb212622",
    "mondrian-relaxed-k4": "b5ea2fd8ea1a6bf84c2cb33270caadc57b97a058b6a6de9b9ee5556112100b12",
    "mondrian-infogain-k": "a0b2d9411de422f3bea6cd2ec35748bd35be197cf91d330bbfd879351c75cca9",
    "mondrian-infogain-k+l": "63bfaef5d24231879537114ac70de4b43f7a3b5a0d7aa9d5f80ff836ce5f209f",
    "mondrian-infogain-k4": "63bfaef5d24231879537114ac70de4b43f7a3b5a0d7aa9d5f80ff836ce5f209f",
    "tds-k": "f60526fc12ecda47fc73e29cbe70ec7039aefb6f5c259fc075575b6c3c958c81",
    "tds-k+l": "296a6fc98e67796ee03a60da949ce71936882e796711a7c84d065af28bb17085",
    "tds-k+el+t": "3a8d345cf1870200679704df734f9721ed4de036e30750000580b60e8314e6ac",
    "tds-k4": "296a6fc98e67796ee03a60da949ce71936882e796711a7c84d065af28bb17085",
    "tds-infogain-k": "cb1ed06e4d6548536c3fddc51d3121938b668eb634621dfdd23de6413f49426a",
    "mdav-k5": "c8bca0f0d75ceafc70573a86fa1ac4bc58944c0581e11c3101466bcb4ea26646",
    "kmember-k4": "96b84a516fc7b2251f9b4142a0ece7b543e07b342151d61aec5cfd3d86328749",
    # MODEL_MIXES, recorded before the models moved to a single ok_mask.
    "mondrian-strict-rcl": "08c37c9efe3be2efac64969d23094d995b74dbe1004949c25dd8e04b8ca90c79",
    "mondrian-strict-ak": "207a8b14207f30893563b9aa17e888877f24a93edc1a777ab4a2ce9b17456d5f",
    "mondrian-strict-beta": "8689c5a4b9f9b68eaab8f58b2bde85ed73523bb9b9ba580f7a360647f6b5db2a",
    "mondrian-strict-ordered-t": "3f9c743340c3f1bdd2084bfd2948311a9b5889ee68925e70ccb5019e7d14fda2",
    "mondrian-strict-hier-t": "20f0b388bd410b82a6e40f7dab160cc9e7d42771e3dfd0143ddda0801afdd51a",
    "mondrian-strict-ke": "de25f0d0bbedd7fb5adbc3b150e2c5ec23960b42a3ab53eae333274345e145e4",
    "mondrian-strict-composite": "c3684938fa782116a9554d9f529673303a873b12ae29aca9bff88b2b2c4743b8",
    "mondrian-relaxed-rcl": "15a588827d60e756cd9b35857968949fa2068828abc5ce80bc5297d72ff226a8",
    "mondrian-relaxed-ak": "7ba0be6f47d28f71b9a7238356f4ac0093a080f3ea1bcfbae78cbc55dd08a467",
    "mondrian-relaxed-beta": "786dcd1cd4ae1d378921d99e7d940967a07403f5169a1b7c1151bb7c10e4685a",
    "mondrian-relaxed-ordered-t": "f699d8f961f8a66f32165db3625e286cbca55e8fda7fdab8e236955bec6ceeb9",
    "mondrian-relaxed-hier-t": "764caf458bccdf5d2249e26ff9ead29f3363f3ce5df38825864d8c9d9a7b00f1",
    "mondrian-relaxed-ke": "1f8f8ecb2ce157b0dcfa4bdb542905be2dccbccda925a7e93e0963a00882317c",
    "mondrian-relaxed-composite": "15a588827d60e756cd9b35857968949fa2068828abc5ce80bc5297d72ff226a8",
    "tds-rcl": "296a6fc98e67796ee03a60da949ce71936882e796711a7c84d065af28bb17085",
    "tds-ak": "296a6fc98e67796ee03a60da949ce71936882e796711a7c84d065af28bb17085",
    "tds-beta": "42aa4680a8e49828e4e3fea03ac8e47b4ec97ac3449e5a6d3cf7ebd41c511da2",
    "tds-ordered-t": "b4fe6ee36b8741f10b24bf8392813f84263f9bacea6e2f6746a0c6cd95044f41",
    "tds-hier-t": "3a8d345cf1870200679704df734f9721ed4de036e30750000580b60e8314e6ac",
    "tds-ke": "296a6fc98e67796ee03a60da949ce71936882e796711a7c84d065af28bb17085",
    "tds-composite": "296a6fc98e67796ee03a60da949ce71936882e796711a7c84d065af28bb17085",
    "bug-s05-rcl": "9d5558f10df63d9f5253741bcdbc8df582427a10dd0215cc795d6a1e3c0a3950",
    "bug-s05-ak": "9d5558f10df63d9f5253741bcdbc8df582427a10dd0215cc795d6a1e3c0a3950",
    "bug-s05-beta": "9d5558f10df63d9f5253741bcdbc8df582427a10dd0215cc795d6a1e3c0a3950",
    "bug-s05-ordered-t": "b4fe6ee36b8741f10b24bf8392813f84263f9bacea6e2f6746a0c6cd95044f41",
    "bug-s05-hier-t": "9d5558f10df63d9f5253741bcdbc8df582427a10dd0215cc795d6a1e3c0a3950",
    "bug-s05-ke": "b4fe6ee36b8741f10b24bf8392813f84263f9bacea6e2f6746a0c6cd95044f41",
    "bug-s05-composite": "9d5558f10df63d9f5253741bcdbc8df582427a10dd0215cc795d6a1e3c0a3950",
}


def _parity(case, algorithm, table, schema, hierarchies, models):
    """The release must reproduce the case's golden digest byte for byte."""
    release = algorithm.anonymize(table, schema, hierarchies, models)
    digest = hashlib.sha256(release_csv_bytes(release.table)).hexdigest()
    assert digest == GOLDEN_DIGESTS[case], case
    return release


def _assert_verifies(release, schema, models):
    specs = [model_registry.to_spec(model) for model in models]
    assert violations(release.table, schema.quasi_identifiers, specs) == []


# -- golden releases across the family ----------------------------------------


@pytest.mark.parametrize("mix", ["k", "k+l", "k+el+t", "k4"])
@pytest.mark.parametrize("mode", ["strict", "relaxed"])
def test_mondrian_parity(table, schema, hierarchies, mode, mix):
    release = _parity(
        f"mondrian-{mode}-{mix}", Mondrian(mode=mode),
        table, schema, hierarchies, _model_mix(mix),
    )
    _assert_verifies(release, schema, _model_mix(mix))


@pytest.mark.parametrize("mix", ["k", "k+l", "k4"])
def test_mondrian_infogain_parity(table, schema, hierarchies, mix):
    release = _parity(
        f"mondrian-infogain-{mix}", Mondrian(target=SENSITIVE),
        table, schema, hierarchies, _model_mix(mix),
    )
    _assert_verifies(release, schema, _model_mix(mix))


@pytest.mark.parametrize("mix", ["k", "k+l", "k+el+t", "k4"])
def test_tds_parity(table, schema, hierarchies, mix):
    release = _parity(
        f"tds-{mix}", TopDownSpecialization(),
        table, schema, hierarchies, _model_mix(mix),
    )
    _assert_verifies(release, schema, _model_mix(mix))


def test_tds_infogain_parity(table, schema, hierarchies):
    _parity(
        "tds-infogain-k", TopDownSpecialization(target=SENSITIVE),
        table, schema, hierarchies, _model_mix("k"),
    )


def test_mdav_parity(table, schema, hierarchies):
    _parity(
        "mdav-k5", MDAVMicroaggregation(5),
        table, schema, hierarchies, [KAnonymity(5)],
    )


def test_kmember_parity(small_table, schema, hierarchies):
    _parity(
        "kmember-k4", KMemberClustering(4),
        small_table, schema, hierarchies, [KAnonymity(4)],
    )


@pytest.mark.parametrize("mix", MODEL_MIXES)
@pytest.mark.parametrize("algorithm", sorted(_ALGORITHMS))
def test_model_mix_parity(table, schema, hierarchies, algorithm, mix):
    _parity(
        f"{algorithm}-{mix}", _ALGORITHMS[algorithm](),
        table, schema, hierarchies, _model_mix(mix),
    )


@pytest.mark.parametrize("mix", MODEL_MIXES)
@pytest.mark.parametrize("mode", ["strict", "relaxed"])
def test_frontier_and_dfs_drivers_cut_identical_leaves(table, schema, mode, mix):
    qi = schema.quasi_identifiers
    views, spans = _value_views(table, qi)
    mondrian = Mondrian(mode=mode)
    models = _model_mix(mix)

    def leaves(driver):
        engine = PartitionEngine(table)
        return driver(engine, engine.root(), qi, views, spans, models)

    frontier = leaves(mondrian._partition_frontier)
    dfs = leaves(mondrian._partition_dfs)
    assert len(frontier) == len(dfs)
    for mine, theirs in zip(frontier, dfs):
        assert np.array_equal(mine, theirs)


def test_anatomy_and_slicing_deterministic(small_table, schema, hierarchies):
    # No golden digests — their vectorized internals must be self-consistent.
    a1, _ = Anatomy(3).anatomize(small_table, schema)
    a2, _ = Anatomy(3).anatomize(small_table, schema)
    assert a1.qit.fingerprint() == a2.qit.fingerprint()
    assert a1.st == a2.st
    s1 = Slicing(5).anonymize(small_table, schema, hierarchies, [])
    s2 = Slicing(5).anonymize(small_table, schema, hierarchies, [])
    assert s1.table.fingerprint() == s2.table.fingerprint()


# -- cache counters -----------------------------------------------------------


def test_sensitive_models_use_delta_histograms(table, schema, hierarchies):
    release = Mondrian().anonymize(
        table, schema, hierarchies, _model_mix("k+l")
    )
    cache = release.info["partition_cache"]
    # Child histograms come from parent − sibling, never a table rescan.
    assert cache["histogram_splits"] > 0
    assert cache["checks_fast"] > 0


def test_k_only_needs_no_histograms(table, schema, hierarchies):
    release = Mondrian().anonymize(table, schema, hierarchies, [KAnonymity(5)])
    cache = release.info["partition_cache"]
    assert cache["histogram_splits"] == 0
    assert cache["histogram_scans"] == 0


def _delta_presence_scenario():
    table, schema, hierarchies = random_scenario(
        n_rows=200, n_categorical_qis=2, n_values=8, seed=3
    )
    extra = np.random.default_rng(3).integers(0, table.n_rows, 300)
    population = table.take(np.concatenate([np.arange(table.n_rows), extra]))
    return table, schema, hierarchies, population


@pytest.mark.parametrize(
    "algorithm",
    [TopDownSpecialization(), Mondrian(mode="strict"), Mondrian(mode="relaxed")],
    ids=["tds", "mondrian-strict", "mondrian-relaxed"],
)
def test_local_recoding_rejects_delta_presence(algorithm):
    # The root class's belief is 200/500; a local-recoding partition is no
    # generalization node, so the population cannot be counted per class.
    table, schema, hierarchies, population = _delta_presence_scenario()
    with pytest.raises(ConfigError, match="full-domain lattice algorithm"):
        algorithm.anonymize(
            table, schema, hierarchies, [DeltaPresence(0.0, 0.9, population)]
        )


def test_flash_publishes_a_verified_delta_presence_release():
    table, schema, hierarchies, population = _delta_presence_scenario()
    release = Flash().anonymize(
        table, schema, hierarchies, [DeltaPresence(0.0, 0.9, population)]
    )
    qi = schema.quasi_identifiers
    spec = {"model": "delta-presence", "delta_min": 0.0, "delta_max": 0.9}
    generalized = apply_node(population, hierarchies, qi, release.node)
    assert violations(release.table, qi, [spec], population=generalized) == []


# -- engine primitives --------------------------------------------------------


def test_grouped_histograms_matches_per_group_bincount():
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 7, size=500)
    codes = rng.integers(0, 13, size=500)
    hists = grouped_histograms(labels, codes, 7, 13)
    for g in range(7):
        expected = np.bincount(codes[labels == g], minlength=13)
        assert np.array_equal(hists[g], expected)


def test_delta_histogram_equals_direct_bincount(table, schema):
    engine = PartitionEngine(table)
    root = engine.root()
    root_hist = root.histogram(SENSITIVE)
    codes = engine.column_codes(SENSITIVE)
    assert np.array_equal(
        root_hist, np.bincount(codes, minlength=engine.column_cats(SENSITIVE))
    )
    left, right = engine.split(
        root, np.arange(300), np.arange(300, root.size)
    )
    left_hist = left.histogram(SENSITIVE)  # direct scan of the smaller side
    right_hist = right.histogram(SENSITIVE)  # parent − sibling delta
    assert np.array_equal(left_hist + right_hist, root_hist)
    assert np.array_equal(
        right_hist,
        np.bincount(codes[right.rows], minlength=engine.column_cats(SENSITIVE)),
    )
    assert engine.cache_info()["histogram_splits"] >= 1


def test_split_by_codes_partitions_rows(table):
    engine = PartitionEngine(table)
    root = engine.root()
    codes = engine.column_codes("sex")
    children = engine.split_by_codes(root, codes[root.rows])
    assert sum(child.size for child in children) == root.size
    seen = np.concatenate([child.rows for child in children])
    assert np.array_equal(np.sort(seen), root.rows)
    for child in children:
        assert np.unique(codes[child.rows]).size == 1


def test_split_by_codes_single_value_returns_group_unchanged(table):
    engine = PartitionEngine(table)
    root = engine.root()
    children = engine.split_by_codes(root, np.zeros(root.size, dtype=np.int64))
    assert len(children) == 1
    assert children[0] is root


# -- relaxed-cut closed form vs the one-row-at-a-time append loop -------------


def _legacy_relaxed_assignment(values, median):
    """The seed's one-row-at-a-time balancing loop, on positions."""
    positions = np.arange(values.size)
    less = values < median
    more = values > median
    equal = ~less & ~more
    left = list(positions[less])
    right = list(positions[more])
    for row in positions[equal]:
        (left if len(left) <= len(right) else right).append(row)
    if not left or not right:
        return None
    return np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)


@pytest.mark.parametrize("seed", range(8))
def test_relaxed_cut_positions_match_legacy_loop(seed):
    rng = np.random.default_rng(seed)
    # Heavy ties so the median-valued block is large and both branches
    # (smaller-left and smaller-right head) are exercised.
    values = rng.integers(0, 5, size=rng.integers(3, 200)).astype(np.float64)
    median = float(np.median(values))
    expected = _legacy_relaxed_assignment(values, median)
    got = Mondrian(mode="relaxed")._cut_positions(values, median)
    if expected is None:
        assert got is None
    else:
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


def test_relaxed_cut_splits_all_equal_block_like_legacy():
    # The append loop alternates all-median rows between halves; the closed
    # form must reproduce that, not bail out as degenerate.
    values = np.ones(10)
    expected = _legacy_relaxed_assignment(values, 1.0)
    got = Mondrian(mode="relaxed")._cut_positions(values, 1.0)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])


def test_strict_cut_degenerate_returns_none():
    assert Mondrian()._cut_positions(np.ones(10), 1.0) is None


# -- registry, config validation, batch identity ------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        {"algorithm": "mdav", "k": 4},
        {"algorithm": "kmember", "k": 4},
        {"algorithm": "anatomy", "l": 3},
        {"algorithm": "slicing", "k": 4},
        {"algorithm": "mondrian", "mode": "relaxed", "target": SENSITIVE},
        {"algorithm": "tds", "max_steps": 0},
    ],
)
def test_registry_round_trip(spec):
    instance = algorithm_registry.from_spec(spec)
    back = algorithm_registry.to_spec(instance)
    assert back["algorithm"] == spec["algorithm"]
    for key, value in spec.items():
        assert back[key] == value


def test_bad_engine_rejected():
    # The engine= knob is gone: old specs carrying it fail at parse time.
    for spec in (
        {"algorithm": "mondrian", "engine": "partition"},
        {"algorithm": "tds", "engine": "legacy"},
        {"algorithm": "mdav", "k": 4, "engine": "partition"},
        {"algorithm": "kmember", "k": 4, "engine": "legacy"},
    ):
        with pytest.raises(ConfigError, match="unknown key 'engine'"):
            algorithm_registry.from_spec(spec)
    with pytest.raises(TypeError, match="engine"):
        Mondrian(engine="partition")


_CLI_CSV = (
    "zipcode,job,age,disease\n"
    "13053,engineer,29,flu\n"
    "13068,teacher,31,hiv\n"
    "13053,engineer,35,ulcer\n"
    "13068,nurse,40,flu\n"
)


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"algorithm": "kmember", "k": 2, "sample_candidates": 0}, "sample_candidates"),
        ({"algorithm": "kmember", "k": 2, "sample_candidates": -1}, "sample_candidates"),
        ({"algorithm": "kmember", "k": 2, "sample_candidates": 8.0}, "sample_candidates"),
        ({"algorithm": "kmember", "k": 2, "sample_candidates": True}, "sample_candidates"),
        ({"algorithm": "kmember", "k": 2, "seed": "a"}, "seed"),
        ({"algorithm": "kmember", "k": 2, "seed": -1}, "seed"),
        ({"algorithm": "kmember", "k": 2.5}, "k"),
        ({"algorithm": "mdav", "k": 2.5}, "k"),
        ({"algorithm": "tds", "max_steps": -1}, "max_steps"),
        ({"algorithm": "tds", "max_steps": 1.5}, "max_steps"),
        ({"algorithm": "tds", "max_steps": True}, "max_steps"),
    ],
)
def test_bad_algorithm_params_fail_at_config_time(spec, key, tmp_path, capsys):
    message = f"'{spec['algorithm']}': {key} must be"
    with pytest.raises(ConfigError, match=message):
        algorithm_registry.from_spec(spec)
    # The CLI reports it as a usage error (exit 2) before touching the data.
    (tmp_path / "in.csv").write_text(_CLI_CSV)
    (tmp_path / "job.json").write_text(json.dumps({
        "quasi_identifiers": ["zipcode", "job"],
        "numeric_quasi_identifiers": ["age"],
        "sensitive": ["disease"],
        "models": [{"model": "k-anonymity", "k": 2}],
        "algorithm": spec,
    }))
    out = tmp_path / "out.csv"
    code = cli_main([
        str(tmp_path / "in.csv"), str(out), "--config", str(tmp_path / "job.json"),
    ])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _job(schema, algorithm):
    return AnonymizationConfig.from_dict(
        {
            "quasi_identifiers": list(schema.categorical_quasi_identifiers),
            "numeric_quasi_identifiers": list(schema.numeric_quasi_identifiers),
            "sensitive": [SENSITIVE],
            "models": [{"model": "k-anonymity", "k": 4}],
            "algorithm": algorithm,
        }
    )


def test_mdav_config_needs_numeric_qi(schema):
    with pytest.raises(ConfigError, match="numeric_quasi_identifiers"):
        AnonymizationConfig.from_dict(
            {
                "quasi_identifiers": list(schema.categorical_quasi_identifiers),
                "models": [{"model": "k-anonymity", "k": 4}],
                "algorithm": {"algorithm": "mdav", "k": 4},
            }
        ).validate()


def test_anatomy_config_needs_one_sensitive(schema):
    with pytest.raises(ConfigError, match="sensitive"):
        AnonymizationConfig.from_dict(
            {
                "quasi_identifiers": list(schema.categorical_quasi_identifiers),
                "numeric_quasi_identifiers": list(
                    schema.numeric_quasi_identifiers
                ),
                "models": [{"model": "k-anonymity", "k": 4}],
                "algorithm": {"algorithm": "anatomy", "l": 3},
            }
        ).validate()


def test_run_batch_workers_identical(small_table, schema, hierarchies):
    jobs = [
        _job(schema, {"algorithm": "mondrian", "mode": "relaxed"}),
        _job(schema, {"algorithm": "tds"}),
        _job(schema, {"algorithm": "mdav", "k": 4}),
        _job(schema, {"algorithm": "kmember", "k": 4}),
        _job(schema, {"algorithm": "anatomy", "l": 3}),
        _job(schema, {"algorithm": "slicing", "k": 4}),
    ]
    sequential = run_batch(jobs, small_table, hierarchies=hierarchies, workers=1)
    for workers in (2, 4):
        parallel = run_batch(
            jobs, small_table, hierarchies=hierarchies, workers=workers
        )
        for seq_result, par_result in zip(sequential, parallel):
            assert (
                par_result.release.table.fingerprint()
                == seq_result.release.table.fingerprint()
            )


def test_result_dict_carries_partition_cache(small_table, schema, hierarchies):
    [result] = run_batch(
        [_job(schema, {"algorithm": "mondrian"})],
        small_table,
        hierarchies=hierarchies,
    )
    payload = result.to_dict()
    assert payload["partition_cache"]["checks_fast"] > 0
