"""Tests for Slicing, DP range queries, uniqueness estimators, and InfoGain
Mondrian."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Anonymizer, InfeasibleError, KAnonymity, Mondrian
from repro.algorithms import Slicing
from repro.attacks import (
    poisson_population_uniques,
    sample_uniques,
    uniqueness_report,
    zayatz_population_uniques,
)
from repro.dp import FlatRangeHistogram, HierarchicalRangeHistogram


class TestSlicing:
    def test_preserves_column_group_joint_distribution(self, medical_setup):
        table, schema, _ = medical_setup
        release = Slicing(k=5, seed=0).anonymize(table, schema)
        sliced = release.info["sliced"]
        # Every column group's joint multiset is preserved globally.
        for group in sliced.columns:
            original = sorted(
                zip(*(table.column(n).decode() for n in group))
            )
            published = sorted(
                zip(*(release.table.column(n).decode() for n in group))
            )
            assert original == published

    def test_buckets_partition_rows(self, medical_setup):
        table, schema, _ = medical_setup
        release = Slicing(k=6, seed=1).anonymize(table, schema)
        buckets = release.info["sliced"].buckets
        covered = np.sort(np.concatenate(buckets))
        assert covered.tolist() == list(range(table.n_rows))
        assert min(b.size for b in buckets) >= 6

    def test_within_bucket_rows_shuffled_across_groups(self, medical_setup):
        """Slicing must actually break cross-group linkage for most rows."""
        table, schema, _ = medical_setup
        release = Slicing(k=10, seed=2).anonymize(table, schema)
        # Count rows whose (zipcode, disease) pairing survived; with random
        # permutation inside buckets of 10 most pairings should change.
        original_pairs = list(
            zip(table.column("zipcode").decode(), table.column("disease").decode())
        )
        published_pairs = list(
            zip(release.table.column("zipcode").decode(),
                release.table.column("disease").decode())
        )
        identical = sum(a == b for a, b in zip(original_pairs, published_pairs))
        assert identical < 0.55 * table.n_rows

    def test_sensitive_anchors_most_correlated_qi(self, medical_setup):
        table, schema, _ = medical_setup
        release = Slicing(k=5, seed=0).anonymize(table, schema)
        groups = release.info["sliced"].columns
        anchor = next(g for g in groups if "disease" in g)
        # Disease correlates with age in the generator.
        assert "age" in anchor

    def test_column_width_capped(self, medical_setup):
        table, schema, _ = medical_setup
        release = Slicing(k=5, max_column_width=1, seed=0).anonymize(table, schema)
        groups = release.info["sliced"].columns
        # Width 1 still allows the sensitive anchor to stand alone.
        assert all(len(g) <= 1 or "disease" in g for g in groups)

    def test_too_few_rows_raises(self, medical_setup):
        table, schema, _ = medical_setup
        with pytest.raises(InfeasibleError):
            Slicing(k=5).anonymize(table.head(3), schema)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Slicing(k=1)
        with pytest.raises(ValueError):
            Slicing(k=2, max_column_width=0)


class TestRangeQueries:
    @pytest.fixture
    def counts(self, rng):
        return rng.poisson(15, 512).astype(float)

    def test_flat_exact_at_huge_epsilon(self, counts, rng):
        flat = FlatRangeHistogram(counts, epsilon=1e6, rng=rng)
        assert flat.range_count(10, 50) == pytest.approx(counts[10:50].sum(), abs=0.1)

    def test_hierarchical_exact_at_huge_epsilon(self, counts, rng):
        hier = HierarchicalRangeHistogram(counts, epsilon=1e6, rng=rng)
        for lo, hi in ((0, 512), (3, 200), (511, 512), (100, 101)):
            assert hier.range_count(lo, hi) == pytest.approx(
                counts[lo:hi].sum(), abs=1.0
            )

    def test_hierarchical_uses_few_nodes(self, counts, rng):
        hier = HierarchicalRangeHistogram(counts, epsilon=1.0, branching=2, rng=rng)
        hier.range_count(1, 511)
        assert hier.nodes_used <= 2 * 2 * (hier.height + 1)

    def test_consistency_reduces_long_range_error(self, rng):
        counts = rng.poisson(10, 1024).astype(float)
        with_cons = HierarchicalRangeHistogram(
            counts, epsilon=0.5, consistency=True, rng=np.random.default_rng(7)
        )
        without = HierarchicalRangeHistogram(
            counts, epsilon=0.5, consistency=False, rng=np.random.default_rng(7)
        )
        query_rng = np.random.default_rng(8)
        def mae(h):
            errors = []
            for _ in range(150):
                lo = int(query_rng.integers(0, 300))
                hi = lo + 700
                errors.append(abs(h.range_count(lo, hi) - counts[lo:hi].sum()))
            return np.mean(errors)

        assert mae(with_cons) <= mae(without) * 1.15

    def test_hierarchical_beats_flat_on_long_ranges(self, rng):
        counts = rng.poisson(10, 2048).astype(float)
        flat = FlatRangeHistogram(counts, epsilon=0.3, rng=np.random.default_rng(1))
        hier = HierarchicalRangeHistogram(
            counts, epsilon=0.3, branching=16, rng=np.random.default_rng(2)
        )
        query_rng = np.random.default_rng(3)
        flat_errors, hier_errors = [], []
        for _ in range(200):
            lo = int(query_rng.integers(0, 500))
            hi = lo + 1400
            truth = counts[lo:hi].sum()
            flat_errors.append(abs(flat.range_count(lo, hi) - truth))
            hier_errors.append(abs(hier.range_count(lo, hi) - truth))
        assert np.mean(hier_errors) < np.mean(flat_errors)

    def test_invalid_range_raises(self, counts, rng):
        flat = FlatRangeHistogram(counts, epsilon=1.0, rng=rng)
        with pytest.raises(ValueError):
            flat.range_count(50, 50)
        hier = HierarchicalRangeHistogram(counts, epsilon=1.0, rng=rng)
        with pytest.raises(ValueError):
            hier.range_count(-1, 10)

    def test_invalid_params(self, counts):
        with pytest.raises(ValueError):
            FlatRangeHistogram(counts, epsilon=0)
        with pytest.raises(ValueError):
            HierarchicalRangeHistogram(counts, epsilon=1.0, branching=1)


class TestUniqueness:
    def test_sample_uniques(self):
        assert sample_uniques(np.array([1, 1, 3, 5])) == 2

    def test_zayatz_bounded_by_sample_uniques(self, rng):
        sizes = rng.integers(1, 8, 300)
        estimate = zayatz_population_uniques(sizes, sampling_fraction=0.2)
        assert 0 <= estimate <= sample_uniques(sizes)

    def test_full_sample_means_uniques_are_real(self):
        sizes = np.array([1, 1, 2, 3])
        assert zayatz_population_uniques(sizes, 1.0) == pytest.approx(2.0)
        assert poisson_population_uniques(sizes, 1.0) == pytest.approx(2.0, abs=0.4)

    def test_small_fraction_discounts_uniques(self):
        sizes = np.array([1] * 50 + [2] * 30 + [3] * 20)
        high = zayatz_population_uniques(sizes, 0.9)
        low = zayatz_population_uniques(sizes, 0.05)
        assert low < high

    def test_no_uniques_gives_zero(self):
        sizes = np.array([2, 3, 4])
        assert zayatz_population_uniques(sizes, 0.3) == 0.0
        assert poisson_population_uniques(sizes, 0.3) == 0.0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            zayatz_population_uniques(np.array([1]), 0.0)

    def test_report_on_release(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = Anonymizer(table, schema, hierarchies).apply(KAnonymity(2))
        report = uniqueness_report(release, sampling_fraction=0.1)
        assert report["sample_uniques"] == 0  # k=2 leaves no sample uniques
        assert report["zayatz_population_uniques"] == 0.0

    def test_scipy_stays_off_the_import_path(self):
        """The library imports without scipy; the estimators load it on use.

        Runs in a fresh interpreter, so modules the pytest process already
        imported cannot hide an eager import. The expected report was
        recorded while ``scipy.stats`` was still imported at module level.
        """
        script = (
            "import json, sys\n"
            "import repro, repro.api, repro.cli, repro.service\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "from repro.attacks import uniqueness_report\n"
            "from repro.core.release import Release\n"
            "from repro.data import adult_schema, load_adult\n"
            "release = Release(load_adult(n_rows=400, seed=3), adult_schema(), 'identity')\n"
            "print(json.dumps({'loaded': loaded, 'report': uniqueness_report(release, 0.3)}))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        inherited = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        out = json.loads(done.stdout.strip().splitlines()[-1])
        assert out["loaded"] == []
        assert out["report"] == {
            "sample_uniques": 351,
            "sample_unique_fraction": pytest.approx(0.8775),
            "zayatz_population_uniques": pytest.approx(320.2771206488679, rel=1e-12),
            "poisson_population_uniques": pytest.approx(29.133751125424883, rel=1e-12),
        }


class TestInfoGainMondrian:
    def test_valid_k_anonymous(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = Mondrian("strict", target="salary").anonymize(
            table, schema, hierarchies, [KAnonymity(10)]
        )
        assert release.equivalence_class_sizes().min() >= 10

    def test_name_reflects_variant(self):
        assert Mondrian("strict", target="salary").name == "mondrian[strict,infogain]"

    def test_preserves_label_structure_at_least_as_well(self, adult_setup):
        """On classification the infogain variant should be >= classic − ε."""
        from repro.metrics import accuracy_experiment

        table, schema, hierarchies = adult_setup
        classic = Mondrian("strict").anonymize(table, schema, hierarchies, [KAnonymity(25)])
        infogain = Mondrian("strict", target="salary").anonymize(
            table, schema, hierarchies, [KAnonymity(25)]
        )
        acc_classic = accuracy_experiment(table, classic, "salary", seed=5)
        acc_infogain = accuracy_experiment(table, infogain, "salary", seed=5)
        assert (
            acc_infogain["anonymized_accuracy"]
            >= acc_classic["anonymized_accuracy"] - 0.05
        )
