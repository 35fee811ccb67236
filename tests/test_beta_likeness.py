"""Tests for β-likeness."""

import numpy as np
import pytest

from repro.core.engine import LatticeEvaluator
from repro.core.hierarchy import Hierarchy
from repro.core.table import Column, Table
from repro.privacy import BetaLikeness, TCloseness
from repro.verify import violations


def make_table(qi, sensitive):
    return Table([Column.categorical("qi", qi), Column.categorical("s", sensitive)])


def stats_of(table):
    """GroupStats with one class per value of column "qi"."""
    hierarchy = Hierarchy.flat(table.column("qi").categories)
    return LatticeEvaluator(table, ["qi"], {"qi": hierarchy}).stats((0,))


def holds(model, table):
    return bool(model.ok_mask(stats_of(table)).all())


class TestBetaLikeness:
    def test_matching_distribution_passes(self):
        table = make_table(["a", "a", "b", "b"], ["x", "y", "x", "y"])
        assert holds(BetaLikeness(0.1, "s"), table)

    def test_relative_gain_computed(self):
        # Global: x 50%, y 50%. Class a: x 100% -> gain (1-0.5)/0.5 = 1.0.
        table = make_table(["a", "a", "b", "b"], ["x", "x", "y", "y"])
        model = BetaLikeness(0.5, "s")
        gains = model.max_gains(stats_of(table))
        assert gains.max() == pytest.approx(1.0)
        assert not holds(model, table)
        assert holds(BetaLikeness(1.0, "s"), table)

    def test_negative_gains_free(self):
        # A class missing a value entirely is fine (only gains constrained).
        table = make_table(
            ["a", "a", "a", "b", "b", "b"],
            ["x", "y", "z", "x", "y", "z"],
        )
        assert holds(BetaLikeness(0.01, "s"), table)

    def test_rare_value_protected_better_than_tcloseness(self):
        """The paper's motivation: a rare value tripling its frequency is a
        big relative breach but a tiny absolute (EMD) one."""
        # Global: rare value r at 2%; class of size 50 with 3 r's (6%).
        qi = ["a"] * 50 + ["b"] * 950
        sensitive = (["r"] * 3 + ["x"] * 47) + (["r"] * 17 + ["x"] * 933)
        table = make_table(qi, sensitive)
        # EMD distance of class a from global is tiny: t-closeness passes.
        assert bool(TCloseness(0.1, "s").ok_mask(stats_of(table)).all())
        # Relative gain is (0.06 - 0.02)/0.02 = 2: beta-likeness flags it.
        assert not holds(BetaLikeness(1.0, "s"), table)

    def test_impossible_value_is_infinite_gain(self):
        # Each singleton class concentrates one value: global 0.5 -> 1.0,
        # gain = 1.0; finite. Force a zero-global case via category list:
        col = Column.categorical("s2", ["x", "x"], categories=["x", "ghost"])
        table2 = Table([Column.categorical("qi", ["a", "b"]), col])
        model2 = BetaLikeness(0.5, "s2")
        gains = model2.max_gains(stats_of(table2))
        assert np.isfinite(gains).all()  # ghost never appears locally either

    def test_failing_groups(self):
        table = make_table(["a", "a", "b", "b"], ["x", "x", "x", "y"])
        model = BetaLikeness(0.2, "s")
        failing = np.flatnonzero(~model.ok_mask(stats_of(table))).tolist()
        assert failing  # class a concentrates x (0.75 -> 1.0)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            BetaLikeness(0.0, "s")

    def test_works_with_mondrian(self, medical_setup):
        from repro import KAnonymity, Mondrian

        table, schema, hierarchies = medical_setup
        release = Mondrian().anonymize(
            table, schema, hierarchies,
            [KAnonymity(4), BetaLikeness(3.0, "disease")],
        )
        spec = {"model": "beta-likeness", "beta": 3.0, "sensitive": "disease"}
        assert violations(release.table, schema.quasi_identifiers, [spec]) == []
