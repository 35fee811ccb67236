"""Shared fixtures: small deterministic tables, schemas, and hierarchies.

Also the helpers that compare the engines with :mod:`repro.verify`, and the
hypothesis profiles of the differential suite (``tests/test_verify.py``):
tier-1 runs a few examples per property, ``--hypothesis-profile ci`` runs
10,000 derandomized ones.
"""

import numpy as np
import pytest
from hypothesis import settings

from repro.api.registry import model_registry
from repro.core.hierarchy import Hierarchy, IntervalHierarchy
from repro.core.schema import Schema
from repro.core.table import Column, Table
from repro.data import (
    adult_hierarchies,
    adult_schema,
    load_adult,
    load_medical,
    medical_hierarchies,
    medical_schema,
)
from repro.privacy import CompositeModel
from repro.verify import violations

# Every other property test fixes its own max_examples, so the profiles set
# only the differential suite's example count.
settings.register_profile("tier1", max_examples=15)
settings.register_profile("ci", max_examples=10_000, derandomize=True)
settings.load_profile("tier1")


def _specs_of(model):
    if isinstance(model, dict):
        return [model]
    if isinstance(model, CompositeModel):
        return [spec for member in model.models for spec in _specs_of(member)]
    return [model_registry.to_spec(model)]


def _flagged_rows(table, quasi_identifiers, models, population=None):
    specs = [spec for model in models for spec in _specs_of(model)]
    flagged = {key for _, key, _ in violations(table, quasi_identifiers, specs, population)}
    keys = zip(*(table.column(name).decode() for name in quasi_identifiers))
    return np.array([row for row, key in enumerate(keys) if key in flagged], dtype=np.int64)


@pytest.fixture(scope="session")
def flagged_rows():
    """``flagged_rows(table, qi, models, population=None)``: ascending rows of
    every class :func:`repro.verify.violations` flags. ``models`` are
    registered models (a composite counts as its members) or verify specs."""
    return _flagged_rows


@pytest.fixture(scope="session")
def adult_small():
    return load_adult(n_rows=600, seed=7)


@pytest.fixture(scope="session")
def adult_setup(adult_small):
    return adult_small, adult_schema(), adult_hierarchies()


@pytest.fixture(scope="session")
def medical_small():
    return load_medical(n_rows=800, seed=11)


@pytest.fixture(scope="session")
def medical_setup(medical_small):
    return medical_small, medical_schema(), medical_hierarchies()


@pytest.fixture
def tiny_table():
    """8-row toy table mirroring the l-diversity paper's running example."""
    return Table(
        [
            Column.categorical(
                "zipcode",
                ["13053", "13068", "13068", "13053", "14853", "14853", "14850", "14850"],
            ),
            Column.categorical(
                "nationality",
                ["Russian", "American", "Japanese", "American",
                 "Indian", "Russian", "American", "American"],
            ),
            Column.categorical(
                "disease",
                ["Heart", "Heart", "Viral", "Viral", "Cancer", "Heart", "Viral", "Cancer"],
            ),
            Column.numeric("age", [28, 29, 21, 23, 50, 55, 47, 49]),
        ]
    )


@pytest.fixture
def tiny_schema():
    return Schema.build(
        quasi_identifiers=["zipcode", "nationality"],
        numeric_quasi_identifiers=["age"],
        sensitive=["disease"],
    )


@pytest.fixture
def tiny_hierarchies():
    zipcode = Hierarchy.from_levels(
        {
            "13053": ["1305*", "130**", "1****"],
            "13068": ["1306*", "130**", "1****"],
            "14853": ["1485*", "148**", "1****"],
            "14850": ["1485*", "148**", "1****"],
        }
    )
    nationality = Hierarchy.from_tree(
        {
            "Americas": ["American"],
            "Asia": ["Japanese", "Indian"],
            "Europe": ["Russian"],
        },
        root="*",
    )
    age = IntervalHierarchy.uniform(20, 60, n_bins=8, merge_factor=2)
    return {"zipcode": zipcode, "nationality": nationality, "age": age}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
