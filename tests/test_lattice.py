"""Unit tests for the generalization lattice."""

import numpy as np
import pytest

from repro.core.hierarchy import Hierarchy
from repro.core.lattice import GeneralizationLattice, minimal_antichain
from repro.errors import HierarchyError


@pytest.fixture
def lattice():
    return GeneralizationLattice(["a", "b", "c"], [2, 1, 3])


class TestStructure:
    def test_size(self, lattice):
        assert lattice.size == 3 * 2 * 4

    def test_bottom_top(self, lattice):
        assert lattice.bottom == (0, 0, 0)
        assert lattice.top == (2, 1, 3)

    def test_contains(self, lattice):
        assert lattice.contains((1, 1, 2))
        assert not lattice.contains((3, 0, 0))
        assert not lattice.contains((0, 0))

    def test_mismatched_inputs_raise(self):
        with pytest.raises(HierarchyError):
            GeneralizationLattice(["a"], [1, 2])

    def test_negative_height_raises(self):
        with pytest.raises(HierarchyError):
            GeneralizationLattice(["a"], [-1])

    def test_empty_raises(self):
        with pytest.raises(HierarchyError):
            GeneralizationLattice([], [])

    def test_from_hierarchies(self):
        h = Hierarchy.flat(["x", "y"])
        lattice = GeneralizationLattice.from_hierarchies({"a": h, "b": h})
        assert lattice.heights == (1, 1)


class TestTraversal:
    def test_nodes_enumerates_all(self, lattice):
        assert len(list(lattice.nodes())) == lattice.size

    def test_levels_group_by_total_height(self, lattice):
        for height, stratum in enumerate(lattice.levels()):
            for node in stratum:
                assert sum(node) == height

    def test_levels_cover_everything(self, lattice):
        total = sum(len(s) for s in lattice.levels())
        assert total == lattice.size

    def test_successors_raise_one_level(self, lattice):
        succ = lattice.successors((0, 0, 0))
        assert set(succ) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_top_has_no_successors(self, lattice):
        assert lattice.successors(lattice.top) == []

    def test_predecessors_inverse_of_successors(self, lattice):
        for node in lattice.nodes():
            for succ in lattice.successors(node):
                assert node in lattice.predecessors(succ)

    def test_bottom_has_no_predecessors(self, lattice):
        assert lattice.predecessors(lattice.bottom) == []

    def test_invalid_node_raises(self, lattice):
        with pytest.raises(HierarchyError):
            lattice.successors((9, 9, 9))


class TestOrdering:
    def test_dominates(self):
        assert GeneralizationLattice.dominates((2, 1), (1, 1))
        assert GeneralizationLattice.dominates((1, 1), (1, 1))
        assert not GeneralizationLattice.dominates((0, 2), (1, 1))

    def test_up_set_contains_node_and_top(self, lattice):
        up = lattice.up_set((1, 0, 2))
        assert (1, 0, 2) in up
        assert lattice.top in up
        assert all(GeneralizationLattice.dominates(n, (1, 0, 2)) for n in up)

    def test_up_set_size(self, lattice):
        up = lattice.up_set((1, 0, 2))
        assert len(up) == (2 - 1 + 1) * (1 - 0 + 1) * (3 - 2 + 1)


class TestProjection:
    def test_project_subset(self, lattice):
        sub = lattice.project(["c", "a"])
        assert sub.attributes == ["c", "a"]
        assert sub.heights == (3, 2)

    def test_project_unknown_raises(self, lattice):
        with pytest.raises(HierarchyError):
            lattice.project(["zz"])

    def test_embed_roundtrip(self, lattice):
        sub = lattice.project(["c", "a"])
        node = lattice.embed((2, 1), ["c", "a"])
        assert node == (1, 0, 2)

    def test_embed_with_base(self, lattice):
        node = lattice.embed((1,), ["b"], base=(2, 0, 3))
        assert node == (2, 1, 3)

    def test_embed_out_of_range_raises(self, lattice):
        with pytest.raises(HierarchyError):
            lattice.embed((9,), ["b"])


def _quadratic_antichain(nodes):
    """Every node compared with every other: the reference definition."""
    nodes = set(nodes)
    return sorted(
        node
        for node in nodes
        if not any(
            other != node and all(o <= n for o, n in zip(other, node))
            for other in nodes
        )
    )


class TestMinimalAntichain:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_quadratic_reference(self, seed):
        rng = np.random.default_rng(seed)
        for dims in range(1, 6):
            for _ in range(25):
                size = int(rng.integers(0, 40))
                nodes = [tuple(int(v) for v in rng.integers(0, 4, dims)) for _ in range(size)]
                assert minimal_antichain(nodes) == _quadratic_antichain(nodes), nodes

    def test_keeps_incomparable_nodes_and_drops_duplicates(self):
        nodes = [(2, 0), (1, 1), (1, 1), (2, 2), (0, 3)]
        assert minimal_antichain(iter(nodes)) == [(0, 3), (1, 1), (2, 0)]
