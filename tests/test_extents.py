"""Property tests for the sorted-int-array extents (repro.core.extents).

Hypothesis drives the compact merge kernels against Python set
semantics — the reference implementation the pre-compact data plane
used — plus the boundary shapes merge code gets wrong first: empty
sides, disjoint ranges, identical operands, single elements.  The
round-trip law (set -> Extent -> set is the identity) is what lets the
rest of the codebase treat the two representations interchangeably.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extents import (
    Extent,
    ExtentMismatch,
    differential_checks,
    extent_contains,
    extent_difference,
    extent_intersect,
    extent_is_subset,
    extent_union,
)

oids = st.integers(min_value=0, max_value=2**20)
oid_sets = st.sets(oids, max_size=80)

SETTINGS = settings(max_examples=200, deadline=None)


class TestConstruction:
    @given(values=st.lists(oids, max_size=80))
    @SETTINGS
    def test_from_iterable_sorts_and_dedups(self, values):
        extent = Extent.from_iterable(values)
        assert list(extent) == sorted(set(values))

    @given(values=oid_sets)
    @SETTINGS
    def test_round_trip_set_array_set(self, values):
        assert Extent.from_iterable(values).to_set() == values

    @given(values=oid_sets)
    @SETTINGS
    def test_from_sorted_trusts_canonical_input(self, values):
        assert list(Extent.from_sorted(sorted(values))) == sorted(values)

    def test_from_iterable_is_identity_on_extents(self):
        extent = Extent.from_iterable([3, 1, 2])
        assert Extent.from_iterable(extent) is extent

    def test_copy_is_free_sharing(self):
        extent = Extent.from_iterable(range(10))
        assert extent.copy() is extent

    def test_extents_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Extent.from_iterable([1]))

    def test_repr_is_bounded(self):
        text = repr(Extent.from_iterable(range(10_000)))
        assert len(text) < 80
        assert "n=10000" in text


class TestSplitBy:
    @given(values=oid_sets, data=st.data())
    @SETTINGS
    def test_groups_members_by_key_keeping_order(self, values, data):
        extent = Extent.from_iterable(values)
        keys = data.draw(st.lists(st.integers(0, 3), min_size=len(extent),
                                  max_size=len(extent)))
        groups = extent.split_by(iter(keys))
        expected: dict[int, list[int]] = {}
        for oid, key in zip(sorted(values), keys):
            expected.setdefault(key, []).append(oid)
        # Same groups, listed in order of first member, each ascending.
        assert [(key, run.tolist()) for key, run in groups.items()] == \
            list(expected.items())
        assert all(isinstance(run, Extent) for run in groups.values())

    def test_one_key_returns_the_extent_itself(self):
        extent = Extent.from_iterable([5, 1, 9])
        assert extent.split_by(["k"] * 3) == {"k": extent}
        assert extent.split_by(["k"] * 3)["k"] is extent
        assert Extent.from_sorted([]).split_by([]) == {}

    def test_rejects_a_key_list_of_the_wrong_length(self):
        with pytest.raises(ValueError):
            Extent.from_iterable([1, 2, 3]).split_by([0, 1])


class TestFromDisjointRuns:
    @given(values=oid_sets, data=st.data())
    @SETTINGS
    def test_is_split_by_undone(self, values, data):
        """Any grouping of an extent (contiguous or interleaved runs)
        is put back together, given the right size."""
        extent = Extent.from_iterable(values)
        keys = data.draw(st.lists(st.integers(0, 3), min_size=len(extent),
                                  max_size=len(extent)))
        runs = list(extent.split_by(keys).values())
        joined = Extent.from_disjoint_runs(iter(runs), len(extent))
        assert joined is not None and joined.tolist() == extent.tolist()
        assert Extent.from_disjoint_runs(runs, len(extent) + 1) is None

    def test_one_non_empty_run_is_returned_itself(self):
        run = Extent.from_iterable([3, 1, 2])
        empty = Extent.from_sorted([])
        assert Extent.from_disjoint_runs([empty, run, empty], 3) is run
        assert Extent.from_disjoint_runs([], 0).tolist() == []

    def test_runs_in_any_order_that_do_not_interleave_are_joined(self):
        runs = [Extent.from_sorted(run) for run in ([7, 8], [1, 2], [4])]
        assert Extent.from_disjoint_runs(runs, 5).tolist() == [1, 2, 4, 7, 8]

    def test_interleaved_runs_are_merged(self):
        runs = [Extent.from_sorted(run) for run in ([1, 9], [2, 3], [5, 12])]
        assert Extent.from_disjoint_runs(runs, 6).tolist() == \
            [1, 2, 3, 5, 9, 12]

    def test_overlapping_runs_do_not_add_up(self):
        runs = [Extent.from_sorted(run) for run in ([1, 5], [5, 6])]
        assert Extent.from_disjoint_runs(runs, 3) is None


class TestSetAlgebraProperties:
    @given(a=oid_sets, b=oid_sets)
    @SETTINGS
    def test_intersect_matches_set_semantics(self, a, b):
        result = extent_intersect(Extent.from_iterable(a),
                                  Extent.from_iterable(b))
        assert isinstance(result, Extent)
        assert list(result) == sorted(a & b)

    @given(a=oid_sets, b=oid_sets)
    @SETTINGS
    def test_union_matches_set_semantics(self, a, b):
        result = extent_union(Extent.from_iterable(a),
                              Extent.from_iterable(b))
        assert list(result) == sorted(a | b)

    @given(a=oid_sets, b=oid_sets)
    @SETTINGS
    def test_difference_matches_set_semantics(self, a, b):
        result = extent_difference(Extent.from_iterable(a),
                                   Extent.from_iterable(b))
        assert list(result) == sorted(a - b)

    @given(a=oid_sets, b=oid_sets)
    @SETTINGS
    def test_subset_and_disjoint_match_set_semantics(self, a, b):
        ea, eb = Extent.from_iterable(a), Extent.from_iterable(b)
        assert extent_is_subset(ea, eb) == a.issubset(b)
        assert ea.isdisjoint(eb) == a.isdisjoint(b)
        assert (ea <= eb) == (a <= b)
        assert (ea < eb) == (a < b)
        assert (ea >= eb) == (a >= b)

    @given(values=oid_sets, probe=oids)
    @SETTINGS
    def test_membership_matches_set_semantics(self, values, probe):
        extent = Extent.from_iterable(values)
        assert (probe in extent) == (probe in values)
        assert extent_contains(extent, probe) == (probe in values)

    @given(a=oid_sets, b=oid_sets)
    @SETTINGS
    def test_operators_on_extent_pairs(self, a, b):
        ea, eb = Extent.from_iterable(a), Extent.from_iterable(b)
        assert list(ea & eb) == sorted(a & b)
        assert list(ea | eb) == sorted(a | b)
        assert list(ea - eb) == sorted(a - b)

    @given(a=oid_sets, b=oid_sets)
    @SETTINGS
    def test_mixed_operands_return_plain_sets(self, a, b):
        extent = Extent.from_iterable(a)
        assert (extent & b) == (a & b)
        assert (b & extent) == (a & b)
        assert (extent | b) == (a | b)
        assert (b | extent) == (a | b)
        assert (extent - b) == (a - b)
        assert (b - extent) == (b - a)
        for result in (extent & b, extent | b, extent - b, b - extent):
            assert isinstance(result, set)

    @given(a=oid_sets, b=oid_sets)
    @SETTINGS
    def test_equality_across_representations(self, a, b):
        ea, eb = Extent.from_iterable(a), Extent.from_iterable(b)
        assert (ea == eb) == (a == b)
        assert (ea == b) == (a == b)
        assert (ea == frozenset(b)) == (a == b)

    @given(small=st.sets(oids, max_size=4),
           big=st.sets(oids, min_size=64, max_size=128))
    @SETTINGS
    def test_galloping_fast_path_agrees_with_merge(self, small, big):
        """Skewed sizes route through the bisect gallop; same results."""
        es, eb = Extent.from_iterable(small), Extent.from_iterable(big)
        assert list(extent_intersect(es, eb)) == sorted(small & big)
        assert extent_is_subset(es, eb) == small.issubset(big)


class TestBoundaries:
    """The explicit shapes merge loops get wrong first."""

    EMPTY = frozenset()
    CASES = [
        (EMPTY, EMPTY),
        (EMPTY, frozenset({1, 2, 3})),
        (frozenset({1, 2, 3}), EMPTY),
        (frozenset({1, 2, 3}), frozenset({4, 5, 6})),      # disjoint
        (frozenset({1, 2, 3}), frozenset({1, 2, 3})),      # identical
        (frozenset({7}), frozenset({7})),                  # single, equal
        (frozenset({7}), frozenset({8})),                  # single, disjoint
        (frozenset({1, 3, 5}), frozenset({2, 3, 4})),      # interleaved
    ]

    @pytest.mark.parametrize("a,b", CASES)
    def test_kernels_on_boundary_shapes(self, a, b):
        ea, eb = Extent.from_iterable(a), Extent.from_iterable(b)
        assert list(extent_intersect(ea, eb)) == sorted(a & b)
        assert list(extent_union(ea, eb)) == sorted(a | b)
        assert list(extent_difference(ea, eb)) == sorted(a - b)
        assert extent_is_subset(ea, eb) == (a <= b)

    def test_empty_extent_is_falsy(self):
        assert not Extent.from_iterable([])
        assert Extent.from_iterable([0])


class TestDifferentialMode:
    @given(a=oid_sets, b=oid_sets)
    @settings(max_examples=50, deadline=None)
    def test_correct_kernels_pass_the_guard(self, a, b):
        with differential_checks():
            ea, eb = Extent.from_iterable(a), Extent.from_iterable(b)
            extent_intersect(ea, eb)
            extent_union(ea, eb)
            extent_difference(ea, eb)
            extent_is_subset(ea, eb)

    def test_divergence_raises(self, monkeypatch):
        """A broken kernel is caught the moment it runs under the
        differential context — the property ``repro verify`` relies on."""
        import repro.core.extents as extents

        def broken_guard_probe():
            a = Extent.from_iterable([1, 2, 3])
            b = Extent.from_iterable([2, 3, 4])
            wrong = Extent.from_sorted([1])
            extents._differential_guard("intersection", a, b, wrong)

        with pytest.raises(ExtentMismatch):
            broken_guard_probe()

    def test_context_restores_previous_state(self):
        import repro.core.extents as extents
        assert extents._DIFFERENTIAL is False
        with differential_checks():
            assert extents._DIFFERENTIAL is True
            with differential_checks(False):
                assert extents._DIFFERENTIAL is False
            assert extents._DIFFERENTIAL is True
        assert extents._DIFFERENTIAL is False
