import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mask_tensor, small_dims
from oracles import (
    consistent_subsets,
    dfs_connection_flags,
    dfs_consistent_set,
    fancy_index_report,
    subset_mask,
)
from tcprune.network import MaskTensor
from tcprune.topology import consistency_report, report_to_json, trim_to_consistent


def mask_from_lists(*layers):
    return MaskTensor(tuple(np.asarray(m, dtype=bool) for m in layers))


def flags(mask, layer, i, j):
    """(accessible, coaccessible) of connection (layer, i -> j), read off the report."""
    report = consistency_report(mask)
    return (bool(report.per_layer_accessible[layer - 1][i, j]),
            bool(report.per_layer_coaccessible[layer - 1][i, j]))


class TestConnectionFlags:
    def test_layer_one_always_accessible(self, rng):
        mask = random_mask_tensor(rng, (3, 4, 2), density=0.3)
        assert consistency_report(mask).per_layer_accessible[0].all()

    def test_last_layer_always_coaccessible(self, rng):
        mask = random_mask_tensor(rng, (3, 4, 2), density=0.3)
        assert consistency_report(mask).per_layer_coaccessible[-1].all()

    def test_chain_with_dangling_edge(self):
        # full chain 0->0->0 plus a layer-2 edge into a neuron with no
        # outgoing layer-3 edge: accessible but not co-accessible
        mask = mask_from_lists(
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[1, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        )
        for layer in range(1, 4):
            assert flags(mask, layer, 0, 0) == (True, True)
        assert flags(mask, 2, 0, 1) == (True, False)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_dfs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(rng.integers(1, 5, size=rng.integers(3, 6)))  # depths 2-4
        mask = random_mask_tensor(rng, dims, density=float(rng.uniform(0.1, 0.7)))
        report = consistency_report(mask)
        for layer in range(1, mask.depth + 1):
            accessible = report.per_layer_accessible[layer - 1]
            coaccessible = report.per_layer_coaccessible[layer - 1]
            assert accessible.shape == coaccessible.shape == mask.masks[layer - 1].shape
            for i in range(accessible.shape[0]):
                for j in range(accessible.shape[1]):
                    got = (bool(accessible[i, j]), bool(coaccessible[i, j]))
                    assert got == dfs_connection_flags(mask, layer, i, j)


class TestConsistencyReport:
    def test_full_mask_is_fully_consistent(self, rng):
        mask = MaskTensor((np.ones((3, 4), bool), np.ones((4, 2), bool)))
        report = consistency_report(mask)
        assert report.ac_percentage == 100.0
        assert report.consistent_count == report.kept_count == 20

    def test_single_complete_chain(self):
        mask = mask_from_lists([[1, 0], [0, 0]], [[1, 0], [0, 0]])
        assert consistency_report(mask).ac_percentage == 100.0

    def test_empty_mask_has_undefined_percentage(self):
        mask = mask_from_lists([[0, 0], [0, 0]], [[0, 0], [0, 0]])
        report = consistency_report(mask)
        assert report.kept_count == 0
        assert report.ac_percentage is None

    def test_counts_only_kept_positions(self):
        # dangling layer-1 edge into neuron 1 (no outgoing edge kept)
        mask = mask_from_lists([[1, 1], [0, 0]], [[1, 0], [0, 0]])
        report = consistency_report(mask)
        assert report.kept_count == 3
        assert report.consistent_count == 2
        assert report.ac_percentage == pytest.approx(100.0 * 2 / 3)

    def test_matches_dfs_consistent_set(self, rng):
        for _ in range(20):
            dims = tuple(rng.integers(1, 5, size=4))
            mask = random_mask_tensor(rng, dims, density=0.4)
            report = consistency_report(mask)
            want = dfs_consistent_set(mask)
            got = sum(int(w.sum()) for w in want)
            assert report.consistent_count == got

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_fancy_index_oracle(self, seed):
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(1, 6))
        dims = tuple(rng.integers(1, 7, size=depth + 1))
        mask = random_mask_tensor(rng, dims, density=float(rng.uniform(0.0, 0.9)))
        report = consistency_report(mask)
        want = fancy_index_report(mask)
        for name in ("kept_count", "consistent_count", "ac_percentage"):
            assert getattr(report, name) == want[name]
            assert type(getattr(report, name)) is type(want[name])
        for name in ("per_layer_accessible", "per_layer_coaccessible"):
            got = getattr(report, name)
            assert len(got) == len(want[name])
            for g, w in zip(got, want[name]):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w)
        for views in (report.per_layer_accessible, report.per_layer_coaccessible):
            assert not any(v.flags.writeable for v in views)

    def test_flags_are_built_once_per_report(self, rng):
        report = consistency_report(random_mask_tensor(rng, (3, 4, 4, 2)))
        for name in ("per_layer_accessible", "per_layer_coaccessible"):
            first, second = getattr(report, name), getattr(report, name)
            assert first is second
            for view in first:
                assert not view.flags.writeable and 0 in view.strides

    def test_json_sentinel(self):
        empty = mask_from_lists([[0]], [[0]])
        payload = json.loads(report_to_json(consistency_report(empty)))
        assert payload == {"kept": 0, "consistent": 0, "ac_percent": None}
        full = mask_from_lists([[1]], [[1]])
        payload = json.loads(report_to_json(consistency_report(full)))
        assert payload == {"kept": 2, "consistent": 2, "ac_percent": 100.0}


class TestLocalRule:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_report(self, seed):
        """A non-empty mask is fully consistent exactly when every kept
        connection has a kept connection into its source (unless in layer 1)
        and out of its target (unless in the last layer)."""
        rng = np.random.default_rng(seed)
        dims = small_dims(rng, 16)
        ok = consistent_subsets(dims)
        # eight masks drawn uniformly, mostly inconsistent, and eight the rule passes
        subsets = np.concatenate([rng.integers(1, ok.size, size=8),
                                  rng.choice(np.flatnonzero(ok[1:]) + 1, size=8)])
        for s in subsets.tolist():
            assert ok[s] == (consistency_report(subset_mask(dims, s)).ac_percentage == 100.0)


class TestTrim:
    def test_consistent_mask_unchanged(self):
        mask = mask_from_lists([[1, 0], [0, 1]], [[1, 0], [0, 1]])
        out = trim_to_consistent(mask)
        for a, b in zip(out.masks, mask.masks):
            assert np.array_equal(a, b)

    def test_single_dangling_edge_removed(self):
        mask = mask_from_lists([[1, 1], [0, 0]], [[1, 0], [0, 0]])
        out = trim_to_consistent(mask)
        assert np.array_equal(out.masks[0], [[True, False], [False, False]])
        assert np.array_equal(out.masks[1], [[True, False], [False, False]])

    def test_zero_last_layer_empties_everything(self, rng):
        mask = MaskTensor((rng.random((3, 4)) < 0.8, np.zeros((4, 2), bool)))
        assert trim_to_consistent(mask).kept_count == 0

    def test_cascading_removal(self):
        # layer 3 keeps nothing, so on the original mask no neuron reaches the
        # output: the accessible layer-1 and layer-2 edges are not
        # co-accessible, and the one pass drops them with the rest
        mask = mask_from_lists(
            [[0, 1], [0, 0]],
            [[0, 0], [0, 1]],
            [[0, 0], [0, 0]],
        )
        assert trim_to_consistent(mask).kept_count == 0

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_consistent(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(rng.integers(1, 6, size=rng.integers(3, 5)))
        mask = random_mask_tensor(rng, dims, density=float(rng.uniform(0.2, 0.8)))
        once = trim_to_consistent(mask)
        twice = trim_to_consistent(once)
        for a, b in zip(once.masks, twice.masks):
            assert np.array_equal(a, b)
        report = consistency_report(once)
        assert report.ac_percentage == 100.0 or report.kept_count == 0
        # trimmed mask is a subset of the input
        for trimmed, original in zip(once.masks, mask.masks):
            assert not (trimmed & ~original).any()

    def test_matches_dfs_survivors_on_one_pass_cases(self, rng):
        for _ in range(200):
            depth = int(rng.integers(1, 6))
            dims = tuple(rng.integers(1, 7, size=depth + 1))
            mask = random_mask_tensor(rng, dims, density=float(rng.uniform(0.1, 0.8)))
            survivors = dfs_consistent_set(mask)
            trimmed = trim_to_consistent(mask)
            # one pass keeps exactly the edges on a complete path of the input
            for t, s in zip(trimmed.masks, survivors):
                assert np.array_equal(t, s)


class TestMonotonicity:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_adding_a_bit_never_breaks_accessibility(self, seed):
        rng = np.random.default_rng(seed)
        dims = (3, 3, 3)
        mask = random_mask_tensor(rng, dims, density=0.4)
        report = consistency_report(mask)
        # flip one 0-bit to 1
        layer = int(rng.integers(0, 2))
        zeros = np.argwhere(~mask.masks[layer])
        if zeros.size == 0:
            return
        i, j = zeros[rng.integers(0, len(zeros))]
        masks = [m.copy() for m in mask.masks]
        masks[layer][i, j] = True
        bigger = consistency_report(MaskTensor(tuple(masks)))
        for l in range(mask.depth):
            assert not (
                report.per_layer_accessible[l] & ~bigger.per_layer_accessible[l]
            ).any()
            assert not (
                report.per_layer_coaccessible[l] & ~bigger.per_layer_coaccessible[l]
            ).any()
