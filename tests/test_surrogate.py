import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_network
from oracles import broadcast_build_table, brute_edge_score, path_norm_table
from tcprune import surrogate
from tcprune.errors import DomainError
from tcprune.linalg import row_normalize
from tcprune.network import LayeredNetwork
from tcprune.surrogate import build_table, log_score_matrix


def abs_chain_product(net, layer):
    """Plain |W[layer+1]| ... |W[L]| for the alpha = 1 cross-check."""
    out = np.eye(net.dims[-1])
    for w in reversed(net.weights[layer:]):
        out = np.abs(w) @ out
    return out


class TestBuildTable:
    def test_alpha_validation(self, rng):
        net = random_network(rng, (2, 2))
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(DomainError):
                build_table(net, bad)

    def test_identity_weights_any_alpha(self):
        eye = np.eye(3)
        net = LayeredNetwork((eye, eye, eye), ("identity",) * 3)
        for alpha in (1.0, 0.5, 0.01):
            table = build_table(net, alpha)
            for layer in range(1, 4):
                assert np.allclose(table.downstream(layer), np.eye(3))

    def test_alpha_one_equals_plain_product(self, rng):
        for _ in range(20):
            net = random_network(rng, (3, 4, 4, 2))
            table = build_table(net, 1.0)
            for layer in range(1, 4):
                want = abs_chain_product(net, layer)
                got = table.downstream(layer)
                denom = np.maximum(np.abs(want), 1e-300)
                assert (np.abs(got - want) / denom).max() <= 1e-9

    def test_alpha_one_matches_path_enumeration(self, rng):
        net = random_network(rng, (4, 4, 4, 4))
        table = build_table(net, 1.0)
        for layer in (1, 2, 3):
            want = path_norm_table(net, layer, 1.0)
            got = table.downstream(layer)
            mask = want > 0
            assert (np.abs(got[mask] - want[mask]) / want[mask]).max() <= 1e-9
            assert np.all(got[~mask] == 0.0)

    def test_small_alpha_approaches_max_product(self, rng):
        for _ in range(10):
            net = random_network(rng, (4, 5, 4, 3))
            best = path_norm_table(net, 1, 1e-9)  # effectively the max product
            got = build_table(net, 1e-3).downstream(1)
            mask = best > 0
            rel = np.abs(got[mask] - best[mask]) / best[mask]
            assert rel.max() <= 0.01

    def test_entries_dominate_max_product_and_decrease_with_alpha(self, rng):
        net = random_network(rng, (3, 4, 4, 2))
        best = path_norm_table(net, 1, 1e-9)
        prev = None
        for alpha in (1.0, 0.5, 0.1, 1e-3):
            cur = build_table(net, alpha).downstream(1)
            assert (cur >= best - 1e-9 * np.maximum(best, 1.0)).all()
            if prev is not None:
                assert (cur <= prev + 1e-9 * np.maximum(prev, 1.0)).all()
            prev = cur

    def test_markov_rows_sum_to_one(self, rng):
        weights = tuple(
            row_normalize(np.abs(rng.standard_normal(s)) + 0.05)
            for s in ((3, 4), (4, 4), (4, 2))
        )
        net = LayeredNetwork(weights, ("identity",) * 3)
        table = build_table(net, 1.0)
        for layer in (1, 2):
            sums = table.downstream(layer).sum(axis=1)
            assert np.abs(sums - 1.0).max() <= 1e-9

    def test_scale_covariance_alpha_one(self, rng):
        net = random_network(rng, (3, 4, 4, 2))
        c = 7.5
        scaled = LayeredNetwork(
            (net.weights[0], c * net.weights[1], net.weights[2]), net.activations
        )
        base = build_table(net, 1.0)
        big = build_table(scaled, 1.0)
        got = big.downstream(1)
        want = c * base.downstream(1)
        denom = np.maximum(np.abs(want), 1e-300)
        assert (np.abs(got - want) / denom).max() <= 1e-12
        # layer-2 argmax decisions are untouched by the layer-2 scale
        s_base = log_score_matrix(net, 2, base)
        s_big = log_score_matrix(scaled, 2, big)
        assert np.array_equal(s_base.argmax(axis=1), s_big.argmax(axis=1))

    def test_extreme_inner_power_never_silently_overflows(self, rng):
        # magnitudes up to 1e7 with 1/alpha = 50 would overflow any linear
        # evaluation of the inner power; log-domain tables must stay finite
        # on the nonzero pattern and keep the argmax structure intact
        weights = tuple(1e7 * rng.standard_normal(s) for s in ((3, 4), (4, 4), (4, 2)))
        net = LayeredNetwork(weights, ("identity",) * 3)
        table = build_table(net, 1.0 / 50.0)
        for layer in (1, 2, 3):
            logs = table.log_downstream[layer - 1]
            assert not np.isnan(logs).any()
            assert not np.isposinf(logs).any()
        s = log_score_matrix(net, 1, table)
        assert np.isfinite(s).all()

    def test_traced_peak_is_not_cubic(self):
        rng = np.random.default_rng(0)
        net = random_network(rng, (32, 256, 256, 256))
        tracemalloc.start()
        try:
            build_table(net, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one broadcast (256, 256, 256) float64 tensor alone is 128 MiB
        assert peak < 16 * 2**20


class TestAgainstBroadcastOracle:
    @given(
        seed=st.integers(0, 10_000),
        hidden=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        d_out=st.integers(2, 12),
        zero_frac=st.floats(0.0, 0.9),
        log10_scale=st.floats(-3.0, 3.0),
        inv_alpha=st.floats(1.0, 1000.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_when_d_out_at_least_two(
        self, seed, hidden, d_out, zero_frac, log10_scale, inv_alpha
    ):
        rng = np.random.default_rng(seed)
        # zero weights are -inf entries of the log tables
        weights = tuple(
            np.where(rng.random(w.shape) < zero_frac, 0.0, w * 10.0**log10_scale)
            for w in random_network(rng, (*hidden, d_out)).weights
        )
        net = LayeredNetwork(weights, ("identity",) * len(weights))
        got = build_table(net, 1.0 / inv_alpha).log_downstream
        want = broadcast_build_table(net, 1.0 / inv_alpha)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_single_output_within_float_rounding(self, rng):
        # with d_out == 1 the broadcast sum over j is numpy's pairwise sum
        net = random_network(rng, (8, 200, 300, 1))
        for alpha in (1.0, 0.1, 1e-3):
            got = build_table(net, alpha).log_downstream
            for g, w in zip(got, broadcast_build_table(net, alpha)):
                assert np.all(np.abs(g - w) <= 1e-15 * np.abs(w))


def _spy_blocks(monkeypatch, fail_in_worker=None):
    """Record the row count of every block _lse_rows computes; optionally
    raise in the block run by a worker thread (True) or by the thread that
    called _lse_matmul, named "caller" (False)."""
    seen = []
    plain = surrogate._lse_rows

    def spy(a, b):
        seen.append(a.shape[0])
        in_worker = threading.current_thread().name != "caller"
        if fail_in_worker is not None and in_worker == fail_in_worker:
            raise ValueError("block failed")
        return plain(a, b)

    monkeypatch.setattr(surrogate, "_lse_rows", spy)
    return seen


class TestRowBlocks:
    @given(
        seed=st.integers(0, 10_000),
        cpus=st.sampled_from([1, 2, 3, 8]),
        d_out=st.sampled_from([1, 3, 10, 256, 2**15 + 1, 2**16 + 3]),
        blocks=st.integers(1, 9),
        nudge=st.integers(-1, 1),
        inner=st.integers(1, 4),
        inf_row=st.booleans(),
        inf_col=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_is_bit_identical_to_one_block(
        self, seed, cpus, d_out, blocks, nudge, inner, inf_row, inf_col
    ):
        # rows * d_out lands just under, on or over blocks * 2**15; the
        # widest outputs have fewer rows than blocks
        rows = max(1, -(-(blocks << 15) // d_out) + nudge)
        rng = np.random.default_rng(seed)
        a = 3.0 * rng.standard_normal((rows, inner))
        b = 3.0 * rng.standard_normal((inner, d_out))
        a[rng.random(a.shape) < 0.2] = -np.inf
        if inf_row:
            a[rng.integers(rows)] = -np.inf
        if inf_col:
            b[:, rng.integers(d_out)] = -np.inf
        want = surrogate._lse_rows(a, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(surrogate, "_usable_cpus", lambda: cpus)
            got = surrogate._lse_matmul(a, b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_gate(self, monkeypatch):
        seen = _spy_blocks(monkeypatch)
        monkeypatch.setattr(surrogate, "_usable_cpus", lambda: 8)
        rng = np.random.default_rng(0)
        for (rows, inner, d_out), want in (
            ((256, 256, 256), [128, 128]),
            ((60, 240, 4), [60]),
            ((512, 512, 10), [512]),
            ((3, 2, 2**16), [1, 1, 1]),
        ):
            seen.clear()
            surrogate._lse_matmul(
                rng.standard_normal((rows, inner)), rng.standard_normal((inner, d_out))
            )
            assert sorted(seen) == want

    def test_usable_cpus_without_affinity(self, monkeypatch):
        assert surrogate._usable_cpus() >= 1
        monkeypatch.delattr(surrogate.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(surrogate.os, "cpu_count", lambda: None)
        assert surrogate._usable_cpus() == 1

    @pytest.mark.parametrize("fail_in_worker", [True, False])
    def test_block_error_reaches_caller(self, monkeypatch, fail_in_worker):
        seen = _spy_blocks(monkeypatch, fail_in_worker)
        monkeypatch.setattr(surrogate, "_usable_cpus", lambda: 2)
        net = random_network(np.random.default_rng(0), (2, 256, 256, 256))
        raised = []

        def call():
            try:
                build_table(net, 0.5)
            except ValueError as exc:
                raised.append(exc)

        before = threading.active_count()
        caller = threading.Thread(target=call, name="caller")
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert [str(e) for e in raised] == ["block failed"]
        assert seen == [128, 128]
        assert threading.active_count() == before

    def test_each_block_sets_its_own_errstate(self, monkeypatch):
        seen = _spy_blocks(monkeypatch)
        monkeypatch.setattr(surrogate, "_usable_cpus", lambda: 2)
        rng = np.random.default_rng(0)
        w = random_network(rng, (2, 256, 256, 256)).weights
        net = LayeredNetwork((w[0], np.zeros_like(w[1]), w[2]), ("identity",) * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = build_table(net, 0.1)
        assert seen == [128, 128]
        assert np.isneginf(table.log_downstream[0]).all()


def score(net, layer, i, j, table=None) -> float:
    """One connection's score, read off the layer's log score matrix."""
    return float(np.exp(log_score_matrix(net, layer, table))[i, j])


class TestEdgeScore:
    def test_last_layer_is_plain_magnitude(self, rng):
        net = random_network(rng, (3, 4, 2))
        table = build_table(net, 1.0)
        for i in range(4):
            for j in range(2):
                assert score(net, 2, i, j, table) == pytest.approx(
                    abs(net.weights[1][i, j]), rel=1e-12
                )

    def test_single_path_network(self, rng):
        weights = (np.array([[2.0]]), np.array([[-3.0]]), np.array([[0.5]]))
        net = LayeredNetwork(weights, ("identity",) * 3)
        table = build_table(net, 1.0)
        assert score(net, 1, 0, 0, table) == pytest.approx(2.0 * 3.0 * 0.5)

    def test_argmax_matches_brute_force(self, rng):
        for _ in range(10):
            net = random_network(rng, (3, 3, 3, 2))
            table = build_table(net, 1.0)
            for i in range(3):
                got = [score(net, 1, i, j, table) for j in range(3)]
                want = [brute_edge_score(net, 1.0, 1, i, j) for j in range(3)]
                assert np.argmax(got) == np.argmax(want)
                assert np.allclose(got, want, rtol=1e-9)

    def test_hand_example_compares_downstream(self):
        w1 = np.array([[5.0, 1.0], [2.0, 1.0]])
        w2 = np.array([[3.0, 1.0], [4.0, 1.0]])
        net = LayeredNetwork((w1, w2), ("identity", "identity"))
        table = build_table(net, 1.0)
        # sum over k beats: 5 * max(3,1) = 15 vs 1 * max(4,1) = 4
        assert score(net, 1, 0, 0, table) == pytest.approx(15.0)
        assert score(net, 1, 0, 1, table) == pytest.approx(4.0)

    def test_flip_example_with_weak_downstream(self):
        w1 = np.array([[5.0, 1.0], [2.0, 1.0]])
        w2 = np.array([[0.1, 0.1], [4.0, 1.0]])
        net = LayeredNetwork((w1, w2), ("identity", "identity"))
        table = build_table(net, 1.0)
        assert score(net, 1, 0, 1, table) > score(net, 1, 0, 0, table)

    def test_index_errors(self, rng):
        net = random_network(rng, (2, 2))
        table = build_table(net, 1.0)
        with pytest.raises(IndexError):
            score(net, 1, 2, 0, table)
        for layer in (0, 2, 3, -1):
            with pytest.raises(IndexError):
                log_score_matrix(net, layer, table)
            with pytest.raises(IndexError):
                log_score_matrix(net, layer)


class TestLocalScore:
    def test_absolute_value(self, rng):
        net = LayeredNetwork((np.array([[-3.0, 0.0]]),), ("identity",))
        assert score(net, 1, 0, 0) == pytest.approx(3.0, rel=1e-15)
        assert score(net, 1, 0, 1) == 0.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_row_ordering_matches_magnitudes(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, (3, 5))
        for i in range(3):
            scores = [score(net, 1, i, j) for j in range(5)]
            assert np.array_equal(np.argsort(scores), np.argsort(np.abs(net.weights[0][i])))
