import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_network
from oracles import broadcast_build_table, brute_edge_score, path_norm_table
from tcprune import surrogate
from tcprune.errors import DomainError, ShapeError
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
        s_base = log_score_matrix(net, 2, base.row_maxima())
        s_big = log_score_matrix(scaled, 2, big.row_maxima())
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
        s = log_score_matrix(net, 1, table.row_maxima())
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


EPS = np.finfo(float).eps


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
        want = broadcast_build_table(net, 1.0 / inv_alpha)
        # the per-j loop adds the terms as the oracle does, bit for bit
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(surrogate, "_lse_matmul", surrogate._lse_rows)
            exact = build_table(net, 1.0 / inv_alpha).log_downstream
        assert len(exact) == len(want)
        for g, w in zip(exact, want):
            assert np.array_equal(g, w)
        # each shifted-product step is within TestShiftedProduct's bound, in
        # which |x|, |ra| and |cb| times alpha are log magnitudes of a table or
        # a weight, so at most m each; the steps' errors add up
        got = build_table(net, 1.0 / inv_alpha).log_downstream
        logs = np.concatenate([t[np.isfinite(t)] for t in (*want, net.log_magnitudes)])
        m = np.abs(logs).max(initial=0.0)
        tol = 2 * sum(net.dims) * EPS * (1.0 + 3.0 * m)
        for g, w in zip(got, want):
            assert np.array_equal(np.isneginf(g), np.isneginf(w))
            live = np.isfinite(w)
            assert np.all(np.abs(g[live] - w[live]) <= tol)

    def test_single_output_within_float_rounding(self, rng):
        # with d_out == 1 the broadcast sum over j is numpy's pairwise sum
        net = random_network(rng, (8, 200, 300, 1))
        for alpha in (1.0, 0.1, 1e-3):
            got = build_table(net, alpha).log_downstream
            for g, w in zip(got, broadcast_build_table(net, alpha)):
                assert np.all(np.abs(g - w) <= 1e-15 * np.abs(w))


class TestShiftedProduct:
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 40),
        inner=st.integers(1, 300),
        cols=st.integers(1, 40),
        log_sd=st.sampled_from([0.3, 1.0, 3.0, 20.0]),
        inv_alpha=st.floats(1.0, 1000.0),
        hole_frac=st.floats(0.0, 0.9),
        inf_row=st.booleans(),
        inf_col=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_j_loop(
        self, seed, rows, inner, cols, log_sd, inv_alpha, hole_frac, inf_row, inf_col
    ):
        # |out - ref| <= 2 d eps (1 + |x| + |ra| + |cb|): shifts that cancel
        # in x keep their absolute rounding
        rng = np.random.default_rng(seed)
        a = log_sd * inv_alpha * rng.standard_normal((rows, inner))
        b = log_sd * inv_alpha * rng.standard_normal((inner, cols))
        a[rng.random(a.shape) < hole_frac] = -np.inf
        b[rng.random(b.shape) < hole_frac] = -np.inf
        if inf_row:
            a[rng.integers(rows)] = -np.inf
        if inf_col:
            b[:, rng.integers(cols)] = -np.inf
        got = surrogate._lse_matmul(a, b)
        want = surrogate._lse_rows(a, b)
        assert got.shape == want.shape
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        assert not np.isnan(got).any()
        # a finite entry has a finite row max ra and column max cb
        ra, cb = a.max(axis=1, keepdims=True), b.max(axis=0, keepdims=True)
        live = np.isfinite(want)
        size = (np.abs(want) + np.abs(ra) + np.abs(cb))[live]
        assert np.all(np.abs(got[live] - want[live]) <= 2 * inner * EPS * (1.0 + size))

    def test_underflowing_row_is_redone_exactly(self):
        # each term is exp(-800) on its shifted side and exp(0) on the other:
        # the product sums to 0, the exact value is -800 + log 2
        a = np.array([[0.0, -800.0], [0.0, 0.0]])
        b = np.array([[-800.0, 0.0], [0.0, 0.0]])
        got = surrogate._lse_matmul(a, b)
        assert got[0, 0] == surrogate._lse_rows(a[:1], b)[0, 0]
        assert got[0, 0] == pytest.approx(-800.0 + np.log(2.0), rel=1e-15)
        assert np.allclose(got[1], [0.0, np.log(2.0)])

    def test_heavy_tailed_weights_fall_back_on_every_row(self, monkeypatch):
        # log|w| with standard deviation 20 at alpha 0.02: every row has an
        # entry whose shifted product sum underflows
        rng = np.random.default_rng(0)
        a = 20.0 * rng.standard_normal((256, 256)) / 0.02
        b = 20.0 * rng.standard_normal((256, 256)) / 0.02
        want = surrogate._lse_rows(a, b)
        redone = []
        plain = surrogate._lse_rows

        def spy(a, b):
            redone.append(a.shape[0])
            return plain(a, b)

        monkeypatch.setattr(surrogate, "_lse_rows", spy)
        got = surrogate._lse_matmul(a, b)
        assert redone == [256]
        assert got.tobytes() == want.tobytes()

    def test_zero_layer_gives_all_neg_inf_without_warning(self):
        rng = np.random.default_rng(0)
        w = random_network(rng, (2, 256, 256, 256)).weights
        net = LayeredNetwork((w[0], np.zeros_like(w[1]), w[2]), ("identity",) * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = build_table(net, 0.1)
        assert np.isneginf(table.log_downstream[0]).all()


def score(net, layer, i, j, table=None) -> float:
    """One connection's score, read off the layer's log score matrix."""
    maxima = None if table is None else table.row_maxima()
    return float(np.exp(log_score_matrix(net, layer, maxima))[i, j])


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
                log_score_matrix(net, layer, table.row_maxima())
            with pytest.raises(IndexError):
                log_score_matrix(net, layer)

    def test_row_maxima_of_another_shape_rejected(self, rng):
        net = random_network(rng, (2, 3, 2))
        other = build_table(random_network(rng, (2, 4, 2)), 1.0).row_maxima()
        with pytest.raises(ShapeError):
            log_score_matrix(net, 1, other)


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
