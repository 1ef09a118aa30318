import hashlib
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_network, small_dims
from oracles import (
    OracleSaturation,
    argsort_ranked_steps,
    argsort_top_k,
    best_consistent_mask,
    bfs_in_order,
    choice_cdf,
    choice_table,
    greedy_chain_oracle,
    gumbel_from_words,
    gumbel_keys,
    gumbel_top_k,
    magnitudes,
    sequential_tc_mp_trace,
    stochastic_chain_oracle,
    unique_sampled_steps,
)
from tcprune.errors import BudgetError, DegenerateDistributionError, DomainError, SaturationError
from tcprune import parallel, pruner
from tcprune.gcn import GcnShape, as_layered, init_model
from tcprune.network import LayeredNetwork, budget, total_connections
from tcprune.pruner import (
    ChainTrace,
    PruneSpec,
    _bracket,
    _chain_draws,
    _chain_tables,
    _choice_tables,
    _cut,
    _gumbel_top_k,
    _order_prefix,
    _ranked_steps,
    _sampled_steps,
    _top_k,
    prune,
    standard_mp,
    stochastic_mp,
    tc_mp,
    tc_mp_trace,
)
from tcprune.surrogate import build_table, log_score_matrix
from tcprune.topology import consistency_report, trim_to_consistent


def rate_for_kept(total: int, kept: int) -> float:
    """Rate whose floor budget is exactly `kept` connections."""
    return max(0.0, 1.0 - (kept + 0.5) / total)


def net_1_to_12():
    w1 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    w2 = np.array([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
    return LayeredNetwork((w1, w2), ("identity", "identity"))


class TestStandardMp:
    def test_rate_zero_keeps_everything(self, rng):
        net = random_network(rng, (3, 4, 2))
        assert standard_mp(net, 0.0).kept_count == 20

    def test_keeps_three_largest(self):
        mask = standard_mp(net_1_to_12(), 0.75)
        assert mask.kept_count == 3
        assert not mask.masks[0].any()
        assert np.array_equal(mask.masks[1], [[False, False], [False, True], [True, True]])

    def test_matches_sort_oracle(self, rng):
        for _ in range(20):
            net = random_network(rng, (4, 5, 3))
            rate = float(rng.uniform(0.1, 0.9))
            mask = standard_mp(net, rate)
            entries = sorted(
                (
                    (-abs(w[i, j]), l, i, j)
                    for l, w in enumerate(net.weights)
                    for i in range(w.shape[0])
                    for j in range(w.shape[1])
                ),
            )
            want = set((l, i, j) for _, l, i, j in entries[: budget(net, rate).max_kept])
            got = set(
                (l, i, j)
                for l, m in enumerate(mask.masks)
                for i, j in np.argwhere(m)
            )
            assert got == want

    def test_tie_break_prefers_lowest_position(self):
        w1 = np.array([[2.0, 2.0]])
        w2 = np.array([[2.0], [2.0]])
        net = LayeredNetwork((w1, w2), ("identity", "identity"))
        mask = standard_mp(net, rate_for_kept(4, 2))
        assert np.array_equal(mask.masks[0], [[True, True]])
        assert not mask.masks[1].any()


class TestStochasticMp:
    def test_rate_zero_keeps_everything(self, rng):
        net = random_network(rng, (2, 3, 2))
        for seed in (0, 1, 99):
            assert stochastic_mp(net, 0.0, seed).kept_count == 12

    def test_deterministic_given_seed(self, rng):
        net = random_network(rng, (4, 5, 3))
        a = stochastic_mp(net, 0.6, seed=42)
        b = stochastic_mp(net, 0.6, seed=42)
        for ma, mb in zip(a.masks, b.masks):
            assert np.array_equal(ma, mb)

    def test_equal_weights_sampled_uniformly(self):
        net = LayeredNetwork(
            (np.array([[1.0]]), np.array([[1.0]])), ("identity", "identity")
        )
        rate = rate_for_kept(2, 1)
        hits = sum(stochastic_mp(net, rate, seed).masks[0][0, 0] for seed in range(10_000))
        assert abs(hits / 10_000 - 0.5) <= 0.02

    def test_magnitude_biased(self):
        net = LayeredNetwork(
            (np.array([[3.0]]), np.array([[1.0]])), ("identity", "identity")
        )
        rate = rate_for_kept(2, 1)
        hits = sum(stochastic_mp(net, rate, seed).masks[0][0, 0] for seed in range(10_000))
        assert abs(hits / 10_000 - 0.75) <= 0.02

    def test_all_zero_weights_rejected(self):
        net = LayeredNetwork((np.zeros((2, 2)),), ("identity",))
        with pytest.raises(DegenerateDistributionError):
            stochastic_mp(net, 0.5, seed=0)


def weights_of(kind: str, seed: int, dims: tuple[int, ...]) -> LayeredNetwork:
    """Random weights; "zeros" zeroes about 30 % of them, "mostly_zeros" 97 %
    (more than any budget here but rate 0 keeps), "equal" gives every one
    magnitude 0.5."""
    rng = np.random.default_rng(seed)
    weights = []
    for a, b in zip(dims, dims[1:]):
        w = rng.standard_normal((a, b))
        if kind == "zeros":
            w[rng.random(w.shape) < 0.3] = 0.0
        elif kind == "mostly_zeros":
            w[rng.random(w.shape) < 0.97] = 0.0
        elif kind == "equal":
            w = np.where(w < 0, -0.5, 0.5)
        weights.append(w)
    return LayeredNetwork(tuple(weights), ("identity",) * (len(dims) - 1))


class TestGumbelTopK:
    """stochastic_mp's keys from raw words and a band of exact keys, against
    the top-k of np.log(|w|) + Generator.gumbel."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("rate", [0.0, 0.5, 0.9, 0.99, 0.999])
    @pytest.mark.parametrize("kind", ["normal", "zeros", "mostly_zeros", "equal"])
    def test_matches_gumbel_oracle(self, seed, rate, kind):
        net = weights_of(kind, seed, (64, 128, 32))
        got = stochastic_mp(net, rate, seed)
        assert got.kept_count == budget(net, rate).max_kept
        for g, w in zip(got.masks, gumbel_top_k(net, rate, seed)):
            assert np.array_equal(g, w)

    def test_draws_from_words_match_generator(self):
        # the exact keys rest on libm's log giving numpy's draws bit for bit
        words = np.random.PCG64(11).random_raw(20_000)
        want = np.random.default_rng(11).gumbel(size=20_000)
        assert np.array_equal(gumbel_from_words(words), want)

    @staticmethod
    def select(logs: np.ndarray, words: np.ndarray, max_kept: int):
        drawn = words.copy()
        asked = []

        def word(i: int) -> int:
            asked.append(i)
            return int(drawn[i])

        return _gumbel_top_k(logs, words, max_kept, word), asked

    @staticmethod
    def exact_top_k(logs: np.ndarray, words: np.ndarray, max_kept: int) -> np.ndarray:
        keys = logs + gumbel_from_words(words)
        chosen = np.zeros(keys.size, dtype=bool)
        chosen[np.argsort(-keys, kind="stable")[:max_kept]] = True
        return chosen

    def test_word_numpy_redraws_falls_back(self):
        logs = np.log(np.random.default_rng(2).random(50))
        words = np.random.PCG64(2).random_raw(50)
        words[17] = (1 << 11) - 1  # w >> 11 == 0: U == 1, which numpy redraws
        chosen, asked = self.select(logs, words, 10)
        assert chosen is None and asked == []

    @pytest.mark.parametrize("rate", [0.5, 0.9])
    @pytest.mark.parametrize("spare", [0, 7])
    def test_budget_past_the_nonzero_weights_draws_nothing(self, monkeypatch, rate, spare):
        # with max_kept - spare weights nonzero, the mask is all of them and
        # the lowest-index zeros whatever the draws, so none is drawn
        dense = weights_of("normal", 3, (16, 24, 8))
        flat, max_kept = magnitudes(dense), budget(dense, rate).max_kept
        flat[np.random.default_rng(3).permutation(flat.size)[max_kept - spare :]] = 0.0
        net = LayeredNetwork(
            (flat[:384].reshape(16, 24), flat[384:].reshape(24, 8)), ("identity",) * 2
        )
        monkeypatch.setattr(pruner, "_gumbel_top_k", None)
        got = stochastic_mp(net, rate, 3)
        assert got.kept_count == max_kept
        for g, w in zip(got.masks, gumbel_top_k(net, rate, 3)):
            assert np.array_equal(g, w)

    def test_word_reads_back_the_drawn_words(self, monkeypatch):
        # stochastic_mp's word(i) rewinds its generator to the call's start
        # and steps i words, so it returns words[i] as drawn, before and after
        # the keys overwrite the words' buffer
        real = pruner._gumbel_top_k
        sizes = []

        def checked(logs, words, max_kept, word):
            drawn = words.copy()
            probes = (0, 1, words.size // 2, words.size - 1)
            assert [word(i) for i in probes] == [int(drawn[i]) for i in probes]
            chosen = real(logs, words, max_kept, word)
            assert [word(i) for i in probes] == [int(drawn[i]) for i in probes]
            sizes.append(words.size)
            return chosen

        monkeypatch.setattr(pruner, "_gumbel_top_k", checked)
        net = weights_of("normal", 8, (64, 128, 32))
        for g, w in zip(stochastic_mp(net, 0.9, 8).masks, gumbel_top_k(net, 0.9, 8)):
            assert np.array_equal(g, w)
        assert sizes == [64 * 128 + 128 * 32]

    def test_fallbacks_give_the_gumbel_masks(self, monkeypatch):
        net = weights_of("normal", 4, (6, 9, 3))
        monkeypatch.setattr(pruner, "_gumbel_top_k", lambda *args: None)
        for rate in (0.5, 0.9):
            for g, w in zip(stochastic_mp(net, rate, 4).masks, gumbel_top_k(net, rate, 4)):
                assert np.array_equal(g, w)

    def test_band_ranks_exact_keys_then_index(self):
        # one word throughout: the keys tie where the logs do and differ by
        # 1e-13 steps elsewhere, all inside the band, which is then ranked
        # by exact key and, among equal ones, by lowest index
        logs = np.repeat(np.arange(8) * 1e-13, 5)[np.random.default_rng(5).permutation(40)]
        words = np.full(40, np.random.PCG64(5).random_raw(), dtype=np.uint64)
        for max_kept in (1, 7, 20, 39):
            chosen, asked = self.select(logs, words.copy(), max_kept)
            assert np.array_equal(chosen, self.exact_top_k(logs, words, max_kept))
            assert sorted(asked) == list(range(40))

    def test_random_words_read_back_only_past_the_band(self):
        logs = np.log(np.random.default_rng(6).random(5000))
        words = np.random.PCG64(6).random_raw(5000)
        chosen, asked = self.select(logs, words.copy(), 100)
        assert np.array_equal(chosen, self.exact_top_k(logs, words, 100))
        assert asked == []


class TestPlainMaskPin:
    """standard_mp and stochastic_mp masks on the bench's chain_prune nets at
    seed 1 (random normal weights, drawn in order from one generator), pinned
    by the sha256 of each mask's packed bits over both nets."""

    PINS = {
        ("standard", 0.9): "ac2207e453905b11c19588f9be17de250235fa7516d21a4da2a2e7fea7b97607",
        ("standard", 0.99): "f201a413e4c7cdbd7828c64b4dea8efc5c26f15d42f9ec3f9e558e187e866e2d",
        ("stochastic", 0.9): "1f53e0d4d5721287fbf71e3d9cf8735290ba71fdb4033db8a49ecef1ee3d799e",
        ("stochastic", 0.99): "9236ff0d56961064b878cabfc67b90b1b65a821a97aa82faca4dcf7281bd9701",
    }

    @pytest.fixture(scope="class")
    def nets(self):
        rng = np.random.default_rng(1)
        return [
            LayeredNetwork(
                tuple(rng.standard_normal((a, b)) for a, b in zip(dims, dims[1:])),
                ("relu",) * (len(dims) - 2) + ("softmax",),
            )
            for dims in ((128, 512, 512, 10), (256, 1024, 1024, 10))
        ]

    @pytest.mark.parametrize("pruner_name, rate", list(PINS))
    def test_masks_match_pin(self, nets, pruner_name, rate):
        digest = hashlib.sha256()
        for net in nets:
            if pruner_name == "standard":
                mask = standard_mp(net, rate)
            else:
                mask = stochastic_mp(net, rate, 0)
            assert mask.kept_count == budget(net, rate).max_kept
            for m in mask.masks:
                digest.update(np.packbits(m).tobytes())
        assert digest.hexdigest() == self.PINS[pruner_name, rate]


class TestTopK:
    """The linear-time top-k against a stable argsort of every key."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_argsort_oracle_with_ties(self, data):
        dims = data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
        net = LayeredNetwork(
            tuple(np.ones((a, b)) for a, b in zip(dims, dims[1:])), ("identity",) * (len(dims) - 1)
        )
        n = total_connections(net)
        pool = st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 2.0, np.inf])
        keys = np.array(data.draw(st.lists(pool, min_size=n, max_size=n)))
        max_kept = data.draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
        got = _top_k(net, keys, max_kept)
        want = argsort_top_k(net, keys, max_kept)
        assert got.kept_count == max_kept
        for g, w in zip(got.masks, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("rate", [0.9, 0.99])
    def test_pruners_match_argsort_oracle(self, rate):
        # weights rounded to one decimal: many tied magnitudes and exact zeros
        rng = np.random.default_rng(2024)
        dims = (64, 256, 256, 10)
        weights = tuple(
            np.round(rng.standard_normal((a, b)), 1) for a, b in zip(dims, dims[1:])
        )
        net = LayeredNetwork(weights, ("identity",) * 3)
        max_kept = budget(net, rate).max_kept
        flat = magnitudes(net)
        gumbel = gumbel_keys(net, 5)
        for got, keys in ((standard_mp(net, rate), flat), (stochastic_mp(net, rate, 5), gumbel)):
            for g, w in zip(got.masks, argsort_top_k(net, keys, max_kept)):
                assert np.array_equal(g, w)


def gcn_view_logs() -> np.ndarray:
    """log|w| of the default grid's GCN view, -inf at its structural zeros."""
    view = as_layered(init_model(GcnShape(heads=4, nodes=15, signal_dim=15, filters=16,
                                          num_classes=4), seed=0))
    return view.log_magnitudes


GCN_VIEW_LOGS = gcn_view_logs()


class TestCut:
    """`_cut` against numpy's full partition, through its sample bracket and
    its fallback."""

    @staticmethod
    def keys_of(kind: str, n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        if kind == "ties":
            return rng.choice([-np.inf, -1.0, 0.0, 0.5, 2.0], size=n)
        if kind == "inf_runs":  # random keys with runs of -inf
            keys = rng.standard_normal(n)
            for start in rng.integers(n, size=3):
                keys[start : start + int(rng.integers(1, n // 2 + 2))] = -np.inf
            return keys
        if kind == "constant":
            return np.full(n, 1.5)
        if kind == "sorted":
            return np.sort(rng.integers(-5, 6, size=n).astype(float))
        if kind == "reverse":
            return np.sort(rng.standard_normal(n))[::-1].copy()
        start = int(rng.integers(GCN_VIEW_LOGS.size - n + 1))  # "gcn": a window of the view
        return GCN_VIEW_LOGS[start : start + n].copy()

    @given(
        kind=st.sampled_from(["ties", "inf_runs", "constant", "sorted", "reverse", "gcn"]),
        n=st.integers(2, 400),
        sample=st.sampled_from([4, 8, 16, 64, 4096]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_full_partition(self, kind, n, sample, seed):
        keys = self.keys_of(kind, n, seed)
        before = keys.copy()
        with mock.patch.object(pruner, "_SAMPLE", sample):
            for k in range(1, n):
                got = _cut(keys, k)
                assert got == np.partition(keys, n - k)[n - k]
        assert np.array_equal(keys, before)  # the caller's keys are only read

    # Keys that are large exactly where the strided sample reads them: the
    # sample's bound holds only the sampled keys, fewer than max_kept = s + 1,
    # so the bracket misses and the cut is the full partition.
    @given(
        stride=st.integers(4, 8),
        extra=st.integers(0, 3),
        noise=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_sample_that_overstates_falls_back(self, stride, extra, noise, seed):
        n = 32 * stride + extra
        rng = np.random.default_rng(seed)
        keys = rng.random(n) - 2.0 if noise else np.zeros(n)
        keys[::stride] = 1.0
        s = keys[::stride].size
        with mock.patch.object(pruner, "_SAMPLE", 32):
            assert _bracket(keys, s + 1) is None
            assert _bracket(keys, s - 8).size >= s - 8  # a smaller cut finds its bracket
            for k in range(1, n):
                assert _cut(keys, k) == np.partition(keys, n - k)[n - k]

    # at rate 0.5 the cut falls among the structural zeros, so every key
    # reaches the bound and there is nothing to leave out
    @pytest.mark.parametrize("rate, brackets", [(0.5, False), (0.9, True), (0.99, True)])
    def test_gcn_view_keys_at_the_default_sample(self, rate, brackets):
        logs = GCN_VIEW_LOGS
        n = logs.size
        k = math.floor((1.0 - rate) * n)
        above = _bracket(logs, k)
        assert (above is not None) == brackets
        if brackets:
            assert k <= above.size < n // 2
        for keys in (logs, np.exp(logs)):
            for kk in (1, k, n // 2, n - 1):
                assert _cut(keys, kk) == np.partition(keys, n - kk)[n - kk]


class TestSelectStart:
    """Chain start neurons, read off the first step of each trace."""

    def test_round_robin(self, rng):
        net = random_network(rng, (3, 2))
        _, traces = tc_mp_trace(net, PruneSpec(rate=0.0, tc=True))
        assert [t.steps[0][1] for t in traces] == [0, 1, 2, 0, 1, 2]

    def test_stochastic_reproducible(self, rng):
        net = random_network(rng, (5, 2))
        spec = PruneSpec(rate=0.5, tc=True, stochastic=True, seed=3)
        a = [t.steps[0][1] for t in tc_mp_trace(net, spec)[1]]
        b = [t.steps[0][1] for t in tc_mp_trace(net, spec)[1]]
        assert len(a) >= 5
        assert a == b


class TestTcMp:
    def test_single_possible_chain(self):
        net = LayeredNetwork(
            (np.array([[2.0]]), np.array([[3.0]])), ("identity", "identity")
        )
        mask = tc_mp(net, PruneSpec(rate=rate_for_kept(2, 2), tc=True))
        assert mask.kept_count == 2

    def test_local_scoring_hand_trace(self):
        w1 = np.array([[5.0, 1.0], [2.0, 1.0]])
        w2 = np.array([[3.0, 1.0], [4.0, 1.0]])
        net = LayeredNetwork((w1, w2), ("identity", "identity"))
        mask, traces = tc_mp_trace(net, PruneSpec(rate=0.75, tc=True, scoring="local"))
        assert next(iter(traces)).steps == ((1, 0, 0), (2, 0, 0))
        assert np.array_equal(mask.masks[0], [[True, False], [False, False]])
        assert np.array_equal(mask.masks[1], [[True, False], [False, False]])

    def test_global_scoring_follows_downstream(self):
        w1 = np.array([[5.0, 1.0], [2.0, 1.0]])
        w2 = np.array([[3.0, 1.0], [4.0, 1.0]])
        net = LayeredNetwork((w1, w2), ("identity", "identity"))
        _, traces = tc_mp_trace(net, PruneSpec(rate=0.75, tc=True, scoring="global", alpha=1.0))
        assert next(iter(traces)).steps[0] == (1, 0, 0)  # 5 * max(3,1) beats 1 * max(4,1)

        flipped = LayeredNetwork(
            (w1, np.array([[0.1, 0.1], [4.0, 1.0]])), ("identity", "identity")
        )
        _, traces = tc_mp_trace(flipped, PruneSpec(rate=0.75, tc=True, scoring="global", alpha=1.0))
        assert next(iter(traces)).steps[0] == (1, 0, 1)  # 5 * 0.1 loses to 1 * 4

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_always_consistent(self, seed):
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 7, size=depth + 1))
        net = random_network(rng, dims)
        spec = PruneSpec(
            rate=float(rng.uniform(0.3, 0.9)),
            tc=True,
            stochastic=bool(rng.integers(0, 2)),
            scoring="global" if rng.integers(0, 2) else "local",
            alpha=float(rng.choice([1.0, 0.5, 0.1])),
            seed=seed,
        )
        if budget(net, spec.rate).max_kept < net.depth:
            return
        try:
            mask = tc_mp(net, spec)
        except SaturationError as exc:  # e.g. seed 4264: no mask to check
            assert exc.kept < exc.max_kept
            return
        assert consistency_report(mask).ac_percentage == 100.0

    def test_budget_window(self, rng):
        for _ in range(20):
            net = random_network(rng, (4, 6, 5, 3))
            rate = float(rng.uniform(0.3, 0.95))
            b = budget(net, rate)
            if b.max_kept < net.depth:
                continue
            mask = tc_mp(net, PruneSpec(rate=rate, tc=True, seed=1))
            assert b.max_kept <= mask.kept_count <= b.max_kept + net.depth - 1

    def test_deterministic_and_seeded_stochastic_reproducibility(self, rng):
        net = random_network(rng, (4, 5, 3))
        for stochastic in (False, True):
            spec = PruneSpec(rate=0.6, tc=True, stochastic=stochastic, seed=11)
            a, b = tc_mp(net, spec), tc_mp(net, spec)
            for ma, mb in zip(a.masks, b.masks):
                assert np.array_equal(ma, mb)

    def test_scale_invariance_per_layer(self, rng):
        net = random_network(rng, (4, 5, 4, 3))
        for scoring in ("local", "global"):
            spec = PruneSpec(rate=0.7, tc=True, scoring=scoring, alpha=1.0)
            base = tc_mp(net, spec)
            for layer in range(3):
                weights = list(net.weights)
                weights[layer] = 1000.0 * weights[layer]
                scaled_mask = tc_mp(LayeredNetwork(tuple(weights), net.activations), spec)
                for ma, mb in zip(base.masks, scaled_mask.masks):
                    assert np.array_equal(ma, mb)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_literal_greedy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(2, 4))
        dims = tuple(int(d) for d in rng.integers(1, 4, size=depth + 1))
        net = random_network(rng, dims)
        total = total_connections(net)
        kept_target = int(rng.integers(net.depth, total + 1))
        scoring = "global" if rng.integers(0, 2) else "local"
        rate = rate_for_kept(total, kept_target)
        try:
            want = greedy_chain_oracle(net, kept_target, scoring)
        except RuntimeError:
            with pytest.raises(SaturationError):
                tc_mp(net, PruneSpec(rate=rate, tc=True, scoring=scoring))
            return
        mask = tc_mp(net, PruneSpec(rate=rate, tc=True, scoring=scoring))
        for got, exp in zip(mask.masks, want):
            assert np.array_equal(got, exp)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_pointer_argmax_matches_oracle_with_ties(self, seed):
        # integer weights give many ties and exact zeros; widths up to 24
        # fill rows, so the full-row fallback runs
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(2, 4))
        dims = tuple(int(d) for d in rng.integers(2, 25, size=depth + 1))
        dims = (min(dims[0], 6),) + dims[1:-1] + (min(dims[-1], 4),)
        weights = tuple(
            rng.integers(-3, 4, size=(a, b)).astype(float) for a, b in zip(dims, dims[1:])
        )
        net = LayeredNetwork(weights, ("identity",) * depth)
        total = total_connections(net)
        for frac in (0.05, 0.3, 0.7, 1.0):
            kept_target = max(net.depth, int(frac * total))
            spec = PruneSpec(rate=rate_for_kept(total, kept_target), tc=True)
            try:
                want = greedy_chain_oracle(net, kept_target)
            except RuntimeError:
                with pytest.raises(SaturationError):
                    tc_mp(net, spec)
                continue
            mask = tc_mp(net, spec)
            for got, exp in zip(mask.masks, want):
                assert np.array_equal(got, exp)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_stochastic_matches_literal_choice_oracle(self, seed):
        # pins the random stream: same draws, same picks, same chains
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(1, 4))
        # small widths, and widths 2**k +- 1 whose search trees are full or
        # mostly padding
        widths = [1, 2, 3, 4, 5, 6, 7, 9, 15, 17, 31, 33]
        dims = tuple(int(d) for d in rng.choice(widths, size=depth + 1))
        weights = []
        for a, b in zip(dims, dims[1:]):
            w = rng.standard_normal((a, b))
            if rng.random() < 0.4:
                w[rng.integers(a)] = 0.0  # a row of zeros samples uniformly
            if rng.random() < 0.2:
                w[:, rng.integers(b)] = 0.0
            weights.append(w)
        net = LayeredNetwork(tuple(weights), ("identity",) * depth)
        total = total_connections(net)
        scoring = "global" if rng.integers(0, 2) else "local"
        alpha = float(rng.choice([1.0, 0.5, 0.1, 0.02]))
        # keeping everything saturates whenever some connection has weight 0
        kept_target = total if rng.random() < 0.3 else int(rng.integers(net.depth, total + 1))
        spec = PruneSpec(rate=rate_for_kept(total, kept_target), tc=True, stochastic=True,
                         scoring=scoring, alpha=alpha, seed=seed)
        maxima = build_table(net, alpha).row_maxima() if scoring == "global" else None
        scores = [log_score_matrix(net, layer, maxima) for layer in range(1, depth + 1)]
        max_kept = budget(net, spec.rate).max_kept
        try:
            want_masks, want_chains = stochastic_chain_oracle(scores, max_kept, seed)
        except OracleSaturation as exc:
            with pytest.raises(SaturationError) as got:
                tc_mp_trace(net, spec)
            assert got.value.kept == exc.kept
            return
        mask, traces = tc_mp_trace(net, spec)
        assert [(t.steps, t.newly_added) for t in traces] == want_chains
        for got, exp in zip(mask.masks, want_masks):
            assert np.array_equal(got, exp)

    def test_budget_smaller_than_depth_rejected(self, rng):
        net = random_network(rng, (2, 2, 2))
        with pytest.raises(BudgetError):
            tc_mp(net, PruneSpec(rate=rate_for_kept(8, 1), tc=True))

    def test_saturation_reports_progress(self):
        # greedy chains can never reach edge (2, 1 -> 1): once every row on
        # the argmax routes is full, a whole sweep adds nothing
        net = LayeredNetwork(
            (np.array([[5.0, 1.0]]), np.array([[3.0, 2.0], [9.0, 9.0]])),
            ("identity", "identity"),
        )
        with pytest.raises(SaturationError) as exc:
            tc_mp(net, PruneSpec(rate=0.0, tc=True))
        assert exc.value.kept == 5
        assert exc.value.max_kept == 6

    def test_trace_chains_connect_and_count(self, rng):
        net = random_network(rng, (3, 4, 2))
        mask, traces = tc_mp_trace(net, PruneSpec(rate=0.5, tc=True, seed=5))
        assert sum(t.newly_added for t in traces) == mask.kept_count
        rebuilt = [np.zeros(w.shape, bool) for w in net.weights]
        for trace in traces:
            for layer, i, j in trace.steps:
                rebuilt[layer - 1][i, j] = True
        for got, exp in zip(mask.masks, rebuilt):
            assert np.array_equal(got, exp)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_traces_are_connected_chains(self, seed):
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(1, 5))
        dims = tuple(int(d) for d in rng.integers(1, 8, size=depth + 1))
        net = random_network(rng, dims)
        total = total_connections(net)
        rate = rate_for_kept(total, int(rng.integers(net.depth, total + 1)))
        for stochastic in (False, True):
            for scoring in ("local", "global"):
                spec = PruneSpec(rate=rate, tc=True, stochastic=stochastic,
                                 scoring=scoring, alpha=0.5, seed=seed)
                try:
                    _, traces = tc_mp_trace(net, spec)
                except SaturationError:
                    continue
                assert traces
                for trace in traces:
                    assert len(trace.path) == depth + 1
                    assert all(0 <= v < d for v, d in zip(trace.path, dims))
                    # the steps keep their (layer, from, to) layout
                    assert [layer for layer, _, _ in trace.steps] == list(range(1, depth + 1))
                    for (_, _, to), (_, frm, _) in zip(trace.steps, trace.steps[1:]):
                        assert to == frm
                    for layer, i, j in trace.steps:
                        assert (i, j) == trace.path[layer - 1 : layer + 1]
                        assert 0 <= i < dims[layer - 1] and 0 <= j < dims[layer]


def tied_net(seed: int) -> LayeredNetwork:
    """Depth 2-3, widths 2-6, weights in -2..2: many ties, zeros, and stalls at rate 0."""
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(2, 4))
    dims = [int(d) for d in rng.integers(2, 7, size=depth + 1)]
    weights = tuple(rng.integers(-2, 3, size=(a, b)).astype(float) for a, b in zip(dims, dims[1:]))
    return LayeredNetwork(weights, ("identity",) * depth)


def wide_tied_net(seed: int, dims: tuple[int, ...]) -> LayeredNetwork:
    """Weights in -2..2 with three zero rows drawn per layer: every row's
    scores take at most three values, so its order rests on column ties."""
    rng = np.random.default_rng(seed)
    weights = []
    for a, b in zip(dims, dims[1:]):
        w = rng.integers(-2, 3, size=(a, b)).astype(float)
        w[rng.integers(a, size=3)] = 0.0
        weights.append(w)
    return LayeredNetwork(tuple(weights), ("identity",) * len(weights))


def blocks_of(gains: list[int], net: LayeredNetwork, max_kept: int) -> list[tuple[int, int]]:
    """(first chain, size) of each block tc_mp_trace runs, replayed from the
    chains' gains: max(d0, ceil(remaining budget / L)) chains a block."""
    blocks, chains, kept = [], 0, 0
    while chains < len(gains):
        size = max(net.dims[0], -(-(max_kept - kept) // net.depth))
        blocks.append((chains, size))
        kept += sum(gains[chains : chains + size])
        chains += size
    return blocks


def stalled_chains(excinfo) -> list:
    """The `traces` local of the tc_mp_trace frame that raised, as the bench reads it."""
    tb = excinfo.tb
    while tb.tb_frame.f_code is not tc_mp_trace.__code__:
        tb = tb.tb_next
    return [(t.path, t.newly_added) for t in tb.tb_frame.f_locals["traces"]]


def assert_matches_sequential(net: LayeredNetwork, spec: PruneSpec):
    """tc_mp_trace equals the one-chain-at-a-time loop: masks and chains, or
    SaturationError with the same kept count and the same chains so far.
    Returns the oracle's chains and whether it saturated."""
    try:
        want_masks, want = sequential_tc_mp_trace(net, spec)
    except SaturationError as exc:
        with pytest.raises(SaturationError) as got:
            tc_mp_trace(net, spec)
        assert (got.value.kept, got.value.max_kept) == (exc.kept, exc.max_kept)
        assert stalled_chains(got) == exc.chains
        return exc.chains, True
    mask, traces = tc_mp_trace(net, spec)
    assert [(t.path, t.newly_added) for t in traces] == want
    for g, w in zip(mask.masks, want_masks):
        assert np.array_equal(g, w)
    return want, False


class TestBlockLoop:
    """Chain selection a block at a time against the one-chain loop."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_sequential_oracle(self, data):
        depth = data.draw(st.integers(1, 3))
        dims = data.draw(st.lists(st.integers(1, 12), min_size=depth + 1, max_size=depth + 1))
        if data.draw(st.booleans()):
            dims[0] = 1
        weights = []
        for a, b in zip(dims, dims[1:]):
            values = data.draw(st.lists(st.integers(-2, 2), min_size=a * b, max_size=a * b))
            w = np.array(values, dtype=float).reshape(a, b)
            if data.draw(st.booleans()):
                w[data.draw(st.integers(0, a - 1))] = 0.0
            weights.append(w)
        net = LayeredNetwork(tuple(weights), ("identity",) * depth)
        total = total_connections(net)
        spec = PruneSpec(
            rate=rate_for_kept(total, data.draw(st.integers(depth, total))),
            stochastic=data.draw(st.booleans()),
            scoring=data.draw(st.sampled_from(["local", "global"])),
            alpha=data.draw(st.sampled_from([1.0, 0.5, 0.1])),
            seed=data.draw(st.integers(0, 2**16)),
        )
        assert_matches_sequential(net, spec)

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_budget_reached_mid_block(self, stochastic):
        net = tied_net(4)
        spec = PruneSpec(rate=0.5, stochastic=stochastic, seed=4)
        chains, saturated = assert_matches_sequential(net, spec)
        assert not saturated
        start, size = blocks_of([g for _, g in chains], net, budget(net, 0.5).max_kept)[-1]
        assert start + size > len(chains)  # the block ran past the last chain kept

    def test_stall_completed_mid_block(self):
        net = tied_net(18)
        chains, saturated = assert_matches_sequential(net, PruneSpec(rate=0.0))
        assert saturated
        start, size = blocks_of([g for _, g in chains], net, total_connections(net))[-1]
        assert start <= len(chains) - net.dims[0]  # the whole stall run is in this block
        assert start + size > len(chains)  # and chains after it were cut

    @pytest.mark.parametrize("seed, stochastic", [(1, False), (0, True)])
    def test_stall_run_spanning_blocks(self, seed, stochastic):
        net = tied_net(seed)
        spec = PruneSpec(rate=0.0, stochastic=stochastic, seed=seed)
        chains, saturated = assert_matches_sequential(net, spec)
        assert saturated
        limit = max(32 * net.dims[0], 1000) if stochastic else net.dims[0]
        start, _ = blocks_of([g for _, g in chains], net, total_connections(net))[-1]
        assert start > len(chains) - limit  # the run began in an earlier block

    @pytest.mark.parametrize("rate", [0.9, 0.99])
    @pytest.mark.parametrize("stochastic", [False, True])
    def test_seeded_wide_net(self, rate, stochastic):
        rng = np.random.default_rng(2024)
        dims = (64, 256, 256, 10)
        weights = tuple(rng.standard_normal((a, b)) for a, b in zip(dims, dims[1:]))
        net = LayeredNetwork(weights, ("identity",) * 3)
        spec = PruneSpec(rate=rate, stochastic=stochastic, seed=9)
        chains, saturated = assert_matches_sequential(net, spec)
        assert not saturated and len(chains) > 64

    # Deterministic chains through wide rows that tie throughout, at budgets
    # that fill them only partly. A narrow middle layer fills its rows early,
    # so later blocks read further into the wide rows before it than the
    # first block did, and their order prefixes widen.
    @pytest.mark.parametrize(
        "seed, dims, share, scoring, widens",
        [
            (0, (64, 300, 4, 96), 0.1, "local", True),
            (1, (200, 150, 3, 80), 0.05, "global", True),
            (2, (96, 256, 6, 64), 0.2, "local", True),
            (0, (80, 200, 120), 0.05, "global", False),
            (1, (64, 300, 300), 0.1, "local", False),
            (2, (150, 96, 200, 64), 0.02, "local", False),
        ],
    )
    def test_wide_tied_nets(self, monkeypatch, seed, dims, share, scoring, widens):
        builds = {}  # (k, width) of each prefix build, per layer

        def spy(scores, k):
            builds.setdefault(id(scores), []).append((k, scores.shape[1]))
            return _order_prefix(scores, k)

        monkeypatch.setattr(pruner, "_order_prefix", spy)
        net = wide_tied_net(seed, dims)
        total = total_connections(net)
        spec = PruneSpec(rate=rate_for_kept(total, int(share * total)), scoring=scoring)
        _, saturated = assert_matches_sequential(net, spec)
        assert not saturated
        assert any(k < width for layer in builds.values() for k, width in layer)
        widened = [layer for layer in builds.values() if len(layer) > 1]
        assert bool(widened) == widens
        assert all(k < width for layer in widened for k, width in layer)

    def test_traces_sequence(self, rng):
        net = random_network(rng, (3, 4, 2))
        _, traces = tc_mp_trace(net, PruneSpec(rate=0.3, tc=True))
        listed = list(traces)
        assert len(listed) == len(traces) >= 2
        assert all(type(t) is ChainTrace and type(t.path[0]) is int for t in listed)
        assert [t.path for t in listed] == [tuple(p) for p in traces.paths.tolist()]
        assert [t.newly_added for t in listed] == traces.newly_added.tolist()
        with pytest.raises(ValueError):
            traces.paths[0, 0] = 1
        with pytest.raises(ValueError):
            traces.newly_added[0] = 1


def sequential_draws(rng, d0: int, size: int, depth: int):
    starts, draws = np.empty(size, dtype=np.intp), np.empty((size, depth))
    for c in range(size):
        starts[c] = rng.integers(d0)
        rng.random(out=draws[c])
    return starts, draws


class TestChainDraws:
    """Bulk starts and draws against numpy's per-chain calls: this pins the
    generator internals `_chain_draws` rebuilds, buffered half included."""

    # 2**32 % (2**31 + 1) == 2**31 - 1, so about half of its halves reject;
    # above 2**32 every block takes the per-chain calls
    @pytest.mark.parametrize(
        "d0", [1, 2, 15, 256, 1000, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]
    )
    @pytest.mark.parametrize("held", [False, True])
    @pytest.mark.parametrize("depth", [1, 3])
    def test_matches_sequential_calls(self, d0, held, depth):
        bulk, plain = np.random.default_rng(31), np.random.default_rng(31)
        if held:
            # an odd number of 32-bit draws leaves a high half buffered
            bulk.integers(7), plain.integers(7)
            assert bulk.bit_generator.state["has_uint32"] == 1
        for size in (1, 3, 2, 7, 8):
            got_starts, got_draws = _chain_draws(bulk, d0, size, depth)
            want_starts, want_draws = sequential_draws(plain, d0, size, depth)
            assert got_starts.dtype == np.intp and got_starts.shape == (size,)
            assert np.array_equal(got_starts, want_starts)
            assert got_draws.shape == (size, depth)
            assert np.array_equal(got_draws, want_draws)
            assert bulk.bit_generator.state == plain.bit_generator.state
        assert bulk.integers(d0) == plain.integers(d0)
        assert bulk.random() == plain.random()
        assert bulk.integers(1000) == plain.integers(1000)


def random_scores(seed: int, rows: int, width: int, scale: float, holes: bool) -> np.ndarray:
    """Log scores with, when `holes`, some -inf entries and a row that is -inf throughout."""
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((rows, width)) * scale
    if holes:
        scores[rng.random((rows, width)) < 0.4] = -np.inf
        scores[rng.integers(rows)] = -np.inf
    return scores


class TestOrderPrefix:
    """Order prefixes against the stable argsort of whole rows."""

    # few distinct values make ties inside the prefix and across its end;
    # 10**6 values leave most prefixes untied
    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 5),
        width=st.integers(1, 300),
        levels=st.sampled_from([1, 2, 5, 10**6]),
        holes=st.sampled_from([0.0, 0.1, 0.6]),
        dead_row=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_stable_argsort(self, seed, rows, width, levels, holes, dead_row):
        rng = np.random.default_rng(seed)
        scores = rng.integers(-levels, levels + 1, size=(rows, width)).astype(float)
        zeros = scores == 0.0
        scores[zeros] = rng.choice([0.0, -0.0], size=np.count_nonzero(zeros))
        scores[rng.random((rows, width)) < holes] = -np.inf
        if dead_row:
            scores[rng.integers(rows)] = -np.inf
        want = np.argsort(-scores, axis=1, kind="stable")
        for k in range(1, width + 1):
            got = _order_prefix(scores, k)
            assert got.dtype == np.intp
            assert np.array_equal(got, want[:, :k])


class TestChainTables:
    """The per-layer search tables and their search against the per-row
    CDF builder, the recursive BFS layout and numpy's right-sided search."""

    # trees of n nodes: perfect of 0-12 levels, a node short, a node past
    @pytest.mark.parametrize(
        "n", sorted({(1 << levels) - 1 + d for levels in range(13) for d in (-1, 0, 1)} - {-1})
    )
    def test_bfs_order_matches_recursive_in_order(self, n):
        width = n + 1
        cdf = choice_cdf(np.zeros(width))  # uniform, so strictly increasing
        table = _choice_tables(np.zeros((1, width)))[0]
        want = np.empty(n, dtype=np.intp)
        want[np.array(bfs_in_order(n), dtype=np.intp) - 1] = np.arange(n)
        assert np.array_equal(np.searchsorted(cdf, table[:n]), want)
        assert np.array_equal(table[n:], [1.0] if width & n else [])

    # widths cross numpy's pairwise-sum blocks of 8 and 128 entries, powers of
    # two and their neighbours, and the row blocks of _TABLE_BLOCK entries
    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 12),
        width=st.one_of(st.integers(1, 300), st.sampled_from([511, 512, 513, 2000, 8193])),
        scale=st.sampled_from([1.0, 30.0, 700.0, 1e6]),
        holes=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_cdfs_match_per_row_oracle(self, seed, rows, width, scale, holes):
        scores = random_scores(seed, rows, width, scale, holes)
        cdfs = [choice_cdf(row) for row in scores]
        got = _choice_tables(scores)
        assert np.array_equal(got, np.stack([choice_table(cdf) for cdf in cdfs]))
        assert got.shape == (rows, width - (width & (width - 1) == 0))
        assert all(cdf[-1] == 1.0 and (np.diff(cdf) >= 0).all() for cdf in cdfs)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_split_layer_cdfs_leave_scores_unchanged(self, monkeypatch, cpus):
        monkeypatch.setattr(pruner.parallel, "usable_cpus", lambda: cpus)
        scores = random_scores(5, 6, 1 << 16, 30.0, True)
        scores[4] = -np.inf
        before = scores.copy()
        want = np.stack([choice_table(choice_cdf(row)) for row in scores])
        scores.flags.writeable = False  # local scores are views of the read-only log|w|
        got = _choice_tables(scores)
        assert np.array_equal(scores, before)
        assert not np.shares_memory(got, scores)
        assert np.array_equal(got, want)

    @given(
        seed=st.integers(0, 2**16),
        height=st.integers(1, 4),
        width=st.sampled_from(
            [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257, 300]
        ),
        holes=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bisection_is_right_sided_search(self, seed, height, width, holes):
        # with holes, one row scores -inf throughout and samples uniformly
        scores = random_scores(seed, height, width, 3.0, holes)
        cdfs = np.stack([choice_cdf(row) for row in scores])
        rng = np.random.default_rng(seed)
        rows = rng.integers(height, size=64)
        draws = rng.integers(0, 2**53, size=64) * 2.0**-53
        # draws on CDF entries, flat segments included, and both extremes
        draws[:32] = np.minimum(cdfs[rows[:32], rng.integers(width, size=32)], 1.0 - 2.0**-53)
        draws[32:34] = 0.0, 1.0 - 2.0**-53
        bits = rng.random((height, width)) < 0.3
        cols, new = _sampled_steps(_choice_tables(scores), bits, rows, draws)
        want = [np.searchsorted(cdfs[r], d, side="right") for r, d in zip(rows, draws)]
        assert cols.dtype == np.intp
        assert np.array_equal(cols, want)
        taken = set()
        for r, c, n in zip(rows.tolist(), cols.tolist(), new.tolist()):
            assert n == (not bits[r, c] and (r, c) not in taken)
            taken.add((r, c))


class TestStepSorts:
    """The chain steps' narrowed-id sorts against comparison sorts of intp
    ids, on layers that fit uint16 ids and on layers one past it."""

    @pytest.mark.parametrize("height", [1, 3, 300, 65_536, 65_537, 70_000])
    @pytest.mark.parametrize("width", [1, 2, 7, 300])
    def test_ranked_steps_match_argsort(self, height, width):
        rng = np.random.default_rng(height + width)
        # a few busy rows, the highest ids among them, and many quiet ones
        busy = np.array([0, height - 1, height // 2])
        rows = np.concatenate((rng.choice(busy, 600), rng.integers(height, size=600)))
        rows = rng.permutation(rows).astype(np.intp)
        fresh = rng.integers(0, width + 1, size=height).astype(np.intp)
        pos, new = _ranked_steps(fresh, rows, width)
        want_pos, want_new = argsort_ranked_steps(fresh, rows, width)
        assert pos.dtype == np.intp
        assert np.array_equal(pos, want_pos)
        assert np.array_equal(new, want_new)

    @pytest.mark.parametrize(
        "height, width",
        [(1, 1), (4, 1), (4, 2), (5, 300), (65_536, 2), (65_537, 2), (2, 65_536), (2, 65_537)],
    )
    def test_sampled_steps_match_unique(self, height, width):
        rng = np.random.default_rng(height * 7 + width)
        scores = rng.standard_normal((height, width))
        scores[rng.random((height, width)) < 0.2] = -np.inf
        busy = np.array([0, height - 1])
        rows = np.concatenate((rng.choice(busy, 500), rng.integers(height, size=500)))
        rows = rng.permutation(rows).astype(np.intp)
        draws = rng.integers(0, 2**53, size=rows.size) * 2.0**-53
        bits = rng.random((height, width)) < 0.3
        cols, new = _sampled_steps(_choice_tables(scores), bits, rows, draws)
        # the oracle searches the CDFs of the visited rows only
        cdfs = np.zeros((height, width))
        for r in np.unique(rows).tolist():
            cdfs[r] = choice_cdf(scores[r])
        want_cols, want_new = unique_sampled_steps(cdfs, bits, rows, draws)
        assert np.array_equal(cols, want_cols)
        assert np.array_equal(new, want_new)


class TestSharedScores:
    """What a network keeps of its scoring changes no mask or chain."""

    def test_no_pruner_writes_log_magnitudes(self, rng):
        net = random_network(rng, (4, 6, 5, 3))
        logs = net.log_magnitudes
        before = logs.tobytes()
        standard_mp(net, 0.5)
        stochastic_mp(net, 0.5, 3)
        for scoring in ("local", "global"):
            for stochastic in (False, True):
                spec = PruneSpec(0.5, stochastic=stochastic, scoring=scoring, alpha=0.5)
                tc_mp_trace(net, spec)
        assert net.log_magnitudes is logs
        assert not logs.flags.writeable
        assert logs.tobytes() == before

    def test_alphas_a_b_a_match_a_fresh_network(self, rng, monkeypatch):
        weights = random_network(rng, (5, 8, 8, 4)).weights
        net = LayeredNetwork(weights, ("identity",) * 3)
        tables = []
        build = pruner.build_table

        def counted(scored, alpha):
            if scored is net:
                tables.append(alpha)
            return build(scored, alpha)

        monkeypatch.setattr(pruner, "build_table", counted)
        for alpha in (1.0, 0.1, 1.0):
            for stochastic in (False, True):  # the stochastic call finds the det call's entry
                spec = PruneSpec(0.6, stochastic=stochastic, scoring="global", alpha=alpha, seed=4)
                mask, traces = tc_mp_trace(net, spec)
                fresh_mask, fresh_traces = tc_mp_trace(
                    LayeredNetwork(weights, ("identity",) * 3), spec
                )
                assert all(np.array_equal(a, b) for a, b in zip(mask.masks, fresh_mask.masks))
                assert np.array_equal(traces.paths, fresh_traces.paths)
                assert np.array_equal(traces.newly_added, fresh_traces.newly_added)
        # a miss, a miss, a miss again on the return to alpha 1.0, and a hit
        # after each det call
        assert tables == [1.0, 0.1, 1.0]

    @staticmethod
    def outcome(net: LayeredNetwork, spec: PruneSpec) -> tuple:
        """Masks, paths and gains of a prune, or the kept count and the
        chains so far of its SaturationError."""
        try:
            mask, traces = tc_mp_trace(net, spec)
        except SaturationError as exc:
            with pytest.raises(SaturationError) as again:  # the frame's chains
                tc_mp_trace(LayeredNetwork(net.weights, net.activations), spec)
            return "saturated", exc.kept, exc.max_kept, stalled_chains(again)
        return (
            "kept",
            tuple(m.tobytes() for m in mask.masks),
            traces.paths.tobytes(),
            traces.newly_added.tobytes(),
        )

    # A random net, and a tied one that saturates at rate 0 in both modes:
    # no chain samples the zero weight, and greedy chains stop short of it.
    # Each (scoring, alpha) evicts the one before, so its tables are built
    # once, by its first stochastic call; at (0.9, 0.99, 0.9) the first call
    # reads the most, so no later one builds a prefix, and at (0.99, 0.9) the
    # second call widens the first call's prefixes.
    @pytest.mark.parametrize(
        "kind, rates",
        [("random", (0.9, 0.99, 0.9)), ("random", (0.99, 0.9)), ("saturating", (0.5, 0.0, 0.5))],
    )
    def test_rate_orders_match_a_fresh_network(self, monkeypatch, kind, rates):
        if kind == "random":
            net = random_network(np.random.default_rng(7), (16, 64, 48, 6))
        else:
            net = LayeredNetwork(
                (np.array([[5.0, 1.0, 5.0]]), np.array([[3.0, 0.0], [9.0, 9.0], [3.0, 2.0]])),
                ("identity", "identity"),
            )
        table_builds, prefix_builds = [], []  # (scores, k) of each build

        def count(calls, build):
            def counted(scores, *args):
                calls.append((scores, *args))
                return build(scores, *args)

            return counted

        def layers(builds, scores) -> list[tuple[int, tuple]]:
            """(layer, args) of the builds from `scores`, `net`'s tables."""
            return [(t, k) for b, *k in builds for t, x in enumerate(scores) if x is b]

        monkeypatch.setattr(pruner, "_choice_tables", count(table_builds, _choice_tables))
        monkeypatch.setattr(pruner, "_order_prefix", count(prefix_builds, _order_prefix))
        for scoring, alpha in (("local", 1.0), ("global", 1.0), ("global", 0.1)):
            held = [0] * net.depth  # entries a row of each layer's prefix holds
            choices = 0
            for call, rate in enumerate(rates):
                for stochastic in (False, True):
                    spec = PruneSpec(rate, stochastic=stochastic, scoring=scoring,
                                     alpha=alpha, seed=3)
                    table_builds.clear()
                    prefix_builds.clear()
                    got = self.outcome(net, spec)
                    assert got == self.outcome(LayeredNetwork(net.weights, net.activations), spec)
                    scores = _chain_tables(net, spec).scores  # a hit: the tables just read
                    choices += len(layers(table_builds, scores))
                    built = layers(prefix_builds, scores)
                    for t, (k,) in built:
                        assert k > 2 * held[t]  # built only past the held prefix
                        held[t] = min(k, scores[t].shape[1])
                    if kind == "random" and rates[0] == 0.9 and call > 0:
                        assert not built
                    if kind == "random" and rates[0] == 0.99 and call == 1 and not stochastic:
                        assert built
            assert choices == net.depth  # one per layer, by the first stochastic call
            tables = _chain_tables(net, spec)
            arrays = (*tables.scores, *tables.choices, *tables._orders)
            assert not any(a.flags.writeable for a in arrays)
            assert [o.shape[1] for o in tables._orders] == held
        if kind == "saturating":
            assert self.outcome(net, PruneSpec(0.0))[0] == "saturated"
            assert self.outcome(net, PruneSpec(0.0, stochastic=True))[0] == "saturated"

    def test_threads_pruning_one_network_at_two_rates_give_serial_results(self):
        dims = (32, 256, 256, 8)
        weights = random_network(np.random.default_rng(5), dims).weights
        specs = [
            PruneSpec(rate, stochastic=stochastic, seed=2)
            for rate in (0.9, 0.99)
            for stochastic in (False, True)
        ]
        want = [self.outcome(LayeredNetwork(weights, ("identity",) * 3), spec) for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside the tables' check and store
        try:
            for order in (specs, specs[::-1]):
                net = LayeredNetwork(weights, ("identity",) * 3)
                got = parallel.run(lambda spec: self.outcome(net, spec), order * 2, 2)
                assert got == [want[specs.index(spec)] for spec in order * 2]
        finally:
            sys.setswitchinterval(interval)


class TestPruneDispatch:
    def test_dispatch(self, rng):
        net = random_network(rng, (3, 4, 2))
        a = prune(net, PruneSpec(rate=0.5, tc=False, stochastic=False))
        b = standard_mp(net, 0.5)
        for ma, mb in zip(a.masks, b.masks):
            assert np.array_equal(ma, mb)
        c = prune(net, PruneSpec(rate=0.5, tc=False, stochastic=True, seed=9))
        d = stochastic_mp(net, 0.5, 9)
        for mc, md in zip(c.masks, d.masks):
            assert np.array_equal(mc, md)
        assert consistency_report(prune(net, PruneSpec(rate=0.5, tc=True))).ac_percentage == 100.0

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            PruneSpec(rate=1.0)
        with pytest.raises(DomainError):
            PruneSpec(rate=0.5, scoring="fancy")
        with pytest.raises(DomainError):
            PruneSpec(rate=0.5, scoring="global", alpha=2.0)
        for stochastic in (False, True):
            with pytest.raises(DomainError, match="global scoring needs tc"):
                PruneSpec(0.5, tc=False, stochastic=stochastic, scoring="global", alpha=0.3)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be non-negative, got -1"):
            PruneSpec(0.5, seed=-1)


class TestDegradationTrend:
    def test_standard_mp_consistency_degrades_with_rate(self):
        rng = np.random.default_rng(0)
        net = random_network(rng, (64, 256, 256, 32))
        rates = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
        percentages = []
        for rate in rates:
            rep = consistency_report(standard_mp(net, rate))
            percentages.append(rep.ac_percentage)
        assert all(a >= b for a, b in zip(percentages, percentages[1:]))
        assert percentages[-1] < 50.0  # near-total pruning shreds connectivity


def kept_magnitude(net: LayeredNetwork, mask) -> float:
    return float(magnitudes(net)[np.concatenate([m.ravel() for m in mask.masks])].sum())


def assert_consistent_within_optimum(net: LayeredNetwork, mask):
    """The mask is consistent (or empty) and keeps no more |w| than the best
    consistent mask of its own kept count."""
    assert consistency_report(mask).ac_percentage in (100.0, None)
    best = best_consistent_mask(net, mask.kept_count)
    assert kept_magnitude(net, mask) <= kept_magnitude(net, best) + 1e-12


class TestAgainstBestConsistentMask:
    def test_oracle_on_a_known_net(self):
        net = net_1_to_12()  # |w| 1..6 into three hidden neurons, 7..12 out
        assert best_consistent_mask(net, 1).kept_count == 0  # no one-connection path
        two = best_consistent_mask(net, 2)  # the heaviest path: 6 + 12
        assert [np.flatnonzero(m).tolist() for m in two.masks] == [[5], [5]]
        every = best_consistent_mask(net, total_connections(net))
        assert all(m.all() for m in every.masks)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=20, deadline=None)
    def test_chain_masks(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, small_dims(rng, 16))
        total = total_connections(net)
        rate = rate_for_kept(total, int(rng.integers(net.depth, total + 1)))
        for stochastic in (False, True):
            for scoring in ("local", "global"):
                spec = PruneSpec(rate=rate, stochastic=stochastic, scoring=scoring,
                                 alpha=0.5, seed=seed)
                try:
                    mask = tc_mp(net, spec)
                except SaturationError:
                    continue
                assert mask.kept_count > 0
                assert_consistent_within_optimum(net, mask)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_trimmed_plain_masks(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, small_dims(rng, 16))
        rate = float(rng.uniform(0.0, 0.95))
        assert_consistent_within_optimum(net, trim_to_consistent(standard_mp(net, rate)))
