import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import allocating_train, einsum_loss_and_grads, param_at
from tcprune.data import synth_dataset
from tcprune.errors import DivergenceError, DomainError, ShapeError
from tcprune.gcn import (
    GcnModel,
    GcnShape,
    StepBuffers,
    TrainConfig,
    as_layered,
    dataset_arrays,
    evaluate,
    forward_batch,
    init_model,
    load_model,
    loss_and_grads,
    save_model,
    train,
    view_mask_to_param_masks,
)
from tcprune.network import MaskTensor, full_mask
from tcprune.pruner import PruneSpec, tc_mp

TINY = GcnShape(heads=2, nodes=3, signal_dim=3, filters=2, num_classes=2)
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


def tiny_batch(rng, count=8):
    signals = rng.standard_normal((count, TINY.signal_dim, TINY.nodes))
    labels = rng.integers(0, TINY.num_classes, count)
    return signals, labels


def synth_arrays(*args, chunks=1, **kwargs):
    """A synthetic dataset as the (signals, labels) train and evaluate take."""
    return dataset_arrays(synth_dataset(*args, **kwargs), chunks)


def masked_model(model, mask):
    """The model with the parameters a view mask drops set to zero."""
    bits = view_mask_to_param_masks(mask, model.shape)
    arrays = (model.attention, model.conv, model.head)
    return GcnModel(model.shape, *(np.where(b, p, 0.0) for p, b in zip(arrays, bits)))


def random_view_mask(model, rng, keep=0.5):
    return MaskTensor(tuple(rng.random(w.shape) < keep for w in as_layered(model).weights))


def drop_filter_and_head_row(mask, shape):
    """`mask` that also drops conv filter column 0 in every head and head
    row 3 (node 1, filter 1), so the step meets exact zeros in pre, hidden
    and the dropped gradients."""
    m1, m2, m3 = (m.copy() for m in mask.masks)
    m2.reshape(shape.heads, shape.nodes, shape.nodes, shape.filters)[..., 0] = False
    m3[3] = False
    return MaskTensor((m1, m2, m3))


def numeric_gradient(model, arr, signals, labels, step=1e-5):
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        up, _ = loss_and_grads(model, signals, labels)
        arr[idx] = orig - step
        down, _ = loss_and_grads(model, signals, labels)
        arr[idx] = orig
        grad[idx] = (up - down) / (2 * step)
    return grad


class TestInit:
    def test_init_bits_are_pinned(self):
        # sha256 over (attention, conv, head) of every draw below, taken when
        # init_model drew each group with its own expression
        digest = hashlib.sha256()
        for dims in [(4, 15, 15, 16, 4), (2, 5, 6, 3, 3), (3, 7, 4, 5, 2), (1, 1, 1, 1, 1)]:
            for seed in (0, 1, 7, 123):
                for head_scale in (1.0, 0.3):
                    model = init_model(GcnShape(*dims), seed, head_scale)
                    for p in (model.attention, model.conv, model.head):
                        digest.update(p.tobytes())
        want = "150cf232d74045a2d80738f5dce99068db81a3aaa23200d24988c218b8cd822c"
        assert digest.hexdigest() == want

    def test_param_shapes(self):
        k, n, s, c, q = dims = (2, 5, 6, 3, 4)
        shape = GcnShape(*dims)
        assert shape.param_shapes == ((k, n, n), (k, s, c), (n * c, q))
        model = init_model(shape, seed=0)
        assert tuple(p.shape for p in (model.attention, model.conv, model.head)) == (
            shape.param_shapes
        )

    @pytest.mark.parametrize("group", [0, 1, 2])
    def test_wrong_group_shape_rejected(self, group):
        model = init_model(TINY, seed=0)
        arrays = [model.attention, model.conv, model.head]
        name = ("attention", "conv", "head")[group]
        arrays[group] = arrays[group][:1]
        with pytest.raises(ShapeError) as exc:
            GcnModel(TINY, *arrays)
        assert str(exc.value) == f"{name} shape {arrays[group].shape} != {TINY.param_shapes[group]}"


class TestForward:
    def test_probabilities_sum_to_one(self, rng):
        model = init_model(TINY, seed=0)
        probs = forward_batch(model, rng.standard_normal((1, 3, 3)))[0][0]
        assert probs.shape == (2,)
        assert (probs >= 0).all()
        assert abs(probs.sum() - 1.0) <= 1e-9

    def test_zero_signal_gives_uniform(self):
        model = init_model(TINY, seed=1)
        probs = forward_batch(model, np.zeros((1, 3, 3)))[0][0]
        assert np.allclose(probs, 0.5)

    def test_single_head_identity_reduction(self, rng):
        shape = GcnShape(heads=1, nodes=3, signal_dim=3, filters=3, num_classes=9)
        model = GcnModel(
            shape,
            np.eye(3)[None],
            np.eye(3)[None],
            np.eye(9),
        )
        u = rng.standard_normal((3, 3))
        want = np.maximum(u.T, 0.0).reshape(9)
        z = np.exp(want - want.max())
        assert np.allclose(forward_batch(model, u[None])[0][0], z / z.sum())

    def test_against_per_node_loop(self, rng):
        model = init_model(TINY, seed=2)
        u = rng.standard_normal((3, 3))
        hidden = np.zeros((3, 2))
        for i in range(3):
            for c in range(2):
                acc = 0.0
                for k in range(2):
                    for m in range(3):
                        for j in range(3):
                            acc += model.attention[k, i, j] * u[m, j] * model.conv[k, m, c]
                hidden[i, c] = max(acc, 0.0)
        logits = model.head.T @ hidden.reshape(6)
        z = np.exp(logits - logits.max())
        assert np.abs(forward_batch(model, u[None])[0][0] - z / z.sum()).max() <= 1e-10

    def test_shape_validation(self, rng):
        model = init_model(TINY, seed=0)
        with pytest.raises(ShapeError):
            forward_batch(model, rng.standard_normal((1, 4, 3)))


class TestGradients:
    def test_matches_central_differences(self, rng):
        model = init_model(TINY, seed=3)
        signals, labels = tiny_batch(rng)
        _, (g_attn, g_conv, g_head) = loss_and_grads(model, signals, labels)
        for analytic, arr in (
            (g_attn, model.attention),
            (g_conv, model.conv),
            (g_head, model.head),
        ):
            numeric = numeric_gradient(model, arr, signals, labels)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            assert (np.abs(analytic - numeric) / denom).max() <= 1e-4

    @pytest.mark.parametrize(
        "dims, batch",
        [
            ((2, 3, 3, 2, 2), 8),
            ((1, 4, 4, 3, 3), 5),
            ((2, 5, 6, 3, 3), 7),
            ((3, 6, 3, 4, 5), 1),
            ((4, 15, 15, 4, 4), 600),
        ],
        ids=["tiny", "one-head", "signal-dim-6", "batch-1", "batch-600"],
    )
    def test_matches_einsum_oracle(self, dims, batch):
        shape = GcnShape(*dims)
        rng = np.random.default_rng(sum(dims) + batch)
        model = init_model(shape, seed=batch)
        signals = rng.standard_normal((batch, shape.signal_dim, shape.nodes))
        labels = rng.integers(0, shape.num_classes, batch)
        probs, loss, grads = einsum_loss_and_grads(model, signals, labels)
        assert np.allclose(forward_batch(model, signals)[0], probs, rtol=1e-12, atol=0.0)
        got_loss, got_grads = loss_and_grads(model, signals, labels)
        assert got_loss == pytest.approx(loss, rel=1e-12, abs=0.0)
        for got, want in zip(got_grads, grads):
            assert got.shape == want.shape
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-12 * scale


    def test_reused_buffers_match_fresh_calls(self):
        # the gradients are views into the buffers, which the next call
        # overwrites; the second set is first used at batch 3 and grows at 8
        shape = GcnShape(2, 5, 6, 3, 3)
        rng = np.random.default_rng(7)
        model = init_model(shape, seed=7)
        signals = rng.standard_normal((11, shape.signal_dim, shape.nodes))
        labels = rng.integers(0, shape.num_classes, 11)
        for slices in (((0, 8), (8, 11), (3, 11)), ((8, 11), (0, 8), (3, 11))):
            buffers = StepBuffers()
            got = []
            for lo, hi in slices:
                loss, grads = loss_and_grads(model, signals[lo:hi], labels[lo:hi], buffers)
                got.append((lo, hi, loss, [g.copy() for g in grads]))
            for lo, hi, loss, grads in got:
                want_loss, want = loss_and_grads(model, signals[lo:hi], labels[lo:hi])
                assert loss == want_loss
                for g, w in zip(grads, want):
                    assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @given(
        dims=st.tuples(
            st.integers(1, 4), st.integers(1, 7), st.integers(1, 7), st.integers(1, 4),
            st.integers(2, 5),
        ),
        batch=st.integers(1, 9),
        spare=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_contraction_order_property(self, dims, batch, spare, seed):
        # signal_dim and nodes are drawn independently; an oversized buffer
        # set, dirtied by a larger batch first, must not change a bit
        shape = GcnShape(*dims)
        rng = np.random.default_rng(seed)
        model = init_model(shape, seed=seed)
        size = batch + spare
        signals = rng.standard_normal((size, shape.signal_dim, shape.nodes))
        labels = rng.integers(0, shape.num_classes, size)
        x, y = signals[:batch], labels[:batch]
        probs, loss, grads = einsum_loss_and_grads(model, x, y)
        got_probs = forward_batch(model, x)[0]
        got_loss, got_grads = loss_and_grads(model, x, y)
        assert got_loss == pytest.approx(loss, rel=1e-12, abs=0.0)
        for got, want in zip((got_probs, *got_grads), (probs, *grads)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        buffers = StepBuffers()
        loss_and_grads(model, signals, labels, buffers)
        assert forward_batch(model, x, buffers)[0].tobytes() == got_probs.tobytes()
        again_loss, again = loss_and_grads(model, x, y, buffers)
        assert again_loss == got_loss
        for g, w in zip(again, got_grads):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_buffered_step_allocates_under_16_kib(self):
        # the default grid's model at batch 200: one activation-sized
        # temporary (200 * 15 * 16 doubles) is 384,000 bytes, numpy's
        # casting buffer 64 KiB
        shape = GcnShape(4, 15, 15, 16, 4)
        rng = np.random.default_rng(0)
        model = init_model(shape, seed=0)
        signals = rng.standard_normal((200, shape.signal_dim, shape.nodes))
        labels = rng.integers(0, shape.num_classes, 200)
        buffers = StepBuffers()
        loss_and_grads(model, signals, labels, buffers)
        tracemalloc.start()
        try:
            loss_and_grads(model, signals, labels, buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


class TestTraining:
    @pytest.mark.parametrize("masked", [False, True, "dead_filter_and_head_row"])
    def test_matches_allocating_reference_loop(self, masked):
        # batches of 7, 7 and 6: the short last batch reuses the same buffers
        rng = np.random.default_rng(11)
        signals = rng.standard_normal((20, TINY.signal_dim, TINY.nodes))
        labels = rng.integers(0, TINY.num_classes, 20)
        model = init_model(TINY, seed=5)
        mask = random_view_mask(model, rng) if masked else None
        if masked == "dead_filter_and_head_row":
            mask = drop_filter_and_head_row(mask, TINY)
        cfg = TrainConfig(epochs=6, batch_size=7, seed=2)
        trained, losses = train(model, (signals, labels), cfg, mask)
        want_params, want_losses = allocating_train(model, (signals, labels), cfg, mask)
        assert losses == want_losses
        for got, want in zip((trained.attention, trained.conv, trained.head), want_params):
            assert got.tobytes() == want.tobytes()

    def test_shared_buffers_match_fresh_sets(self):
        # a grid's baseline, fine-tune and evaluations share one set
        rng = np.random.default_rng(13)
        signals = rng.standard_normal((20, TINY.signal_dim, TINY.nodes))
        data = (signals, rng.integers(0, TINY.num_classes, 20))
        model = init_model(TINY, seed=6)
        mask = random_view_mask(model, rng)
        base_cfg = TrainConfig(epochs=4, batch_size=9, seed=1)
        tune_cfg = TrainConfig(epochs=3, batch_size=6, seed=2)
        buffers = StepBuffers()
        shared_base = train(model, data, base_cfg, buffers=buffers)
        shared_tune = train(shared_base[0], data, tune_cfg, mask, buffers)
        fresh_base = train(model, data, base_cfg)
        fresh_tune = train(fresh_base[0], data, tune_cfg, mask)

        def bits(result):
            trained, losses = result
            return losses, [p.tobytes() for p in (trained.attention, trained.conv, trained.head)]

        assert bits(shared_base) == bits(fresh_base)
        assert bits(shared_tune) == bits(fresh_tune)
        tuned = fresh_tune[0]
        shared_acc = evaluate(tuned, data, mask, StepBuffers())
        assert shared_acc == evaluate(tuned, data, mask)

    def test_zero_learning_rate_changes_nothing(self, rng):
        dataset = synth_arrays(2, 4, 3, 6, seed=0)
        shape = GcnShape(heads=2, nodes=3, signal_dim=3, filters=2, num_classes=2)
        model = init_model(shape, seed=0)
        cfg = TrainConfig(epochs=5, initial_lr=1e-12, seed=0)
        trained, losses = train(model, dataset, cfg)
        assert len(losses) == 5
        assert np.allclose(trained.attention, model.attention, atol=1e-10)
        assert np.abs(np.diff(losses)).max() <= 1e-9

    def test_loss_decreases(self):
        dataset = synth_arrays(2, 10, 3, 6, seed=1, noise=0.1)
        shape = GcnShape(heads=2, nodes=3, signal_dim=3, filters=4, num_classes=2)
        trained, losses = train(init_model(shape, 0), dataset, TrainConfig(epochs=60, seed=0))
        assert losses[-1] < losses[0]

    def test_masked_parameters_stay_exactly_zero(self):
        dataset = synth_arrays(2, 6, 3, 6, seed=2)
        shape = GcnShape(heads=2, nodes=3, signal_dim=3, filters=2, num_classes=2)
        model = init_model(shape, seed=1)
        mask = random_view_mask(model, np.random.default_rng(0))
        trained, _ = train(model, dataset, TrainConfig(epochs=100, seed=0), mask)
        bits = view_mask_to_param_masks(mask, shape)
        for arr, keep in zip((trained.attention, trained.conv, trained.head), bits):
            assert (~keep).any() and keep.any()
            assert (arr[~keep] == 0.0).all()
            assert not np.signbit(arr[~keep]).any()  # +0.0, never -0.0
        # surviving weights actually moved
        assert not np.allclose(trained.head[bits[2]], model.head[bits[2]])

    def test_all_ones_mask_trains_like_no_mask(self):
        # the masked and the unmasked run share one update rule
        dataset = synth_arrays(2, 6, 3, 6, seed=8)
        model = init_model(TINY, seed=4)
        cfg = TrainConfig(epochs=40, batch_size=5, seed=3)
        plain, plain_losses = train(model, dataset, cfg)
        masked, masked_losses = train(model, dataset, cfg, full_mask(as_layered(model)))
        assert masked_losses == plain_losses
        assert np.array_equal(masked.attention, plain.attention)
        assert np.array_equal(masked.conv, plain.conv)
        assert np.array_equal(masked.head, plain.head)

    def test_input_model_never_mutated(self):
        dataset = synth_arrays(2, 4, 3, 6, seed=3)
        shape = GcnShape(heads=1, nodes=3, signal_dim=3, filters=2, num_classes=2)
        model = init_model(shape, seed=2)
        before = [model.attention.copy(), model.conv.copy(), model.head.copy()]
        train(model, dataset, TrainConfig(epochs=10, seed=0))
        assert np.array_equal(model.attention, before[0])
        assert np.array_equal(model.conv, before[1])
        assert np.array_equal(model.head, before[2])

    def test_divergence_reports_epoch(self):
        dataset = synth_arrays(2, 4, 3, 6, seed=4)
        shape = GcnShape(heads=1, nodes=3, signal_dim=3, filters=2, num_classes=2)
        model = init_model(shape, seed=0)
        broken = GcnModel(shape, 1e300 * np.ones_like(model.attention), model.conv, model.head)
        with pytest.raises(DivergenceError) as exc:
            train(broken, dataset, TrainConfig(epochs=3, seed=0))
        assert exc.value.epoch == 0

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be non-negative, got -1"):
            TrainConfig(epochs=1, seed=-1)

    def test_empty_dataset_rejected(self):
        empty = (np.zeros((0, TINY.signal_dim, TINY.nodes)), np.zeros(0, dtype=np.intp))
        with pytest.raises(DomainError):
            train(init_model(TINY, 0), empty, TrainConfig(epochs=1))
        with pytest.raises(DomainError):
            evaluate(init_model(TINY, 0), empty)

    @pytest.mark.parametrize("label", [-1, TINY.num_classes])
    def test_label_outside_classes_rejected(self, rng, label):
        signals, labels = tiny_batch(rng)
        labels[3] = label
        with pytest.raises(DomainError, match=f"label {label} is outside"):
            train(init_model(TINY, 0), (signals, labels), TrainConfig(epochs=1))
        with pytest.raises(DomainError, match=f"label {label} is outside"):
            evaluate(init_model(TINY, 0), (signals, labels))


class TestEvaluate:
    def test_balanced_accuracy_of_constant_predictor(self):
        dataset = synth_arrays(2, 10, 3, 6, seed=5)
        shape = GcnShape(heads=1, nodes=3, signal_dim=3, filters=2, num_classes=2)
        model = init_model(shape, seed=0)
        constant = GcnModel(
            shape,
            np.zeros_like(model.attention),
            np.zeros_like(model.conv),
            np.zeros_like(model.head),
        )
        assert evaluate(constant, dataset) == pytest.approx(0.5)

    def test_invariant_under_shuffling(self, rng):
        dataset = synth_arrays(3, 6, 3, 6, seed=6)
        shape = GcnShape(heads=2, nodes=3, signal_dim=3, filters=2, num_classes=3)
        model = init_model(shape, seed=1)
        order = rng.permutation(len(dataset[1]))
        shuffled = (dataset[0][order], dataset[1][order])
        assert evaluate(model, dataset) == pytest.approx(evaluate(model, shuffled))

    def test_memorization_after_calibration_run(self):
        dataset = synth_arrays(2, 8, 6, 10, seed=7, noise=0.3, chunks=2)
        shape = GcnShape(heads=2, nodes=6, signal_dim=6, filters=4, num_classes=2)
        trained, _ = train(init_model(shape, 0), dataset, TrainConfig(epochs=150, seed=0))
        assert evaluate(trained, dataset) >= 0.95


class TestLayeredView:
    def test_requires_signal_dim_equal_nodes(self):
        shape = GcnShape(heads=2, nodes=4, signal_dim=6, filters=2, num_classes=2)
        with pytest.raises(DomainError):
            as_layered(init_model(shape, 0))

    def test_view_dims_and_parameter_count(self):
        model = init_model(TINY, seed=0)
        view = as_layered(model)
        k, n, s, c, q = 2, 3, 3, 2, 2
        assert view.dims == (n, k * n, n * c, q)
        assert TINY.parameter_count == k * n * n + k * s * c + n * c * q

    def test_every_parameter_has_exactly_one_view_slot(self):
        model = init_model(TINY, seed=1)
        view = as_layered(model)
        seen = {}
        for layer, w in enumerate(view.weights, start=1):
            for r in range(w.shape[0]):
                for col in range(w.shape[1]):
                    param = param_at(model.shape, layer, r, col)
                    if param is None:
                        assert w[r, col] == 0.0  # structural zero
                        continue
                    assert param not in seen
                    seen[param] = w[r, col]
        assert len(seen) == model.shape.parameter_count
        for (kind, *idx), value in seen.items():
            arrays = {"attention": model.attention, "conv": model.conv, "head": model.head}
            assert arrays[kind][tuple(idx)] == value

    def test_all_ones_mask_keeps_forward_unchanged(self, rng):
        model = init_model(TINY, seed=3)
        mask = full_mask(as_layered(model))
        assert all(bits.all() for bits in view_mask_to_param_masks(mask, model.shape))
        u = rng.standard_normal((3, 3))
        assert np.array_equal(
            forward_batch(model, u[None])[0], forward_batch(masked_model(model, mask), u[None])[0]
        )

    def test_mask_round_trip_through_params(self, rng):
        model = init_model(TINY, seed=4)
        mask = random_view_mask(model, rng)
        bits = view_mask_to_param_masks(mask, model.shape)
        params = dict(zip(("attention", "conv", "head"), bits))
        for layer, m in enumerate(mask.masks, start=1):
            for r in range(m.shape[0]):
                for col in range(m.shape[1]):
                    param = param_at(model.shape, layer, r, col)
                    if param is None:
                        continue
                    kind, *idx = param
                    assert params[kind][tuple(idx)] == m[r, col]

    def test_mask_dims_must_match_view(self):
        wrong = MaskTensor(tuple(np.ones((2, 2), dtype=bool) for _ in range(3)))
        with pytest.raises(ShapeError):
            view_mask_to_param_masks(wrong, TINY)

    def test_chain_mask_keeps_real_signal_alive(self, rng):
        # a consistent chain through the view maps to parameters that form a
        # complete multiplicative path in the model itself; with positive
        # weights and inputs nothing can cancel, so the output must move
        shape = GcnShape(heads=2, nodes=3, signal_dim=3, filters=2, num_classes=2)
        model = GcnModel(
            shape,
            np.abs(rng.standard_normal((2, 3, 3))) + 0.1,
            np.abs(rng.standard_normal((2, 3, 2))) + 0.1,
            np.abs(rng.standard_normal((6, 2))) + 0.1,
        )
        mask = tc_mp(as_layered(model), PruneSpec(rate=0.9, tc=True, seed=0))
        signals = np.stack([np.abs(rng.standard_normal((3, 3))) + 0.5 for _ in range(6)])
        probs, _ = forward_batch(masked_model(model, mask), signals)
        assert np.abs(probs - 0.5).max() > 1e-6  # output depends on the input


class TestPersistence:
    def test_model_round_trip(self, tmp_path):
        model = init_model(TINY, seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.shape == model.shape
        assert np.array_equal(back.attention, model.attention)
        assert np.array_equal(back.conv, model.conv)
        assert np.array_equal(back.head, model.head)

    @given(
        dims=st.tuples(*(st.integers(1, 3) for _ in range(5))),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, dims, data):
        shape = GcnShape(*dims)
        k, n, s, c, q = dims
        arrays = [
            data.draw(hnp.arrays(np.float64, group, elements=FINITE))
            for group in ((k, n, n), (k, s, c), (n * c, q))
        ]
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(GcnModel(shape, *arrays), path)
        back = load_model(path)
        assert back.shape == shape
        for got, want in zip((back.attention, back.conv, back.head), arrays):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda p: [1, 2], id="list"),
            pytest.param(lambda p: 3, id="number"),
            pytest.param(lambda p: {"heads": 1}, id="only-heads"),
            pytest.param(lambda p: {k: v for k, v in p.items() if k != "conv"}, id="no-conv"),
            pytest.param(lambda p: {k: v for k, v in p.items() if k != "nodes"}, id="no-nodes"),
            pytest.param(lambda p: {**p, "extra": 1}, id="unknown-key"),
            pytest.param(lambda p: {**p, "heads": 0}, id="zero-heads"),
            pytest.param(lambda p: {**p, "filters": -2}, id="negative-filters"),
            pytest.param(lambda p: {**p, "nodes": 3.0}, id="float-nodes"),
            pytest.param(lambda p: {**p, "nodes": "3"}, id="string-nodes"),
            pytest.param(lambda p: {**p, "num_classes": True}, id="bool-classes"),
            pytest.param(lambda p: {**p, "signal_dim": None}, id="null-signal-dim"),
            pytest.param(lambda p: {**p, "head": "x"}, id="string-head"),
            pytest.param(lambda p: {**p, "conv": [[1.0], [1.0, 2.0]]}, id="ragged-conv"),
            pytest.param(lambda p: {**p, "attention": [[[None]]]}, id="null-attention"),
        ],
    )
    def test_malformed_model_file(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(init_model(TINY, seed=6), path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps(edit(payload)))
        with pytest.raises(DomainError):
            load_model(path)

    def test_wrong_array_shape_is_shape_error(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(init_model(TINY, seed=7), path)
        payload = json.loads(path.read_text())
        payload["head"] = payload["head"][1:]
        path.write_text(json.dumps(payload))
        with pytest.raises(ShapeError):
            load_model(path)
