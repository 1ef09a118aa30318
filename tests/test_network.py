import os
import stat
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_mask_tensor, random_network
from oracles import loop_forward, per_value_save_mask
from tcprune import parallel
from tcprune.data import save_sequence, synth_dataset
from tcprune.errors import DomainError, ShapeError
from tcprune.gcn import GcnShape, init_model, save_model
from tcprune.harness import ExperimentConfig, ResultRow, _persist, emit
from tcprune.network import (
    LayeredNetwork,
    MaskTensor,
    _write_matrices,
    apply_mask,
    budget,
    forward,
    full_mask,
    layers_of,
    load_mask,
    load_network,
    masked_forward,
    save_mask,
    save_network,
    total_connections,
)

# Dims chosen so the connection count matches the reference model size used
# in the result tables: 3072*512 + 512*771 = 1,967,616.
BIG_DIMS = (3072, 512, 771)


def big_network() -> LayeredNetwork:
    weights = tuple(np.zeros((BIG_DIMS[i], BIG_DIMS[i + 1])) for i in range(2))
    return LayeredNetwork(weights, ("identity", "identity"))


class TestCounts:
    def test_small(self, rng):
        assert total_connections(random_network(rng, (2, 3, 2))) == 12

    def test_reference_size(self):
        assert total_connections(big_network()) == 1_967_616

    def test_width_one_chain(self):
        net = random_network(np.random.default_rng(0), (1,) * 6)
        assert total_connections(net) == 5


class TestBudget:
    def test_reference_half(self):
        assert budget(big_network(), 0.50).max_kept == 983_808

    def test_rate_zero_keeps_all(self, rng):
        net = random_network(rng, (3, 4, 2))
        assert budget(net, 0.0).max_kept == total_connections(net)

    def test_floor(self, rng):
        assert budget(random_network(rng, (2, 3, 2)), 0.75).max_kept == 3

    def test_monotone_in_rate(self, rng):
        net = random_network(rng, (5, 7, 3))
        kept = [budget(net, r).max_kept for r in np.linspace(0.0, 0.99, 25)]
        assert all(a >= b for a, b in zip(kept, kept[1:]))

    def test_rate_out_of_range(self, rng):
        net = random_network(rng, (2, 2))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                budget(net, bad)


class TestForward:
    def test_identity_network(self):
        eye = np.eye(3)
        net = LayeredNetwork((eye, eye), ("identity", "identity"))
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(forward(net, x), x)

    def test_scaled_identity(self):
        net = LayeredNetwork((2.0 * np.eye(2),), ("identity",))
        assert np.array_equal(forward(net, [1.0, 3.0]), [2.0, 6.0])

    def test_against_loop_oracle(self, rng):
        net = random_network(rng, (4, 6, 5, 3), ("relu", "tanh", "identity"))
        for _ in range(10):
            x = rng.standard_normal(4)
            assert np.abs(forward(net, x) - loop_forward(net, x)).max() <= 1e-10

    def test_linear_when_identity(self, rng):
        net = random_network(rng, (3, 5, 2))
        x = rng.standard_normal(3)
        lhs = forward(net, 3.5 * x)
        rhs = 3.5 * forward(net, x)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())

    def test_length_mismatch(self, rng):
        with pytest.raises(ShapeError):
            forward(random_network(rng, (3, 2)), [1.0, 2.0])


class TestMaskedForward:
    def test_all_ones_equals_forward(self, rng):
        net = random_network(rng, (3, 4, 2), ("relu", "identity"))
        x = rng.standard_normal(3)
        assert np.array_equal(masked_forward(net, full_mask(net), x), forward(net, x))

    def test_all_zeros_relu(self, rng):
        net = random_network(rng, (3, 4, 2), ("relu", "relu"))
        mask = MaskTensor(tuple(np.zeros(w.shape, bool) for w in net.weights))
        assert np.array_equal(masked_forward(net, mask, rng.standard_normal(3)), np.zeros(2))

    def test_bitwise_equal_to_zeroed_copy(self, rng):
        for _ in range(25):
            net = random_network(rng, (4, 5, 3), ("tanh", "softmax"))
            mask = random_mask_tensor(rng, (4, 5, 3))
            x = rng.standard_normal(4)
            via_mask = masked_forward(net, mask, x)
            via_copy = forward(apply_mask(net, mask), x)
            assert np.array_equal(via_mask, via_copy)

    def test_shape_mismatch(self, rng):
        net = random_network(rng, (3, 4, 2))
        with pytest.raises(ShapeError):
            masked_forward(net, random_mask_tensor(rng, (3, 5, 2)), rng.standard_normal(3))


class TestApplyMask:
    def test_all_ones_unchanged(self, rng):
        net = random_network(rng, (2, 3, 2))
        out = apply_mask(net, full_mask(net))
        for a, b in zip(out.weights, net.weights):
            assert np.array_equal(a, b)

    def test_all_zeros(self, rng):
        net = random_network(rng, (2, 3, 2))
        mask = MaskTensor(tuple(np.zeros(w.shape, bool) for w in net.weights))
        assert all(not w.any() for w in apply_mask(net, mask).weights)

    def test_hand_example(self):
        net = LayeredNetwork((np.array([[1.0, -2.0], [3.0, 4.0]]),), ("identity",))
        mask = MaskTensor((np.array([[0, 1], [1, 0]], dtype=bool),))
        assert np.array_equal(apply_mask(net, mask).weights[0], [[0, -2], [3, 0]])

    @given(
        w=arrays(np.float64, (4, 3), elements=st.floats(-1e6, 1e6)),
        m=arrays(np.bool_, (4, 3)),
    )
    def test_masked_entries_are_exact_zeros(self, w, m):
        (out,) = apply_mask(LayeredNetwork((w,), ("identity",)), MaskTensor((m,))).weights
        assert (out[~m] == 0.0).all()
        assert np.array_equal(out[m], w[m])

    def test_shape_mismatch(self, rng):
        net = random_network(rng, (3, 4, 2))
        with pytest.raises(ShapeError):
            apply_mask(net, random_mask_tensor(rng, (3, 5, 2)))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_masked_forward_equals_forward_of_apply_mask(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, (3, 4, 4, 2), ("relu", "tanh", "identity"))
        mask = random_mask_tensor(rng, (3, 4, 4, 2))
        x = rng.standard_normal(3)
        assert np.array_equal(masked_forward(net, mask, x), forward(apply_mask(net, mask), x))


class TestValidation:
    def test_non_chaining_shapes(self):
        with pytest.raises(ShapeError):
            LayeredNetwork((np.ones((2, 3)), np.ones((4, 2))), ("identity", "identity"))

    def test_unknown_activation(self):
        with pytest.raises(DomainError):
            LayeredNetwork((np.ones((2, 2)),), ("sigmoid",))

    def test_nonfinite_weights(self):
        with pytest.raises(DomainError):
            LayeredNetwork((np.array([[np.inf, 0.0]]),), ("identity",))

    def test_kept_count(self, rng):
        mask = random_mask_tensor(rng, (4, 5, 3))
        assert mask.kept_count == sum(int(m.sum()) for m in mask.masks)


class TestLogMagnitudes:
    @given(
        seed=st.integers(0, 2**16),
        dims=st.lists(st.integers(1, 40), min_size=2, max_size=4),
        zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
        log10_scale=st.sampled_from([-310, -3, 0, 300]),  # subnormal to near overflow
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_log_abs_on_one_two_and_three_cpus(
        self, seed, dims, zero_frac, log10_scale
    ):
        rng = np.random.default_rng(seed)
        weights = tuple(
            np.where(rng.random((a, b)) < zero_frac, 0.0,
                     rng.standard_normal((a, b)) * 10.0**log10_scale)
            for a, b in zip(dims, dims[1:])
        )
        with np.errstate(divide="ignore"):
            want = np.concatenate([np.log(np.abs(w)).ravel() for w in weights]).tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "MIN_SPAN", 4)  # so that these small layers split too
            for cpus in (1, 2, 3):
                mp.setattr(parallel, "usable_cpus", lambda: cpus)
                net = LayeredNetwork(weights, ("identity",) * len(weights))
                assert net.log_magnitudes.tobytes() == want

    def test_read_only_computed_once_and_split_by_layers_of(self, rng):
        net = random_network(rng, (3, 4, 2))
        logs = net.log_magnitudes
        assert net.log_magnitudes is logs
        assert not logs.flags.writeable
        with pytest.raises(ValueError):
            logs[0] = 0.0
        for w, layer in zip(net.weights, layers_of(logs, net.dims)):
            assert not layer.flags.writeable
            assert np.array_equal(layer, np.log(np.abs(w)))


class TestMemo:
    def test_keeps_the_last_key_only(self, rng):
        net = random_network(rng, (2, 2))
        built = []

        def build(value):
            return lambda: built.append(value) or value

        assert net.memo("a", build(1)) == 1
        assert net.memo("a", build(2)) == 1
        assert net.memo("b", build(3)) == 3
        assert net.memo("a", build(4)) == 4
        assert built == [1, 3, 4]

    def test_drops_the_old_value_before_building(self, rng):
        net = random_network(rng, (2, 2))

        class Value:
            pass

        old = weakref.ref(net.memo("a", Value))
        assert old() is not None  # the network holds it

        def build():
            assert old() is None  # a build's peak memory does not hold it
            return 1

        assert net.memo("b", build) == 1


class TestSerialization:
    def test_network_round_trip(self, rng, tmp_path):
        net = random_network(rng, (3, 4, 2))
        path = tmp_path / "net.txt"
        save_network(net, path)
        back = load_network(path, net.activations)
        assert back.dims == net.dims
        for a, b in zip(back.weights, net.weights):
            assert np.array_equal(a, b)  # 17 significant digits round-trip exactly

    @pytest.mark.parametrize(
        "layers",
        [
            [(5, 7, 0.5), (7, 3, 0.2)],
            [(1, 1, 1.0)],
            [(1, 1, 0.0)],
            [(4, 6, 0.0), (6, 2, 1.0)],
            [(60, 240, 0.3)],
        ],
        ids=["random", "1x1-one", "1x1-zero", "all-zero-and-all-one", "gcn-view-layer"],
    )
    def test_mask_file_matches_per_value_writer(self, tmp_path, layers):
        rng = np.random.default_rng(len(layers))
        mask = MaskTensor(tuple(rng.random((r, c)) < density for r, c, density in layers))
        save_mask(mask, tmp_path / "mask.txt")
        per_value_save_mask(mask, tmp_path / "oracle.txt")
        assert (tmp_path / "mask.txt").read_bytes() == (tmp_path / "oracle.txt").read_bytes()

    def test_mask_round_trip(self, rng, tmp_path):
        mask = random_mask_tensor(rng, (4, 6, 3))
        path = tmp_path / "mask.txt"
        save_mask(mask, path)
        back = load_mask(path)
        for a, b in zip(back.masks, mask.masks):
            assert np.array_equal(a, b)

    @given(
        dims=st.lists(st.integers(1, 5), min_size=2, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_mask_round_trip_property(self, tmp_path_factory, dims, data):
        masks = tuple(
            np.asarray(data.draw(st.lists(st.booleans(), min_size=r * c, max_size=r * c)))
            .reshape(r, c)
            for r, c in zip(dims, dims[1:])
        )
        path = tmp_path_factory.mktemp("mask") / "mask.txt"
        save_mask(MaskTensor(masks), path)
        back = load_mask(path)
        assert back.dims == tuple(dims)
        for a, b in zip(back.masks, masks):
            assert a.dtype == bool
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "loader, text",
        [
            (load_network, "nonsense 3\n"),
            (load_network, ""),
            (load_network, "\n  \n"),
            (load_network, "layers 0\n"),
            (load_network, "layers -1\n"),
            (load_network, "layers two\n"),
            (load_network, "layers 2\ndims 1 1\n0.5\n"),
            (load_network, "layers 1\ndims 1\n0.5\n"),
            (load_network, "layers 1\ndims 2 2\n1 2\n"),
            (load_network, "layers 1\ndims 1 2\n1 2 3\n"),
            (load_network, "layers 1\ndims 1 1\nx\n"),
            (load_network, "layers 1\ndims 1 1\n1\n2\n"),
            (load_mask, "layers 1\ndims 1 2\n1 7\n"),
            (load_mask, "layers 1\ndims 1 2\n1 -1\n"),
            (load_mask, "layers 1\ndims 1 2\n1 0.5\n"),
            (load_mask, "layers 1\ndims 1 1\n1\ndims 1 1\n"),
            (load_network, "layers 1\ndims 1 1\n\xff\n"),
        ],
        ids=[
            "header", "empty", "blank", "zero-layers", "negative-layers",
            "non-integer-layers", "truncated", "short-dims", "missing-row",
            "long-row", "non-number", "trailing-row", "mask-7", "mask-negative",
            "mask-fraction", "trailing-dims", "non-ascii",
        ],
    )
    def test_bad_header(self, tmp_path, loader, text):
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DomainError):
            loader(path)


class TestAtomicWrites:
    """Every file writer replaces its target whole or not at all."""

    WRITERS = {
        "network": lambda p: save_network(LayeredNetwork((np.eye(2),), ("identity",)), p),
        "mask": lambda p: save_mask(MaskTensor((np.eye(2, dtype=bool),)), p),
        "model": lambda p: save_model(init_model(GcnShape(1, 3, 3, 1, 2), seed=0), p),
        "sequence": lambda p: save_sequence(synth_dataset(1, 1, 3, 2, seed=0)[0], p),
        "table": lambda p: emit(
            [ResultRow(0.5, False, False, "local", None, 1, 100.0, 1.0, 0.0, 1, 0.1)], "csv", p
        ),
        "runs": lambda p: _persist(ExperimentConfig(rates=(0.5,), output=str(p.parent)), [], []),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / ("runs.json" if writer == "runs" else "target.txt")
        path.write_text("old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            self.WRITERS[writer](path)
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == [path.name]

    def test_failure_part_way_keeps_old_file(self, tmp_path):
        path = tmp_path / "net.txt"
        save_network(LayeredNetwork((np.eye(3),), ("identity",)), path)
        old = path.read_text()

        def write_rows(fh, m):
            fh.write("1 1 1\n")
            raise ValueError("unwritable row")

        with pytest.raises(ValueError, match="unwritable"):
            _write_matrices(path, [np.ones((3, 3))], write_rows)
        assert path.read_text() == old
        assert os.listdir(tmp_path) == ["net.txt"]

    def test_write_through_symlink_keeps_link(self, tmp_path):
        target, link = tmp_path / "mask.txt", tmp_path / "link.txt"
        target.write_text("old\n")
        link.symlink_to(target)
        mask = MaskTensor((np.eye(2, dtype=bool),))
        save_mask(mask, link)
        assert link.is_symlink()
        assert np.array_equal(load_mask(target).masks[0], mask.masks[0])
        assert sorted(os.listdir(tmp_path)) == ["link.txt", "mask.txt"]

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("old\n")
        path.chmod(0o640)
        save_mask(MaskTensor((np.eye(2, dtype=bool),)), path)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()))
        reader.start()
        save_mask(MaskTensor((np.eye(2, dtype=bool),)), fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == ["layers 1\ndims 2 2\n1 0\n0 1\n"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
