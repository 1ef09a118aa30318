import numpy as np
import pytest

from oracles import chunk_means
from tcprune.data import (
    SkeletonSequence,
    chunk_sizes,
    load_dataset,
    load_sequence,
    save_dataset,
    save_sequence,
    synth_dataset,
    temporal_chunking,
)
from tcprune.errors import DomainError, EmptyTrajectoryError, ShapeError


def constant_sequence(point, joints=2, frames=6):
    pts = np.tile(np.asarray(point, float), (joints, frames, 1))
    return SkeletonSequence(0, pts)


class TestSkeletonSequence:
    def test_empty_trajectory_rejected(self):
        with pytest.raises(EmptyTrajectoryError):
            SkeletonSequence(0, np.zeros((2, 0, 3)))

    def test_bad_joint_shape(self):
        with pytest.raises(ShapeError):
            SkeletonSequence(0, np.zeros((2, 4, 2)))


class TestChunking:
    def test_constant_trajectory_repeats_point(self):
        seq = constant_sequence([1.0, 2.0, 3.0], joints=2, frames=9)
        u = temporal_chunking(seq, 3)
        assert u.shape == (9, 2)
        assert np.array_equal(u[:, 0], [1, 2, 3] * 3)

    def test_frames_equal_chunks_gives_raw_points(self):
        pts = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
        seq = SkeletonSequence(0, pts)
        u = temporal_chunking(seq, 4)
        assert np.array_equal(u[:, 1], pts[1].ravel())

    def test_uneven_split_7_into_3(self):
        assert chunk_sizes(7, 3) == [3, 2, 2]
        pts = np.zeros((1, 7, 3))
        pts[0, :, 0] = np.arange(7.0)
        seq = SkeletonSequence(0, pts)
        u = temporal_chunking(seq, 3)
        # chunks {0,1,2}, {3,4}, {5,6} -> x-averages 1, 3.5, 5.5
        assert np.array_equal(u[[0, 3, 6], 0], [1.0, 3.5, 5.5])

    def test_resampling_invariance_for_constant_trajectory(self):
        a = temporal_chunking(constant_sequence([0.5, -1.0, 2.0], frames=8), 4)
        b = temporal_chunking(constant_sequence([0.5, -1.0, 2.0], frames=32), 4)
        assert np.allclose(a, b)

    def test_too_few_frames_rejected(self):
        with pytest.raises(DomainError):
            temporal_chunking(constant_sequence([0, 0, 0], frames=3), 5)

    @pytest.mark.parametrize(
        "frames,chunks",
        [(7, 3), (13, 5), (40, 7), (100, 7), (9, 1), (40, 1), (5, 5), (1, 1), (40, 5)],
    )
    def test_matches_per_joint_oracle_bitwise(self, frames, chunks):
        rng = np.random.default_rng(frames * 31 + chunks)
        for joints in (1, 4, 15):
            pts = rng.standard_normal((joints, frames, 3)) * 10.0 ** rng.integers(-3, 4)
            seq = SkeletonSequence(0, pts)
            got = temporal_chunking(seq, chunks)
            want = chunk_means(seq.joints, chunks)
            assert got.shape == want.shape == (3 * chunks, joints)
            assert got.tobytes() == want.tobytes()

    def test_bad_chunk_count(self):
        with pytest.raises(DomainError):
            temporal_chunking(constant_sequence([0, 0, 0]), 0)


class TestSynthDataset:
    def test_deterministic(self):
        a = synth_dataset(3, 4, 5, 12, seed=9)
        b = synth_dataset(3, 4, 5, 12, seed=9)
        for sa, sb in zip(a, b):
            assert sa.label == sb.label
            assert np.array_equal(sa.joints, sb.joints)

    def test_zero_noise_makes_class_members_identical(self):
        seqs = synth_dataset(2, 3, 4, 10, seed=1, noise=0.0)
        by_class = {}
        for seq in seqs:
            by_class.setdefault(seq.label, []).append(seq.joints)
        for members in by_class.values():
            for other in members[1:]:
                assert np.array_equal(members[0], other)

    def test_labels_and_counts(self):
        seqs = synth_dataset(4, 5, 6, 10, seed=0)
        assert len(seqs) == 20
        assert sorted({s.label for s in seqs}) == [0, 1, 2, 3]

    def test_jitter_varies_samples_but_not_structure(self):
        seqs = synth_dataset(1, 3, 4, 10, seed=2, noise=0.0, phase_jitter=6.28)
        assert not np.array_equal(seqs[0].joints, seqs[1].joints)

    def test_bad_counts(self):
        with pytest.raises(DomainError):
            synth_dataset(0, 1, 1, 1, seed=0)


class TestFileFormats:
    def test_sequence_round_trip(self, tmp_path):
        seq = synth_dataset(2, 1, 3, 7, seed=4)[1]
        path = tmp_path / "seq.txt"
        save_sequence(seq, path)
        back = load_sequence(path)
        assert back.label == seq.label
        assert np.array_equal(back.joints, seq.joints)

    def test_dataset_round_trip(self, tmp_path):
        seqs = synth_dataset(2, 3, 4, 6, seed=5)
        save_dataset(seqs, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert len(back) == len(seqs)
        for sa, sb in zip(seqs, back):
            assert sa.label == sb.label
            assert np.array_equal(sa.joints, sb.joints)

    def test_mixed_joint_counts_name_the_first_odd_file(self, tmp_path):
        save_dataset(synth_dataset(1, 2, 4, 6, seed=5), tmp_path)
        save_sequence(synth_dataset(1, 1, 3, 6, seed=5)[0], tmp_path / "seq_00002.txt")
        save_sequence(synth_dataset(1, 1, 5, 6, seed=5)[0], tmp_path / "seq_00003.txt")
        with pytest.raises(DomainError, match="seq_00002.txt: 3 joints"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("", id="empty"),
            pytest.param("label 0\n", id="no-meta"),
            pytest.param("label 0\njoints 2 frames 1\n1 2 3\n", id="truncated"),
            pytest.param("label 0\njoints 1 frames 3\n1 2 3\n", id="declares-3-frames-holds-1"),
            pytest.param("label 0\njoints 1 frames 1\n1 2 3\n4 5 6\n", id="trailing-line"),
            pytest.param("label 0\njoints 1 frames 1\n1 2\n", id="row-of-2"),
            pytest.param("label 0\njoints 1 frames 1\n1 2 3 4\n", id="row-of-4"),
            pytest.param("label 0\njoints 1 frames 1\n1 x 3\n", id="not-a-number"),
            pytest.param("label x\njoints 1 frames 1\n1 2 3\n", id="label-not-int"),
            pytest.param("label -1\njoints 1 frames 1\n1 2 3\n", id="negative-label"),
            pytest.param("class 0\njoints 1 frames 1\n1 2 3\n", id="label-keyword"),
            pytest.param("label 0 1\njoints 1 frames 1\n1 2 3\n", id="label-fields"),
            pytest.param("label 0\njoints 1 frames 0\n", id="zero-frames"),
            pytest.param("label 0\njoints 1 frames x\n1 2 3\n", id="frames-not-int"),
            pytest.param("label 0\nnodes 1 frames 1\n1 2 3\n", id="meta-keyword"),
            pytest.param("label 0\njoints 1\n1 2 3\n", id="meta-fields"),
            pytest.param("label 0\njoints 1 frames 1\n1 2 \xff\n", id="non-ascii"),
        ],
    )
    def test_malformed_sequence_file(self, tmp_path, text):
        path = tmp_path / "seq.txt"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DomainError):
            load_sequence(path)
