"""Skeleton sequences: synthetic generation, temporal chunking, file I/O.

A sequence is a class label and a set of J joint trajectories in 3-D; the
GCN learns its joint-to-joint relations, so no skeleton graph is stored.
Temporal chunking turns a trajectory of any length into a fixed-size
descriptor: the frames are split into M contiguous chunks of near-equal size
and the per-chunk coordinate averages are concatenated. Column j of the
resulting signal matrix describes joint j.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyTrajectoryError, ShapeError
from .network import _atomic_write, _counts, _read_fields


@dataclass(frozen=True)
class SkeletonSequence:
    label: int
    joints: np.ndarray  # (J, T, 3)

    def __post_init__(self):
        joints = np.asarray(self.joints, dtype=np.float64)
        if joints.ndim != 3 or joints.shape[2] != 3:
            raise ShapeError(f"joints must have shape (J, T, 3), got {joints.shape}")
        if joints.shape[1] == 0:
            raise EmptyTrajectoryError("every trajectory must be nonempty")
        object.__setattr__(self, "joints", joints)

    @property
    def num_joints(self) -> int:
        return self.joints.shape[0]

    @property
    def num_frames(self) -> int:
        return self.joints.shape[1]


def chunk_sizes(frames: int, chunks: int) -> list[int]:
    """Near-equal partition: the first frames % chunks chunks get one extra."""
    q, r = divmod(frames, chunks)
    return [q + 1] * r + [q] * (chunks - r)


def temporal_chunking(seq: SkeletonSequence, chunks: int) -> np.ndarray:
    """Chunk-average descriptor matrix of shape (3 * chunks, num_joints)."""
    if chunks < 1:
        raise DomainError(f"chunk count must be positive, got {chunks}")
    frames = seq.num_frames
    if frames < chunks:
        raise DomainError(f"need at least {chunks} frames to form {chunks} chunks, got {frames}")
    bounds = np.cumsum([0] + chunk_sizes(frames, chunks))
    # (chunks, J, 3) -> rows ordered chunk-major, then coordinate
    means = np.stack([seq.joints[:, lo:hi].mean(axis=1) for lo, hi in zip(bounds, bounds[1:])])
    return means.transpose(0, 2, 1).reshape(3 * chunks, seq.num_joints)


def synth_dataset(
    num_classes: int,
    per_class: int,
    joints: int,
    frames: int,
    seed: int,
    noise: float = 0.05,
    phase_jitter: float = 0.0,
    scale_jitter: float = 0.0,
) -> list[SkeletonSequence]:
    """Class-separable sequences: per-class sinusoidal joint motions.

    Every class owns its own frequency/phase/amplitude/offset per joint and
    coordinate. Samples within a class differ by additive noise and,
    optionally, by a per-sample global phase offset (uniform in
    [0, phase_jitter]) and amplitude scale (uniform in 1 +- scale_jitter);
    jitter is shared by all joints of a sample, so class identity lives in
    the relative motion structure rather than absolute coordinates.
    Deterministic for a fixed seed.
    """
    if min(num_classes, per_class, joints, frames) < 1:
        raise DomainError("all generator counts must be positive")
    rng = np.random.default_rng(seed)
    shape = (num_classes, joints, 1, 3)
    freq = rng.uniform(0.5, 3.0, size=shape)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    amp = rng.uniform(0.5, 1.5, size=shape)
    base = rng.uniform(-1.0, 1.0, size=shape)
    t = np.linspace(0.0, 1.0, frames)[None, :, None]
    sequences = []
    for c in range(num_classes):
        for _ in range(per_class):
            offset = rng.uniform(0.0, phase_jitter) if phase_jitter > 0 else 0.0
            scale = 1.0 + rng.uniform(-scale_jitter, scale_jitter) if scale_jitter > 0 else 1.0
            clean = base[c] + scale * amp[c] * np.sin(
                2.0 * np.pi * freq[c] * t + phase[c] + offset
            )
            pts = clean + noise * rng.standard_normal(size=(joints, frames, 3))
            sequences.append(SkeletonSequence(c, pts))
    return sequences


# ---------------------------------------------------------------------------
# Text formats. Sequence file: "label k" / "joints J frames T" / T blocks of
# J lines "x y z". A dataset directory holds one file per sequence, seq_*.


def save_sequence(seq: SkeletonSequence, path) -> None:
    with _atomic_write(path) as fh:
        fh.write(f"label {seq.label}\n")
        fh.write(f"joints {seq.num_joints} frames {seq.num_frames}\n")
        for frame in range(seq.num_frames):
            for j in range(seq.num_joints):
                x, y, z = seq.joints[j, frame]
                fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")


def load_sequence(path) -> SkeletonSequence:
    """Read one sequence file. A bad label or meta line, a number of frame
    rows other than joints * frames, a row without 3 finite numbers and
    trailing lines raise DomainError."""
    lines = _read_fields(path)
    head = lines[0] if lines else []
    if len(head) != 2 or head[0] != "label" or not head[1].isdigit():
        raise DomainError(f"{path}: bad label line {' '.join(head)!r}")
    meta = lines[1] if len(lines) > 1 else []
    (n_joints,) = _counts(meta[:2], "joints", 1, path)
    (n_frames,) = _counts(meta[2:], "frames", 1, path)
    rows = lines[2:]
    if len(rows) != n_joints * n_frames:
        raise DomainError(
            f"{path}: {len(rows)} frame rows, expected {n_joints} joints x {n_frames} frames"
        )
    if any(len(row) != 3 for row in rows):
        raise DomainError(f"{path}: every frame row must hold 3 values")
    try:
        values = np.asarray([[float(v) for v in row] for row in rows])
        if not np.isfinite(values).all():
            raise ValueError("every coordinate must be finite")
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    joints = values.reshape(n_frames, n_joints, 3).transpose(1, 0, 2).copy()
    return SkeletonSequence(int(head[1]), joints)


def save_dataset(sequences: list[SkeletonSequence], dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    for idx, seq in enumerate(sequences):
        save_sequence(seq, os.path.join(dirpath, f"seq_{idx:05d}.txt"))


def load_dataset(dirpath) -> list[SkeletonSequence]:
    """Every seq_* file of a directory, other files ignored. No such file at
    all, or a file whose joint count differs from the first's, raises
    DomainError."""
    names = sorted(n for n in os.listdir(dirpath) if n.startswith("seq_"))
    if not names:
        raise DomainError(f"{dirpath}: no seq_* sequence files")
    sequences = [load_sequence(os.path.join(dirpath, n)) for n in names]
    for name, seq in zip(names, sequences):
        if seq.num_joints != sequences[0].num_joints:
            raise DomainError(
                f"{os.path.join(dirpath, name)}: {seq.num_joints} joints, "
                f"but {names[0]} has {sequences[0].num_joints}"
            )
    return sequences
