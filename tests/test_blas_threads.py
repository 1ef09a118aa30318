"""Surrogate tables and GCN training do not depend on the BLAS thread count.

The same script runs in two fresh interpreters, one with
OPENBLAS_NUM_THREADS=1 and one with 2 (the variable is read when numpy
loads), and both print one sha256 of every result. The count an ablation
grid sets inside its process, through tcprune.blas, is tested last.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tcprune

SCRIPT = """
import hashlib

import numpy as np

from tcprune import gcn
from tcprune.surrogate import _lse_matmul

digest = hashlib.sha256()
rng = np.random.default_rng(0)
for rows, inner, cols in ((256, 256, 256), (60, 240, 4), (1024, 1024, 10), (32, 4096, 8)):
    a = np.log(np.abs(rng.standard_normal((rows, inner)))) / 0.1
    b = np.log(np.abs(rng.standard_normal((inner, cols)))) / 0.1
    digest.update(_lse_matmul(a, b).tobytes())
shape = gcn.GcnShape(heads=4, nodes=15, signal_dim=15, filters=16, num_classes=5)
signals = rng.standard_normal((600, 15, 15))
labels = rng.integers(0, 5, 600)
# 10 epochs of 3 steps at batch 200
model, losses = gcn.train(
    gcn.init_model(shape, seed=0), (signals, labels), gcn.TrainConfig(epochs=10, batch_size=200)
)
for array in (model.attention, model.conv, model.head, np.array(losses)):
    digest.update(array.tobytes())
print(digest.hexdigest())
"""


def _digest(threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(tcprune.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_tables_and_training_bit_identical_under_one_and_two_threads():
    one, two = _digest(1), _digest(2)
    assert len(one) == 64
    assert one == two


def test_openblas_thread_count_round_trip():
    from tcprune import blas

    handle = blas.openblas()
    if handle is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    before = handle.threads()
    assert before >= 1
    try:
        handle.set_threads(1)
        assert handle.threads() == 1
        handle.set_threads(before)
        assert handle.threads() == before
        with handle.one_thread():
            assert handle.threads() == 1
        assert handle.threads() == before
        with pytest.raises(RuntimeError), handle.one_thread():
            raise RuntimeError
        assert handle.threads() == before
    finally:
        handle.set_threads(before)
