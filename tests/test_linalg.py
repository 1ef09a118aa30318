import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tcprune.errors import DegenerateRowError, ShapeError
from tcprune.linalg import hadamard, row_normalize


class TestHadamard:
    def test_all_ones_and_zeros(self, rng):
        a = rng.standard_normal((3, 4))
        assert np.array_equal(hadamard(a, np.ones((3, 4))), a)
        assert np.array_equal(hadamard(a, np.zeros((3, 4))), np.zeros((3, 4)))

    def test_hand_example(self):
        out = hadamard([[1, -2], [3, 4]], [[0, 1], [1, 0]])
        assert np.array_equal(out, [[0, -2], [3, 0]])

    @given(
        a=arrays(np.float64, (4, 3), elements=st.floats(-1e6, 1e6)),
        m=arrays(np.bool_, (4, 3)),
    )
    def test_masked_entries_are_exact_zeros(self, a, m):
        out = hadamard(a, m)
        assert (out[~m] == 0.0).all()
        assert np.array_equal(out[m], a[m])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            hadamard(np.ones((2, 2)), np.ones((2, 3)))


class TestRowNormalize:
    def test_examples(self):
        assert np.array_equal(row_normalize([[2.0, 2.0]]), [[0.5, 0.5]])
        out = row_normalize([[1.0, 3.0], [0.0, 5.0]])
        assert np.array_equal(out, [[0.25, 0.75], [0.0, 1.0]])

    def test_already_stochastic_unchanged(self, rng):
        a = rng.random((4, 5)) + 0.1
        a = a / a.sum(axis=1, keepdims=True)
        assert np.abs(row_normalize(a) - a).max() <= 1e-12

    def test_rows_sum_to_one(self, rng):
        a = rng.random((6, 4)) + 0.01
        out = row_normalize(a)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12

    def test_zero_row_identifies_index(self):
        with pytest.raises(DegenerateRowError) as exc:
            row_normalize([[1.0, 2.0], [0.0, 0.0]])
        assert exc.value.row == 1
