import numpy as np
import pytest

from tcprune.errors import DegenerateRowError
from tcprune.linalg import row_normalize


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
