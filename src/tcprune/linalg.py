"""Dense real-matrix and boolean-matrix helpers: `network` coerces weights
and masks with `as_dense` and `as_bools`; `row_normalize` builds the
row-stochastic networks the surrogate-table tests check.

Real matrices are 2-D float64 numpy arrays, boolean matrices are 2-D bool
numpy arrays. All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRowError, ShapeError


def as_dense(values) -> np.ndarray:
    """Coerce to a 2-D float64 array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def as_bools(values) -> np.ndarray:
    """Coerce to a 2-D bool array."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr.astype(bool)


def row_normalize(a) -> np.ndarray:
    """Divide each row by its sum of absolute values."""
    a = as_dense(a)
    sums = np.abs(a).sum(axis=1)
    zero = np.flatnonzero(sums == 0)
    if zero.size:
        raise DegenerateRowError(int(zero[0]))
    return a / sums[:, None]
