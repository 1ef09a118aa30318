"""Global magnitude-surrogate scores that drive chain selection.

For a layer l, the downstream table entry D[l](j, k) aggregates the
magnitudes of all paths from neuron j (output side of layer l) to output
neuron k. With the power-mean knob alpha it is the (1/alpha)-norm of the
per-path magnitude products:

    D[l] = ( |W[l+1]|^(1/alpha) . D[l+1]^(1/alpha) )^alpha,   D[L] = identity

alpha = 1 gives the plain product of absolute weight matrices (the sum over
all downstream paths); as alpha -> 0 each entry approaches the single
largest path product. The recursion runs in log space: the entrywise power
1/alpha can reach 1000, where any linear-domain evaluation under- or
overflows, while log-sum-exp with max shifts keeps every term in [0, 1]
and never produces a silent Inf. A shared positive rescale never changes
within-layer argmax decisions, and neither does the log map. Each step is
one matrix product of its two sides, each shifted by its own maxima, so it
needs memory of the size of its operands, not a (d_l, d_{l+1}, d_out)
temporary; a row whose sums underflow is redone exactly by a loop over the
reduction index. The step against the identity base is exact and skipped.

The edge score of connection (l, i -> j) is |W[l](i, j)| * max_k D[l](j, k);
for the last layer the identity base makes this plain |W[L](i, j)|.
log_score_matrix gives the log of every edge score of one layer at once. It
reads a table only through its row maxima, max_k log D[l](j, k), a few
floats per neuron, so a caller that scores one network at one alpha again
can keep those and drop the table. Both functions take log|W| from the
network's `log_magnitudes`, computed once per network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .network import LayeredNetwork, layers_of


def _lse_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i,k] = log sum_j exp(a[i,j] + b[j,k]), with -inf acting as log 0.

    With ra each row's max of a and cb each column's max of b (0 where
    that is -inf), the step is one matrix product:

        out = log(exp(a - ra) @ exp(b - cb)) + ra + cb

    Every factor lies in [0, 1], so each sum has the relative rounding
    error of a sum of non-negative terms and can lose its value only by
    underflow. An all -inf row of a or column of b sums to exactly 0, which
    is right; any other row with a sum below 2**-960 is redone by _lse_rows.
    """
    row_max = a.max(axis=1, keepdims=True)
    col_max = b.max(axis=0, keepdims=True)
    ra = np.where(np.isneginf(row_max), 0.0, row_max)
    cb = np.where(np.isneginf(col_max), 0.0, col_max)
    total = np.exp(a - ra) @ np.exp(b - cb)
    live_cols = np.isfinite(col_max[0])
    redo = np.isfinite(row_max[:, 0]) & (total[:, live_cols] < 2.0**-960).any(axis=1)
    with np.errstate(divide="ignore"):
        out = np.log(total, out=total)
    out += ra
    out += cb
    if redo.any():
        out[redo] = _lse_rows(a[redo], b)
    return out


def _lse_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_lse_matmul term by term, exact about each entry's largest term: a
    first pass over j finds each entry's max, a second adds the shifted
    terms in place, one j at a time, in the order of j. It is the fallback
    for rows whose product sums underflow, and the reference it is tested
    against."""
    term = np.empty((a.shape[0], b.shape[1]))
    mx = np.full_like(term, -np.inf)
    for j in range(b.shape[0]):
        np.maximum(mx, np.add(a[:, j, None], b[j], out=term), out=mx)
    shift = np.where(np.isfinite(mx), mx, 0.0)
    total = np.zeros_like(term)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(b.shape[0]):
            np.add(a[:, j, None], b[j], out=term)
            total += np.exp(np.subtract(term, shift, out=term), out=term)
        out = np.where(np.isfinite(mx), shift + np.log(total), -np.inf)
    return out


def _log_identity(n: int) -> np.ndarray:
    out = np.full((n, n), -np.inf)
    np.fill_diagonal(out, 0.0)
    return out


@dataclass(frozen=True)
class SurrogateTable:
    """Log-domain downstream products D[1..L]; D[L] is the identity base."""

    log_downstream: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        return len(self.log_downstream)

    def downstream(self, layer: int) -> np.ndarray:
        """Linear-domain table for one layer, shape (dims[layer], dims[-1])."""
        if not 1 <= layer <= self.depth:
            raise IndexError(f"layer {layer} out of range 1..{self.depth}")
        return np.exp(self.log_downstream[layer - 1])

    def row_maxima(self) -> tuple[np.ndarray, ...]:
        """Per layer, each neuron's best downstream log-aggregate
        max_k log D[l](j, k): all of the table that edge scores read."""
        return tuple(logs.max(axis=1) for logs in self.log_downstream)


def build_table(net: LayeredNetwork, alpha: float) -> SurrogateTable:
    """Evaluate the downstream recursion back to front on log|W|."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must satisfy 1/alpha >= 1, got {alpha}")
    depth = net.depth
    log_w = layers_of(net.log_magnitudes, net.dims)
    logs: list[np.ndarray] = [np.empty(0)] * depth
    logs[depth - 1] = _log_identity(net.dims[-1])
    if depth > 1:  # against the identity base the step returns its input
        logs[depth - 2] = alpha * (log_w[depth - 1] / alpha)
    for layer in range(depth - 2, 0, -1):
        logs[layer - 1] = alpha * _lse_matmul(log_w[layer] / alpha, logs[layer] / alpha)
    return SurrogateTable(tuple(logs))


def log_score_matrix(
    net: LayeredNetwork, layer: int, row_maxima: tuple[np.ndarray, ...] | None = None
) -> np.ndarray:
    """Log scores of every connection of one layer (1..depth).

    Local scoring (row_maxima is None) reduces to log |W[layer]|, the
    layer's read-only view of `net.log_magnitudes`. Global scoring adds the
    best downstream log-aggregate of each target neuron, read from
    `row_maxima`, a table's `row_maxima()`, into a new array. Scores are
    only ever compared within a layer, so the log map is argmax-safe.
    """
    if not 1 <= layer <= net.depth:
        raise IndexError(f"layer {layer} out of range 1..{net.depth}")
    scores = layers_of(net.log_magnitudes, net.dims)[layer - 1]
    if row_maxima is not None:
        best = row_maxima[layer - 1]
        if best.shape != (net.dims[layer],):
            raise ShapeError(f"layer {layer} needs {net.dims[layer]} row maxima, got {best.shape}")
        scores = scores + best[None, :]
    return scores
