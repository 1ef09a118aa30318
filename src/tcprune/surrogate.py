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
overflows, while log-sum-exp with a per-entry max shift is exact about the
dominating path and never produces a silent Inf. A shared positive rescale
never changes within-layer argmax decisions, and neither does the log map.
Each step loops over its reduction index, so it needs O(d_l * d_out)
memory; the step against the identity base is exact and skipped. A large
step splits its rows across the CPUs the process may use, one thread per
block of about 2**15 output entries or more; smaller blocks lose more to
interpreter-lock hand-offs than the extra core gains. Each entry is
computed the same way whatever the split, so tables do not depend on the
number of threads.

The edge score of connection (l, i -> j) is |W[l](i, j)| * max_k D[l](j, k);
for the last layer the identity base makes this plain |W[L](i, j)|.
log_score_matrix gives the log of every edge score of one layer at once.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .network import LayeredNetwork


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one (Linux), else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lse_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i,k] = log sum_j exp(a[i,j] + b[j,k]), with -inf acting as log 0.

    Large outputs split their rows into contiguous blocks, one thread each
    and at most one per usable CPU (numpy's ufuncs release the GIL). A block
    holds about 2**15 entries or more: with smaller blocks the GIL hand-offs
    of the per-j loop cost more than the extra core gains. Every entry takes
    the same operations in the same j order whatever the split, so the
    result is bit-identical to one block. An exception in any block is
    raised here once every block has finished.
    """
    rows = a.shape[0]
    blocks = min(_usable_cpus(), rows, rows * b.shape[1] >> 15)
    if blocks <= 1:
        return _lse_rows(a, b)
    parts = np.array_split(a, blocks)
    results: list = [None] * blocks

    def run(i: int) -> None:
        try:
            results[i] = _lse_rows(parts[i], b)
        except BaseException as exc:  # re-raised in the caller's thread
            results[i] = exc

    workers = [threading.Thread(target=run, args=(i,)) for i in range(1, blocks)]
    for w in workers:
        w.start()
    run(0)
    for w in workers:
        w.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return np.concatenate(results)


def _lse_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_lse_matmul on one block of rows: the terms are added in place, one j
    at a time, in the order of j. It sets its own errstate, because numpy's
    error state does not carry over into a worker thread."""
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


def _log_abs(w: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(w))


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
        self._check_layer(layer)
        return np.exp(self.log_downstream[layer - 1])

    def _check_layer(self, layer: int) -> None:
        if not 1 <= layer <= self.depth:
            raise IndexError(f"layer {layer} out of range 1..{self.depth}")


def build_table(net: LayeredNetwork, alpha: float) -> SurrogateTable:
    """Evaluate the downstream recursion back to front on |W|."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must satisfy 1/alpha >= 1, got {alpha}")
    depth = net.depth
    logs: list[np.ndarray] = [np.empty(0)] * depth
    logs[depth - 1] = _log_identity(net.dims[-1])
    if depth > 1:  # against the identity base the step returns its input
        logs[depth - 2] = alpha * (_log_abs(net.weights[depth - 1]) / alpha)
    for layer in range(depth - 2, 0, -1):
        logs[layer - 1] = alpha * _lse_matmul(
            _log_abs(net.weights[layer]) / alpha, logs[layer] / alpha
        )
    return SurrogateTable(tuple(logs))


def log_score_matrix(
    net: LayeredNetwork, layer: int, table: SurrogateTable | None = None
) -> np.ndarray:
    """Log scores of every connection of one layer (1..depth).

    Local scoring (table is None) reduces to log |W[layer]|. Global scoring
    adds the best downstream log-aggregate of each target neuron. Scores are
    only ever compared within a layer, so the log map is argmax-safe.
    """
    if not 1 <= layer <= net.depth:
        raise IndexError(f"layer {layer} out of range 1..{net.depth}")
    scores = _log_abs(net.weights[layer - 1])
    if table is not None:
        table._check_layer(layer)
        scores = scores + table.log_downstream[layer - 1].max(axis=1)[None, :]
    return scores
