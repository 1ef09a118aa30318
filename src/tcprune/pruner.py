"""Mask construction: standard, stochastic, and chain-based consistent pruning.

standard_mp keeps the globally largest absolute weights; stochastic_mp
samples connections without replacement proportionally to magnitude. Both
can leave kept connections dangling. tc_mp instead grows the mask one
complete input-to-output chain at a time, so its output is topologically
consistent by construction.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, DegenerateDistributionError, DomainError, SaturationError
from .network import LayeredNetwork, MaskTensor, budget
from .surrogate import build_table, log_score_matrix


@dataclass(frozen=True)
class PruneSpec:
    """Knobs of one pruning run; seeded stochastic modes are reproducible."""

    rate: float
    tc: bool = True
    stochastic: bool = False
    scoring: str = "local"  # "local" | "global"
    alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise DomainError(f"pruning rate must be in [0, 1), got {self.rate}")
        if self.scoring not in ("local", "global"):
            raise DomainError(f"unknown scoring {self.scoring!r}")
        if self.scoring == "global" and not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"global scoring needs 1/alpha >= 1, got alpha={self.alpha}")


class ChainTrace(NamedTuple):
    """One complete chain added by tc_mp: the neuron it visits at each
    depth 0..L, and how many mask bits it newly set."""

    path: tuple[int, ...]
    newly_added: int

    @property
    def steps(self) -> tuple[tuple[int, int, int], ...]:
        """(layer, from, to) per step; step t has layer t + 1 and starts
        where step t - 1 ended."""
        return tuple((t + 1, i, j) for t, (i, j) in enumerate(zip(self.path, self.path[1:])))


def _magnitudes(net: LayeredNetwork) -> np.ndarray:
    """|w| of every connection, layers concatenated in raveled order."""
    return np.concatenate([np.abs(w).ravel() for w in net.weights])


def _top_k(net: LayeredNetwork, keys: np.ndarray, max_kept: int) -> MaskTensor:
    """Keep the max_kept connections with the largest flat keys, in linear time.

    A mask is a set, so only the max_kept-th largest key is needed: every
    key above it is kept, and the slots left go to the lowest flat indices
    whose key equals it. Ties thus break toward the lexicographically
    smallest (layer, row, col), as a stable sort of -keys would, with -inf
    keys last. Keys are never NaN: LayeredNetwork rejects non-finite weights.
    """
    n = keys.size
    if max_kept >= n:
        chosen = np.ones(n, dtype=bool)
    elif max_kept == 0:
        chosen = np.zeros(n, dtype=bool)
    else:
        cut = np.partition(keys, n - max_kept)[n - max_kept]
        chosen = keys > cut
        ties = np.flatnonzero(keys == cut)
        chosen[ties[: max_kept - np.count_nonzero(chosen)]] = True
    masks, offset = [], 0
    for w in net.weights:
        masks.append(chosen[offset : offset + w.size].reshape(w.shape))
        offset += w.size
    return MaskTensor(tuple(masks))


def standard_mp(net: LayeredNetwork, rate: float) -> MaskTensor:
    """Keep the max_kept connections with the largest absolute weights."""
    return _top_k(net, _magnitudes(net), budget(net, rate).max_kept)


def stochastic_mp(net: LayeredNetwork, rate: float, seed: int) -> MaskTensor:
    """Sample max_kept connections without replacement, p proportional to |w|.

    Implemented as Gumbel top-k on log magnitudes, which draws from the same
    distribution as sequentially sampling proportionally to the remaining
    weights. Zero-magnitude connections are only chosen once every positive
    one is selected.
    """
    max_kept = budget(net, rate).max_kept
    flat = _magnitudes(net)
    if not flat.any():
        raise DegenerateDistributionError("all weights are zero")
    rng = np.random.default_rng(seed)
    with np.errstate(divide="ignore"):
        keys = np.log(flat) + rng.gumbel(size=flat.size)
    return _top_k(net, keys, max_kept)


def _argmax_chooser(scores: np.ndarray) -> Callable[[int], int]:
    """Next-neuron choice by argmax of a layer's scores, fresh columns first.

    Preferring connections not selected yet keeps the budget filling once a
    start neuron's best chain repeats. Each row's order by (-score, col) is
    computed once. A row's mask bits are set only by the chains passing
    through it, and each pass sets the column chosen here, so the set bits
    of a row are exactly the first `fresh[row]` entries of its order. The
    next entry is then the highest-scoring unselected column, lowest index
    among ties; once the row is full its overall best column repeats.
    """
    n = scores.shape[1]
    order = memoryview(np.argsort(-scores, axis=1, kind="stable").reshape(-1))
    fresh = [0] * scores.shape[0]

    def choose(row: int) -> int:
        p = fresh[row]
        if p == n:
            return order[row * n]
        fresh[row] = p + 1
        return order[row * n + p]

    return choose


def _choice_cdf(row_scores: np.ndarray) -> memoryview:
    """The CDF Generator.choice builds from a row's softmax probabilities."""
    mx = row_scores.max()
    if mx == -np.inf:
        # every forward neighbor has zero magnitude; fall back to uniform
        probs = np.full(row_scores.size, 1.0 / row_scores.size)
    else:
        weights = np.exp(row_scores - mx)
        probs = weights / weights.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return memoryview(cdf)


def _sample_chooser(scores: np.ndarray, rng: np.random.Generator) -> Callable[[int], int]:
    """Next-neuron choice sampled proportionally to exp(score).

    Draws the same numbers and returns the same index as
    `rng.choice(n, p=probs)`, which inverts its CDF with one `rng.random()`
    and a right-sided search; the CDF of a row is built on its first visit
    and kept, since scores do not change during selection. O(log n) per step.
    """
    cdfs: list[memoryview | None] = [None] * scores.shape[0]

    def choose(row: int) -> int:
        cdf = cdfs[row]
        if cdf is None:
            cdf = cdfs[row] = _choice_cdf(scores[row])
        return bisect_right(cdf, rng.random())

    return choose


def tc_mp_trace(net: LayeredNetwork, spec: PruneSpec) -> tuple[MaskTensor, list[ChainTrace]]:
    """Chain-based consistent pruning, returning the chains it selected.

    Chains start at an input neuron, round-robin when deterministic and
    uniformly drawn when stochastic, and extend layer by layer to an output
    neuron, choosing the next neuron by argmax of the edge score
    (deterministic) or by sampling proportionally to it (stochastic). The
    budget counter advances only on newly set mask bits and is checked
    before each chain, so the final chain may overshoot by at most L - 1.

    A step costs O(1) amortised when deterministic (a presorted row order
    and a pointer to its first unselected column) and O(log width) when
    stochastic (a search in the row's cached CDF). The stochastic random
    stream is exactly the one of `rng.integers(d0)` per chain start and
    `rng.choice(width, p=softmax(row))` per step.
    """
    if not spec.tc:
        raise DomainError("chain pruning requires spec.tc == True")
    b = budget(net, spec.rate)
    depth = net.depth
    if b.max_kept < depth:
        raise BudgetError(
            f"budget {b.max_kept} cannot hold one complete chain of {depth} connections"
        )
    table = build_table(net, spec.alpha) if spec.scoring == "global" else None
    scores = [log_score_matrix(net, layer, table) for layer in range(1, depth + 1)]
    masks = [np.zeros(w.shape, dtype=bool) for w in net.weights]
    rng = np.random.default_rng(spec.seed)
    if spec.stochastic:
        choosers = [_sample_chooser(s, rng) for s in scores]
    else:
        choosers = [_argmax_chooser(s) for s in scores]
    levels = [(m.shape[1], memoryview(m.reshape(-1)), choose) for m, choose in zip(masks, choosers)]
    # Deterministic selection repeats verbatim after one full round-robin
    # sweep with no new bits; stochastic selection gets a generous allowance
    # before it is declared stuck.
    d0 = net.dims[0]
    stall_limit = d0 if not spec.stochastic else max(32 * d0, 1000)
    traces: list[ChainTrace] = []
    kept = 0
    stall = 0
    while kept < b.max_kept:
        cur = int(rng.integers(d0)) if spec.stochastic else len(traces) % d0
        path = [cur]
        new_bits = 0
        for width, bits, choose in levels:
            nxt = choose(cur)
            at = cur * width + nxt
            if not bits[at]:
                bits[at] = True
                new_bits += 1
            path.append(nxt)
            cur = nxt
        kept += new_bits
        traces.append(ChainTrace(tuple(path), new_bits))
        if new_bits == 0:
            stall += 1
            if stall >= stall_limit:
                raise SaturationError(kept, b.max_kept)
        else:
            stall = 0
    return MaskTensor(tuple(masks)), traces


def tc_mp(net: LayeredNetwork, spec: PruneSpec) -> MaskTensor:
    """Topologically consistent magnitude pruning (chain selection)."""
    return tc_mp_trace(net, spec)[0]


def prune(net: LayeredNetwork, spec: PruneSpec) -> MaskTensor:
    """Dispatch on the spec: chain pruning when tc, plain or sampled otherwise."""
    if spec.tc:
        return tc_mp(net, spec)
    if spec.stochastic:
        return stochastic_mp(net, spec.rate, spec.seed)
    return standard_mp(net, spec.rate)
