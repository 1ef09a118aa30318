"""Mask construction: standard, stochastic, and chain-based consistent pruning.

standard_mp keeps the globally largest absolute weights; stochastic_mp
samples connections without replacement proportionally to magnitude. Both
can leave kept connections dangling. tc_mp instead grows the mask from
complete input-to-output chains, so its output is topologically consistent
by construction. It selects them a block of chains at a time, each layer of
a block in a few array operations, with the result of one chain at a time.
Every block reads one table per layer. When stochastic, the call builds each
row's softmax CDF up front. When deterministic, the table holds the first
entries of each row's column order by (-score, col), as many as the blocks
so far have read, and is rebuilt longer when a block reads past it.
"""

from __future__ import annotations

from collections.abc import Sequence
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
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")


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


def _choice_cdfs(scores: np.ndarray) -> np.ndarray:
    """Each row's CDF as Generator.choice builds it from the row's softmax
    probabilities, uniform for a row that scores -inf throughout."""
    mx = scores.max(axis=1, keepdims=True)
    flat = mx[:, 0] == -np.inf  # every forward neighbor has zero magnitude
    mx[flat] = 0.0
    cdfs = np.exp(scores - mx)
    cdfs[flat] = 1.0
    cdfs /= cdfs.sum(axis=1, keepdims=True)
    np.cumsum(cdfs, axis=1, out=cdfs)
    cdfs /= cdfs[:, -1:]
    return cdfs


def _chain_draws(
    rng: np.random.Generator, d0: int, size: int, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """The starts and step draws of `size` chains, rebuilt from raw words.

    They equal `rng.integers(d0)` then `rng.random(out=row)` per chain, and
    so does the generator's state afterwards. `random` turns one 64-bit
    word w into (w >> 11) * 2**-53. `integers(d0)` draws nothing when
    d0 == 1. Otherwise it takes a 32-bit half: the half the PCG64 state
    holds (`has_uint32`, `uinteger`), or else the low half of a fresh word,
    whose high half it holds for the next start. Lemire's method maps the
    half x to (x * d0) >> 32 and rejects x when the low 32 bits of x * d0
    fall below 2**32 % d0. A block with a rejection is redrawn with the
    per-chain calls; so is every block when d0 > 2**32, where numpy takes
    64-bit words and the threshold 2**32 rejects every half here.
    """
    bitgen = rng.bit_generator
    before = bitgen.state
    held = before["has_uint32"]
    index = np.arange(size)
    # chains whose start takes a fresh word: every other one, from the
    # first that finds no held half
    fresh = (d0 > 1) & (index >= held) & ((index - held) % 2 == 0)
    first = index * depth + np.cumsum(fresh) - fresh  # each chain's first word
    words = bitgen.random_raw(size * depth + np.count_nonzero(fresh))
    draws = (words[(first + fresh)[:, None] + np.arange(depth)] >> 11) * 2.0**-53
    if d0 == 1:
        return np.zeros(size, dtype=np.intp), draws
    taken = words[first[fresh]]
    halves = np.stack((taken & 0xFFFFFFFF, taken >> 32), axis=1).ravel()
    if held:
        halves = np.concatenate(([np.uint64(before["uinteger"])], halves))
    scaled = halves[:size] * np.uint64(d0)
    if ((scaled & 0xFFFFFFFF) < 2**32 % d0).any():
        bitgen.state = before
        starts = np.empty(size, dtype=np.intp)
        for c in range(size):
            starts[c] = rng.integers(d0)
            rng.random(out=draws[c])
        return starts, draws
    after = bitgen.state
    after["has_uint32"] = int(halves.size > size)
    after["uinteger"] = int(halves[-1])  # numpy leaves a used half in place
    bitgen.state = after
    return (scaled >> 32).astype(np.intp), draws


def _order_prefix(scores: np.ndarray, k: int) -> np.ndarray:
    """The first k entries of each row's column order by (-score, col):
    `np.argsort(-scores, axis=1, kind="stable")[:, :k]`, without sorting
    whole rows.

    A partition gives each row its k best columns, which a plain sort then
    orders by score. That order is the stable one unless ties are involved,
    so a row is redone with the full stable argsort when two of its k scores
    are equal, or when its k-th score has a tie the partition left out.
    """
    width = scores.shape[1]
    if k >= width:
        return np.argsort(-scores, axis=1, kind="stable")
    part = np.argpartition(scores, width - k, axis=1)[:, width - k :]
    sub = np.take_along_axis(scores, part, axis=1)
    by_score = np.argsort(-sub, axis=1)
    sub = np.take_along_axis(sub, by_score, axis=1)
    prefix = np.take_along_axis(part, by_score, axis=1)
    tied = (sub[:, 1:] == sub[:, :-1]).any(axis=1)
    tied |= np.count_nonzero(scores >= sub[:, -1:], axis=1) > k
    if tied.any():
        prefix[tied] = np.argsort(-scores[tied], axis=1, kind="stable")[:, :k]
    return prefix


def _ranked_steps(
    fresh: np.ndarray, rows: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positions in their rows' column order of a block's argmax visits to
    `rows`, and which set a new bit.

    Preferring connections not selected yet keeps the budget filling once a
    start neuron's best chain repeats. A row's mask bits are set only by the
    chains passing through it, and each pass sets the column chosen here, so
    the set bits of a row are exactly the first `fresh[row]` entries of its
    order by (-score, col). The r-th visit of a row in the block therefore
    takes position fresh[row] + r, the highest-scoring unselected column
    (lowest index among ties), until the row's `width` columns are all set;
    then it takes position 0, the row's overall best column.
    """
    by_row = np.argsort(rows, kind="stable")
    sorted_rows = rows[by_row]
    index = np.arange(rows.size)
    first = np.concatenate(([True], sorted_rows[1:] != sorted_rows[:-1]))
    rank = np.empty_like(rows)
    rank[by_row] = index - np.maximum.accumulate(np.where(first, index, 0))
    pos = fresh[rows] + rank
    new = pos < width
    return np.where(new, pos, 0), new


def _sampled_steps(
    cdfs: np.ndarray, bits: np.ndarray, rows: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled next columns of a block's visits to `rows`, and which set a new bit.

    Visit c takes the number of entries of its row's CDF that are <= draws[c],
    which is the right-sided search `Generator.choice` does for the same
    draw. A CDF never decreases, so that count is found by one bisection over
    all visits at once, each probe raising a count by a power of two when the
    entry it reads is <= the draw; its last entry is exactly 1.0, above every
    draw, so a probe past the row reads it and fails. A column sets a new bit
    when its bit was unset before the block and no earlier visit in the
    block took it.
    """
    width = cdfs.shape[1]
    entries = cdfs.reshape(-1)
    before_row = rows * width - 1  # probe p reads entry p - 1 of the visit's row
    cols = np.zeros_like(rows)
    for shift in reversed(range(width.bit_length())):
        probe = cols + (1 << shift)
        cols = np.where(entries[before_row + np.minimum(probe, width)] <= draws, probe, cols)
    at = before_row + 1 + cols
    _, first = np.unique(at, return_index=True)
    new = np.zeros(rows.size, dtype=bool)
    new[first] = ~bits.reshape(-1)[at[first]]
    return cols, new


class ChainTraces(Sequence[ChainTrace]):
    """The chains tc_mp_trace selected, in order, as arrays: row c of `paths`
    holds the neuron chain c visits at each depth 0..L, and `newly_added[c]`
    the mask bits it newly set. A ChainTrace is built only when indexed."""

    def __init__(self, paths: np.ndarray, newly_added: np.ndarray):
        self.paths = paths
        self.newly_added = newly_added
        paths.flags.writeable = False
        newly_added.flags.writeable = False

    def __len__(self) -> int:
        return len(self.newly_added)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ChainTraces(self.paths[i], self.newly_added[i])
        return ChainTrace(tuple(self.paths[i].tolist()), int(self.newly_added[i]))

    def __iter__(self):
        for path, new_bits in zip(self.paths.tolist(), self.newly_added.tolist()):
            yield ChainTrace(tuple(path), new_bits)


def tc_mp_trace(net: LayeredNetwork, spec: PruneSpec) -> tuple[MaskTensor, ChainTraces]:
    """Chain-based consistent pruning, returning the chains it selected.

    Chains start at an input neuron, round-robin when deterministic and
    uniformly drawn when stochastic, and extend layer by layer to an output
    neuron, choosing the next neuron by argmax of the edge score
    (deterministic) or by sampling proportionally to it (stochastic). The
    budget counter advances only on newly set mask bits and is checked
    before each chain, so the final chain may overshoot by at most L - 1.

    Chains are chosen a block at a time, one layer of the whole block per
    array operation. A chain's steps depend only on the chains before it,
    so the block is cut after the first chain that reaches the budget or
    completes a stall run, and masks, chains, SaturationError.kept and the
    random stream equal those of selecting one chain at a time. A block
    holds max(d0, ceil(remaining budget / L)) chains: no more than are
    still needed, since a chain sets at most L bits, or one round-robin
    sweep. A stochastic call starts with every row's CDF, one table the size
    of each layer's scores. A deterministic call reads, per layer, each row's
    order prefix: empty at first, and rebuilt by `_order_prefix` to twice
    the entries a block reads when the block reads past its end. Each
    rebuild more than doubles the prefix, so a layer is built at most
    1 + log2(width) times; on the bench's nets, once. Per block and layer, a
    deterministic step then costs a stable sort of the block's rows, and a
    stochastic step one bisection of log2(width) array passes over the
    block's visits plus a sort of their slots; the block's starts and draws
    come from one `random_raw` call (see `_chain_draws`). The stochastic
    random stream is exactly the one of `rng.integers(d0)` per chain start
    and `rng.choice(width, p=softmax(row))` per step.
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
        cdfs = [_choice_cdfs(s) for s in scores]
    else:
        # each layer's order prefix, rebuilt longer when a block reads past it
        orders = [np.empty((s.shape[0], 0), dtype=np.intp) for s in scores]
        fresh = [np.zeros(s.shape[0], dtype=np.intp) for s in scores]
    # Deterministic selection repeats verbatim after one full round-robin
    # sweep with no new bits; stochastic selection gets a generous allowance
    # before it is declared stuck.
    d0 = net.dims[0]
    stall_limit = d0 if not spec.stochastic else max(32 * d0, 1000)
    paths: list[np.ndarray] = []
    gains: list[np.ndarray] = []
    chains = kept = stall = 0
    while kept < b.max_kept:
        size = max(d0, -(-(b.max_kept - kept) // depth))
        path = np.empty((size, depth + 1), dtype=np.intp)
        new = np.empty((size, depth), dtype=bool)
        if spec.stochastic:
            path[:, 0], draws = _chain_draws(rng, d0, size, depth)
            for t, cdf in enumerate(cdfs):
                path[:, t + 1], new[:, t] = _sampled_steps(cdf, masks[t], path[:, t], draws[:, t])
        else:
            path[:, 0] = np.arange(chains, chains + size) % d0
            for t, s in enumerate(scores):
                pos, new[:, t] = _ranked_steps(fresh[t], path[:, t], s.shape[1])
                needed = int(pos.max()) + 1
                if needed > orders[t].shape[1]:
                    orders[t] = _order_prefix(s, 2 * needed)
                path[:, t + 1] = orders[t][path[:, t], pos]
        gain = new.sum(axis=1)
        reached = kept + np.cumsum(gain)
        index = np.arange(size)
        last_gain = np.maximum.accumulate(np.where(gain > 0, index, -1))
        run = np.where(last_gain >= 0, index - last_gain, stall + index + 1)
        stops = np.flatnonzero((reached >= b.max_kept) | (run >= stall_limit))
        end = int(stops[0]) + 1 if stops.size else size
        for t, m in enumerate(masks):
            step = new[:end, t]
            rows = path[:end, t][step]
            m[rows, path[:end, t + 1][step]] = True
            if not spec.stochastic:
                fresh[t] += np.bincount(rows, minlength=fresh[t].size)
        paths.append(path[:end])
        gains.append(gain[:end])
        chains += end
        kept = int(reached[end - 1])
        stall = int(run[end - 1])
        if stall >= stall_limit:
            # the chains so far, readable from this frame when it raises
            traces = ChainTraces(np.concatenate(paths), np.concatenate(gains))
            raise SaturationError(kept, b.max_kept)
    traces = ChainTraces(np.concatenate(paths), np.concatenate(gains))
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
