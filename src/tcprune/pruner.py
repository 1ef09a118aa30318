"""Mask construction: standard, stochastic, and chain-based consistent pruning.

standard_mp keeps the globally largest absolute weights; stochastic_mp
samples connections without replacement proportionally to magnitude. Both
find their cut with `_cut`, which partitions only the keys at or above a
bracket read off a strided sample; stochastic_mp builds its keys from the
network's log magnitudes with vectorised logs and calls libm's log only for
the few near the cut. Both can leave kept connections dangling. tc_mp
instead grows the mask from complete input-to-output chains, so its output
is topologically consistent by construction. It selects them a block of
chains at a time, each layer of a block in a few array operations, with the
result of one chain at a time. Every block reads one table per layer: when
stochastic, each row's softmax CDF; when deterministic, the first entries
of each row's column order by (-score, col), as many as the blocks so far
have read. A block's step through a layer groups its visits by row, or
finds each slot's first visit, with stable sorts of ids in the smallest
unsigned type that holds them, which numpy does by radix for layers up to
65,536 neurons wide, in time linear in the block's visits.

A network is scored once, and its scores and chain tables are shared by
the prunes that follow. log|w| is the network's `log_magnitudes`, computed
on first use: local scores are views of it, and stochastic_mp and the
surrogate table read it. A chain prune keeps a `_ChainTables` record on the
network (`LayeredNetwork.memo`, keyed by scoring and alpha): the per-layer
scores, the CDFs once a stochastic prune has built them, and per layer the
longest order prefix built so far. A later prune at the same scoring and
alpha builds no surrogate table and no CDFs, and builds a layer's prefix
only when it reads past the held one. Every array it holds is read-only
and published only when complete, and a k-entry prefix is the first k
entries of every longer one, so masks and chains do not depend on what the
network held before. standard_mp keeps its own |w| keys: float log is not
strictly increasing, so keys taken from the logs could tie where magnitudes
do not and move its masks.

Every whole-layer pass is one range function that `parallel.over_rows`
runs over contiguous row ranges, one per usable CPU, each writing its rows
of one output: the magnitudes, stochastic_mp's keys, the CDFs, the order
prefixes and a block's bisection, as well as the network's log magnitudes.
A pass too small to give each range 2**16 entries is the same function over
every row, on the calling thread. Each element is computed by the same numpy
operation on the same values either way, so every result is the same bits
on any number of CPUs.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import parallel
from .errors import BudgetError, DegenerateDistributionError, DomainError, SaturationError
from .network import LayeredNetwork, MaskTensor, budget, layers_of
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
        if self.scoring == "global" and not self.tc:
            raise DomainError("global scoring needs tc: plain pruning ignores scoring and alpha")
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
    flat = np.empty(sum(w.size for w in net.weights))
    for w, out in zip(net.weights, layers_of(flat, net.dims)):
        parallel.over_rows(lambda lo, hi: np.abs(w[lo:hi], out=out[lo:hi]), *w.shape)
    return flat


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
        cut = _cut(keys, max_kept)
        chosen = keys > cut
        ties = np.flatnonzero(keys == cut)
        chosen[ties[: max_kept - np.count_nonzero(chosen)]] = True
    return MaskTensor(layers_of(chosen, net.dims))


_SAMPLE = 4096  # keys in the strided sample `_bracket` reads its bound off


def _bracket(keys: np.ndarray, max_kept: int) -> np.ndarray | None:
    """The keys at or above a lower bound on the max_kept-th largest key,
    in a new array, or None where the sample misses or a bracket saves
    nothing.

    The bound is read off a strided sample of about _SAMPLE keys, as Floyd
    and Rivest (1975) bracket a selection: the sample's rank-th largest key,
    with rank the max_kept-th largest's expected rank in the sample plus
    three standard deviations. Fewer than max_kept keys reach it only when
    the sample overstates the large keys, and then this gives None. It
    gives None too where a bracket would save little or nothing: a rank
    past the sample's end, every key at or above the bound, or an array
    under two samples long, which a stride of 1 would sample whole.
    """
    n = keys.size
    stride = n // _SAMPLE
    if stride < 2:
        return None
    sample = keys[::stride]
    expect = max_kept * sample.size / n
    rank = math.ceil(expect + 3.0 * math.sqrt(expect)) + 1
    if rank >= sample.size:
        return None
    bound = np.partition(sample, sample.size - rank)[sample.size - rank]
    above = keys >= bound
    if not max_kept <= np.count_nonzero(above) < n:
        return None
    return keys[above]


def _cut(keys: np.ndarray, max_kept: int) -> np.floating:
    """The max_kept-th largest key, 0 < max_kept < n = keys.size:
    `np.partition(keys, n - max_kept)[n - max_kept]`. Where `_bracket`
    finds a bound, only the keys at or above it are partitioned, in place:
    they are the largest keys, at least max_kept of them, so their
    max_kept-th largest is the same key. Otherwise it is that full
    partition, which copies every key."""
    above = _bracket(keys, max_kept)
    if above is None:
        return np.partition(keys, keys.size - max_kept)[keys.size - max_kept]
    above.partition(above.size - max_kept)
    return above[above.size - max_kept]


def standard_mp(net: LayeredNetwork, rate: float) -> MaskTensor:
    """Keep the max_kept connections with the largest absolute weights."""
    return _top_k(net, _magnitudes(net), budget(net, rate).max_kept)


def stochastic_mp(net: LayeredNetwork, rate: float, seed: int) -> MaskTensor:
    """Sample max_kept connections without replacement, p proportional to |w|.

    Implemented as Gumbel top-k on log magnitudes, which draws from the same
    distribution as sequentially sampling proportionally to the remaining
    weights. Zero-magnitude connections are only chosen once every positive
    one is selected.

    The mask is `_top_k` of `np.log(|w|) + rng.gumbel(size=n)` with
    `rng = np.random.default_rng(seed)`, bit for bit. `_gumbel_top_k` finds
    it from one `random_raw` call and vectorised logs, recomputing with
    libm's log only the few keys near the cut, and this falls back to the
    `gumbel` call where that does not apply. A budget that keeps none, or at
    least every connection of nonzero weight, draws nothing: the mask is
    then every finite key and the lowest-index zero weights, whatever the
    draws.
    """
    max_kept = budget(net, rate).max_kept
    logs = net.log_magnitudes
    nonzero = int(np.count_nonzero(logs != -np.inf))
    if not nonzero:
        raise DegenerateDistributionError("all weights are zero")
    if not 0 < max_kept < nonzero:
        return _top_k(net, logs, max_kept)
    bitgen = np.random.PCG64(seed)  # the bit generator of default_rng(seed)
    start = bitgen.state

    def word(i: int) -> int:
        bitgen.state = start
        bitgen.advance(i)
        return int(bitgen.random_raw())

    chosen = _gumbel_top_k(logs, bitgen.random_raw(logs.size), max_kept, word)
    if chosen is None:
        return _top_k(net, logs + np.random.default_rng(seed).gumbel(size=logs.size), max_kept)
    return MaskTensor(layers_of(chosen, net.dims))


_KEY_BLOCK = 1 << 14  # keys built per pass, so each pass's temporaries stay in cache


def _gumbel_top_k(
    logs: np.ndarray, words: np.ndarray, max_kept: int, word: Callable[[int], int]
) -> np.ndarray | None:
    """Flat flags of the max_kept largest keys `logs + g`, with g the draws
    `Generator.gumbel` makes from the raw `words`, or None where it cannot tell.
    It needs more than max_kept finite `logs`, which makes the cut finite.

    numpy's `random_gumbel` turns a word w into U = 1 - (w >> 11) * 2**-53
    and returns 0.0 - log(-log(U)) by libm's log, redrawing when U == 1.
    Here every key is built with np.log instead, in place in `words`, and
    lies within about 1e-13 of the exact one. With `cut` the approximate
    max_kept-th largest key, the exact one is then within that distance of
    it too: a key more than 1e-9 * (1 + |cut|) above `cut` is kept, and one
    that far below it is dropped. The band between holds `cut` itself and
    usually nothing else, so it fills the slots left. Only when it holds
    more are its keys recomputed exactly, each from its word, `word(i)`
    returning words[i] as drawn, and ranked by (-key, flat index), the order
    in which `_top_k` keeps them. None means falling back to the `gumbel`
    call, when a word has w >> 11 == 0, which numpy redraws.
    """
    if words.min() < 1 << 11:
        return None
    keys = words.view(np.float64)

    def fill(lo: int, hi: int) -> None:
        for start in range(lo, hi, _KEY_BLOCK):
            part = slice(start, min(start + _KEY_BLOCK, hi))
            t = 1.0 - (words[part] >> 11) * 2.0**-53
            np.log(t, out=t)
            np.negative(t, out=t)
            np.log(t, out=t)
            np.subtract(logs[part], t, out=keys[part])  # words[part] is read by now

    parallel.over_rows(fill, words.size)
    cut = float(_cut(keys, max_kept))
    tol = 1e-9 * (1.0 + abs(cut))
    chosen = keys >= cut - tol  # the keys kept and the band
    surplus = int(np.count_nonzero(chosen)) - max_kept
    if surplus:
        band = np.flatnonzero(chosen & (keys <= cut + tol)).tolist()
        exact = [
            float(logs[i]) + (0.0 - math.log(-math.log(1.0 - (word(i) >> 11) * 2.0**-53)))
            for i in band
        ]
        ranked = sorted(zip((-e for e in exact), band))
        chosen[[i for _, i in ranked[len(band) - surplus :]]] = False
    return chosen


def _choice_cdfs(scores: np.ndarray) -> np.ndarray:
    """Each row's CDF as Generator.choice builds it from the row's softmax
    probabilities, uniform for a row that scores -inf throughout, in a new
    array; `scores` is only read."""
    out = np.empty(scores.shape)

    def fill(lo: int, hi: int) -> None:
        rows, cdfs = scores[lo:hi], out[lo:hi]
        mx = rows.max(axis=1, keepdims=True)
        flat = mx[:, 0] == -np.inf  # every forward neighbor has zero magnitude
        mx[flat] = 0.0
        np.exp(np.subtract(rows, mx, out=cdfs), out=cdfs)
        cdfs[flat] = 1.0
        cdfs /= cdfs.sum(axis=1, keepdims=True)
        np.cumsum(cdfs, axis=1, out=cdfs)
        cdfs /= cdfs[:, -1:]

    parallel.over_rows(fill, *scores.shape)
    return out


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
    height, width = scores.shape
    prefix = np.empty((height, min(k, width)), dtype=np.intp)

    def fill(lo: int, hi: int) -> None:
        rows = scores[lo:hi]
        if k >= width:
            prefix[lo:hi] = np.argsort(-rows, axis=1, kind="stable")
            return
        part = np.argpartition(rows, width - k, axis=1)[:, width - k :]
        sub = np.take_along_axis(rows, part, axis=1)
        by_score = np.argsort(-sub, axis=1)
        sub = np.take_along_axis(sub, by_score, axis=1)
        order = np.take_along_axis(part, by_score, axis=1)
        tied = (sub[:, 1:] == sub[:, :-1]).any(axis=1)
        tied |= np.count_nonzero(rows >= sub[:, -1:], axis=1) > k
        if tied.any():
            order[tied] = np.argsort(-rows[tied], axis=1, kind="stable")[:, :k]
        prefix[lo:hi] = order

    parallel.over_rows(fill, height, width)
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

    The visits are grouped by a stable argsort of their rows in the smallest
    unsigned type that holds them, which numpy does as a radix sort up to 16
    bits. A stable order is unique, so the narrowed keys give the same
    permutation as the rows themselves.
    """
    by_row = np.argsort(rows.astype(np.min_scalar_type(fresh.size - 1)), kind="stable")
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
    entry it reads is <= the draw. Its last entry is exactly 1.0, above every
    draw, so a count is at most width - 1, which (width - 1).bit_length()
    probes reach, and a probe past the row reads that entry and fails.

    A column sets a new bit when its bit was unset before the block and no
    earlier visit in the block took it. The first visit to each slot is the
    first of its run once the visits are stably sorted by column, then by
    row, each of ids in the smallest unsigned type that holds them, which
    numpy sorts by radix up to 16 bits.
    """
    height, width = cdfs.shape
    entries = cdfs.reshape(-1)
    before_row = rows * width - 1  # probe p reads entry p - 1 of the visit's row
    cols = np.zeros_like(rows)

    def bisect(lo: int, hi: int) -> None:
        found, before, drawn = cols[lo:hi], before_row[lo:hi], draws[lo:hi]
        for shift in reversed(range((width - 1).bit_length())):
            probe = found + (1 << shift)
            np.copyto(found, probe, where=entries[before + np.minimum(probe, width)] <= drawn)

    parallel.over_rows(bisect, rows.size, (width - 1).bit_length())
    at = before_row + 1 + cols
    ids = np.min_scalar_type(max(height, width) - 1)
    order = np.argsort(cols.astype(ids), kind="stable")
    order = order[np.argsort(rows[order].astype(ids), kind="stable")]
    slots = at[order]
    first = order[np.concatenate(([True], slots[1:] != slots[:-1]))]
    new = np.zeros(rows.size, dtype=bool)
    new[first] = ~bits.reshape(-1)[at[first]]
    return cols, new


class ChainTraces:
    """The chains tc_mp_trace selected, in order, as arrays: row c of `paths`
    holds the neuron chain c visits at each depth 0..L, and `newly_added[c]`
    the mask bits it newly set. Iterating builds one ChainTrace per chain."""

    def __init__(self, paths: np.ndarray, newly_added: np.ndarray):
        self.paths = paths
        self.newly_added = newly_added
        paths.flags.writeable = False
        newly_added.flags.writeable = False

    def __len__(self) -> int:
        return len(self.newly_added)

    def __iter__(self):
        for path, new_bits in zip(self.paths.tolist(), self.newly_added.tolist()):
            yield ChainTrace(tuple(path), new_bits)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _ChainTables:
    """What chain selection reads of one network at one scoring and alpha,
    kept on the network by `_chain_tables` and shared by every chain prune
    there: `scores`, each layer's log edge scores; `cdfs`, each layer's
    `_choice_cdfs`, built whole by the first stochastic prune; and per
    layer the longest `_order_prefix` built so far, read through `order`.

    Every array held is read-only and is published only when complete, by
    one assignment, so threads pruning the network at once each keep the
    reference they read. Two may build one table; either result is right,
    and a lock keeps the longer of two prefixes.
    """

    def __init__(self, scores: list[np.ndarray]):
        self.scores = tuple(_read_only(s) for s in scores)
        self.cdfs: tuple[np.ndarray, ...] | None = None
        self._orders = [_read_only(np.empty((s.shape[0], 0), dtype=np.intp)) for s in scores]
        self._publish = threading.Lock()

    def choice_cdfs(self) -> tuple[np.ndarray, ...]:
        cdfs = self.cdfs
        if cdfs is None:
            cdfs = tuple(_read_only(_choice_cdfs(s)) for s in self.scores)
            self.cdfs = cdfs
        return cdfs

    def order(self, t: int, needed: int) -> np.ndarray:
        """Layer t + 1's order prefix of at least `needed` entries a row:
        the held one, or else one of twice that, kept if longer than the
        one held by then. Its first k entries are the k-entry prefix."""
        held = self._orders[t]
        if needed <= held.shape[1]:
            return held
        built = _read_only(_order_prefix(self.scores[t], 2 * needed))
        with self._publish:
            if built.shape[1] > self._orders[t].shape[1]:
                self._orders[t] = built
        return built


def _chain_tables(net: LayeredNetwork, spec: PruneSpec) -> _ChainTables:
    """The network's chain tables at spec's scoring and alpha (None for
    local scores, which read no alpha). The network keeps one record, so a
    global scoring builds its surrogate table only when it follows a chain
    prune at another scoring or alpha."""
    alpha = spec.alpha if spec.scoring == "global" else None

    def build() -> _ChainTables:
        maxima = None if alpha is None else build_table(net, alpha).row_maxima()
        return _ChainTables([log_score_matrix(net, t, maxima) for t in range(1, net.depth + 1)])

    return net.memo((spec.scoring, alpha), build)


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
    sweep. Both modes read the network's chain tables (`_chain_tables`),
    shared with every chain prune of it at the same scoring and alpha. A
    stochastic call reads every row's CDF, built by the first stochastic
    call. A deterministic call reads, per layer, each row's order prefix:
    empty at first, and rebuilt by `_order_prefix` to twice the entries a
    block reads when the block reads past the held one. Each rebuild more
    than doubles the prefix, so a layer's is built at most 1 + log2(width)
    times per network, scoring and alpha, whatever the number of calls; on
    the bench's nets, once, by the first call at rate 0.9. Per block and
    layer, a deterministic step then costs a radix sort of the block's
    rows, and a stochastic step one bisection of ceil(log2(width)) array
    passes over the block's visits, split over the CPUs when visits times
    passes fill two ranges, plus radix sorts of their columns and rows
    (comparison sorts where a layer has more than 65,536 rows or columns);
    the block's starts and draws come from one `random_raw` call (see
    `_chain_draws`). The stochastic random stream is exactly the one of
    `rng.integers(d0)` per chain start and `rng.choice(width,
    p=softmax(row))` per step.
    """
    if not spec.tc:
        raise DomainError("chain pruning requires spec.tc == True")
    b = budget(net, spec.rate)
    depth = net.depth
    if b.max_kept < depth:
        raise BudgetError(
            f"budget {b.max_kept} cannot hold one complete chain of {depth} connections"
        )
    tables = _chain_tables(net, spec)
    masks = [np.zeros(w.shape, dtype=bool) for w in net.weights]
    rng = np.random.default_rng(spec.seed)
    if spec.stochastic:
        cdfs = tables.choice_cdfs()
    else:
        fresh = [np.zeros(w.shape[0], dtype=np.intp) for w in net.weights]
    # Deterministic selection repeats verbatim after one full round-robin
    # sweep with no new bits; stochastic selection gets a generous allowance
    # before it is declared stuck.
    d0 = net.dims[0]
    stall_limit = d0 if not spec.stochastic else max(32 * d0, 1000)
    paths: list[np.ndarray] = []
    gains: list[np.ndarray] = []
    chains = kept = stall = 0
    while kept < b.max_kept and stall < stall_limit:
        size = max(d0, -(-(b.max_kept - kept) // depth))
        path = np.empty((size, depth + 1), dtype=np.intp)
        new = np.empty((size, depth), dtype=bool)
        if spec.stochastic:
            path[:, 0], draws = _chain_draws(rng, d0, size, depth)
            for t, cdf in enumerate(cdfs):
                path[:, t + 1], new[:, t] = _sampled_steps(cdf, masks[t], path[:, t], draws[:, t])
        else:
            path[:, 0] = np.arange(chains, chains + size) % d0
            for t, w in enumerate(net.weights):
                pos, new[:, t] = _ranked_steps(fresh[t], path[:, t], w.shape[1])
                path[:, t + 1] = tables.order(t, int(pos.max()) + 1)[path[:, t], pos]
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
    # a local, so the chains are readable from this frame when it raises
    traces = ChainTraces(np.concatenate(paths), np.concatenate(gains))
    if stall >= stall_limit:
        raise SaturationError(kept, b.max_kept)
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
