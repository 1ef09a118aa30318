"""Independent reference implementations the test suite checks against.

Everything here is deliberately written the dumb way: explicit Python loops,
graph searches, and path enumeration. None of it shares code with the
package internals it verifies; where an oracle calls the package, it is for
a part it does not check (the chain-loop oracle takes its scores from the
package). The training oracle runs on the reference step below, a frozen
copy of the step gcn.train ran before it trained on a packed model, so
training's bits are checked against a step that does not move with gcn's.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from tcprune.errors import SaturationError, ShapeError
from tcprune.gcn import GcnModel, view_mask_to_param_masks
from tcprune.network import ACTIVATIONS, LayeredNetwork, MaskTensor, budget
from tcprune.surrogate import build_table, log_score_matrix


def loop_forward(net: LayeredNetwork, x: np.ndarray) -> np.ndarray:
    """Per-neuron loop evaluator of the layered forward pass."""
    phi = np.asarray(x, dtype=np.float64)
    for w, name in zip(net.weights, net.activations):
        nxt = np.zeros(w.shape[1])
        for j in range(w.shape[1]):
            acc = 0.0
            for i in range(w.shape[0]):
                acc += w[i, j] * phi[i]
            nxt[j] = acc
        phi = ACTIVATIONS[name](nxt)
    return phi


# ---------------------------------------------------------------------------
# Reachability via explicit graph search


def dfs_reaches_from_input(mask: MaskTensor) -> list[np.ndarray]:
    """reached[d][i]: depth-first search finds a path input -> neuron i."""
    dims = mask.dims
    reached = [np.zeros(d, dtype=bool) for d in dims]
    stack = [(0, i) for i in range(dims[0])]
    reached[0][:] = True
    while stack:
        depth, i = stack.pop()
        if depth == len(dims) - 1:
            continue
        m = mask.masks[depth]
        for j in range(m.shape[1]):
            if m[i, j] and not reached[depth + 1][j]:
                reached[depth + 1][j] = True
                stack.append((depth + 1, j))
    return reached


def dfs_reaches_output(mask: MaskTensor) -> list[np.ndarray]:
    """reaches[d][i]: depth-first search finds a path neuron i -> output."""
    dims = mask.dims
    reaches = [np.zeros(d, dtype=bool) for d in dims]
    last = len(dims) - 1
    reaches[last][:] = True
    stack = [(last, j) for j in range(dims[last])]
    while stack:
        depth, j = stack.pop()
        if depth == 0:
            continue
        m = mask.masks[depth - 1]
        for i in range(m.shape[0]):
            if m[i, j] and not reaches[depth - 1][i]:
                reaches[depth - 1][i] = True
                stack.append((depth - 1, i))
    return reaches


def dfs_connection_flags(mask: MaskTensor, layer: int, i: int, j: int) -> tuple[bool, bool]:
    reached = dfs_reaches_from_input(mask)
    reaches = dfs_reaches_output(mask)
    return bool(reached[layer - 1][i]), bool(reaches[layer][j])


def dfs_consistent_set(mask: MaskTensor) -> list[np.ndarray]:
    """Kept connections that lie on some complete input-output path."""
    reached = dfs_reaches_from_input(mask)
    reaches = dfs_reaches_output(mask)
    out = []
    for l, m in enumerate(mask.masks):
        keep = np.zeros_like(m)
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                keep[i, j] = m[i, j] and reached[l][i] and reaches[l + 1][j]
        out.append(keep)
    return out


def fancy_index_report(mask: MaskTensor) -> dict:
    """Everything a ConsistencyReport exposes, by fancy-index `any` sweeps,
    an and-sum count and `np.broadcast_to` views."""
    reached = [np.ones(mask.dims[0], dtype=bool)]
    for m in mask.masks:
        reached.append(m[reached[-1], :].any(axis=0))
    reaches_out = [np.ones(mask.dims[-1], dtype=bool)]
    for m in reversed(mask.masks):
        reaches_out.insert(0, m[:, reaches_out[0]].any(axis=1))
    pairs = list(zip(reached, reaches_out[1:]))
    kept = sum(int(m.sum()) for m in mask.masks)
    consistent = sum(int((m & a[:, None] & b[None, :]).sum())
                     for m, (a, b) in zip(mask.masks, pairs))
    return {
        "reached": reached,
        "reaches_out": reaches_out,
        "kept_count": kept,
        "consistent_count": consistent,
        "ac_percentage": 100.0 * consistent / kept if kept > 0 else None,
        "per_layer_accessible": [np.broadcast_to(a[:, None], (a.size, b.size)) for a, b in pairs],
        "per_layer_coaccessible": [np.broadcast_to(b[None, :], (a.size, b.size)) for a, b in pairs],
    }


# ---------------------------------------------------------------------------
# Top-k by a full stable sort


def argsort_top_k(net: LayeredNetwork, keys: np.ndarray, max_kept: int) -> list[np.ndarray]:
    """Per-layer masks of the max_kept largest flat keys, by a stable argsort
    of every key: ties keep flat (layer, row, col) order, -inf keys last."""
    chosen = np.zeros(keys.size, dtype=bool)
    chosen[np.argsort(-keys, kind="stable")[:max_kept]] = True
    sizes = np.cumsum([w.size for w in net.weights])[:-1]
    return [part.reshape(w.shape) for part, w in zip(np.split(chosen, sizes), net.weights)]


def magnitudes(net: LayeredNetwork) -> np.ndarray:
    """|w| of every connection, layers concatenated in raveled order."""
    return np.concatenate([np.abs(w).ravel() for w in net.weights])


def gumbel_keys(net: LayeredNetwork, seed: int) -> np.ndarray:
    """stochastic_mp's flat keys as numpy draws them: log |w| plus one
    `Generator.gumbel` draw per connection, in raveled layer order."""
    flat = magnitudes(net)
    with np.errstate(divide="ignore"):
        return np.log(flat) + np.random.default_rng(seed).gumbel(size=flat.size)


def gumbel_top_k(net: LayeredNetwork, rate: float, seed: int) -> list[np.ndarray]:
    """stochastic_mp's masks: the budget's largest Gumbel keys by a stable sort."""
    return argsort_top_k(net, gumbel_keys(net, seed), budget(net, rate).max_kept)


def gumbel_from_words(words: np.ndarray) -> np.ndarray:
    """The draw numpy's `random_gumbel` makes from each raw 64-bit word,
    in one libm call per log: U = 1 - (w >> 11) * 2**-53, 0.0 - log(-log(U))."""
    out = np.empty(words.size)
    for c, w in enumerate(words.tolist()):
        out[c] = 0.0 - math.log(-math.log(1.0 - (w >> 11) * 2.0**-53))
    return out


# ---------------------------------------------------------------------------
# Chain steps by comparison sorts


def argsort_ranked_steps(
    fresh: np.ndarray, rows: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each visit's position in its row's order, fresh[row] plus the visits
    to the row before it, grouped by a stable argsort of the intp rows; 0
    and not new once past the row's width."""
    by_row = np.argsort(rows, kind="stable")
    rank = np.empty_like(rows)
    seen: dict[int, int] = {}
    for c in by_row.tolist():
        rank[c] = seen.get(int(rows[c]), 0)
        seen[int(rows[c])] = rank[c] + 1
    pos = fresh[rows] + rank
    new = pos < width
    return np.where(new, pos, 0), new


def unique_sampled_steps(
    cdfs: np.ndarray, bits: np.ndarray, rows: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each visit's right-sided search of its row's CDF, and which set a
    new bit: the first visit to each unset slot, found by np.unique."""
    cols = np.array(
        [np.searchsorted(cdfs[r], d, side="right") for r, d in zip(rows, draws)], dtype=np.intp
    )
    at = rows * cdfs.shape[1] + cols
    _, first = np.unique(at, return_index=True)
    new = np.zeros(rows.size, dtype=bool)
    new[first] = ~bits.reshape(-1)[at[first]]
    return cols, new


# ---------------------------------------------------------------------------
# Path enumeration for surrogate scores


def enumerate_path_products(net: LayeredNetwork, layer: int, j: int, k: int) -> list[float]:
    """|weight| products of every path from neuron j (output side of layer)
    to output neuron k, via layers layer+1 .. L."""
    if layer == net.depth:
        return [1.0] if j == k else []
    products = []

    def walk(depth: int, node: int, acc: float):
        if depth == net.depth:
            if node == k:
                products.append(acc)
            return
        w = net.weights[depth]
        for nxt in range(w.shape[1]):
            mag = abs(w[node, nxt])
            if mag > 0.0:
                walk(depth + 1, nxt, acc * mag)

    walk(layer, j, 1.0)
    return products


def path_norm(products: list[float], alpha: float) -> float:
    """(1/alpha)-norm of the path products; max for alpha -> 0."""
    if not products:
        return 0.0
    p = 1.0 / alpha
    best = max(products)
    return best * sum((v / best) ** p for v in products) ** alpha


def path_norm_table(net: LayeredNetwork, layer: int, alpha: float) -> np.ndarray:
    """Brute-force downstream table for one layer via path enumeration."""
    rows, cols = net.dims[layer], net.dims[-1]
    out = np.zeros((rows, cols))
    for j in range(rows):
        for k in range(cols):
            out[j, k] = path_norm(enumerate_path_products(net, layer, j, k), alpha)
    return out


def brute_edge_score(net: LayeredNetwork, alpha: float, layer: int, i: int, j: int) -> float:
    best = 0.0
    for k in range(net.dims[-1]):
        val = path_norm(enumerate_path_products(net, layer, j, k), alpha)
        best = max(best, val)
    return abs(net.weights[layer - 1][i, j]) * best


# ---------------------------------------------------------------------------
# Surrogate recursion with one broadcast log-sum-exp per layer


def broadcast_build_table(net: LayeredNetwork, alpha: float) -> list[np.ndarray]:
    """Log downstream tables D[1..L], back to front from log I. Each step
    broadcasts the (d_l, d_{l+1}, d_out) tensor of log path terms, shifts it
    by its per-entry max over the middle axis and sums it there; the step
    against the identity base is taken like any other."""
    with np.errstate(divide="ignore"):
        logs = [np.log(np.eye(net.dims[-1]))]
        for w in reversed(net.weights[1:]):
            t = (np.log(np.abs(w)) / alpha)[:, :, None] + (logs[0] / alpha)[None, :, :]
            mx = t.max(axis=1)
            shift = np.where(np.isfinite(mx), mx, 0.0)
            with np.errstate(invalid="ignore"):
                total = np.exp(t - shift[:, None, :]).sum(axis=1)
                out = np.where(np.isfinite(mx), shift + np.log(total), -np.inf)
            logs.insert(0, alpha * out)
    return logs


# ---------------------------------------------------------------------------
# Literal transcription of the greedy chain-selection pseudocode


def greedy_chain_oracle(net: LayeredNetwork, max_kept: int, scoring: str = "local",
                        alpha: float = 1.0) -> list[np.ndarray]:
    """Step-by-step greedy chain selection with brute-force scores.

    Chains start round-robin over input neurons; each step takes the argmax
    of the edge score over forward neighbors, preferring not-yet-selected
    connections so the kept count keeps growing; ties take the lowest index.
    The budget is checked before each chain, so the last chain may overshoot.
    """
    depth = net.depth
    masks = [np.zeros(w.shape, dtype=bool) for w in net.weights]
    kept = 0
    sweep = 0
    idle = 0
    while kept < max_kept:
        cur = sweep % net.dims[0]
        new_bits = 0
        for layer in range(1, depth + 1):
            w = net.weights[layer - 1]
            pool = [j for j in range(w.shape[1]) if not masks[layer - 1][cur, j]]
            if not pool:
                pool = list(range(w.shape[1]))
            best_j, best_score = pool[0], -1.0
            for j in pool:
                if scoring == "global":
                    score = brute_edge_score(net, alpha, layer, cur, j)
                else:
                    score = abs(w[cur, j])
                if score > best_score:
                    best_j, best_score = j, score
            if not masks[layer - 1][cur, best_j]:
                masks[layer - 1][cur, best_j] = True
                kept += 1
                new_bits += 1
            cur = best_j
        sweep += 1
        idle = idle + 1 if new_bits == 0 else 0
        if idle >= net.dims[0]:
            raise RuntimeError(f"oracle saturated at {kept}")
    return masks


# ---------------------------------------------------------------------------
# Chain selection one chain and one step at a time


def choice_cdf(row_scores: np.ndarray) -> np.ndarray:
    """The CDF Generator.choice builds from one row's softmax probabilities,
    uniform when the whole row scores -inf."""
    mx = row_scores.max()
    if mx == -np.inf:
        probs = np.full(row_scores.size, 1.0 / row_scores.size)
    else:
        weights = np.exp(row_scores - mx)
        probs = weights / weights.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def sequential_tc_mp_trace(net: LayeredNetwork, spec) -> tuple[list[np.ndarray], list]:
    """tc_mp_trace as a plain loop: one chain at a time, one step per layer.

    Deterministic steps take a row's best unselected column from the row's
    stable order by (-score, col), or its best column once the row is full;
    stochastic steps invert the row's softmax CDF with one `rng.random()`.
    Returns the masks and (path, newly_added) per chain, or raises
    SaturationError after a stall run, carrying the chains so far as its
    `chains` attribute.
    """
    b = budget(net, spec.rate)
    depth = net.depth
    maxima = build_table(net, spec.alpha).row_maxima() if spec.scoring == "global" else None
    scores = [log_score_matrix(net, layer, maxima) for layer in range(1, depth + 1)]
    masks = [np.zeros(w.shape, dtype=bool) for w in net.weights]
    rng = np.random.default_rng(spec.seed)
    orders = [np.argsort(-s, axis=1, kind="stable") for s in scores]
    fresh = [[0] * s.shape[0] for s in scores]
    cdfs = [[None] * s.shape[0] for s in scores]

    def choose(t: int, row: int) -> int:
        if spec.stochastic:
            if cdfs[t][row] is None:
                cdfs[t][row] = choice_cdf(scores[t][row]).tolist()
            return bisect_right(cdfs[t][row], rng.random())
        p = fresh[t][row]
        if p == scores[t].shape[1]:
            return int(orders[t][row, 0])
        fresh[t][row] = p + 1
        return int(orders[t][row, p])

    d0 = net.dims[0]
    stall_limit = d0 if not spec.stochastic else max(32 * d0, 1000)
    traces = []
    kept = 0
    stall = 0
    while kept < b.max_kept:
        cur = int(rng.integers(d0)) if spec.stochastic else len(traces) % d0
        path = [cur]
        new_bits = 0
        for t in range(depth):
            nxt = choose(t, cur)
            if not masks[t][cur, nxt]:
                masks[t][cur, nxt] = True
                new_bits += 1
            path.append(nxt)
            cur = nxt
        kept += new_bits
        traces.append((tuple(path), new_bits))
        if new_bits == 0:
            stall += 1
            if stall >= stall_limit:
                error = SaturationError(kept, b.max_kept)
                error.chains = traces
                raise error
        else:
            stall = 0
    return masks, traces


# ---------------------------------------------------------------------------
# Literal transcription of the stochastic chain-selection loop


class OracleSaturation(RuntimeError):
    def __init__(self, kept: int):
        super().__init__(f"oracle saturated at {kept}")
        self.kept = kept


def stochastic_chain_oracle(scores: list[np.ndarray], max_kept: int,
                            seed: int) -> tuple[list[np.ndarray], list]:
    """Stochastic chain selection one `rng.choice` per step.

    `scores[l]` holds the log edge scores of layer l + 1. Each chain starts
    at `rng.integers(d0)`; each step samples the next neuron with
    probabilities proportional to exp(score), uniform when the whole row
    scores -inf. Returns the masks and (steps, newly_added) per chain, or
    raises OracleSaturation after max(32 * d0, 1000) chains in a row add
    nothing.
    """
    rng = np.random.default_rng(seed)
    d0 = scores[0].shape[0]
    masks = [np.zeros(s.shape, dtype=bool) for s in scores]
    chains = []
    kept = 0
    idle = 0
    while kept < max_kept:
        cur = int(rng.integers(d0))
        steps = []
        new_bits = 0
        for layer, s in enumerate(scores, start=1):
            row = s[cur]
            mx = row.max()
            if mx == -np.inf:
                probs = np.full(row.size, 1.0 / row.size)
            else:
                weights = np.exp(row - mx)
                probs = weights / weights.sum()
            nxt = int(rng.choice(row.size, p=probs))
            if not masks[layer - 1][cur, nxt]:
                masks[layer - 1][cur, nxt] = True
                kept += 1
                new_bits += 1
            steps.append((layer, cur, nxt))
            cur = nxt
        chains.append((tuple(steps), new_bits))
        idle = idle + 1 if new_bits == 0 else 0
        if idle >= max(32 * d0, 1000):
            raise OracleSaturation(kept)
    return masks, chains


# ---------------------------------------------------------------------------
# Mask files one value at a time


def per_value_save_mask(mask: MaskTensor, path) -> None:
    """save_mask's file, each value formatted on its own as str(int(v))."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"layers {len(mask.masks)}\n")
        for m in mask.masks:
            r, c = m.shape
            fh.write(f"dims {r} {c}\n")
            for row in m.astype(np.uint8):
                fh.write(" ".join(str(int(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Per-entry map from GCN view connections to model parameters


def param_at(shape, layer: int, row: int, col: int):
    """Parameter behind a view connection of `as_layered`, or None for a structural zero."""
    n, c = shape.nodes, shape.filters
    if layer == 1:
        k, i = divmod(col, n)
        return ("attention", k, i, row)
    if layer == 2:
        k, m = divmod(row, n)
        i, cc = divmod(col, c)
        return ("conv", k, m, cc) if i == m else None
    if layer == 3:
        return ("head", row, col)
    raise IndexError(f"layer {layer} out of range 1..3")


# ---------------------------------------------------------------------------
# Temporal chunking, one joint and one chunk at a time


def chunk_means(joints: np.ndarray, chunks: int) -> np.ndarray:
    """(3 * chunks, J) descriptor: column j stacks joint j's per-chunk mean points."""
    frames = joints.shape[1]
    q, r = divmod(frames, chunks)
    bounds = [0]
    for c in range(chunks):
        bounds.append(bounds[-1] + q + (1 if c < r else 0))
    cols = []
    for j in range(joints.shape[0]):
        parts = [joints[j, bounds[c] : bounds[c + 1]].mean(axis=0) for c in range(chunks)]
        cols.append(np.concatenate(parts))
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# GCN forward and manual gradients, one einsum per contraction


def einsum_loss_and_grads(model, signals: np.ndarray, labels: np.ndarray):
    """(probs, loss, (g_attn, g_conv, g_head), scales) with the aggregates as
    a (batch, heads, nodes, signal_dim) tensor and every contraction an einsum.

    `scales` holds, per gradient entry, the magnitude it sums: the same
    contractions over the absolute values of their operands, each
    intermediate's taken in turn from its own operands', and masked where
    this ReLU is off. A sum computed in another order then differs from
    this one by a few units of rounding of that magnitude, whatever the
    cancellation in the entry or in the intermediates before it."""
    batch = len(labels)
    n, c = model.shape.nodes, model.shape.filters
    # aggregates[b,k,i,m] = sum_j attention[k,i,j] * signals[b,m,j]
    aggregates = np.einsum("kij,bmj->bkim", model.attention, signals)
    pre = np.einsum("bkim,kmc->bic", aggregates, model.conv)
    flat = np.maximum(pre, 0.0).reshape(batch, n * c)
    logits = flat @ model.head
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = z / z.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(batch), labels])))
    dlogits = probs.copy()
    dlogits[np.arange(batch), labels] -= 1.0
    dlogits /= batch
    g_head = flat.T @ dlogits
    dpre = (dlogits @ model.head.T).reshape(pre.shape) * (pre > 0)
    g_conv = np.einsum("bkim,bic->kmc", aggregates, dpre)
    dagg = np.einsum("bic,kmc->bkim", dpre, model.conv)
    g_attn = np.einsum("bkim,bmj->kij", dagg, signals)
    live = pre > 0
    agg_m = np.einsum("kij,bmj->bkim", np.abs(model.attention), np.abs(signals))
    flat_m = (np.einsum("bkim,kmc->bic", agg_m, np.abs(model.conv)) * live).reshape(batch, n * c)
    dlogits_m = np.abs(dlogits)
    dpre_m = (dlogits_m @ np.abs(model.head).T).reshape(pre.shape) * live
    dagg_m = np.einsum("bic,kmc->bkim", dpre_m, np.abs(model.conv))
    scales = (
        np.einsum("bkim,bmj->kij", dagg_m, np.abs(signals)),
        np.einsum("bkim,bic->kmc", agg_m, dpre_m),
        flat_m.T @ dlogits_m,
    )
    return probs, loss, (g_attn, g_conv, g_head), scales


# ---------------------------------------------------------------------------
# The reference GCN step: the buffered step with the parameters and their
# gradients re-laid out on every call


class ReferenceBuffers:
    """Named scratch arrays for reference_forward_batch and
    reference_loss_and_grads, so that a step allocates no array of
    activation size.

    get(name, *shape) allocates array `name` on its first use and again only
    when a later use needs a larger one; a smaller use reads its leading
    part. A set thus grows to the largest batch it has served. What the two
    functions return are views into the set, valid until its next use. The backward
    pass writes dz over z, the ReLU's 0.0/1.0 gradient over hidden and the
    loss gradient over probs; g_by_filter and g_by_node hold the attention
    gradient per filter and the filter-bank gradient per node before they
    are summed into g_scratch.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def get(self, name: str, *shape: int) -> np.ndarray:
        """The leading part of float64 array `name`, shaped `shape`."""
        size = math.prod(shape)
        array = self._arrays.get(name)
        if array is None or array.size < size:
            array = self._arrays[name] = np.empty(size)
        return array[:size].reshape(shape)


def reference_forward_batch(
    model: GcnModel, signals: np.ndarray, buffers: ReferenceBuffers | None = None
):
    """Probabilities for a batch of signal matrices (batch, signal_dim, nodes).

    The filter banks are contracted before the attention, and every array
    of activation size is laid out filters first with the batch innermost,
    so past one copy of the signals to xs, (signal_dim, nodes, batch), no
    activation is re-laid out:

        z[c, (k, j), b] = sum_m conv[k, m, c] * xs[m, j, b]
        pre[c, i, b]    = sum_{k, j} attention[k, i, j] * z[c, (k, j), b]
        logits[b, q]    = sum_{c, i} relu(pre)[c, i, b] * head[(i, c), q]

    z is one 2-D matrix product, pre one product broadcast over the
    filters, the logits one product with relu(pre) read transposed. The
    parameters are re-laid out filters first, about a thousand entries
    each at the default shape. Returns (probs, (xs, z, hidden))
    with hidden = relu(pre), views into `buffers`, a fresh set when None.
    """
    k, n, s, c = model.shape.heads, model.shape.nodes, model.shape.signal_dim, model.shape.filters
    q = model.shape.num_classes
    if signals.ndim != 3 or signals.shape[1:] != (s, n):
        raise ShapeError(f"signals shape {signals.shape} != (batch, {s}, {n})")
    b = len(signals)
    buf = ReferenceBuffers() if buffers is None else buffers
    conv = buf.get("conv", c, k, s)
    np.copyto(conv, model.conv.transpose(2, 0, 1))
    attention = buf.get("attention", n, k, n)
    np.copyto(attention, model.attention.transpose(1, 0, 2))
    head = buf.get("head", c, n, q)
    np.copyto(head, model.head.reshape(n, c, q).transpose(1, 0, 2))
    xs = buf.get("xs", s, n, b)
    np.copyto(xs, signals.transpose(1, 2, 0))
    z = buf.get("z", c, k * n, b)
    np.matmul(conv.reshape(c * k, s), xs.reshape(s, n * b), out=z.reshape(c * k, n * b))
    hidden = np.matmul(attention.reshape(n, k * n), z, out=buf.get("hidden", c, n, b))
    np.maximum(hidden, 0.0, out=hidden)
    # softmax over each row of the logits, in place
    probs = np.matmul(hidden.reshape(c * n, b).T, head.reshape(c * n, q), out=buf.get("probs", b, q))
    row = buf.get("row", b, 1)
    probs -= np.max(probs, axis=1, keepdims=True, out=row)
    np.exp(probs, out=probs)
    probs /= np.sum(probs, axis=1, keepdims=True, out=row)
    return probs, (xs, z, hidden)


def reference_loss_and_grads(
    model: GcnModel,
    signals: np.ndarray,
    labels: np.ndarray,
    buffers: ReferenceBuffers | None = None,
):
    """Mean cross-entropy and gradients for every parameter group.

    The backward pass keeps the forward layouts: dpre, (filters, nodes,
    batch) like pre, is the head's gradient times relu'(pre), and

        g_attn[k, i, j]   = sum_{c, b} dpre[c, i, b] * z[c, (k, j), b]
        dz[c, (k, j), b]  = sum_i attention[k, i, j] * dpre[c, i, b]
        g_conv[k, m, c]   = sum_{j, b} dz[c, (k, j), b] * xs[m, j, b]

    the first a product broadcast over the filters and summed over them,
    the second a product broadcast over the filters written over z, the
    third a product broadcast over the nodes and summed over them (one 2-D
    product over nodes and batch together rounded differently under
    different BLAS thread counts). Each gradient is re-laid out once into
    its parameter's shape. The gradients are views into `buffers`, a fresh
    set when None.
    """
    k, n, s, c = model.shape.heads, model.shape.nodes, model.shape.signal_dim, model.shape.filters
    q = model.shape.num_classes
    batch = len(labels)
    buf = ReferenceBuffers() if buffers is None else buffers
    probs, (xs, z, hidden) = reference_forward_batch(model, signals, buf)
    rows = np.arange(batch)
    picked = probs[rows, labels]
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(picked, out=picked)))
    # the loss gradient over the logits, written over probs
    dlogits = probs
    dlogits[rows, labels] -= 1.0
    dlogits /= batch
    # the head and attention as forward_batch re-laid them out into `buf`
    head = buf.get("head", c, n, q)
    g = np.matmul(hidden.reshape(c * n, batch), dlogits, out=buf.get("g_scratch", c * n, q))
    g_head = buf.get("g_head", n, c, q)
    np.copyto(g_head, g.reshape(c, n, q).transpose(1, 0, 2))
    dpre = buf.get("dpre", c, n, batch)
    np.matmul(head.reshape(c * n, q), dlogits.T, out=dpre.reshape(c * n, batch))
    # relu'(pre) as 0.0/1.0, written over hidden, which nothing reads after g_head
    dpre *= np.greater(hidden, 0.0, out=hidden)
    g_by_filter = buf.get("g_by_filter", c, n, k * n)
    np.matmul(dpre, z.transpose(0, 2, 1), out=g_by_filter)
    g = np.sum(g_by_filter, axis=0, out=buf.get("g_scratch", n, k * n))
    g_attn = buf.get("g_attn", k, n, n)
    np.copyto(g_attn, g.reshape(n, k, n).transpose(1, 0, 2))
    attention = buf.get("attention", n, k * n)
    dz = np.matmul(attention.T, dpre, out=z)
    g_by_node = buf.get("g_by_node", n, s, c * k)
    np.matmul(xs.transpose(1, 0, 2), dz.reshape(c * k, n, batch).transpose(1, 2, 0), out=g_by_node)
    g = np.sum(g_by_node, axis=0, out=buf.get("g_scratch", s, c * k))
    g_conv = buf.get("g_conv", k, s, c)
    np.copyto(g_conv, g.reshape(s, c, k).transpose(2, 0, 1))
    return loss, (g_attn, g_conv, g_head.reshape(n * c, q))


# ---------------------------------------------------------------------------
# GCN training on the allocating step calls


def allocating_train(model, data, cfg, mask=None):
    """Momentum SGD as gcn.train runs it, with a fresh reference_loss_and_grads
    call per step and the update through np.where temporaries; returns the
    trained (attention, conv, head) and the per-epoch losses."""
    signals, labels = data
    params = (model.attention, model.conv, model.head)
    if mask is None:
        bits = tuple(np.ones(p.shape, dtype=bool) for p in params)
    else:
        bits = view_mask_to_param_masks(mask, model.shape)
    params = [np.where(b, p, 0.0) for p, b in zip(params, bits)]
    velocity = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(cfg.seed)
    lr = cfg.initial_lr
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(labels))
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            loss, grads = reference_loss_and_grads(
                GcnModel(model.shape, *params), signals[idx], labels[idx]
            )
            epoch_loss += loss * len(idx)
            for p, v, g, b in zip(params, velocity, grads, bits):
                v *= cfg.momentum
                v -= lr * np.where(b, g, 0.0)
                p += v
        losses.append(epoch_loss / len(labels))
        if len(losses) >= 3:
            faster = abs(losses[-1] - losses[-2]) > abs(losses[-2] - losses[-3])
            lr = lr * cfg.lr_decay if faster else lr / cfg.lr_decay
            lr = float(np.clip(lr, 1e-8, 1.0))
    return params, losses
