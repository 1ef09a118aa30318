"""Trainable multi-head-attention GCN and its layered pruning view.

The model aggregates a node-signal matrix U (signal_dim x nodes) with K
learnable attention matrices, convolves the aggregates with K filter banks,
and classifies the flattened features with a dense head:

    H = relu(sum_k  A[k] @ U.T @ W[k])          # (nodes, filters)
    probs = softmax(head.T @ H.ravel())

Training is plain momentum SGD on the cross-entropy loss with manual
gradients; the learning rate moves inversely to the speed of change of the
loss (slows down when the loss moves faster, speeds up when it stalls).
The step contracts the filter banks first, the signals with W[k] and then
the result with A[k], and lays every activation out filters first with the
batch innermost. Past one copy of the batch's signals, no array of
activation size is re-laid out, only the parameters and their gradients
(see forward_batch and loss_and_grads). Each train call makes one
StepBuffers set or takes the caller's (an ablation grid shares one set
across its train and evaluate calls); the set allocates each named array
at its first use and grows it only when a larger batch comes, and every
forward pass, backward pass and update of the call writes into it (the
backward pass writes over the probabilities and hidden activations it no
longer reads). So once the set has seen the call's largest batch, a
training step allocates no array of activation size and its speed does not
depend on how the allocator lays out the heap; what it still allocates
(the label pick and its row index, numpy's iterator buffers for the
softmax's broadcasts and the ReLU mask's bool-to-float cast) is about
14 KiB at batch 200.

as_layered exposes the three parameter groups as one dense 3-layer network
so the mask machinery can prune the model. The view requires
signal_dim == nodes: the filter entry W[k][m, c] then sits on the view
connection from aggregate (k, m) to feature (m, c), which is a genuine
signal route of the model (aggregate (k, m) carries channel m, which filter
column c reads). Every model parameter owns exactly one view connection;
the remaining view slots are structural zeros that carry no parameter.
view_mask_to_param_masks reads a view mask back through the same layout,
giving one keep-bit array per parameter group; train and evaluate take the
view mask itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import SkeletonSequence, temporal_chunking
from .errors import DivergenceError, DomainError, ShapeError
from .network import LayeredNetwork, MaskTensor, _atomic_write, _read_json


@dataclass(frozen=True)
class GcnShape:
    heads: int
    nodes: int
    signal_dim: int
    filters: int
    num_classes: int

    def __post_init__(self):
        if min(self.heads, self.nodes, self.signal_dim, self.filters, self.num_classes) < 1:
            raise DomainError("all shape fields must be positive")

    @property
    def chunks(self) -> int:
        if self.signal_dim % 3 != 0:
            raise DomainError(f"signal_dim {self.signal_dim} is not 3 * chunks")
        return self.signal_dim // 3

    @property
    def param_shapes(self) -> tuple[tuple[int, ...], ...]:
        """The (attention, conv, head) shapes."""
        k, n, s, c, q = (self.heads, self.nodes, self.signal_dim, self.filters, self.num_classes)
        return (k, n, n), (k, s, c), (n * c, q)

    @property
    def parameter_count(self) -> int:
        return sum(math.prod(p) for p in self.param_shapes)


_ARRAY_KEYS = ("attention", "conv", "head")


@dataclass(frozen=True)
class GcnModel:
    shape: GcnShape
    attention: np.ndarray  # (heads, nodes, nodes)
    conv: np.ndarray  # (heads, signal_dim, filters)
    head: np.ndarray  # (nodes * filters, num_classes)

    def __post_init__(self):
        for key, want in zip(_ARRAY_KEYS, self.shape.param_shapes):
            array = np.asarray(getattr(self, key), dtype=np.float64)
            if array.shape != want:
                raise ShapeError(f"{key} shape {array.shape} != {want}")
            object.__setattr__(self, key, array)


def init_model(shape: GcnShape, seed: int, head_scale: float = 1.0) -> GcnModel:
    """Random init; scales keep pre-activations O(1) at these sizes."""
    rng = np.random.default_rng(seed)
    params = (
        scale * rng.standard_normal(p) / np.sqrt(p[-2])
        for p, scale in zip(shape.param_shapes, (1.0, 1.0, head_scale))
    )
    return GcnModel(shape, *params)


# ---------------------------------------------------------------------------
# Forward / loss / gradients


class StepBuffers:
    """Named scratch arrays for forward_batch and loss_and_grads, so that a
    training step allocates no array of activation size.

    get(name, *shape) allocates array `name` on its first use and again only
    when a later use needs a larger one; a smaller use reads its leading
    part. A set thus grows to the largest batch it has served, and train
    reuses one set for every step of a call. What the two functions return
    are views into the set, valid until its next use. The backward pass
    writes dz over z, the ReLU's 0.0/1.0 gradient over hidden and the loss
    gradient over probs; g_by_filter and g_by_node hold the attention
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


def forward_batch(model: GcnModel, signals: np.ndarray, buffers: StepBuffers | None = None):
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
    buf = StepBuffers() if buffers is None else buffers
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


def loss_and_grads(
    model: GcnModel, signals: np.ndarray, labels: np.ndarray, buffers: StepBuffers | None = None
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
    buf = StepBuffers() if buffers is None else buffers
    probs, (xs, z, hidden) = forward_batch(model, signals, buf)
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
# Training


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 600
    initial_lr: float = 0.05
    momentum: float = 0.9
    lr_decay: float = 0.99
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise DomainError(
                f"epochs and batch_size must be positive, got {self.epochs} and {self.batch_size}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 < self.lr_decay < 1.0:
            raise DomainError(f"lr_decay must be in (0, 1), got {self.lr_decay}")
        if self.initial_lr <= 0:
            raise DomainError("initial_lr must be positive")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")


_LR_MIN, _LR_MAX = 1e-8, 1.0


def dataset_arrays(dataset: list[SkeletonSequence], chunks: int):
    """(signals, labels): the chunked (batch, 3 * chunks, joints) signal
    matrices and the class labels, the data train and evaluate take."""
    if not dataset:
        raise DomainError("dataset is empty")
    signals = np.stack([temporal_chunking(seq, chunks) for seq in dataset])
    labels = np.asarray([seq.label for seq in dataset], dtype=np.intp)
    return signals, labels


def _checked(data, shape: GcnShape):
    """`data`'s (signals, labels); an empty batch or a label outside
    [0, num_classes) raises DomainError."""
    signals, labels = data
    if len(labels) == 0:
        raise DomainError("dataset is empty")
    outside = labels[(labels < 0) | (labels >= shape.num_classes)]
    if outside.size:
        raise DomainError(
            f"label {outside[0]} is outside the model's classes [0, {shape.num_classes})"
        )
    return signals, labels


def _masked(model: GcnModel, mask: MaskTensor | None):
    """Keep bits and masked copies of (attention, conv, head); all kept without a mask."""
    params = (model.attention, model.conv, model.head)
    if mask is None:
        bits = tuple(np.ones(p.shape, dtype=bool) for p in params)
    else:
        bits = view_mask_to_param_masks(mask, model.shape)
    return bits, [np.where(b, p, 0.0) for p, b in zip(params, bits)]


def train(
    model: GcnModel,
    data: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    mask: MaskTensor | None = None,
    buffers: StepBuffers | None = None,
) -> tuple[GcnModel, list[float]]:
    """Momentum SGD on cross-entropy over `data`, the (signals, labels) of
    dataset_arrays; returns (trained copy, per-epoch loss).

    Every parameter group carries 0.0/1.0 keep weights (all 1.0 without a
    view mask), scaled by the learning rate once per epoch, so a step's
    update is v = momentum * v - g * (lr * keep); p += v. Dropped parameters
    start at +0.0; for a finite gradient g * 0.0 is +-0.0 and
    +0.0 - (+-0.0) == +0.0, so their velocities and values stay exactly +0.0.
    One StepBuffers set serves every step of the call, so past the first
    step a step allocates no array of activation size: `buffers` when given,
    or else a fresh set. Every step rewrites the part of the set it reads,
    so a shared set, of whatever size, gives the same bits as a fresh one.
    The learning rate adapts per epoch: when |loss(t-1) - loss(t)| grew
    compared to the previous epoch the rate is multiplied by lr_decay,
    otherwise divided; it is clamped to [1e-8, 1].
    """
    signals, labels = _checked(data, model.shape)
    bits, params = _masked(model, mask)
    keep = [b.astype(np.float64) for b in bits]
    velocity = [np.zeros_like(p) for p in params]
    batch = min(cfg.batch_size, len(labels))
    buffers = StepBuffers() if buffers is None else buffers
    batch_signals = np.empty((batch,) + signals.shape[1:])
    batch_labels = np.empty(batch, dtype=labels.dtype)
    rng = np.random.default_rng(cfg.seed)
    lr = cfg.initial_lr
    losses: list[float] = []
    # wraps the arrays of `params` themselves, which the steps update in place
    tuned = GcnModel(model.shape, *params)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(labels))
        lr_keep = [lr * k for k in keep]
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            x = np.take(signals, idx, axis=0, out=batch_signals[: len(idx)], mode="clip")
            y = np.take(labels, idx, out=batch_labels[: len(idx)], mode="clip")
            loss, grads = loss_and_grads(tuned, x, y, buffers)
            epoch_loss += loss * len(idx)
            # the gradients are views into `buffers`, rewritten every step
            for p, v, g, k in zip(params, velocity, grads, lr_keep):
                g *= k
                v *= cfg.momentum
                v -= g
                p += v
        epoch_loss /= len(labels)
        if not np.isfinite(epoch_loss):
            raise DivergenceError(epoch)
        losses.append(epoch_loss)
        if len(losses) >= 3:
            speed_now = abs(losses[-1] - losses[-2])
            speed_prev = abs(losses[-2] - losses[-3])
            lr = lr * cfg.lr_decay if speed_now > speed_prev else lr / cfg.lr_decay
            lr = float(np.clip(lr, _LR_MIN, _LR_MAX))
    return tuned, losses


def evaluate(
    model: GcnModel,
    data: tuple[np.ndarray, np.ndarray],
    mask: MaskTensor | None = None,
    buffers: StepBuffers | None = None,
) -> float:
    """Balanced accuracy on `data`, the (signals, labels) of dataset_arrays:
    per-class accuracy averaged over the classes present.

    With a view mask, the parameters it drops are zeroed first. One forward
    pass covers all of `data`, in `buffers` when given, or else in a fresh
    StepBuffers set.
    """
    signals, labels = _checked(data, model.shape)
    _, params = _masked(model, mask)
    model = GcnModel(model.shape, *params)
    probs, _ = forward_batch(model, signals, buffers)
    preds = probs.argmax(axis=1)
    per_class = [np.mean(preds[labels == cls] == cls) for cls in np.unique(labels)]
    return float(np.mean(per_class))


# ---------------------------------------------------------------------------
# Layered pruning view


def _view_dims(shape: GcnShape) -> tuple[int, int, int, int]:
    k, n, s, c, q = (shape.heads, shape.nodes, shape.signal_dim, shape.filters, shape.num_classes)
    if s != n:
        raise DomainError(
            f"layered view requires signal_dim == nodes, got {s} != {n}; "
            f"pick chunks so 3 * chunks == nodes"
        )
    return (n, k * n, n * c, q)


def _conv_slots(shape: GcnShape):
    """Index of the conv entries in a layer-2 array reshaped to (k, n, n, c)."""
    diag = np.arange(shape.nodes)
    return np.s_[:, diag, diag, :]


def as_layered(model: GcnModel) -> LayeredNetwork:
    """The three parameter groups as a dense 3-layer network.

    Layer 1 connects input node j to aggregate (k, i) with weight
    attention[k][i, j]; layer 2 connects aggregate (k, m) to feature (m, c)
    with weight conv[k][m, c] (structural zeros elsewhere); layer 3 is the
    head. view_mask_to_param_masks reads a mask over this view back through
    the same layout.
    """
    shape = model.shape
    n, kn, nc, _ = _view_dims(shape)
    k, c = shape.heads, shape.filters
    w1 = model.attention.transpose(2, 0, 1).reshape(n, kn).copy()
    w2 = np.zeros((kn, nc))
    w2.reshape(k, n, n, c)[_conv_slots(shape)] = model.conv
    return LayeredNetwork((w1, w2, model.head.copy()), ("relu", "relu", "softmax"))


def view_mask_to_param_masks(
    mask: MaskTensor, shape: GcnShape
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(attention, conv, head) keep bits of a view mask, shaped like the
    parameters; the bits of structural-zero slots are ignored."""
    dims = _view_dims(shape)
    if mask.dims != dims:
        raise ShapeError(f"mask dims {mask.dims} do not match view dims {dims}")
    k, n, c = shape.heads, shape.nodes, shape.filters
    m1, m2, m3 = mask.masks
    attention = m1.reshape(n, k, n).transpose(1, 2, 0).copy()
    conv = m2.reshape(k, n, n, c)[_conv_slots(shape)]
    return attention, conv, m3.copy()


# ---------------------------------------------------------------------------
# Model persistence (JSON)


_SHAPE_KEYS = tuple(f.name for f in dataclasses.fields(GcnShape))


def save_model(model: GcnModel, path) -> None:
    payload = {key: getattr(model.shape, key) for key in _SHAPE_KEYS}
    payload.update((key, getattr(model, key).tolist()) for key in _ARRAY_KEYS)
    with _atomic_write(path) as fh:
        json.dump(payload, fh)


def load_model(path) -> GcnModel:
    """Read a model back. A top level that is not an object, a missing or
    unknown key, a shape field that is not a positive integer and an array
    that is not numeric raise DomainError; a wrong array shape, ShapeError."""
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise DomainError(f"{path}: model must be a JSON object, got {type(payload).__name__}")
    missing = sorted(set(_SHAPE_KEYS + _ARRAY_KEYS) - set(payload))
    unknown = sorted(set(payload) - set(_SHAPE_KEYS + _ARRAY_KEYS))
    if missing or unknown:
        raise DomainError(f"{path}: missing keys {missing}, unknown keys {unknown}")
    for key in _SHAPE_KEYS:
        value = payload[key]
        if type(value) is not int or value < 1:
            raise DomainError(f"{path}: {key} must be a positive integer, got {value!r}")
    arrays = []
    for key in _ARRAY_KEYS:
        try:
            arr = np.asarray(payload[key])
        except ValueError as exc:  # ragged nesting
            raise DomainError(f"{path}: {key}: {exc}") from exc
        if arr.dtype.kind not in "iuf":
            raise DomainError(f"{path}: {key} must hold numbers only")
        arrays.append(arr)
    return GcnModel(GcnShape(*(payload[key] for key in _SHAPE_KEYS)), *arrays)
