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
batch innermost. Each train call packs the model once into a PackedModel
of its own, shared with no other call, so calls on different threads do
not disturb one another: one flat parameter vector with each group in the
layout the step's products read, a gradient vector in the same layout,
and named scratch arrays. Past one copy of the batch's signals, nothing
is re-laid out on a step: the products read the parameters in place and
write the gradients in place, and the momentum update is four operations
over the whole vector (see forward_batch, loss_and_grads and train). The
scratch arrays are allocated at their first use and grown only when a
larger batch comes (the backward pass writes over the probabilities and
hidden activations it no longer reads). So once the packed model has seen
the call's largest batch, a training step allocates no array of
activation size and its speed does not depend on how the allocator lays
out the heap; what it still allocates (the label pick and its row index,
numpy's iterator buffers for the softmax's broadcasts and the ReLU mask's
bool-to-float cast) is about 14 KiB at batch 200. A GcnModel given to
forward_batch or loss_and_grads is packed on entry, and its gradients
unpacked on return, around the same step.

as_layered exposes the three parameter groups as one dense 3-layer network
so the mask machinery can prune the model. The view requires
signal_dim == nodes: the filter entry W[k][m, c] then sits on the view
connection from aggregate (k, m) to feature (m, c), which is a genuine
signal route of the model (aggregate (k, m) carries channel m, which filter
column c reads). view_slots is the one place this layout is written: it
gives every model parameter its own view connection, and the other view
slots are structural zeros that carry no parameter. as_layered scatters the
parameters to those slots and view_mask_to_param_masks gathers a view
mask's keep bits from them, one array per parameter group; train and
evaluate take the view mask itself and pack it with the model.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import SkeletonSequence, temporal_chunking
from .errors import DivergenceError, DomainError, ShapeError
from .network import LayeredNetwork, MaskTensor, _atomic_write, _build, _read_json, layers_of


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
    """Random init; scales keep pre-activations O(1) at these sizes. A
    head_scale that is not finite raises DomainError."""
    if not math.isfinite(head_scale):
        raise DomainError(f"head_scale must be finite, got {head_scale}")
    rng = np.random.default_rng(seed)
    params = (
        scale * rng.standard_normal(p) / np.sqrt(p[-2])
        for p, scale in zip(shape.param_shapes, (1.0, 1.0, head_scale))
    )
    return GcnModel(shape, *params)


# ---------------------------------------------------------------------------
# Forward / loss / gradients


class PackedModel:
    """A model in the layout its steps read, with the scratch they write.

    params holds attention, conv and head one after another in one flat
    float64 vector, each in its step layout, (nodes, heads, nodes),
    (signal_dim, filters, heads) and (filters, nodes, num_classes); grads
    is a second vector in the same layout, which loss_and_grads writes, and
    keep a third, a view mask's 0.0/1.0 keep weights (all 1.0 without one);
    the parameters the mask drops are packed as +0.0.
    weights and gradients are their three parts as the 2-D matrices the
    products read or write: (nodes, heads * nodes), (signal_dim, filters *
    heads), which the forward product reads transposed, and (filters *
    nodes, num_classes).

    get(name, *shape) allocates scratch array `name` on its first use and
    again only when a later use needs a larger one; a smaller use reads its
    leading part. A packed model thus grows to the largest batch it has
    served. What forward_batch returns are views into it, valid until its
    next use. The backward pass writes dz over z, the ReLU's 0.0/1.0
    gradient over hidden and the loss gradient over probs; g_by_filter and
    g_by_node hold the attention gradient per filter and the filter-bank
    gradient per node before they are summed into gradients.
    """

    def __init__(self, model: GcnModel, mask: MaskTensor | None = None):
        self.shape = model.shape
        self.params = self.pack((model.attention, model.conv, model.head))
        if mask is None:
            self.keep = np.ones_like(self.params)
        else:
            self.keep = self.pack(view_mask_to_param_masks(mask, model.shape))
            # +0.0 where dropped; a negative weight times 0.0 would be -0.0
            np.copyto(self.params, 0.0, where=self.keep == 0.0)
        self.grads = np.empty_like(self.params)
        self.weights = self._parts(self.params)
        self.gradients = self._parts(self.grads)
        self._arrays: dict[str, np.ndarray] = {}

    def _parts(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The attention, conv and head parts of a flat vector in the step
        layout, as 2-D views."""
        k, n, s, c = self.shape.heads, self.shape.nodes, self.shape.signal_dim, self.shape.filters
        a, b = n * k * n, n * k * n + c * k * s
        q = self.shape.num_classes
        return flat[:a].reshape(n, k * n), flat[a:b].reshape(s, c * k), flat[b:].reshape(c * n, q)

    def _step_order(self, attention, conv, head):
        """Views of (attention, conv, head)-shaped arrays with their axes in
        the step layout's order."""
        n, c, q = self.shape.nodes, self.shape.filters, self.shape.num_classes
        head = head.reshape(n, c, q)
        return attention.transpose(1, 0, 2), conv.transpose(1, 2, 0), head.transpose(1, 0, 2)

    def pack(self, groups) -> np.ndarray:
        """(attention, conv, head)-shaped arrays as one new flat float64
        vector in the step layout."""
        flat = np.empty(self.shape.parameter_count)
        for part, view in zip(self._parts(flat), self._step_order(*groups)):
            np.copyto(part.reshape(view.shape), view)
        return flat

    def unpack(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A flat vector in the step layout as new (attention, conv, head)-shaped arrays."""
        groups = tuple(np.empty(p) for p in self.shape.param_shapes)
        for part, view in zip(self._parts(flat), self._step_order(*groups)):
            np.copyto(view, part.reshape(view.shape))
        return groups

    def get(self, name: str, *shape: int) -> np.ndarray:
        """The leading part of float64 scratch array `name`, shaped `shape`."""
        size = math.prod(shape)
        array = self._arrays.get(name)
        if array is None or array.size < size:
            array = self._arrays[name] = np.empty(size)
        return array[:size].reshape(shape)


def _packed(model: GcnModel | PackedModel) -> PackedModel:
    return model if isinstance(model, PackedModel) else PackedModel(model)


def forward_batch(model: GcnModel | PackedModel, signals: np.ndarray):
    """Probabilities for a batch of signal matrices (batch, signal_dim, nodes).

    The filter banks are contracted before the attention, and every array
    of activation size is laid out filters first with the batch innermost,
    so past one copy of the signals to xs, (signal_dim, nodes, batch),
    nothing is re-laid out; the parameters are read in place from their
    packed step layout:

        z[c, (k, j), b] = sum_m conv[k, m, c] * xs[m, j, b]
        pre[c, i, b]    = sum_{k, j} attention[k, i, j] * z[c, (k, j), b]
        logits[b, q]    = sum_{c, i} relu(pre)[c, i, b] * head[(i, c), q]

    z is one 2-D matrix product, pre one product broadcast over the
    filters, the logits one product with relu(pre) read transposed. A
    GcnModel is packed first into a PackedModel of its own. Returns
    (probs, (xs, z, hidden)) with hidden = relu(pre), views into the
    packed model's scratch.
    """
    packed = _packed(model)
    k, n, s, c = model.shape.heads, model.shape.nodes, model.shape.signal_dim, model.shape.filters
    q = model.shape.num_classes
    if signals.ndim != 3 or signals.shape[1:] != (s, n):
        raise ShapeError(f"signals shape {signals.shape} != (batch, {s}, {n})")
    b = len(signals)
    attention, conv, head = packed.weights
    xs = packed.get("xs", s, n, b)
    np.copyto(xs, signals.transpose(1, 2, 0))
    z = packed.get("z", c, k * n, b)
    np.matmul(conv.T, xs.reshape(s, n * b), out=z.reshape(c * k, n * b))
    hidden = np.matmul(attention, z, out=packed.get("hidden", c, n, b))
    np.maximum(hidden, 0.0, out=hidden)
    # softmax over each row of the logits, in place; the reductions are the
    # ufuncs' own, which np.max and np.sum call through a Python wrapper
    probs = np.matmul(hidden.reshape(c * n, b).T, head, out=packed.get("probs", b, q))
    row = packed.get("row", b, 1)
    probs -= np.maximum.reduce(probs, axis=1, keepdims=True, out=row)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=1, keepdims=True, out=row)
    return probs, (xs, z, hidden)


def loss_and_grads(model: GcnModel | PackedModel, signals: np.ndarray, labels: np.ndarray):
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
    different BLAS thread counts). The head's gradient is one product. Each
    gradient lands in the packed model's grads, in its step layout, as the
    product g_head or the sums g_attn and g_conv.
    Returns (loss, grads): for a PackedModel, its grads vector itself,
    rewritten by the next call; for a GcnModel, which is packed first,
    new (attention, conv, head)-shaped gradients.
    """
    packed = _packed(model)
    k, n, s, c = model.shape.heads, model.shape.nodes, model.shape.signal_dim, model.shape.filters
    batch = len(labels)
    probs, (xs, z, hidden) = forward_batch(packed, signals)
    rows = np.arange(batch)
    picked = probs[rows, labels]
    with np.errstate(divide="ignore"):
        loss = -float(np.add.reduce(np.log(picked, out=picked)) / batch)
    # the loss gradient over the logits, written over probs
    dlogits = probs
    dlogits[rows, labels] -= 1.0
    dlogits /= batch
    attention, _, head = packed.weights
    g_attn, g_conv, g_head = packed.gradients
    np.matmul(hidden.reshape(c * n, batch), dlogits, out=g_head)
    dpre = packed.get("dpre", c, n, batch)
    np.matmul(head, dlogits.T, out=dpre.reshape(c * n, batch))
    # relu'(pre) as 0.0/1.0, written over hidden, which nothing reads after g_head
    dpre *= np.greater(hidden, 0.0, out=hidden)
    g_by_filter = packed.get("g_by_filter", c, n, k * n)
    np.matmul(dpre, z.transpose(0, 2, 1), out=g_by_filter)
    np.add.reduce(g_by_filter, axis=0, out=g_attn)
    dz = np.matmul(attention.T, dpre, out=z)
    g_by_node = packed.get("g_by_node", n, s, c * k)
    np.matmul(xs.transpose(1, 0, 2), dz.reshape(c * k, n, batch).transpose(1, 2, 0), out=g_by_node)
    np.add.reduce(g_by_node, axis=0, out=g_conv)
    if packed is model:
        return loss, packed.grads
    return loss, packed.unpack(packed.grads)


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


def num_classes(labels: np.ndarray) -> int:
    """The classes a model trained on `labels` has: the largest label plus
    one. A training split with fewer than two distinct labels raises
    DomainError: one class leaves nothing to tell apart."""
    distinct = np.unique(labels)
    if distinct.size < 2:
        raise DomainError(
            f"the training split holds {distinct.size} distinct label(s); "
            "classification needs at least 2"
        )
    return int(distinct[-1]) + 1


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


def train(
    model: GcnModel,
    data: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    mask: MaskTensor | None = None,
) -> tuple[GcnModel, list[float]]:
    """Momentum SGD on cross-entropy over `data`, the (signals, labels) of
    dataset_arrays; returns (trained copy, per-epoch loss).

    The call packs the model and the mask into one PackedModel of its own,
    shared with no other call, so calls on different threads do not disturb
    one another. Its keep weights and the velocities are flat vectors in the
    same step layout, and the keep weights are scaled by the learning rate
    once per epoch, so a step's
    update is four operations over the whole vector:
    g *= lr * keep; v *= momentum; v -= g; p += v. Dropped parameters start
    at +0.0; for a finite gradient g * 0.0 is +-0.0 and +0.0 - (+-0.0) ==
    +0.0, so their velocities and values stay exactly +0.0. Past the first
    step a step allocates no array of activation size, and the trained
    model is unpacked once, when the call returns.
    The learning rate adapts per epoch: when |loss(t-1) - loss(t)| grew
    compared to the previous epoch the rate is multiplied by lr_decay,
    otherwise divided; it is clamped to [1e-8, 1].
    """
    signals, labels = _checked(data, model.shape)
    packed = PackedModel(model, mask)
    lr_keep = np.empty_like(packed.keep)
    velocity = np.zeros_like(packed.params)
    batch = min(cfg.batch_size, len(labels))
    batch_signals = np.empty((batch,) + signals.shape[1:])
    batch_labels = np.empty(batch, dtype=labels.dtype)
    rng = np.random.default_rng(cfg.seed)
    lr = cfg.initial_lr
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(labels))
        np.multiply(lr, packed.keep, out=lr_keep)
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            x = signals.take(idx, axis=0, out=batch_signals[: len(idx)], mode="clip")
            y = labels.take(idx, out=batch_labels[: len(idx)], mode="clip")
            # g is packed.grads, rewritten every step
            loss, g = loss_and_grads(packed, x, y)
            epoch_loss += loss * len(idx)
            g *= lr_keep
            velocity *= cfg.momentum
            velocity -= g
            packed.params += velocity
        epoch_loss /= len(labels)
        if not np.isfinite(epoch_loss):
            raise DivergenceError(epoch)
        losses.append(epoch_loss)
        if len(losses) >= 3:
            speed_now = abs(losses[-1] - losses[-2])
            speed_prev = abs(losses[-2] - losses[-3])
            lr = lr * cfg.lr_decay if speed_now > speed_prev else lr / cfg.lr_decay
            lr = float(np.clip(lr, _LR_MIN, _LR_MAX))
    return GcnModel(model.shape, *packed.unpack(packed.params)), losses


def evaluate(
    model: GcnModel,
    data: tuple[np.ndarray, np.ndarray],
    mask: MaskTensor | None = None,
) -> float:
    """Balanced accuracy on `data`, the (signals, labels) of dataset_arrays:
    per-class accuracy averaged over the classes present.

    With a view mask, the parameters it drops are zeroed as the model is
    packed, for this call alone. One forward pass covers all of `data`.
    """
    signals, labels = _checked(data, model.shape)
    probs, _ = forward_batch(PackedModel(model, mask), signals)
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


def view_slots(shape: GcnShape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat view index of every (attention, conv, head) parameter, as an
    int array shaped like the parameter; the flat order is the view's layers
    concatenated and each raveled. Layer 1 connects input node j to
    aggregate (k, i) with weight attention[k][i, j], layer 2 aggregate
    (k, i) to feature (i, f) with weight conv[k][i, f], and layer 3 is the
    head."""
    dims = _view_dims(shape)
    k, n, c = shape.heads, shape.nodes, shape.filters
    layer1, layer2, head = layers_of(np.arange(sum(a * b for a, b in zip(dims, dims[1:]))), dims)
    kk, i, j, f = np.arange(k)[:, None, None], np.arange(n)[:, None], np.arange(n), np.arange(c)
    return layer1[j, kk * n + i], layer2[kk * n + i, i * c + f], head


def as_layered(model: GcnModel) -> LayeredNetwork:
    """The three parameter groups as a dense 3-layer network: each parameter
    at its view_slots index, structural zeros everywhere else."""
    dims = _view_dims(model.shape)
    flat = np.zeros(sum(a * b for a, b in zip(dims, dims[1:])))
    for slots, param in zip(view_slots(model.shape), (model.attention, model.conv, model.head)):
        flat[slots] = param
    return LayeredNetwork(layers_of(flat, dims), ("relu", "relu", "softmax"))


def view_mask_to_param_masks(
    mask: MaskTensor, shape: GcnShape
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(attention, conv, head) keep bits of a view mask, read at view_slots;
    the bits of structural-zero slots are ignored."""
    dims = _view_dims(shape)
    if mask.dims != dims:
        raise ShapeError(f"mask dims {mask.dims} do not match view dims {dims}")
    flat = np.concatenate([m.ravel() for m in mask.masks])
    return tuple(flat[slots] for slots in view_slots(shape))


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
    unknown key, a shape field `_build` rejects as a GcnShape and an array
    that is not numeric raise DomainError; a wrong array shape, ShapeError."""
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise DomainError(f"{path}: model must be a JSON object, got {type(payload).__name__}")
    missing = sorted(set(_SHAPE_KEYS + _ARRAY_KEYS) - set(payload))
    unknown = sorted(set(payload) - set(_SHAPE_KEYS + _ARRAY_KEYS))
    if missing or unknown:
        raise DomainError(f"{path}: missing keys {missing}, unknown keys {unknown}")
    shape = _build(GcnShape, {key: payload[key] for key in _SHAPE_KEYS}, f"{path}: model")
    arrays = []
    for key in _ARRAY_KEYS:
        try:
            arr = np.asarray(payload[key])
        except ValueError as exc:  # ragged nesting
            raise DomainError(f"{path}: {key}: {exc}") from exc
        if arr.dtype.kind not in "iuf":
            raise DomainError(f"{path}: {key} must hold numbers only")
        arrays.append(arr)
    return GcnModel(shape, *arrays)
