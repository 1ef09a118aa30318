"""Layered dense networks, binary mask tensors, and masked evaluation.

A depth-L network is a chain of weight matrices W[0..L-1] where W[l] has
shape (dims[l], dims[l+1]); layer l+1 maps activations of width dims[l] to
width dims[l+1] via f(W.T @ x). Layers are numbered 1..L in public APIs.
Networks and masks are treated as immutable once constructed. Masked
evaluation has one implementation: `masked_forward` is the forward pass of
the network `apply_mask` zeroes, so the two agree bit for bit by definition.

A network also keeps what the pruners score it by, computed once and shared
by every prune that follows: `log_magnitudes`, log|w| of every connection,
and `memo`'s one entry, in which chain pruning keeps its tables for the
last scoring and alpha it pruned the network at.

The file readers below serve every module: `_read_fields` and `_counts`
for text lines, `_read_json`, and `_build` to type a JSON value as a dataclass.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import stat
import sys
import typing
from dataclasses import dataclass, field, is_dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from . import parallel
from .errors import DomainError, ShapeError
from .linalg import as_bools, as_dense

T = TypeVar("T")


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _softmax(x: np.ndarray) -> np.ndarray:
    z = np.exp(x - x.max())
    return z / z.sum()


ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": _relu,
    "tanh": np.tanh,
    "identity": lambda x: x,
    "softmax": _softmax,
}


@dataclass(frozen=True)
class LayeredNetwork:
    """Stack of dense weight matrices with one activation kind per layer.

    `log_magnitudes` and `memo` keep what they compute on the network, which
    relies on it being immutable: its weights must not change once it is
    scored. A value is stored only once it is complete, so threads that
    score one network at once may compute a value twice, but none reads a
    half-built one.
    """

    weights: tuple[np.ndarray, ...]
    activations: tuple[str, ...]
    _log_magnitudes: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(as_dense(w) for w in self.weights)
        activations = tuple(self.activations)
        if not weights:
            raise ShapeError("a network needs at least one layer")
        if len(activations) != len(weights):
            raise ShapeError(
                f"{len(weights)} layers but {len(activations)} activations"
            )
        for name in activations:
            if name not in ACTIVATIONS:
                raise DomainError(f"unknown activation {name!r}")
        for a, b in zip(weights, weights[1:]):
            if a.shape[1] != b.shape[0]:
                raise ShapeError(f"layer shapes do not chain: {a.shape} -> {b.shape}")
        for w in weights:
            if not np.isfinite(w).all():
                raise DomainError("weights must be finite")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "activations", activations)

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def log_magnitudes(self) -> np.ndarray:
        """log|w| of every connection, -inf at zero weights, the layers
        concatenated and each raveled (`layers_of` gives them back); read-only,
        computed on first use and kept. Each layer is |w| and then its log
        by row ranges through `parallel.over_rows`, so the bits are those of
        np.log(np.abs(w)) on any number of CPUs."""
        logs = self._log_magnitudes
        if logs is None:
            logs = np.empty(total_connections(self))
            for w, out in zip(self.weights, layers_of(logs, self.dims)):

                def fill(lo: int, hi: int) -> None:
                    np.abs(w[lo:hi], out=out[lo:hi])
                    with np.errstate(divide="ignore"):
                        np.log(out[lo:hi], out=out[lo:hi])

                parallel.over_rows(fill, *w.shape)
            logs.flags.writeable = False
            object.__setattr__(self, "_log_magnitudes", logs)
        return logs

    def memo(self, key, build: Callable[[], T]) -> T:
        """build(), or the value it gave when the last call asked for `key`
        too. The network keeps one entry, replaced by each call with another
        key, so what it keeps stays bounded.

        Chain pruning keeps its tables here (`pruner._ChainTables`). The
        value is shared by every thread that reads the entry, so it may
        grow only by publishing complete, read-only arrays."""
        entry = self._memo
        if entry is not None and entry[0] == key:
            return entry[1]
        # drop the old value, this frame's reference too, before building,
        # so the build's peak memory does not hold it
        del entry
        object.__setattr__(self, "_memo", None)
        value = build()
        object.__setattr__(self, "_memo", (key, value))
        return value


@dataclass(frozen=True)
class MaskTensor:
    """Per-layer binary keep/drop matrices, shape-matched to a network."""

    masks: tuple[np.ndarray, ...]

    def __post_init__(self):
        masks = tuple(as_bools(m) for m in self.masks)
        if not masks:
            raise ShapeError("a mask tensor needs at least one layer")
        for a, b in zip(masks, masks[1:]):
            if a.shape[1] != b.shape[0]:
                raise ShapeError(f"mask shapes do not chain: {a.shape} -> {b.shape}")
        object.__setattr__(self, "masks", masks)

    @property
    def depth(self) -> int:
        return len(self.masks)

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.masks[0].shape[0],) + tuple(m.shape[1] for m in self.masks)

    @property
    def kept_count(self) -> int:
        return sum(int(np.count_nonzero(m)) for m in self.masks)


def full_mask(net: LayeredNetwork) -> MaskTensor:
    return MaskTensor(tuple(np.ones(w.shape, dtype=bool) for w in net.weights))


def layers_of(flat: np.ndarray, dims: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Views of `flat`, the layers of dims concatenated and each raveled, as
    the (dims[l], dims[l + 1]) layers themselves."""
    shapes = list(zip(dims, dims[1:]))
    ends = itertools.accumulate(a * b for a, b in shapes)
    return tuple(flat[end - a * b : end].reshape(a, b) for end, (a, b) in zip(ends, shapes))


@dataclass(frozen=True)
class PruningBudget:
    total_connections: int
    rate: float
    max_kept: int


def total_connections(net: LayeredNetwork) -> int:
    return int(sum(w.size for w in net.weights))


def budget(net: LayeredNetwork, rate: float) -> PruningBudget:
    """Keep at most floor((1 - rate) * total) connections."""
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"pruning rate must be in [0, 1), got {rate}")
    total = total_connections(net)
    return PruningBudget(total, rate, math.floor((1.0 - rate) * total))


def forward(net: LayeredNetwork, x) -> np.ndarray:
    """Evaluate the network on an input vector (no bias terms)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.dims[0],):
        raise ShapeError(f"input length {x.shape} does not match width {net.dims[0]}")
    for w, name in zip(net.weights, net.activations):
        x = ACTIVATIONS[name](w.T @ x)
    return x


def apply_mask(net: LayeredNetwork, mask: MaskTensor) -> LayeredNetwork:
    """Materialize the pruned network with masked weights set to zero."""
    if net.dims != mask.dims:
        raise ShapeError(f"mask dims {mask.dims} do not match network dims {net.dims}")
    zeroed = tuple(np.where(m, w, 0.0) for w, m in zip(net.weights, mask.masks))
    return LayeredNetwork(zeroed, net.activations)


def masked_forward(net: LayeredNetwork, mask: MaskTensor, x) -> np.ndarray:
    """Evaluate with each layer's weights zeroed where the mask is 0, as the
    forward pass of the network `apply_mask` builds."""
    return forward(apply_mask(net, mask), x)


# ---------------------------------------------------------------------------
# Text serialization. One header line "layers L", then per layer a line
# "dims r c" followed by r lines of c space-separated values (masks: 0/1).
# Weights are written with 17 significant digits, which round-trips float64.


def _writes_in_place(path) -> bool:
    """Whether `path` is written in place rather than replaced: an existing
    target that is not a regular file (a FIFO, a device, a pipe behind
    /dev/stdout), or a path that reaches, through links, an open file
    descriptor (/dev/stdout, /dev/fd/N). A descriptor is shared with the
    caller, so its file must keep its inode even when it is a regular file.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        return True
    link = os.path.abspath(path)
    for _ in range(40):  # the kernel's own limit on links in one lookup
        if os.path.realpath(os.path.dirname(link)).startswith(("/proc/", "/dev/fd")):
            return True
        if not os.path.islink(link):
            return False
        link = os.path.join(os.path.dirname(link), os.readlink(link))
    return False


def _is_stdout(path) -> bool:
    """Whether `path` names the same file as descriptor 1."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


@contextlib.contextmanager
def _atomic_write(path):
    """An ASCII text handle whose contents replace `path` only once the block
    completes. A failure part-way leaves the old file (or no file) and no
    temp file behind. The temp file sits beside the file a symlink points
    to, so `os.replace` is a single rename that keeps the link. A replaced
    file keeps its permission bits but not its owner or hard links, and a
    read-only file is replaced like any other. Nothing is fsynced: this
    guards against a write that fails, not against a power cut. Targets
    that `_writes_in_place` names are opened and written directly, except
    the file behind descriptor 1: reopening it would truncate it and write
    from its start, over what was printed before, so its text goes through
    `sys.stdout` instead.
    """
    if _writes_in_place(path):
        if _is_stdout(path):
            yield sys.stdout
            sys.stdout.flush()
            return
        with open(path, "w", encoding="ascii") as fh:
            yield fh
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="ascii") as fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_matrices(path, mats: Sequence[np.ndarray], write_rows) -> None:
    """The format above; `write_rows(fh, m)` writes the rows of matrix m."""
    with _atomic_write(path) as fh:
        fh.write(f"layers {len(mats)}\n")
        for m in mats:
            r, c = m.shape
            fh.write(f"dims {r} {c}\n")
            write_rows(fh, m)


def _counts(fields: list[str], key: str, n: int, path) -> list[int]:
    """The n positive integers of a "key v1 .. vn" line."""
    if len(fields) != n + 1 or fields[0] != key or not all(
        f.isdigit() and int(f) > 0 for f in fields[1:]
    ):
        raise DomainError(f"{path}: bad {key} line {' '.join(fields)!r}")
    return [int(f) for f in fields[1:]]


def _read_fields(path) -> list[list[str]]:
    """The whitespace-split fields of every non-blank line of an ASCII file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return [fields for fields in (ln.split() for ln in fh) if fields]
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def _no_constant(name: str):
    """The `parse_constant` hook of every JSON read: Python's json accepts
    NaN, Infinity and -Infinity, which are not JSON numbers."""
    raise DomainError(f"{name} is not a JSON number")


def _finite(text: str) -> float:
    """The `parse_float` hook of every JSON read: Python's json reads 1e999 as inf."""
    if math.isinf(value := float(text)):
        raise DomainError(f"{text} is out of float range")
    return value


_JSON_NUMBERS = {"parse_constant": _no_constant, "parse_float": _finite}


def _read_json(path):
    """The parsed contents of an ASCII JSON file; a non-ASCII byte, malformed
    JSON, a NaN or Infinity constant, a number too large for a float or a
    key repeated in one object raises DomainError naming the file."""

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise DomainError(f"repeated key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh, object_pairs_hook=unique, **_JSON_NUMBERS)
    except (UnicodeDecodeError, json.JSONDecodeError, DomainError) as exc:
        raise DomainError(f"{path}: {exc}") from exc


def _build(hint, value, where: str):
    """`value`, a parsed JSON value, as the type `hint` names.

    A dataclass is built from an object with no key it lacks (a missing key
    takes its default), a `tuple[X, ...]` from a list, `X | None` accepts
    null, and a leaf must have exactly its type, except that an int stands
    for a float and is converted to one (a bool never stands for an int).
    Anything else raises DomainError naming `where`, and so does a domain
    check of the dataclass itself: each error names the innermost object.
    """
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise DomainError(f"{where} must be a JSON object, got {type(value).__name__}")
        hints = typing.get_type_hints(hint)
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise DomainError(f"{where}: unknown keys {unknown}")
        kwargs = {k: _build(hints[k], v, f"{where}.{k}") for k, v in value.items()}
        try:
            return hint(**kwargs)
        except (TypeError, DomainError) as exc:  # a missing key, or a value out of its domain
            raise DomainError(f"{where}: {exc}") from exc
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise DomainError(f"{where} must be a JSON list, got {type(value).__name__}")
        return tuple(_build(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if args:  # X | None
        return None if value is None else _build(args[0], value, where)
    if type(value) is hint:
        return value
    if hint is float and type(value) is int:
        try:
            return float(value)
        except OverflowError as exc:
            raise DomainError(f"{where}: {value} is out of float range") from exc
    raise DomainError(f"{where} must be {hint.__name__}, got {value!r}")


def _read_matrices(path, conv) -> list[np.ndarray]:
    """Parse the format above; blank lines are skipped.

    An empty file, a non-ASCII byte, a bad header or dims line, a missing
    row, a row with the wrong number of values, a value `conv` rejects and
    any line after the last matrix all raise DomainError.
    """
    lines = _read_fields(path)
    if not lines:
        raise DomainError(f"{path}: empty file")
    (n_layers,) = _counts(lines[0], "layers", 1, path)
    mats = []
    pos = 1
    for layer in range(1, n_layers + 1):
        if pos == len(lines):
            raise DomainError(f"{path}: file ends before layer {layer} of {n_layers}")
        r, c = _counts(lines[pos], "dims", 2, path)
        rows = lines[pos + 1 : pos + 1 + r]
        if len(rows) != r or any(len(row) != c for row in rows):
            raise DomainError(f"{path}: layer {layer} is not {r} rows of {c} values")
        try:
            mats.append(np.asarray([[conv(v) for v in row] for row in rows]))
        except ValueError as exc:
            raise DomainError(f"{path}: layer {layer}: {exc}") from exc
        pos += 1 + r
    if pos != len(lines):
        raise DomainError(f"{path}: {len(lines) - pos} trailing lines after layer {n_layers}")
    return mats


def _float_rows(fh, m: np.ndarray) -> None:
    for row in m:
        fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def _bit_rows(fh, m: np.ndarray) -> None:
    """A boolean matrix's rows as 0/1 digits, built as bytes: each row is
    its digits at the even offsets, with spaces between and a newline last."""
    text = np.full((m.shape[0], 2 * m.shape[1]), ord(" "), dtype=np.uint8)
    np.add(m, ord("0"), out=text[:, ::2], dtype=np.uint8)
    text[:, -1] = ord("\n")
    fh.write(text.tobytes().decode("ascii"))


def save_network(net: LayeredNetwork, path) -> None:
    _write_matrices(path, net.weights, _float_rows)


def load_network(path, activations: Sequence[str] | None = None) -> LayeredNetwork:
    """Read weights back; activations are not stored, default to identity."""
    mats = [m.astype(np.float64) for m in _read_matrices(path, float)]
    if activations is None:
        activations = ["identity"] * len(mats)
    return LayeredNetwork(tuple(mats), tuple(activations))


def save_mask(mask: MaskTensor, path) -> None:
    _write_matrices(path, mask.masks, _bit_rows)


def load_mask(path) -> MaskTensor:
    mats = _read_matrices(path, int)
    if not all(((m == 0) | (m == 1)).all() for m in mats):
        raise DomainError(f"{path}: mask values must be 0 or 1")
    return MaskTensor(tuple(m.astype(bool) for m in mats))
