"""Accessibility and co-accessibility analysis of mask tensors.

A kept connection (layer l, i -> j) is accessible when some input neuron
reaches neuron i through kept connections of layers 1..l-1, and
co-accessible when neuron j reaches some output neuron through kept
connections of layers l+1..L. A mask is topologically consistent when every
kept connection is both, i.e. lies on a complete input-to-output path.

Both are properties of neurons: `_neuron_flags` computes them in one forward
and one backward sweep of boolean products, and a connection takes the flags
of its end neurons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .network import MaskTensor


def _neuron_flags(mask: MaskTensor) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-depth reachability vectors, computed incrementally.

    reached[d][i] == some input neuron reaches neuron i at depth d;
    reaches_out[d][i] == neuron i at depth d reaches some output neuron.
    A boolean product is an OR of ANDs, so each sweep step is one `@`.
    """
    reached = [np.ones(mask.dims[0], dtype=bool)]
    for m in mask.masks:
        reached.append(reached[-1] @ m)
    reaches_out = [np.ones(mask.dims[-1], dtype=bool)]
    for m in reversed(mask.masks):
        reaches_out.insert(0, m @ reaches_out[0])
    return reached, reaches_out


def _on_complete_paths(mask: MaskTensor, reached, reaches_out) -> list[np.ndarray]:
    """Per layer, the kept connections that are accessible and co-accessible."""
    return [m & reached[l][:, None] & reaches_out[l + 1][None, :]
            for l, m in enumerate(mask.masks)]


def _repeated(flags: np.ndarray, shape: tuple[int, int], strides: tuple[int, int]) -> np.ndarray:
    """A read-only view of `flags` repeated along the zero-stride axis."""
    view = np.ndarray(shape, dtype=bool, buffer=flags, strides=strides)
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-neuron reachability plus aggregate counts over kept connections.

    `reached` and `reaches_out` hold one vector per depth 0..L (see
    `_neuron_flags`). The per-connection flags of layer l + 1 are read-only
    zero-stride views of them: `per_layer_accessible[l][i, j]` is
    `reached[l][i]` and `per_layer_coaccessible[l][i, j]` is
    `reaches_out[l + 1][j]`.
    """

    reached: tuple[np.ndarray, ...]
    reaches_out: tuple[np.ndarray, ...]
    kept_count: int
    consistent_count: int
    ac_percentage: float | None

    @property
    def per_layer_accessible(self) -> tuple[np.ndarray, ...]:
        return tuple(_repeated(a, (a.size, b.size), (a.strides[0], 0))
                     for a, b in zip(self.reached, self.reaches_out[1:]))

    @property
    def per_layer_coaccessible(self) -> tuple[np.ndarray, ...]:
        return tuple(_repeated(b, (a.size, b.size), (0, b.strides[0]))
                     for a, b in zip(self.reached, self.reaches_out[1:]))


def consistency_report(mask: MaskTensor) -> ConsistencyReport:
    """Flag every neuron and aggregate over mask-1 positions.

    ac_percentage is None when the mask keeps nothing (undefined rather
    than 0 or 100).
    """
    reached, reaches_out = _neuron_flags(mask)
    kept = mask.kept_count
    consistent = int(sum(np.count_nonzero(k) for k in _on_complete_paths(mask, reached, reaches_out)))
    pct = 100.0 * consistent / kept if kept > 0 else None
    return ConsistencyReport(tuple(reached), tuple(reaches_out), kept, consistent, pct)


def report_to_json(report: ConsistencyReport) -> str:
    return json.dumps({"kept": report.kept_count, "consistent": report.consistent_count,
                       "ac_percent": report.ac_percentage})


def trim_to_consistent(mask: MaskTensor) -> MaskTensor:
    """Drop every kept connection that is not on a complete path, in one pass.

    The flags come from the input mask, and one pass already reaches the
    fixpoint. A kept connection whose tail is reached from the input and
    whose head reaches the output lies on a complete path of the input
    mask; every connection of that path passes the same test, so all of
    them survive and the result is consistent. A removed connection lies
    on no complete path, so the fixpoint would remove it too. The result
    is topologically consistent or empty, and is a subset of the input mask.
    """
    return MaskTensor(tuple(_on_complete_paths(mask, *_neuron_flags(mask))))
