"""Output checks that decide whether a benchmark operation succeeded.

Each check returns a list of problems; an empty list means the output is
correct. The checks use only the package's public functions.
"""

from __future__ import annotations

import numpy as np

# The row statuses harness._run_grid can write to runs.json.
DOCUMENTED_STATUSES = ("ok", "saturated", "budget", "disconnected")


def kept_count(mask) -> int:
    return int(sum(int(m.sum()) for m in mask.masks))


def check_chain_mask(mask, max_kept: int, report, trimmed) -> list[str]:
    """A tc_mp mask: fully consistent, within budget plus overshoot, trim-stable.

    `report` is consistency_report(mask) and `trimmed` is
    trim_to_consistent(mask), both computed by the caller.
    """
    problems = []
    if report.ac_percentage != 100.0:
        problems.append(f"ac_percentage {report.ac_percentage} != 100.0")
    kept = kept_count(mask)
    if not max_kept <= kept <= max_kept + mask.depth - 1:
        problems.append(
            f"kept {kept} outside [{max_kept}, {max_kept + mask.depth - 1}]"
        )
    if len(trimmed.masks) != len(mask.masks) or not all(
        np.array_equal(a, b) for a, b in zip(trimmed.masks, mask.masks)
    ):
        problems.append("trim_to_consistent changed the mask")
    return problems


def check_plain_mask(mask, max_kept: int) -> list[str]:
    """A standard_mp or stochastic_mp mask keeps exactly max_kept connections."""
    kept = kept_count(mask)
    return [] if kept == max_kept else [f"kept {kept} != max_kept {max_kept}"]


def kept_magnitude_fraction(net, mask) -> float:
    """Share of the network's total |W| that the mask keeps."""
    kept = sum(float(np.abs(w)[m].sum()) for w, m in zip(net.weights, mask.masks))
    total = sum(float(np.abs(w).sum()) for w in net.weights)
    return kept / total
