"""The bench's pins: what `bench/run.py --seed 1` reads on each workload.

Each run is a fresh process started from the checkout's root. It must exit 0
and end its output with a JSON line that says `"correct": true` and reads its
workload's pins; a change that moves a pin re-takes it here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
POSITIVE = "> 0"


def _counters(*values: int) -> dict:
    names = ("chains", "zero_gain_chains", "overshoot", "saturated")
    return {"pruner." + name: value for name, value in zip(names, values)}


# Traced runs read the per-layer metrics, untraced runs the end-to-end ones.
# The pruner counters (chains, zero-gain chains, overshoot, saturated calls)
# pin chain selection; kept_mag_frac sums the magnitudes the masks keep, so a
# different column pick that leaves the counters intact still fails.
PINS = {
    # chains grown on global surrogate scores; the counters pin selection, not
    # the tables' last bits: a table change fails where it moves a pick
    "global_scoring": {
        "traced": {**_counters(2808, 0, 4, 0), "surrogate.table_calls": 3},
        "untraced": {"kept_mag_frac": 0.0243707843575664},
    },
    # the bench's wrappers on harness and gcn, two stalled calls included; the
    # gcn counters read 0 if training stops calling forward_batch and
    # loss_and_grads through the module; acc_mean averages the fine-tuned
    # test accuracies, so a last-bit change in training fails it
    "ablate_grid": {
        "traced": {**_counters(28982, 22294, 2, 2), "gcn.steps": 1050,
                   "gcn.train_calls": 11, "gcn.forward_s": POSITIVE},
        "untraced": {"kept_mag_frac": 0.4493464157076262, "acc_mean": 0.9555000000000001},
    },
    # the only workload that drives the plain pruners, consistency_report and
    # trim_to_consistent at scale, and 172K chains through the counters
    "chain_prune": {
        "traced": _counters(172101, 969, 7, 0),
        "untraced": {"kept_mag_frac": 0.10661858676378934},
    },
}

# (workload, trace, seconds, cpus). Untraced runs run as the timed runs do. On
# one CPU the pruners run a large layer's passes serially, and one second runs
# several reps on the same nets, each after the first reading the chain tables
# the first left there: the pins hold on every path.
RUNS = [
    ("global_scoring", 1, 0, "all"), ("global_scoring", 0, 0, "all"),
    ("global_scoring", 0, 1, "all"), ("ablate_grid", 1, 0, "all"),
    ("ablate_grid", 0, 0, "all"), ("chain_prune", 1, 0, "all"),
    ("chain_prune", 1, 0, "one"), ("chain_prune", 0, 0, "all"),
    ("chain_prune", 0, 0, "one"), ("chain_prune", 0, 1, "all"),
]


def _first_cpu_only() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.parametrize("workload, trace, seconds, cpus", RUNS, ids=[
    f"{w}-trace{t}-seconds{s}" + ("-one-cpu" if c == "one" else "") for w, t, s, c in RUNS])
def test_bench_run_reads_its_pins(workload, trace, seconds, cpus):
    args = ["--workload", workload, "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    run = " ".join(args) + (" on one CPU" if cpus == "one" else "")
    done = subprocess.run([sys.executable, "bench/run.py", *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=600,
                          preexec_fn=_first_cpu_only if cpus == "one" else None)
    assert done.returncode == 0, f"{run}: exit status {done.returncode}\n{done.stderr[-2000:]}"
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True, f"{run}: correct is {last['correct']}\n{done.stderr[-2000:]}"
    wrong = {}
    for name, pin in PINS[workload]["traced" if trace else "untraced"].items():
        got = last["metrics"].get(name, {}).get("value")
        ok = isinstance(got, (int, float)) and (
            got > 0 if pin is POSITIVE else round(got, 12) == round(pin, 12))
        if not ok:
            wrong[name] = f"read {got!r}, pinned {pin!r}"
    assert not wrong, f"{run}: {wrong}"
