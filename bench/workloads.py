"""The benchmark's three workloads.

Each workload has `setup(seed)`, which makes its inputs from the seed and
nothing else, and `run(inputs, tracer)`, which does the workload's fixed
work once, timed, and then checks every output. The seed reaches only input
generation: pruner seeds, training seeds and the grid are fixed.

`tracer` is None for an untraced rep. For a traced rep the caller has
already wrapped the package (layers.install); `run` turns recording on for
the timed work only, so the checks leave no spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from unittest import mock

import numpy as np
from tcprune import cli, harness, pruner, topology
from tcprune.data import synth_dataset
from tcprune.network import LayeredNetwork, budget, load_mask
from tcprune.pruner import PruneSpec

from checks import (
    DOCUMENTED_STATUSES,
    check_chain_mask,
    check_plain_mask,
    kept_magnitude_fraction,
)
from tracing import Tracer


@dataclass
class Rep:
    """One execution of a workload's fixed work."""

    wall_s: float
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed_ops: int = 0
    acc_mean: float | None = None
    kept_mag_frac: float | None = None

    def op(self, problems: list[str], label: str) -> None:
        self.attempted += 1
        if problems:
            self.failed_ops += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


@contextlib.contextmanager
def _recording(tracer: Tracer | None):
    if tracer is None:
        yield
        return
    with tracer.operation():
        tracer.recording = True
        try:
            yield
        finally:
            tracer.recording = False


def _random_network(rng: np.random.Generator, dims):
    weights = tuple(rng.standard_normal((a, b)) for a, b in zip(dims, dims[1:]))
    activations = ("relu",) * (len(dims) - 2) + ("softmax",)
    return LayeredNetwork(weights, activations)


# ---------------------------------------------------------------------------
# ablate_grid: the default `tcprune ablate` grid, as users run it.

GRID_CELLS = 3 * 4  # default rates x default variants, one seed


@dataclass
class GridInputs:
    seed: int
    scratch: str
    sequences: list


def setup_ablate_grid(seed: int, scratch: str) -> GridInputs:
    """The calibrated synthetic dataset for this seed.

    The grid makes the same dataset again inside `cli.main`, as it does for
    users; making it here puts data generation into setup_s as well.
    """
    s = harness.SyntheticSpec(seed=seed)
    sequences = synth_dataset(
        s.classes, s.per_class_train + s.per_class_test, s.joints, s.frames,
        s.seed, s.noise, s.phase_jitter, s.scale_jitter,
    )
    return GridInputs(seed, scratch, sequences)


def _capture_prune(store: list):
    prune = harness.prune

    def wrapper(net, spec):
        store.append((net, spec))
        return prune(net, spec)

    return mock.patch.object(harness, "prune", wrapper)


def run_ablate_grid(inputs: GridInputs, tracer: Tracer | None) -> Rep:
    out = tempfile.mkdtemp(prefix="ablate-", dir=inputs.scratch)
    argv = ["ablate", "--synthetic", f"seed={inputs.seed}", "--out", out]
    # The grid's own view is needed for kept_mag_frac; it is recorded on the
    # way into harness.prune, which costs one list append per cell.
    pruned: list = []
    try:
        with _capture_prune(pruned):
            with _recording(tracer), contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # an unexpected error fails every cell
                    rc = repr(exc)
                wall = perf_counter() - t0
        rep = Rep(wall)
        if rc != 0:
            rep.attempted = GRID_CELLS + 1
            rep.failed_ops = GRID_CELLS + 1
            rep.problems.append(f"tcprune ablate ended with {rc}")
            return rep
        with open(os.path.join(out, "runs.json"), encoding="ascii") as fh:
            records = json.load(fh)
        missing = GRID_CELLS - len(records)
        if missing > 0:
            rep.attempted += missing
            rep.failed_ops += missing
            rep.problems.append(f"{len(records)} cells, expected {GRID_CELLS}")
        views = {(s.rate, s.tc, s.stochastic): net for net, s in pruned}
        fractions, accuracies = [], []
        for rec in records:
            label = f"cell rate={rec['rate']} tc={rec['tc']} st={rec['stochastic']}"
            problems = []
            if rec["status"] not in DOCUMENTED_STATUSES:
                problems.append(f"undocumented status {rec['status']!r}")
            if rec["status"] == "ok" and rec["accuracy"] is None:
                problems.append("status ok without an accuracy")
            if rec["accuracy"] is not None:
                accuracies.append(rec["accuracy"])
            if rec["mask_file"] is not None:
                view = views.get((rec["rate"], rec["tc"], rec["stochastic"]))
                mask = load_mask(os.path.join(out, "masks", rec["mask_file"]))
                if view is None:
                    rep.op(["mask written without a prune call"], label)
                    continue
                max_kept = budget(view, rec["rate"]).max_kept
                if rec["tc"]:
                    problems += check_chain_mask(
                        mask, max_kept, topology.consistency_report(mask),
                        topology.trim_to_consistent(mask),
                    )
                    fractions.append(kept_magnitude_fraction(view, mask))
                else:
                    problems += check_plain_mask(mask, max_kept)
            rep.op(problems, label)
            if tracer is not None:
                tracer.count("harness.cells")
                tracer.count(f"harness.cells_{rec['status']}")
                tracer.count("harness.cell_s", rec["wall_s"])
        # The `tcprune report` path must rebuild the same table from the
        # artifacts, re-verifying every mask's counts on the way.
        table = os.path.join(out, "report.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["report", "--artifacts", out, "--table-out", table])
        problems = [] if rc == 0 else [f"tcprune report exited with {rc}"]
        if rc == 0:
            with open(table, encoding="ascii") as a, \
                    open(os.path.join(out, "results.csv"), encoding="ascii") as b:
                if a.read() != b.read():
                    problems.append("report table differs from results.csv")
        rep.op(problems, "report")
        rep.acc_mean = float(np.mean(accuracies)) if accuracies else None
        rep.kept_mag_frac = float(np.mean(fractions)) if fractions else None
        return rep
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------------------
# chain_prune and global_scoring: the pruners on seeded random networks.

CHAIN_DIMS = ((128, 512, 512, 10), (256, 1024, 1024, 10))
CHAIN_RATES = (0.9, 0.99)
GLOBAL_DIMS = (32, 256, 256, 256)
GLOBAL_RATE = 0.99
GLOBAL_ALPHAS = (1.0, 0.1, 0.02)


@dataclass
class NetInputs:
    nets: list


def setup_chain_prune(seed: int, scratch: str) -> NetInputs:
    rng = np.random.default_rng(seed)
    return NetInputs([_random_network(rng, dims) for dims in CHAIN_DIMS])


def setup_global_scoring(seed: int, scratch: str) -> NetInputs:
    return NetInputs([_random_network(np.random.default_rng(seed), GLOBAL_DIMS)])


def _run_masks(nets, specs, tracer: Tracer | None, check_in_run: bool) -> Rep:
    """Compute a mask per (net, spec), timed; then check each one.

    With `check_in_run`, consistency_report and trim_to_consistent are part
    of the timed work (chain_prune); otherwise they run only as checks.
    """
    ops = [(net, kind, spec) for net in nets for kind, spec in specs]
    results = []
    t0 = perf_counter()
    for net, kind, spec in ops:
        with _recording(tracer):
            try:
                if kind == "tc_mp":
                    mask = pruner.tc_mp(net, spec)
                elif kind == "standard_mp":
                    mask = pruner.standard_mp(net, spec.rate)
                else:
                    mask = pruner.stochastic_mp(net, spec.rate, spec.seed)
                after = None
                if check_in_run:
                    after = (topology.consistency_report(mask), topology.trim_to_consistent(mask))
                results.append((mask, after, None))
            except Exception as exc:  # an operation failure, counted below
                results.append((None, None, exc))
    rep = Rep(perf_counter() - t0)
    fractions = []
    for (net, kind, spec), (mask, after, error) in zip(ops, results):
        label = f"{kind} dims={net.dims} rate={spec.rate} st={spec.stochastic} alpha={spec.alpha}"
        if error is not None:
            rep.op([f"raised {error!r}"], label)
            continue
        max_kept = budget(net, spec.rate).max_kept
        if kind == "tc_mp":
            if after is None:
                after = (topology.consistency_report(mask), topology.trim_to_consistent(mask))
            rep.op(check_chain_mask(mask, max_kept, *after), label)
            fractions.append(kept_magnitude_fraction(net, mask))
        else:
            rep.op(check_plain_mask(mask, max_kept), label)
    rep.kept_mag_frac = float(np.mean(fractions)) if fractions else None
    # No classifier runs here: acc_mean is the share of masks that pass
    # every output check.
    rep.acc_mean = 1.0 - rep.failed_ops / rep.attempted
    return rep


def run_chain_prune(inputs: NetInputs, tracer: Tracer | None) -> Rep:
    specs = []
    for rate in CHAIN_RATES:
        specs += [
            ("tc_mp", PruneSpec(rate=rate, tc=True, stochastic=False)),
            ("tc_mp", PruneSpec(rate=rate, tc=True, stochastic=True)),
            ("standard_mp", PruneSpec(rate=rate, tc=False)),
            ("stochastic_mp", PruneSpec(rate=rate, tc=False, stochastic=True)),
        ]
    return _run_masks(inputs.nets, specs, tracer, check_in_run=True)


def run_global_scoring(inputs: NetInputs, tracer: Tracer | None) -> Rep:
    specs = [
        ("tc_mp", PruneSpec(rate=GLOBAL_RATE, tc=True, stochastic=st,
                            scoring="global", alpha=alpha))
        for alpha in GLOBAL_ALPHAS
        for st in (False, True)
    ]
    return _run_masks(inputs.nets, specs, tracer, check_in_run=False)


WORKLOADS = {
    "ablate_grid": (setup_ablate_grid, run_ablate_grid),
    "chain_prune": (setup_chain_prune, run_chain_prune),
    "global_scoring": (setup_global_scoring, run_global_scoring),
}
