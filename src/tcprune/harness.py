"""Experiment driver: train a baseline, prune under a grid of settings,
fine-tune the survivors, and emit result tables as CSV or JSON.

`run_ablation` runs every experiment: the config's `variants` state which
cells run, so an alpha sweep or a chains-vs-plain trend is just another
variant list. One baseline is trained per seed and shared by every
(rate, variant) cell at that seed, so differences between cells come from
pruning alone. A seed's cells run through `parallel.run` on the threads
`parallel.workers_for` gives, one per usable CPU, which holds numpy's
OpenBLAS at one thread for the whole grid, baselines included; records
keep grid order, so the outputs are those of a serial run. Runs whose mask
trims to nothing are reported with accuracy unavailable instead of
crashing, and pruner saturation and a diverged fine-tune are captured as
row STATUSES. A diverging baseline still ends the grid with DivergenceError.

The table schema is `ResultRow`: its field names are the CSV columns and
the JSON keys. Every JSON input (a config, `runs.json`, the CLI's
`--synthetic` pairs, a model file's shape fields) is read by one typed
builder, `network._build`, which checks each value against the field types
the dataclasses declare.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import gcn, parallel
from .data import load_dataset, synth_dataset
from .errors import BudgetError, DivergenceError, DomainError, SaturationError
from .gcn import (
    GcnModel,
    GcnShape,
    TrainConfig,
    as_layered,
    evaluate,
    init_model,
    train,
)
from .network import (
    LayeredNetwork,
    _atomic_write,
    _build,
    _read_json,
    full_mask,
    load_mask,
    save_mask,
)
from .pruner import PruneSpec, prune
from .topology import consistency_report, trim_to_consistent

# Defaults below are the calibrated desk-scale task: hard enough that a
# 99%-pruned subnetwork cannot fully recover, while the unpruned baseline
# still trains to ~100% within 300 epochs.
@dataclass(frozen=True)
class SyntheticSpec:
    classes: int = 4
    per_class_train: int = 50
    per_class_test: int = 50
    joints: int = 15
    frames: int = 40
    noise: float = 1.0
    phase_jitter: float = 6.283185307179586
    scale_jitter: float = 0.3
    seed: int = 7

    def __post_init__(self):
        counts = (self.classes, self.per_class_train, self.per_class_test, self.joints, self.frames)
        if min(counts) < 1:
            raise DomainError(f"synthetic counts must be positive, got {self}")
        if self.seed < 0:
            raise DomainError(f"synthetic seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class ModelSpec:
    heads: int = 4
    filters: int = 16
    chunks: int = 5
    head_scale: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.head_scale):
            raise DomainError(f"head_scale must be finite, got {self.head_scale}")


@dataclass(frozen=True)
class Variant:
    tc: bool
    stochastic: bool
    scoring: str = "local"
    alpha: float = 1.0

    @property
    def row_alpha(self) -> float | None:
        """The alpha a result row reports; only global scoring reads alpha."""
        return self.alpha if self.scoring == "global" else None


DEFAULT_VARIANTS = (
    Variant(tc=False, stochastic=False),
    Variant(tc=False, stochastic=True),
    Variant(tc=True, stochastic=False),
    Variant(tc=True, stochastic=True),
)


@dataclass(frozen=True)
class ExperimentConfig:
    rates: tuple[float, ...]
    variants: tuple[Variant, ...] = DEFAULT_VARIANTS
    seeds: tuple[int, ...] = (0,)
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    dataset_path: str | None = None
    model: ModelSpec = field(default_factory=ModelSpec)
    epochs: int = 300
    finetune_epochs: int | None = None
    batch_size: int = 600
    initial_lr: float = 0.05
    momentum: float = 0.9
    lr_decay: float = 0.99
    output: str | None = None

    def __post_init__(self):
        if not self.rates or not self.variants or not self.seeds:
            raise DomainError("need at least one rate, one variant, and one seed")
        if min(self.seeds) < 0:
            raise DomainError(f"seeds must be non-negative, got {list(self.seeds)}")
        # every cell's spec and the training settings are checked before
        # anything trains
        self.training
        for rate in self.rates:
            for variant in self.variants:
                _spec(rate, variant, self.seeds[0])
        # a repeated cell would merge into another's row and mask file; cells
        # are told apart by their printed labels, so compare those
        rates = [_as_printed(r) for r in self.rates]
        variant_keys = [
            (v.tc, v.stochastic, v.scoring, _as_printed(v.row_alpha)) for v in self.variants
        ]
        for name, axis in (("rates", rates), ("variants", variant_keys), ("seeds", self.seeds)):
            if len(set(axis)) < len(axis):
                raise DomainError(f"{name} repeat a grid cell: {list(axis)}")

    @property
    def finetune_budget(self) -> int:
        if self.finetune_epochs is not None:
            return self.finetune_epochs
        return max(1, self.epochs // 4)

    @property
    def training(self) -> tuple[TrainConfig, TrainConfig]:
        """The baseline's and the fine-tunes' training settings, at seed 0;
        TrainConfig rejects a bad one."""
        baseline = TrainConfig(
            self.epochs, self.batch_size, self.initial_lr, self.momentum, self.lr_decay
        )
        if self.finetune_budget < 1:
            raise DomainError(f"finetune_epochs must be positive, got {self.finetune_epochs}")
        return baseline, dataclasses.replace(baseline, epochs=self.finetune_budget)


def _as_printed(x: float | None) -> float | None:
    """`x` as its `:g` label in tables and mask file names reads back."""
    return None if x is None else float(f"{x:g}")


def _spec(rate: float, variant: Variant, seed: int) -> PruneSpec:
    """One grid cell's spec; PruneSpec rejects a bad rate, scoring or alpha."""
    return PruneSpec(rate, variant.tc, variant.stochastic, variant.scoring, variant.alpha, seed)


# Every status a run record may hold: "ok", or why the cell has no mask
# ("saturated", "budget") or no accuracy ("disconnected", "diverged").
STATUSES = ("ok", "saturated", "budget", "disconnected", "diverged")


@dataclass(frozen=True)
class RunRecord:
    rate: float
    tc: bool
    stochastic: bool
    scoring: str
    alpha: float | None
    seed: int
    kept: int | None
    ac_percent: float | None
    accuracy: float | None
    wall_s: float
    status: str
    mask_file: str | None

    def __post_init__(self):
        # the cell's spec; a local row leaves out its variant's unused alpha
        alpha = 1.0 if self.alpha is None else self.alpha
        _spec(self.rate, Variant(self.tc, self.stochastic, self.scoring, alpha), self.seed)
        if (self.alpha is None) != (self.scoring == "local"):
            raise DomainError(f"alpha must be null exactly for local scoring, got {self.alpha}")
        if self.status not in STATUSES:
            raise DomainError(f"unknown status {self.status!r}, not one of {STATUSES}")


@dataclass(frozen=True)
class ResultRow:
    """One table row; the field names are the column names, in order."""

    rate: float
    tc: bool
    stochastic: bool
    scoring: str
    alpha: float | None
    kept_params: float | None
    ac_percent: float | None
    acc_mean: float | None
    acc_std: float | None
    seeds: int
    wall_s: float


CSV_HEADER = ",".join(f.name for f in dataclasses.fields(ResultRow))


def _load_split(cfg: ExperimentConfig):
    """The train and test splits, each chunked once to (signals, labels). A
    test label the train split lacks raises DomainError here, before
    anything trains: the model's classes come from the train split."""
    if cfg.dataset_path is not None:
        train_set = load_dataset(os.path.join(cfg.dataset_path, "train"))
        test_set = load_dataset(os.path.join(cfg.dataset_path, "test"))
    else:
        # One generator call so train and test share the class motion
        # parameters and differ only in their noise draws; split per class.
        s = cfg.synthetic
        per_class = s.per_class_train + s.per_class_test
        sequences = synth_dataset(
            s.classes, per_class, s.joints, s.frames, s.seed, s.noise,
            s.phase_jitter, s.scale_jitter,
        )
        train_set, test_set = [], []
        for cls in range(s.classes):
            block = sequences[cls * per_class : (cls + 1) * per_class]
            train_set.extend(block[: s.per_class_train])
            test_set.extend(block[s.per_class_train :])
    # called through the module, so a wrapper patched onto it sees every call
    chunks = cfg.model.chunks
    train_arrays = gcn.dataset_arrays(train_set, chunks)
    test_arrays = gcn.dataset_arrays(test_set, chunks)
    lacking = np.setdiff1d(test_arrays[1], train_arrays[1])
    if lacking.size:
        raise DomainError(f"the test split holds label {lacking[0]}, which the train split lacks")
    return train_arrays, test_arrays


def _shape_for(cfg: ExperimentConfig, train_set) -> GcnShape:
    """The grid's model shape. Every cell prunes the layered view, so a
    shape without one (3 * chunks != joints) raises DomainError here,
    before anything trains."""
    signals, labels = train_set
    joints = signals.shape[2]
    classes = int(labels.max()) + 1
    shape = GcnShape(cfg.model.heads, joints, 3 * cfg.model.chunks, cfg.model.filters, classes)
    gcn._view_dims(shape)
    return shape


def _mask_name(rate, variant: Variant, seed) -> str:
    return (
        f"mask_r{rate:g}_tc{int(variant.tc)}_st{int(variant.stochastic)}"
        f"_{variant.scoring}_a{variant.alpha:g}_s{seed}.txt"
    )


@dataclass(frozen=True)
class _Baseline:
    """One seed's trained model and what every cell at that seed shares."""

    seed: int
    model: GcnModel
    accuracy: float
    view: LayeredNetwork
    finetune: TrainConfig
    train_set: tuple[np.ndarray, np.ndarray]
    test_set: tuple[np.ndarray, np.ndarray]


def _run_grid(cfg: ExperimentConfig) -> list[RunRecord]:
    train_set, test_set = _load_split(cfg)
    shape = _shape_for(cfg, train_set)
    base_cfg, tune_cfg = cfg.training
    cells = [(rate, variant) for rate in cfg.rates for variant in cfg.variants]
    records: list[RunRecord] = []
    mask_dir = None
    if cfg.output:
        mask_dir = os.path.join(cfg.output, "masks")
        os.makedirs(mask_dir, exist_ok=True)
    # one OpenBLAS hold for the whole grid, baselines included; no bit depends on its count
    with parallel.workers_for(len(cells)) as workers:
        for seed in cfg.seeds:
            init = init_model(shape, seed, cfg.model.head_scale)
            model, _ = train(init, train_set, dataclasses.replace(base_cfg, seed=seed))
            accuracy = evaluate(model, test_set)
            view = as_layered(model)
            finetune = dataclasses.replace(tune_cfg, seed=seed)
            base = _Baseline(seed, model, accuracy, view, finetune, train_set, test_set)
            records += parallel.run(lambda cell: _run_cell(base, *cell, mask_dir), cells, workers)
    return records


def _run_cell(base: _Baseline, rate: float, variant: Variant, mask_dir: str | None) -> RunRecord:
    """Prune the baseline, fine-tune and evaluate the survivors, save the mask."""
    t0 = time.perf_counter()
    status, mask, acc = _prune_and_tune(base, rate, variant)
    kept = ac = mask_file = None
    if mask is not None:
        rep = consistency_report(mask)
        kept, ac = rep.kept_count, rep.ac_percentage
        if mask_dir is not None:
            mask_file = _mask_name(rate, variant, base.seed)
            save_mask(mask, os.path.join(mask_dir, mask_file))
    return RunRecord(
        rate=rate,
        tc=variant.tc,
        stochastic=variant.stochastic,
        scoring=variant.scoring,
        alpha=variant.row_alpha,
        seed=base.seed,
        kept=kept,
        ac_percent=ac,
        accuracy=acc,
        wall_s=time.perf_counter() - t0,
        status=status,
        mask_file=mask_file,
    )


def _prune_and_tune(base: _Baseline, rate: float, variant: Variant):
    """(status, mask, accuracy) of one cell; mask is None when pruning failed.

    A fine-tune whose loss turns non-finite gives status "diverged" with its
    mask kept and no accuracy; the rest of the grid still runs.
    """
    if rate == 0:
        # nothing is pruned; the baseline stands as-is
        return "ok", full_mask(base.view), base.accuracy
    try:
        mask = prune(base.view, _spec(rate, variant, base.seed))
    except SaturationError:
        return "saturated", None, None
    except BudgetError:
        return "budget", None, None
    if trim_to_consistent(mask).kept_count == 0:
        return "disconnected", mask, None
    try:
        tuned, _ = train(base.model, base.train_set, base.finetune, mask)
    except DivergenceError:
        return "diverged", mask, None
    return "ok", mask, evaluate(tuned, base.test_set, mask)


def aggregate(records: list[RunRecord]) -> list[ResultRow]:
    """One row per (rate, tc, stochastic, scoring, alpha), averaged over seeds."""
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        key = (rec.rate, rec.tc, rec.stochastic, rec.scoring, rec.alpha)
        groups.setdefault(key, []).append(rec)
    rows = []
    for key in sorted(groups, key=lambda k: (*k[:4], k[4] or 0.0)):
        recs = groups[key]
        kept = [r.kept for r in recs if r.kept is not None]
        acs = [r.ac_percent for r in recs if r.ac_percent is not None]
        accs = [r.accuracy for r in recs if r.accuracy is not None]
        rows.append(
            ResultRow(
                *key,
                kept_params=float(np.mean(kept)) if kept else None,
                ac_percent=float(np.mean(acs)) if acs else None,
                acc_mean=float(np.mean(accs)) if accs else None,
                acc_std=float(np.std(accs)) if accs else None,
                seeds=len(recs),
                wall_s=float(sum(r.wall_s for r in recs)),
            )
        )
    return rows


def run_ablation(cfg: ExperimentConfig) -> list[ResultRow]:
    """Full (rate x variant x seed) grid, aggregated over seeds."""
    records = _run_grid(cfg)
    rows = aggregate(records)
    if cfg.output:
        _persist(cfg, records, rows)
    return rows


def _persist(cfg: ExperimentConfig, records, rows) -> None:
    os.makedirs(cfg.output, exist_ok=True)
    with _atomic_write(os.path.join(cfg.output, "runs.json")) as fh:
        json.dump([dataclasses.asdict(r) for r in records], fh, indent=1)
    emit(rows, "csv", os.path.join(cfg.output, "results.csv"))
    emit(rows, "json", os.path.join(cfg.output, "results.json"))


# ---------------------------------------------------------------------------
# Emission


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit(rows: list[ResultRow], fmt: str, path) -> None:
    """Write rows as CSV (header CSV_HEADER) or JSON (the same field names)."""
    if not rows:
        raise DomainError("no result rows to emit")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in dataclasses.astuple(row)))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps([dataclasses.asdict(row) for row in rows], indent=1) + "\n"
    else:
        raise DomainError(f"unknown output format {fmt!r}")
    with _atomic_write(path) as fh:
        fh.write(text)


def report_from_artifacts(artifact_dir: str) -> list[ResultRow]:
    """Rebuild result rows from persisted runs, recomputing mask statistics.

    Every kept count and consistency percentage is recomputed from the mask
    files and must equal the recorded value exactly: the same computation
    on the same mask bits gives the same float, and JSON round-trips it.
    A mask_file must be a bare file name, so no mask is read from outside
    `artifact_dir`'s masks directory. Every record passes RunRecord's domain
    checks, and a runs.json with no record raises DomainError.
    """
    payload = _read_json(os.path.join(artifact_dir, "runs.json"))
    records = _build(tuple[RunRecord, ...], payload, "runs.json")
    if not records:
        raise DomainError("runs.json holds no run records")
    for rec in records:
        name = rec.mask_file
        if name is not None:
            if name in ("", ".", "..") or os.path.basename(name) != name:
                raise DomainError(f"runs.json: mask_file {name!r} is not a bare file name")
            rep = consistency_report(load_mask(os.path.join(artifact_dir, "masks", name)))
            if (rep.kept_count, rep.ac_percentage) != (rec.kept, rec.ac_percent):
                raise DomainError(
                    f"{name}: recomputed kept={rep.kept_count} "
                    f"ac_percent={rep.ac_percentage}, recorded {rec.kept} {rec.ac_percent}"
                )
    return aggregate(list(records))


# ---------------------------------------------------------------------------
# Config (JSON)


def load_config(path) -> ExperimentConfig:
    """Read a config file; anything `_read_json` or `_build` rejects raises
    DomainError naming the file."""
    return _build(ExperimentConfig, _read_json(path), f"{path}: config")
