"""Command-line driver.

Subcommands: train (baseline), prune (single mask), finetune, ablate
(the one grid command, run through `harness.run_ablation`), report
(re-emit from artifacts). `ablate` takes its grid from the flags (the
default rate x variant grid) or from `--config`, a JSON config such as the
ones under configs/, whose `variants` state any grid, an alpha sweep
included; a grid flag given with `--config` is a config error.
Exit codes, from the one EXIT_CODES table: 0 success, 1 chain pruning
saturated (SaturationError: no chain adds a connection before the budget
fills), 2 config error, 3 I/O error, 4 numeric divergence, 5 out of memory
(numpy's MemoryError names the shape it could not allocate).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import gcn
from .data import load_dataset, synth_dataset
from .errors import DivergenceError, DomainError, SaturationError
from .gcn import (
    GcnShape,
    TrainConfig,
    as_layered,
    evaluate,
    init_model,
    load_model,
    save_model,
    train,
)
from .harness import (
    ExperimentConfig,
    ModelSpec,
    SyntheticSpec,
    emit,
    load_config,
    report_from_artifacts,
    run_ablation,
)
from .network import _JSON_NUMBERS, _build, load_mask, load_network, save_mask
from .pruner import PruneSpec, prune
from .topology import consistency_report, report_to_json


def _parse_kv(text: str | None) -> SyntheticSpec:
    """Parse "a=1,b=2" into a SyntheticSpec; each value is read as JSON, and
    a pair that is not key=<JSON> (NaN, Infinity and 1e999 are not), or
    repeats a key, raises DomainError naming it."""
    payload = {}
    for pair in text.split(",") if text else ():
        key, _, value = pair.partition("=")
        key = key.strip()
        if key in payload:
            raise DomainError(f"--synthetic: repeated key {key!r}")
        try:
            payload[key] = json.loads(value, **_JSON_NUMBERS)
        except (json.JSONDecodeError, DomainError) as exc:
            raise DomainError(f"--synthetic: {pair!r} is not key=<JSON>: {exc}") from exc
    return _build(SyntheticSpec, payload, "--synthetic")


def _load_data(args, chunks: int):
    """The --dataset or --synthetic sequences, chunked once to (signals, labels)."""
    if args.dataset:
        sequences = load_dataset(args.dataset)
    else:
        spec = _parse_kv(args.synthetic)
        sequences = synth_dataset(
            spec.classes, spec.per_class_train, spec.joints, spec.frames, spec.seed,
            spec.noise, spec.phase_jitter, spec.scale_jitter,
        )
    # called through the module, so a wrapper patched onto it sees every call
    return gcn.dataset_arrays(sequences, chunks)


def cmd_train(args) -> int:
    data = _load_data(args, args.chunks)
    signals, labels = data
    classes = int(labels.max()) + 1
    shape = GcnShape(args.heads, signals.shape[2], 3 * args.chunks, args.filters, classes)
    cfg = TrainConfig(epochs=args.epochs, seed=args.seed)
    model, losses = train(init_model(shape, args.seed, args.head_scale), data, cfg)
    save_model(model, args.out)
    acc = evaluate(model, data)
    print(f"trained {args.epochs} epochs, final loss {losses[-1]:.6f}, train accuracy {acc:.4f}")
    print(f"model written to {args.out}")
    return 0


def cmd_prune(args) -> int:
    net = as_layered(load_model(args.model)) if args.model else load_network(args.network)
    spec = PruneSpec(args.rate, args.tc, args.stochastic, args.scoring, args.alpha, args.seed)
    mask = prune(net, spec)
    save_mask(mask, args.out)
    print(report_to_json(consistency_report(mask)))
    print(f"mask written to {args.out}")
    return 0


def cmd_finetune(args) -> int:
    model = load_model(args.model)
    mask = load_mask(args.mask)
    data = _load_data(args, model.shape.chunks)
    tuned, losses = train(model, data, TrainConfig(epochs=args.epochs, seed=args.seed), mask)
    save_model(tuned, args.out)
    acc = evaluate(tuned, data, mask)
    print(f"fine-tuned {args.epochs} epochs, final loss {losses[-1]:.6f}, train accuracy {acc:.4f}")
    print(f"model written to {args.out}")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    if args.config:
        if args.grid_flags:
            given = ", ".join(sorted(set(args.grid_flags)))
            raise DomainError(f"--config states the whole grid; drop {given}")
        cfg = load_config(args.config)
        return dataclasses.replace(cfg, output=args.out) if args.out else cfg
    return ExperimentConfig(
        rates=tuple(float(r) for r in args.rates.split(",")),
        seeds=tuple(int(s) for s in args.seeds.split(",")),
        synthetic=_parse_kv(args.synthetic),
        dataset_path=args.dataset,
        model=ModelSpec(args.heads, args.filters, args.chunks, args.head_scale),
        epochs=args.epochs,
        finetune_epochs=args.finetune_epochs,
        output=args.out,
    )


def _print_rows(rows) -> None:
    for row in rows:
        alpha = "" if row.alpha is None else f" alpha={row.alpha:g}"
        kept = "NA" if row.kept_params is None else f"{row.kept_params:g}"
        acc = "NA" if row.acc_mean is None else f"{row.acc_mean:.4f}"
        ac = "NA" if row.ac_percent is None else f"{row.ac_percent:.2f}"
        print(
            f"rate={row.rate:g} tc={row.tc} stochastic={row.stochastic} "
            f"scoring={row.scoring}{alpha} kept={kept} ac%={ac} acc={acc}"
        )


def _emit_rows(rows, args) -> int:
    if args.table_out:
        emit(rows, args.format, args.table_out)
        print(f"results written to {args.table_out}")
    _print_rows(rows)
    return 0


def cmd_ablate(args) -> int:
    return _emit_rows(run_ablation(_experiment_config(args)), args)


def cmd_report(args) -> int:
    return _emit_rows(report_from_artifacts(args.artifacts), args)


class _GridFlag(argparse.Action):
    """Store the value and record the flag, which `ablate --config` excludes."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.grid_flags = (*namespace.grid_flags, self.option_strings[0])


def _add_data_flags(
    p, action="store", dataset_help="directory of seq_*.txt sequence files"
) -> None:
    p.add_argument("--dataset", action=action, help=dataset_help)
    p.add_argument("--synthetic", action=action,
                   help="synthetic generator overrides, e.g. classes=4,per_class_train=50")


def _add_model_flags(p, action="store") -> None:
    p.add_argument("--heads", action=action, type=int, default=4)
    p.add_argument("--filters", action=action, type=int, default=16)
    p.add_argument("--chunks", action=action, type=int, default=5)
    p.add_argument("--head-scale", action=action, type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tcprune")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a baseline model")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output model JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", help="compute a single mask")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="model JSON to prune (via its layered view)")
    src.add_argument("--network", help="layered network text file to prune")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--tc", action="store_true")
    p.add_argument("--stochastic", action="store_true")
    p.add_argument("--scoring", choices=("local", "global"), default="local")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output mask text file")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("finetune", help="retrain the surviving weights under a mask")
    p.add_argument("--model", required=True)
    p.add_argument("--mask", required=True)
    _add_data_flags(p)
    p.add_argument("--epochs", type=int, default=75)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("ablate", help="run a rate x variant grid")
    p.add_argument("--config", help="experiment config JSON; excludes the grid flags")
    _add_data_flags(p, _GridFlag, "directory whose train/ and test/ subdirectories hold "
                    "the splits' seq_*.txt sequence files")
    _add_model_flags(p, _GridFlag)
    p.add_argument("--rates", action=_GridFlag, default="0.5,0.9,0.99")
    p.add_argument("--seeds", action=_GridFlag, default="0")
    p.add_argument("--epochs", action=_GridFlag, type=int, default=300)
    p.add_argument("--finetune-epochs", action=_GridFlag, type=int, default=None)
    p.add_argument("--out", help="artifact directory (masks, runs.json, results)")
    p.add_argument("--table-out", help="write the aggregated table to this path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_ablate, grid_flags=())

    p = sub.add_parser("report", help="re-emit tables from persisted artifacts")
    p.add_argument("--artifacts", required=True)
    p.add_argument("--table-out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_report)

    return parser


# The exit code of each error a command may raise; the first type an error
# is an instance of gives its code.
EXIT_CODES = (
    (DivergenceError, 4),
    (OSError, 3),
    (ValueError, 2),  # DomainError, ShapeError, ...
    (SaturationError, 1),
    (MemoryError, 5),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
