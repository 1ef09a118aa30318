import dataclasses
import json
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from tcprune.errors import DivergenceError, DomainError
from tcprune.harness import (
    DEFAULT_VARIANTS,
    CSV_HEADER,
    ExperimentConfig,
    ModelSpec,
    STATUSES,
    ResultRow,
    SyntheticSpec,
    Variant,
    _load_split,
    _run_grid,
    aggregate,
    emit,
    load_config,
    report_from_artifacts,
    run_ablation,
)

TINY_SYNTH = SyntheticSpec(
    classes=2,
    per_class_train=4,
    per_class_test=4,
    joints=3,
    frames=6,
    noise=0.2,
    phase_jitter=0.0,
    scale_jitter=0.0,
    seed=5,
)
TINY_MODEL = ModelSpec(heads=2, filters=2, chunks=1)
ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        rates=(0.5, 0.9),
        seeds=(0, 1, 2),
        synthetic=TINY_SYNTH,
        model=TINY_MODEL,
        epochs=3,
        finetune_epochs=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunAblation:
    def test_grid_counts(self):
        cfg = tiny_config()
        records = _run_grid(cfg)
        assert len(records) == 2 * 4 * 3
        rows = aggregate(records)
        assert len(rows) == 8
        assert all(row.seeds == 3 for row in rows)

    def test_rows_sorted_by_rate_tc_stochastic(self):
        rows = run_ablation(tiny_config(seeds=(0,)))
        keys = [(r.rate, r.tc, r.stochastic) for r in rows]
        assert keys == sorted(keys)

    def test_rate_zero_reports_baseline_accuracy(self):
        rows = run_ablation(tiny_config(rates=(0.0,), seeds=(0,)))
        accs = {row.acc_mean for row in rows}
        assert len(accs) == 1  # every variant equals the baseline accuracy
        assert all(row.ac_percent == 100.0 for row in rows)

    def test_tc_rows_are_fully_consistent(self):
        rows = run_ablation(tiny_config())
        for row in rows:
            if row.tc and row.ac_percent is not None:
                assert row.ac_percent == 100.0

    def test_repeated_seed_is_rejected_before_training(self, monkeypatch):
        # two equal seeds would merge into one row that claims seeds=2
        import tcprune.harness as harness_mod

        calls = []
        monkeypatch.setattr(harness_mod, "train", lambda *args: calls.append(args))
        with pytest.raises(DomainError):
            run_ablation(tiny_config(seeds=(1, 1)))
        assert calls == []

    def test_baseline_cached_per_seed_is_not_mutated(self, monkeypatch):
        import tcprune.harness as harness_mod

        hashes = []
        original_train = harness_mod.train

        def spy_train(model, dataset, cfg, mask=None):
            out = original_train(model, dataset, cfg, mask)
            hashes.append(
                (model.attention.tobytes(), model.conv.tobytes(), model.head.tobytes())
            )
            return out

        monkeypatch.setattr(harness_mod, "train", spy_train)
        run_ablation(tiny_config(rates=(0.9,), seeds=(0,)))
        # first call trains the baseline; later calls fine-tune from it and
        # must observe the identical baseline bytes every time
        assert len(set(hashes[1:])) <= 1


def run_diverging_grid(out: Path) -> None:
    """A two-seed grid with output whose (0.9, tc, deterministic, seed 1)
    cell diverges in its fine-tune."""
    import tcprune.harness as harness_mod

    real_prune, real_train = harness_mod.prune, harness_mod.train
    diverging = []  # kept alive, so `is` cannot match a later mask at its address

    def prune(net, spec):
        mask = real_prune(net, spec)
        if (spec.rate, spec.tc, spec.stochastic, spec.seed) == (0.9, True, False, 1):
            diverging.append(mask)
        return mask

    def train(model, data, cfg, mask=None):
        if any(mask is m for m in diverging):
            raise DivergenceError(0)
        return real_train(model, data, cfg, mask)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness_mod, "prune", prune)
        patch.setattr(harness_mod, "train", train)
        run_ablation(tiny_config(rates=(0.5, 0.9), seeds=(0, 1), output=str(out)))
    assert len(diverging) == 1


class TestConcurrentCells:
    @pytest.mark.parametrize("cpus", [None, 8], ids=["usable-cpus", "8-workers-stress"])
    def test_outputs_match_serial_grid(self, tmp_path, monkeypatch, cpus):
        from tcprune import parallel

        interval = sys.getswitchinterval()
        if cpus is not None:
            # more workers than cores, switching often: a lost or repeated
            # cell, or a record out of grid order, changes the outputs
            monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
            sys.setswitchinterval(1e-5)
        try:
            run_diverging_grid(tmp_path / "concurrent")
        finally:
            sys.setswitchinterval(interval)
        # without a handle on the BLAS thread count the grid runs serially
        monkeypatch.setattr(parallel, "_openblas", lambda: None)
        run_diverging_grid(tmp_path / "serial")

        def outputs(out: Path):
            runs = json.loads((out / "runs.json").read_text())
            for rec in runs:
                del rec["wall_s"]
            csv = [line.rsplit(",", 1)[0] for line in (out / "results.csv").read_text().splitlines()]
            masks = {p.name: p.read_bytes() for p in (out / "masks").iterdir()}
            return runs, csv, masks

        concurrent, serial = outputs(tmp_path / "concurrent"), outputs(tmp_path / "serial")
        assert [r["status"] for r in serial[0]].count("diverged") == 1
        assert len(serial[2]) == 2 * 4 * 2
        assert concurrent == serial

    def test_unexpected_error_stops_every_worker(self, monkeypatch):
        import tcprune.harness as harness_mod
        from tcprune import parallel

        real_train = harness_mod.train
        finetunes = []

        def train(model, data, cfg, mask=None):
            if mask is not None:
                finetunes.append(mask)
                if len(finetunes) == 3:
                    raise RuntimeError("injected")
            return real_train(model, data, cfg, mask)

        monkeypatch.setattr(harness_mod, "train", train)
        handle = parallel._openblas()
        threads_before = handle[0]() if handle else None
        alive_before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="injected"):
            run_ablation(tiny_config(rates=(0.5, 0.9), seeds=(0, 1)))
        assert set(threading.enumerate()) == alive_before
        if handle:
            assert handle[0]() == threads_before
        # the grid stops at the seed whose cell failed
        assert 3 <= len(finetunes) < 2 * 4 * 2

    def test_later_baseline_divergence_stops_every_worker(self, monkeypatch):
        import tcprune.harness as harness_mod
        from tcprune import parallel

        real_train = harness_mod.train
        handle = parallel._openblas()
        baseline_threads = []

        def train(model, data, cfg, mask=None):
            if mask is None:
                baseline_threads.append(handle[0]() if handle else None)
                if cfg.seed == 1:
                    raise DivergenceError(0)
            return real_train(model, data, cfg, mask)

        monkeypatch.setattr(harness_mod, "train", train)
        threads_before = handle[0]() if handle else None
        alive_before = set(threading.enumerate())
        with pytest.raises(DivergenceError):
            run_ablation(tiny_config(rates=(0.5, 0.9), seeds=(0, 1)))
        assert set(threading.enumerate()) == alive_before
        if handle:
            assert handle[0]() == threads_before
            # both baselines trained inside the grid's one hold
            assert baseline_threads == [1, 1]
        else:
            assert len(baseline_threads) == 2


def sweep_variants(alphas):
    return tuple(Variant(tc=True, stochastic=True, scoring="global", alpha=a) for a in alphas)


class TestAlphaSweep:
    def test_one_row_per_alpha(self):
        alphas = (1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01)
        cfg = tiny_config(rates=(0.9,), seeds=(0,), variants=sweep_variants(alphas))
        rows = run_ablation(cfg)
        assert len(rows) == 7
        assert all(row.tc and row.stochastic and row.scoring == "global" for row in rows)
        assert sorted(row.alpha for row in rows) == sorted(alphas)

    def test_single_alpha_reduces_to_tc_row(self):
        cfg = tiny_config(rates=(0.9,), seeds=(0,), variants=sweep_variants((1.0,)))
        (row,) = run_ablation(cfg)
        assert row.rate == 0.9
        assert row.ac_percent == 100.0


class TestStatusHandling:
    def test_budget_too_small_becomes_row_status_not_crash(self):
        # the tiny view has 66 connections; a 99.9% rate keeps 0, which the
        # chain pruner rejects, and the row must survive with empty cells
        rows = run_ablation(tiny_config(rates=(0.999,), seeds=(0,)))
        tc_rows = [r for r in rows if r.tc]
        assert tc_rows
        for row in tc_rows:
            assert row.kept_params is None
            assert row.acc_mean is None

    def test_disconnected_mask_reports_accuracy_unavailable(self, monkeypatch):
        import tcprune.harness as harness_mod
        from tcprune.network import MaskTensor

        def disconnected_prune(net, spec):
            masks = [np.zeros(w.shape, bool) for w in net.weights]
            masks[0][0, 0] = True  # a single dangling connection
            return MaskTensor(tuple(masks))

        monkeypatch.setattr(harness_mod, "prune", disconnected_prune)
        rows = run_ablation(tiny_config(rates=(0.9,), seeds=(0,)))
        for row in rows:
            assert row.acc_mean is None
            assert row.kept_params == 1.0
            assert row.ac_percent == 0.0

    def test_one_diverged_finetune_keeps_the_rest_of_the_grid(self, tmp_path, monkeypatch):
        import tcprune.harness as harness_mod

        real_train = harness_mod.train
        finetunes = []

        def train_diverging_once(model, data, cfg, mask=None):
            if mask is not None:
                finetunes.append(mask)
                if len(finetunes) == 2:
                    raise DivergenceError(0)
            return real_train(model, data, cfg, mask)

        monkeypatch.setattr(harness_mod, "train", train_diverging_once)
        cfg = tiny_config(rates=(0.5, 0.9), seeds=(0, 1), output=str(tmp_path))
        rows = run_ablation(cfg)
        runs = json.loads((tmp_path / "runs.json").read_text())
        assert len(runs) == 2 * 4 * 2 and len(rows) == 2 * 4
        diverged = [r for r in runs if r["status"] == "diverged"]
        assert len(diverged) == 1 and len(finetunes) > 2
        (cell,) = diverged
        assert cell["accuracy"] is None and cell["kept"] is not None
        assert (tmp_path / "masks" / cell["mask_file"]).is_file()
        assert all(r["accuracy"] is not None for r in runs if r["status"] == "ok")
        assert (tmp_path / "results.csv").read_text().count("\n") == 1 + len(rows)
        # report re-verifies every mask, the diverged cell's included
        assert report_from_artifacts(str(tmp_path)) == rows

    def test_alpha_sweep_requires_alphas(self):
        with pytest.raises(DomainError):
            tiny_config(variants=sweep_variants(()))


class TestEmit:
    def sample_rows(self):
        return [
            ResultRow(0.9, True, False, "local", None, 12.0, 100.0, 0.75, 0.05, 3, 1.5),
            ResultRow(0.99, False, True, "local", None, None, None, None, None, 3, 0.5),
        ]

    def test_csv_exact_text(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit(self.sample_rows(), "csv", path)
        assert path.read_text() == (
            "rate,tc,stochastic,scoring,alpha,kept_params,ac_percent,acc_mean,acc_std,seeds,wall_s\n"
            "0.9,true,false,local,,12,100,0.75,0.05,3,1.5\n"
            "0.99,false,true,local,,,,,,3,0.5\n"
        )

    def test_json_nulls(self, tmp_path):
        path = tmp_path / "rows.json"
        emit(self.sample_rows(), "json", path)
        payload = json.loads(path.read_text())
        assert payload[1]["ac_percent"] is None
        assert payload[1]["acc_mean"] is None
        assert payload[0]["ac_percent"] == 100.0
        assert list(payload[0]) == CSV_HEADER.split(",")
        assert [ResultRow(**row) for row in payload] == self.sample_rows()

    def test_readme_states_the_csv_header(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert re.search(r"Result CSV header:\s*`([^`]*)`", readme).group(1) == CSV_HEADER

    def test_readme_states_every_status_but_ok(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Experiment configs\n", 1)[1].split("\n## ", 1)[0]
        bullets = re.findall(r"^- `(\w+)`:", section, flags=re.M)
        assert bullets == [s for s in STATUSES if s != "ok"]

    def test_ac_percent_null_exactly_when_nothing_kept(self):
        # the sentinel appears only for empty masks and serializes as an
        # empty CSV cell / JSON null
        from tcprune.harness import _fmt
        from tcprune.network import MaskTensor
        from tcprune.topology import consistency_report

        empty = MaskTensor((np.zeros((2, 2), bool), np.zeros((2, 2), bool)))
        assert consistency_report(empty).ac_percentage is None
        assert _fmt(None) == ""
        one = MaskTensor((np.eye(2, dtype=bool), np.zeros((2, 2), bool)))
        assert consistency_report(one).ac_percentage is not None

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            emit([], "csv", tmp_path / "x.csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            emit(self.sample_rows(), "xml", tmp_path / "x.xml")


class TestArtifacts:
    def test_report_matches_run(self, tmp_path):
        cfg = tiny_config(rates=(0.9,), seeds=(0, 1), output=str(tmp_path / "out"))
        rows = run_ablation(cfg)
        rebuilt = report_from_artifacts(cfg.output)
        key = lambda r: (r.rate, r.tc, r.stochastic, r.scoring, r.alpha or 0.0)
        for a, b in zip(sorted(rows, key=key), sorted(rebuilt, key=key)):
            assert a.kept_params == b.kept_params
            assert a.ac_percent == b.ac_percent
            assert a.acc_mean == b.acc_mean

    def test_report_detects_tampered_mask(self, tmp_path):
        cfg = tiny_config(rates=(0.9,), seeds=(0,), output=str(tmp_path / "out"))
        run_ablation(cfg)
        runs = json.loads((tmp_path / "out" / "runs.json").read_text())
        victim = next(r for r in runs if r["mask_file"])
        mask_path = tmp_path / "out" / "masks" / victim["mask_file"]
        lines = mask_path.read_text().splitlines()
        for i, ln in enumerate(lines):
            if ln and ln[0] in "01" and "1" in ln:
                lines[i] = ln.replace("1", "0", 1)
                break
        mask_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError):
            report_from_artifacts(cfg.output)

    def test_record_outside_its_domain_is_named(self, tmp_path):
        good = {
            "rate": 0.9, "tc": True, "stochastic": False, "scoring": "local", "alpha": None,
            "seed": 0, "kept": None, "ac_percent": None, "accuracy": None, "wall_s": 0.5,
            "status": "saturated", "mask_file": None,
        }
        (tmp_path / "runs.json").write_text(json.dumps([good, {**good, "rate": 1.5}]))
        with pytest.raises(DomainError) as got:
            report_from_artifacts(str(tmp_path))
        assert str(got.value) == "runs.json[1]: pruning rate must be in [0, 1), got 1.5"

    @pytest.mark.parametrize("payload", [b"[", b"\xff"], ids=["truncated", "non-ascii"])
    def test_unreadable_runs_file_is_domain_error(self, tmp_path, payload):
        (tmp_path / "runs.json").write_bytes(payload)
        with pytest.raises(DomainError):
            report_from_artifacts(str(tmp_path))


def config_file(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="ascii")
    return path


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(variants=(Variant(True, False, "global", 0.5),), output="somewhere")
        back = load_config(config_file(tmp_path, json.dumps(dataclasses.asdict(cfg))))
        assert back == cfg

    def test_malformed_json_is_domain_error(self, tmp_path):
        with pytest.raises(DomainError, match="cfg.json: "):
            load_config(config_file(tmp_path, "{"))

    def test_non_ascii_file_is_domain_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"rates": [0.9], "output": "\xff"}')
        with pytest.raises(DomainError, match="cfg.json: "):
            load_config(path)

    def test_int_for_float_is_converted(self, tmp_path):
        variant = '{"tc": true, "stochastic": true, "scoring": "global", "alpha": 1}'
        cfg = load_config(config_file(tmp_path, '{"rates": [0, 0.1], "variants": [%s]}' % variant))
        assert [type(r) for r in cfg.rates] == [float, float]
        assert type(cfg.variants[0].alpha) is float

    def test_int_for_float_writes_float_artifacts(self, tmp_path):
        variant = Variant(True, True, "global", 1.0)
        flags = tiny_config(
            rates=(0.0,), seeds=(0,), variants=(variant,), output=str(tmp_path / "a")
        )
        payload = dataclasses.asdict(flags)
        payload.update(rates=[0], output=str(tmp_path / "b"))
        payload["variants"][0]["alpha"] = 1
        run_ablation(flags)
        run_ablation(load_config(config_file(tmp_path, json.dumps(payload))))
        for name in ("runs.json", "results.json"):
            texts = ((tmp_path / d / name).read_text() for d in "ab")
            a, b = (re.sub(r'"wall_s": [^,\n]*', "", text) for text in texts)
            assert a == b
            assert '"alpha": 1.0' in a and '"rate": 0.0' in a

    def test_int_out_of_float_range_is_domain_error(self, tmp_path):
        with pytest.raises(DomainError, match="cfg.json: .*out of float range"):
            load_config(config_file(tmp_path, '{"rates": [%d]}' % 10**400))

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"rates": [1.5]}', "config: pruning rate must be in [0, 1), got 1.5"),
            ('{"rates": [0.9], "synthetic": {"seed": -2}}',
             "config.synthetic: synthetic seed must be non-negative, got -2"),
            ('{"rates": [0.9], "model": {"heads": 0.5}}',
             "config.model.heads must be int, got 0.5"),
        ],
        ids=["config-domain", "nested-domain", "nested-type"],
    )
    def test_domain_error_names_the_object_once(self, tmp_path, text, message):
        path = config_file(tmp_path, text)
        with pytest.raises(DomainError) as got:
            load_config(path)
        assert str(got.value) == f"{path}: {message}"

    def test_negative_seed_is_rejected(self):
        with pytest.raises(DomainError, match=re.escape("seeds must be non-negative, got [0, -1]")):
            tiny_config(seeds=(0, -1))

    def test_negative_synthetic_seed_is_rejected(self):
        with pytest.raises(DomainError, match="synthetic seed must be non-negative, got -2"):
            dataclasses.replace(TINY_SYNTH, seed=-2)

    def test_requires_nonempty_grid(self):
        with pytest.raises(DomainError):
            ExperimentConfig(rates=())

    @pytest.mark.parametrize(
        "field, value",
        [("finetune_epochs", 0), ("finetune_epochs", -3), ("epochs", 0), ("batch_size", 0),
         ("momentum", 1.0), ("lr_decay", 0.0), ("initial_lr", 0.0)],
    )
    def test_bad_training_setting_is_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            tiny_config(**{field: value})

    def test_training_settings(self):
        cfg = tiny_config(epochs=8, finetune_epochs=None, batch_size=7, momentum=0.5)
        baseline, finetune = cfg.training
        assert (baseline.epochs, finetune.epochs) == (8, 2)
        assert baseline.batch_size == finetune.batch_size == 7
        assert baseline.momentum == finetune.momentum == 0.5
        assert dataclasses.replace(cfg, finetune_epochs=5).training[1].epochs == 5

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_is_domain_error(self, tmp_path, constant):
        text = '{"rates": [0.9], "synthetic": {"noise": %s}}' % constant
        with pytest.raises(DomainError, match=f"cfg.json: {constant} is not a JSON number"):
            load_config(config_file(tmp_path, text))

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
    def test_shipped_config_round_trips(self, tmp_path, path):
        cfg = load_config(path)
        assert load_config(config_file(tmp_path, json.dumps(dataclasses.asdict(cfg)))) == cfg

    def test_alpha_sweep_config_holds_inverse_alphas(self):
        cfg = load_config(CONFIG_DIR / "alpha_sweep.json")
        inverse = (1, 1.5, 2.5, 7, 10, 20, 50)
        assert cfg.variants == sweep_variants(tuple(1.0 / x for x in inverse))

    def test_default_variants_cover_the_ablation_axes(self):
        combos = {(v.tc, v.stochastic) for v in DEFAULT_VARIANTS}
        assert combos == {(False, False), (False, True), (True, False), (True, True)}


class TestSplit:
    def test_split_shares_class_structure(self):
        cfg = tiny_config()
        (train_signals, train_labels), (test_signals, test_labels) = _load_split(cfg)
        assert train_signals.shape == test_signals.shape == (2 * 4, 3, 3)
        assert train_labels.tolist() == test_labels.tolist() == [0] * 4 + [1] * 4
        # train and test must not share exact samples
        for a in train_signals:
            for b in test_signals:
                assert not np.array_equal(a, b)

    def test_grid_chunks_each_split_once(self, monkeypatch):
        import tcprune.gcn as gcn_mod

        calls = []
        original = gcn_mod.dataset_arrays

        def counting(dataset, chunks):
            calls.append(len(dataset))
            return original(dataset, chunks)

        monkeypatch.setattr(gcn_mod, "dataset_arrays", counting)
        run_ablation(tiny_config(rates=(0.5, 0.9), seeds=(0, 1)))
        assert calls == [2 * 4, 2 * 4]
