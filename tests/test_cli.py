import contextlib
import dataclasses
import io
import json
import re
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcprune
from tcprune.cli import build_parser, main
from tcprune.data import save_dataset, synth_dataset
from tcprune.gcn import load_model
from tcprune.network import MaskTensor, load_mask, save_mask
from tcprune.topology import consistency_report

SYNTH = (
    "classes=2,per_class_train=4,per_class_test=4,joints=3,frames=6,"
    "noise=0.2,phase_jitter=0,scale_jitter=0,seed=5"
)
MODEL_FLAGS = ["--heads", "2", "--filters", "2", "--chunks", "1"]
# The same tiny grid as a config file.
CONFIG = {
    "rates": [0.9],
    "seeds": [0],
    "synthetic": {
        "classes": 2, "per_class_train": 4, "per_class_test": 4, "joints": 3, "frames": 6,
        "noise": 0.2, "phase_jitter": 0.0, "scale_jitter": 0.0, "seed": 5,
    },
    "model": {"heads": 2, "filters": 2, "chunks": 1},
    "epochs": 3,
    "finetune_epochs": 1,
}
# One well-formed runs.json entry: a saturated cell, so no mask file.
RUN = {
    "rate": 0.9, "tc": True, "stochastic": False, "scoring": "local", "alpha": None,
    "seed": 0, "kept": None, "ac_percent": None, "accuracy": None, "wall_s": 0.5,
    "status": "saturated", "mask_file": None,
}


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def train_calls(monkeypatch):
    """Every call of harness.train; each one fails the test that made it."""
    import tcprune.harness as harness

    calls = []

    def train(*args, **kwargs):
        calls.append(args)
        raise AssertionError("trained before the config was checked")

    monkeypatch.setattr(harness, "train", train)
    return calls


@pytest.fixture
def trained_model(tmp_path):
    path = tmp_path / "model.json"
    code = run_cli(
        "train", "--synthetic", SYNTH, *MODEL_FLAGS,
        "--epochs", "3", "--seed", "0", "--out", str(path),
    )
    assert code == 0
    return path


def refusal(number: str) -> str:
    """Why a JSON read refuses `number`, a NaN or Infinity constant or a
    number too large for a float."""
    if number.endswith("e999"):
        return f"{number} is out of float range"
    return f"{number} is not a JSON number"


def non_finite_model(trained, tmp_path, constant) -> Path:
    """A copy of the model file `trained` whose first head weight reads `constant`."""
    payload = json.loads(trained.read_text())
    payload["head"][0][0] = 12345.5
    path = tmp_path / "non_finite_model.json"
    path.write_text(json.dumps(payload).replace("12345.5", constant, 1))
    assert constant in path.read_text()
    return path


class TestTrain:
    def test_writes_model(self, trained_model):
        model = load_model(trained_model)
        assert model.shape.nodes == 3
        assert model.shape.num_classes == 2

    def test_chunks_need_not_match_joints(self, tmp_path):
        # training builds no layered view, so 3 * chunks may differ from the joints
        path = tmp_path / "model.json"
        code = run_cli("train", "--synthetic", SYNTH, "--heads", "2", "--filters", "2",
                       "--chunks", "2", "--epochs", "1", "--out", str(path))
        assert code == 0
        shape = load_model(path).shape
        assert (shape.signal_dim, shape.nodes) == (6, 3)


class TestTrainDataset:
    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = run_cli("train", "--synthetic", SYNTH, *MODEL_FLAGS, "--seed", "-1",
                       "--epochs", "1", "--out", str(out))
        assert code == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_head_scale_is_config_error(self, tmp_path, capsys, value):
        out = tmp_path / "m.json"
        code = run_cli("train", "--synthetic", SYNTH, *MODEL_FLAGS, f"--head-scale={value}",
                       "--epochs", "1", "--out", str(out))
        assert code == 2
        assert f"head_scale must be finite, got {float(value)}" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_sequence_file_is_config_error(self, tmp_path):
        data = tmp_path / "D"
        data.mkdir()
        (data / "seq_00000.txt").write_text("label 0\njoints 1 frames 3\n1 2 3\n")
        code = run_cli("train", "--dataset", str(data), "--heads", "1", "--filters", "1",
                       "--chunks", "1", "--epochs", "1", "--out", str(tmp_path / "m.json"))
        assert code == 2

    def test_empty_dataset_is_config_error(self, tmp_path):
        data = tmp_path / "D"
        data.mkdir()
        code = run_cli("train", "--dataset", str(data), "--heads", "1", "--filters", "1",
                       "--chunks", "1", "--epochs", "1", "--out", str(tmp_path / "m.json"))
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    def test_non_finite_coordinate_is_config_error(self, tmp_path, capsys, value):
        data = tmp_path / "D"
        data.mkdir()
        seq = data / "seq_00000.txt"
        seq.write_text(f"label 0\njoints 1 frames 3\n{value} 0 0\n1 2 3\n4 5 6\n")
        out = tmp_path / "m.json"
        code = run_cli("train", "--dataset", str(data), "--heads", "1", "--filters", "1",
                       "--chunks", "1", "--epochs", "1", "--out", str(out))
        assert code == 2
        assert f"{seq}: every coordinate must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_old_format_adjacency_file_is_ignored(self, tmp_path):
        from tcprune.data import save_dataset, synth_dataset

        data = tmp_path / "D"
        save_dataset(synth_dataset(2, 3, 3, 6, seed=5), data)
        (data / "adjacency.txt").write_text("1 1 0\n1 1 1\n0 1 1\n")
        out = tmp_path / "m.json"
        code = run_cli("train", "--dataset", str(data), *MODEL_FLAGS,
                       "--epochs", "2", "--out", str(out))
        assert code == 0
        assert load_model(out).shape.nodes == 3


class TestPrune:
    def test_model_pruning_writes_mask(self, trained_model, tmp_path, capsys):
        mask_path = tmp_path / "mask.txt"
        code = run_cli(
            "prune", "--model", str(trained_model), "--rate", "0.9",
            "--tc", "--seed", "1", "--out", str(mask_path),
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[0])
        mask = load_mask(mask_path)
        assert payload["kept"] == mask.kept_count
        assert payload["ac_percent"] == 100.0

    def test_network_file_pruning(self, tmp_path):
        from tcprune.network import LayeredNetwork, save_network

        rng = np.random.default_rng(0)
        net = LayeredNetwork(
            (rng.standard_normal((3, 4)), rng.standard_normal((4, 2))),
            ("identity", "identity"),
        )
        net_path = tmp_path / "net.txt"
        save_network(net, net_path)
        out = tmp_path / "mask.txt"
        assert run_cli("prune", "--network", str(net_path), "--rate", "0.5", "--out", str(out)) == 0
        assert load_mask(out).kept_count == 10

    def test_truncated_network_file_is_config_error(self, tmp_path):
        net_path = tmp_path / "net.txt"
        net_path.write_text("layers 2\ndims 1 1\n0.5\n")
        code = run_cli("prune", "--network", str(net_path), "--rate", "0.5",
                       "--out", str(tmp_path / "m.txt"))
        assert code == 2

    @pytest.mark.parametrize("payload", [{"heads": 1}, [1, 2]], ids=["only-heads", "list"])
    def test_malformed_model_file_is_config_error(self, tmp_path, payload):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(payload))
        code = run_cli("prune", "--model", str(model), "--rate", "0.5",
                       "--out", str(tmp_path / "mask.txt"))
        assert code == 2

    def test_non_finite_weight_is_config_error(self, trained_model, tmp_path, capsys):
        for constant in ("NaN", "1e999", "-1e999"):
            model = non_finite_model(trained_model, tmp_path, constant)
            code = run_cli("prune", "--model", str(model), "--rate", "0.5",
                           "--out", str(tmp_path / "mask.txt"))
            assert code == 2
            assert f"{model}: {refusal(constant)}" in capsys.readouterr().err

    def test_bad_rate_is_config_error(self, trained_model, tmp_path):
        code = run_cli(
            "prune", "--model", str(trained_model), "--rate", "1.5",
            "--out", str(tmp_path / "m.txt"),
        )
        assert code == 2

    def test_global_scoring_without_tc_is_config_error(self, trained_model, tmp_path, capsys):
        code = run_cli(
            "prune", "--model", str(trained_model), "--rate", "0.5", "--scoring", "global",
            "--alpha", "0.3", "--out", str(tmp_path / "m.txt"),
        )
        assert code == 2
        assert "global scoring needs tc" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()


class TestFinetune:
    def test_round_trip(self, trained_model, tmp_path):
        mask_path = tmp_path / "mask.txt"
        assert run_cli(
            "prune", "--model", str(trained_model), "--rate", "0.9", "--tc",
            "--out", str(mask_path),
        ) == 0
        out = tmp_path / "tuned.json"
        code = run_cli(
            "finetune", "--model", str(trained_model), "--mask", str(mask_path),
            "--synthetic", SYNTH, "--epochs", "2", "--out", str(out),
        )
        assert code == 0
        assert load_model(out).shape.nodes == 3

    def test_non_finite_weight_is_config_error(self, trained_model, tmp_path, capsys):
        mask_path = tmp_path / "mask.txt"
        assert run_cli("prune", "--model", str(trained_model), "--rate", "0.5",
                       "--out", str(mask_path)) == 0
        for constant in ("NaN", "1e999", "-1e999"):
            model = non_finite_model(trained_model, tmp_path, constant)
            code = run_cli(
                "finetune", "--model", str(model), "--mask", str(mask_path),
                "--synthetic", SYNTH, "--epochs", "1", "--out", str(tmp_path / "t.json"),
            )
            assert code == 2
            assert f"{model}: {refusal(constant)}" in capsys.readouterr().err
            assert not (tmp_path / "t.json").exists()

    def test_missing_mask_is_io_error(self, trained_model, tmp_path):
        code = run_cli(
            "finetune", "--model", str(trained_model), "--mask", str(tmp_path / "no.txt"),
            "--synthetic", SYNTH, "--out", str(tmp_path / "t.json"),
        )
        assert code == 3

    def test_label_outside_model_classes_is_config_error(self, trained_model, tmp_path, capsys):
        mask_path = tmp_path / "mask.txt"
        assert run_cli("prune", "--model", str(trained_model), "--rate", "0.5",
                       "--out", str(mask_path)) == 0
        three_classes = SYNTH.replace("classes=2", "classes=3")
        capsys.readouterr()
        code = run_cli(
            "finetune", "--model", str(trained_model), "--mask", str(mask_path),
            "--synthetic", three_classes, "--epochs", "1", "--out", str(tmp_path / "t.json"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: label 2 is outside") and "Traceback" not in err
        assert not (tmp_path / "t.json").exists()


class TestAblate:
    def test_writes_artifacts_and_table(self, tmp_path):
        out_dir = tmp_path / "run"
        table = tmp_path / "table.csv"
        code = run_cli(
            "ablate", "--synthetic", SYNTH, *MODEL_FLAGS,
            "--rates", "0.5,0.9", "--seeds", "0", "--epochs", "3",
            "--finetune-epochs", "1", "--out", str(out_dir),
            "--table-out", str(table), "--format", "csv",
        )
        assert code == 0
        assert len(json.loads((out_dir / "results.json").read_text())) == 8
        assert (out_dir / "runs.json").exists()
        assert table.read_text() == (out_dir / "results.csv").read_text()

    def test_report_reproduces_table(self, tmp_path):
        out_dir = tmp_path / "run"
        assert run_cli(
            "ablate", "--synthetic", SYNTH, *MODEL_FLAGS,
            "--rates", "0.9", "--seeds", "0,1", "--epochs", "3",
            "--finetune-epochs", "1", "--out", str(out_dir),
        ) == 0
        table = tmp_path / "report.csv"
        assert run_cli("report", "--artifacts", str(out_dir), "--table-out", str(table)) == 0
        assert table.read_text() == (out_dir / "results.csv").read_text()

    def test_absent_values_print_as_na(self, tmp_path, capsys):
        # at rate 0.99 the tiny view's chain cells exhaust their budget
        out_dir = tmp_path / "run"
        assert run_cli(
            "ablate", "--synthetic", SYNTH, *MODEL_FLAGS,
            "--rates", "0.5,0.99", "--seeds", "0", "--epochs", "3",
            "--finetune-epochs", "1", "--out", str(out_dir),
        ) == 0
        assert run_cli("report", "--artifacts", str(out_dir)) == 0
        lines = capsys.readouterr().out.splitlines()
        statuses = [run["status"] for run in json.loads((out_dir / "runs.json").read_text())]
        assert "budget" in statuses
        assert any(line.endswith("kept=NA ac%=NA acc=NA") for line in lines)
        assert any(" kept=33 ac%=" in line for line in lines)
        assert not [line for line in lines if "None" in line]

    @pytest.mark.parametrize(
        "data",
        [
            [1, 2],
            5,
            {},
            {**CONFIG, "bogus": 1},
            {**CONFIG, "alphas": [1.0]},
            {**CONFIG, "synthetic": {**CONFIG["synthetic"], "bogus": 1}},
            {**CONFIG, "synthetic": [1]},
            {**CONFIG, "model": {**CONFIG["model"], "bogus": 1}},
            {**CONFIG, "variants": [{"tc": True, "stochastic": False, "bogus": 1}]},
            {**CONFIG, "variants": [[True, False]]},
            {**CONFIG, "rates": 0.9},
            {**CONFIG, "seeds": 0},
            {**CONFIG, "variants": {"tc": True, "stochastic": False}},
            {"rates": [0.9], "epochs": "3"},
            {"rates": ["0.9"]},
            {**CONFIG, "seeds": [0.5]},
            {**CONFIG, "model": {**CONFIG["model"], "heads": 2.0}},
            {**CONFIG, "variants": [{"tc": 1, "stochastic": False}]},
            {**CONFIG, "output": 7},
        ],
        ids=[
            "list", "number", "no-rates", "unknown-key", "alphas", "unknown-synthetic-key",
            "synthetic-list", "unknown-model-key", "unknown-variant-key", "variant-list",
            "rates-number", "seeds-number", "variants-object", "epochs-string",
            "rate-string", "seed-float", "model-heads-float", "variant-tc-int", "output-number",
        ],
    )
    def test_malformed_config_is_config_error(self, tmp_path, data):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert run_cli("ablate", "--config", str(cfg_path)) == 2

    @pytest.mark.parametrize(
        "data",
        [
            {**CONFIG, "rates": [1.5]},
            {**CONFIG, "variants": [{"tc": True, "stochastic": False, "scoring": "global",
                                     "alpha": 0.0}]},
            {**CONFIG, "variants": [{"tc": True, "stochastic": False, "scoring": "foo"}]},
            {**CONFIG, "variants": [{"tc": True, "stochastic": False, "alpha": 1.0},
                                    {"tc": True, "stochastic": False, "alpha": 0.5}]},
            {**CONFIG, "variants": [{"tc": True, "stochastic": True, "scoring": "global",
                                     "alpha": 0.5}] * 2},
            {**CONFIG, "rates": [0.9, 0.9]},
            {**CONFIG, "seeds": [0, 0]},
            {**CONFIG, "synthetic": {**CONFIG["synthetic"], "per_class_test": 0}},
            {**CONFIG, "rates": [0.9000001, 0.9000002]},
            {**CONFIG, "variants": [{"tc": True, "stochastic": True, "scoring": "global",
                                     "alpha": a} for a in (0.1000001, 0.1000002)]},
            {**CONFIG, "variants": [{"tc": False, "stochastic": False},
                                    {"tc": False, "stochastic": False, "scoring": "global",
                                     "alpha": 0.3}]},
        ],
        ids=["rate-1.5", "global-alpha-0", "scoring-foo", "repeat-local-alpha",
             "repeat-global-alpha", "repeat-rate", "repeat-seed", "per-class-test-0",
             "rate-label-collision", "alpha-label-collision", "plain-global"],
    )
    def test_bad_cell_is_rejected_before_training(self, tmp_path, train_calls, data):
        out_dir = tmp_path / "run"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**data, "output": str(out_dir)}))
        assert run_cli("ablate", "--config", str(cfg_path)) == 2
        assert train_calls == []
        assert not (out_dir / "masks").exists()

    @pytest.mark.parametrize("synthetic", ["per_class_test=0", "seed=1.5", "bogus=1"])
    def test_bad_synthetic_is_rejected_before_training(self, tmp_path, train_calls, synthetic):
        out_dir = tmp_path / "run"
        assert run_cli("ablate", "--synthetic", synthetic, "--out", str(out_dir)) == 2
        assert train_calls == []
        assert not (out_dir / "masks").exists()

    @pytest.mark.parametrize(
        "synthetic, pair",
        [("classes", "classes"), ("classes=4,", ""), ("noise=.5", "noise=.5")],
        ids=["no-value", "trailing-comma", "not-json"],
    )
    def test_synthetic_pair_not_json_is_config_error(
        self, tmp_path, train_calls, capsys, synthetic, pair
    ):
        assert run_cli("ablate", "--synthetic", synthetic, "--out", str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --synthetic: {pair!r} is not key=<JSON>")
        assert train_calls == []

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"rates": [0.5], "rates": [0.9]}', "rates"),
            ('{"rates": [0.9], "synthetic": {"seed": 1, "seed": 2}}', "seed"),
        ],
        ids=["top-level", "nested"],
    )
    def test_config_repeated_key_is_config_error(self, tmp_path, train_calls, capsys, text, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert run_cli("ablate", "--config", str(cfg_path)) == 2
        assert f"{cfg_path}: repeated key {key!r}" in capsys.readouterr().err
        assert train_calls == []

    def test_synthetic_repeated_key_is_config_error(self, tmp_path, train_calls, capsys):
        out_dir = tmp_path / "run"
        assert run_cli("ablate", "--synthetic", "seed=1, seed=2", "--out", str(out_dir)) == 2
        assert capsys.readouterr().err.startswith("error: --synthetic: repeated key 'seed'")
        assert train_calls == []

    def test_zero_finetune_budget_is_rejected_before_training(
        self, tmp_path, train_calls, capsys
    ):
        out_dir = tmp_path / "run"
        assert run_cli("ablate", "--finetune-epochs", "0", "--out", str(out_dir)) == 2
        assert "finetune_epochs must be positive" in capsys.readouterr().err
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**CONFIG, "finetune_epochs": 0}))
        assert run_cli("ablate", "--config", str(cfg_path)) == 2
        assert "finetune_epochs must be positive" in capsys.readouterr().err
        assert train_calls == []
        assert not (out_dir / "masks").exists()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
    def test_non_finite_constant_is_config_error(self, tmp_path, train_calls, capsys, constant):
        cfg_path = tmp_path / "cfg.json"
        text = json.dumps({**CONFIG, "synthetic": {**CONFIG["synthetic"], "noise": 0.5}})
        cfg_path.write_text(text.replace("0.5", constant))
        assert run_cli("ablate", "--config", str(cfg_path)) == 2
        assert f"{cfg_path}: {refusal(constant)}" in capsys.readouterr().err
        assert run_cli("ablate", "--synthetic", f"noise={constant}") == 2
        assert f"is not key=<JSON>: {refusal(constant)}" in capsys.readouterr().err
        assert train_calls == []

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_head_scale_is_rejected_before_training(
        self, tmp_path, train_calls, capsys, value
    ):
        out_dir = tmp_path / "run"
        assert run_cli("ablate", f"--head-scale={value}", "--out", str(out_dir)) == 2
        assert f"head_scale must be finite, got {float(value)}" in capsys.readouterr().err
        assert train_calls == []
        assert not (out_dir / "masks").exists()

    def test_grid_without_layered_view_is_rejected_before_training(
        self, tmp_path, train_calls, capsys
    ):
        out_dir = tmp_path / "run"
        # the default 15 joints need 5 chunks for the view every cell prunes
        assert run_cli("ablate", "--chunks", "4", "--epochs", "20", "--out", str(out_dir)) == 2
        assert "3 * chunks == nodes" in capsys.readouterr().err
        assert train_calls == []
        assert not (out_dir / "masks").exists()

    def test_empty_dataset_is_config_error(self, tmp_path):
        for split in ("train", "test"):
            (tmp_path / "D" / split).mkdir(parents=True)
        code = run_cli("ablate", "--dataset", str(tmp_path / "D"), "--heads", "1",
                       "--filters", "1", "--chunks", "1", "--epochs", "1")
        assert code == 2

    def test_test_label_the_train_split_lacks_is_rejected_before_training(
        self, tmp_path, train_calls, capsys
    ):
        from tcprune.data import save_dataset, synth_dataset

        save_dataset(synth_dataset(2, 3, 3, 6, seed=5), tmp_path / "D" / "train")
        save_dataset(synth_dataset(3, 3, 3, 6, seed=5), tmp_path / "D" / "test")
        code = run_cli("ablate", "--dataset", str(tmp_path / "D"), "--heads", "1",
                       "--filters", "1", "--chunks", "1", "--epochs", "1")
        assert code == 2
        assert "test split holds label 2, which the train split lacks" in capsys.readouterr().err
        assert train_calls == []

    def test_negative_seed_is_rejected_before_training(self, tmp_path, train_calls, capsys):
        out_dir = tmp_path / "run"
        assert run_cli("ablate", "--seeds", "0,-1", "--out", str(out_dir)) == 2
        assert "seeds must be non-negative, got [0, -1]" in capsys.readouterr().err
        assert train_calls == []
        assert not (out_dir / "masks").exists()

    def test_alphas_flag_is_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("ablate", "--alphas", "1")
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["alpha-sweep", "--config", "c.json"], ["alpha-sweep", "--scoring", "global"],
         ["ablate", "--scoring", "global"], ["ablate", "--alpha", "0.1"]],
        ids=["alpha-sweep-config", "alpha-sweep-scoring", "scoring", "alpha"],
    )
    def test_removed_surface_does_not_parse(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag",
        [["--rates", "0.9"], ["--seeds", "0"], ["--epochs", "3"], ["--finetune-epochs", "1"],
         ["--dataset", "D"], ["--synthetic", "seed=5"], ["--heads", "2"], ["--filters", "2"],
         ["--chunks", "1"], ["--head-scale", "1.0"]],
        ids=lambda flag: flag[0],
    )
    def test_config_excludes_grid_flags(self, tmp_path, train_calls, flag):
        out_dir = tmp_path / "run"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**CONFIG, "output": str(out_dir)}))
        assert run_cli("ablate", "--config", str(cfg_path), *flag) == 2
        assert train_calls == []
        assert not (out_dir / "masks").exists()

    def test_config_file_drives_run(self, tmp_path):
        from tcprune.harness import ExperimentConfig, ModelSpec, SyntheticSpec

        cfg = ExperimentConfig(
            rates=(0.9,),
            seeds=(0,),
            synthetic=SyntheticSpec(
                classes=2, per_class_train=4, per_class_test=4, joints=3,
                frames=6, noise=0.2, phase_jitter=0.0, scale_jitter=0.0, seed=5,
            ),
            model=ModelSpec(heads=2, filters=2, chunks=1),
            epochs=3,
            finetune_epochs=1,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
        table = tmp_path / "t.json"
        assert run_cli("ablate", "--config", str(cfg_path), "--table-out", str(table),
                       "--format", "json") == 0
        assert len(json.loads(table.read_text())) == 4

    @pytest.mark.parametrize(
        "rates, alphas",
        [((0.9,), (1.0, 0.5, 0.1)), ((0.5, 0.9), (1.0, 0.5))],
        ids=["rows-per-alpha", "every-rate"],
    )
    def test_config_alpha_sweep(self, tmp_path, rates, alphas):
        """The power-mean sweep: one global chain variant per alpha, one row per (rate, alpha)."""
        variants = [{"tc": True, "stochastic": True, "scoring": "global", "alpha": a}
                    for a in alphas]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**CONFIG, "rates": list(rates), "variants": variants}))
        table = tmp_path / "t.json"
        assert run_cli("ablate", "--config", str(cfg_path), "--table-out", str(table),
                       "--format", "json") == 0
        rows = json.loads(table.read_text())
        assert sorted((r["rate"], r["alpha"]) for r in rows) == sorted(
            (rate, alpha) for rate in rates for alpha in alphas
        )


class TestReport:
    def test_well_formed_runs_file(self, tmp_path):
        (tmp_path / "runs.json").write_text(json.dumps([RUN]))
        assert run_cli("report", "--artifacts", str(tmp_path)) == 0

    @pytest.mark.parametrize(
        "data",
        [
            [1, 2],
            {"a": 1},
            [{**RUN, "bogus": 1}],
            [{k: v for k, v in RUN.items() if k != "status"}],
            [{**RUN, "rate": "0.9"}],
            [{**RUN, "kept": 1.5}],
            [RUN, [0.9, True]],
            [{**RUN, "wall_s": float("nan")}],
        ],
        ids=["list-of-numbers", "object", "unknown-key", "missing-key", "rate-string",
             "kept-float", "entry-list", "wall-s-nan"],
    )
    def test_malformed_runs_file_is_config_error(self, tmp_path, data):
        (tmp_path / "runs.json").write_text(json.dumps(data))
        assert run_cli("report", "--artifacts", str(tmp_path)) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            {"rate": 1.5},
            {"seed": -1},
            {"status": "bogus"},
            {"scoring": "bogus"},
            {"alpha": 0.5},
            {"scoring": "global"},
            {"scoring": "global", "alpha": 1.5},
            {"tc": False, "scoring": "global", "alpha": 0.5},
            {"kept": 5, "ac_percent": 100.0, "accuracy": 0.99},
            {"mask_file": "mask_r0.9_tc1_st0_local_a1_s0.txt"},
            {"status": "ok", "kept": 5, "ac_percent": 100.0},
            {"status": "diverged", "kept": 5, "ac_percent": 100.0, "accuracy": 0.99},
            {"status": "disconnected"},
            {"status": "disconnected", "kept": -3},
            {"wall_s": -1.0},
            {"status": "disconnected", "kept": 5, "ac_percent": 100.5},
            {"status": "disconnected", "kept": 5, "ac_percent": -0.5},
            {"status": "disconnected", "kept": 5},
        ],
        ids=["rate-1.5", "seed-negative", "status-unknown", "scoring-unknown",
             "local-alpha", "global-alpha-null", "global-alpha-1.5", "plain-global",
             "saturated-with-row", "saturated-with-mask", "ok-without-accuracy",
             "diverged-with-accuracy", "disconnected-without-kept", "kept-negative",
             "wall-s-negative", "ac-percent-above-100", "ac-percent-negative",
             "kept-without-ac-percent"],
    )
    def test_record_outside_its_domain_is_config_error(self, tmp_path, capsys, edit):
        (tmp_path / "runs.json").write_text(json.dumps([RUN, {**RUN, **edit}]))
        assert run_cli("report", "--artifacts", str(tmp_path)) == 2
        captured = capsys.readouterr()
        # the message names the record, once
        assert captured.out == "" and captured.err.startswith("error: runs.json[1]: ")
        assert captured.err.count("runs.json") == 1

    @pytest.mark.parametrize("table_out", [False, True], ids=["print", "table-out"])
    def test_empty_runs_file_is_config_error(self, tmp_path, capsys, table_out):
        (tmp_path / "runs.json").write_text("[]")
        extra = ["--table-out", str(tmp_path / "t.csv")] if table_out else []
        assert run_cli("report", "--artifacts", str(tmp_path), *extra) == 2
        assert "no run records" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("relative", [True, False], ids=["parent-dirs", "absolute"])
    def test_mask_file_outside_the_artifacts_is_config_error(self, tmp_path, relative, capsys):
        # a valid mask that runs.json records truly, outside <artifacts>/masks
        mask = MaskTensor((np.ones((2, 3), bool), np.ones((3, 1), bool)))
        outside = tmp_path / "outside.txt"
        save_mask(mask, outside)
        rep = consistency_report(mask)
        artifacts = tmp_path / "run"
        (artifacts / "masks").mkdir(parents=True)
        run = {**RUN, "status": "ok", "kept": rep.kept_count, "ac_percent": rep.ac_percentage,
               "accuracy": 1.0, "mask_file": "../../outside.txt" if relative else str(outside)}
        (artifacts / "runs.json").write_text(json.dumps([run]))
        assert run_cli("report", "--artifacts", str(artifacts)) == 2
        assert "runs.json: mask_file" in capsys.readouterr().err

    @staticmethod
    def one_cell_grid(tmp_path, variant) -> Path:
        """The artifacts of a one-cell grid: `variant` at rate 0.9, which keeps a mask."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**CONFIG, "variants": [variant]}))
        out_dir = tmp_path / "run"
        assert run_cli("ablate", "--config", str(cfg_path), "--out", str(out_dir)) == 0
        return out_dir

    def test_mask_file_not_its_cells_name_is_config_error(self, tmp_path, capsys):
        out_dir = self.one_cell_grid(tmp_path, {"tc": False, "stochastic": False})
        (mask,) = (out_dir / "masks").iterdir()
        mask.rename(out_dir / "masks" / "renamed.txt")
        runs = json.loads((out_dir / "runs.json").read_text())
        runs[0]["mask_file"] = "renamed.txt"
        (out_dir / "runs.json").write_text(json.dumps(runs))
        assert run_cli("report", "--artifacts", str(out_dir)) == 2
        assert "runs.json: mask_file 'renamed.txt'" in capsys.readouterr().err

    def test_local_variant_alpha_is_not_in_its_mask_name(self, tmp_path):
        # a local variant ignores its alpha, so its mask is named as alpha 1's
        out_dir = self.one_cell_grid(tmp_path, {"tc": False, "stochastic": False, "alpha": 0.5})
        assert [p.name for p in (out_dir / "masks").iterdir()] == [
            "mask_r0.9_tc0_st0_local_a1_s0.txt"
        ]
        table = tmp_path / "report.csv"
        assert run_cli("report", "--artifacts", str(out_dir), "--table-out", str(table)) == 0
        assert table.read_text() == (out_dir / "results.csv").read_text()

    @staticmethod
    def report_to(table_out, artifacts, stdout, prefix=()):
        """`tcprune report` in a child process whose stdout is `stdout`,
        run as the last arguments of the command `prefix`, if given."""
        src = str(Path(tcprune.__file__).parents[1])
        return subprocess.run(
            [*prefix, sys.executable, "-c",
             "import sys; from tcprune.cli import main; sys.exit(main())",
             "report", "--artifacts", str(artifacts), "--table-out", table_out],
            stdout=stdout, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )

    @pytest.mark.parametrize("table_out", ["/dev/stdout", "/dev/fd/1"])
    def test_table_to_piped_stdout(self, tmp_path, table_out):
        (tmp_path / "runs.json").write_text(json.dumps([RUN]))
        proc = self.report_to(table_out, tmp_path, subprocess.PIPE)
        assert proc.returncode == 0
        assert proc.stdout.decode().startswith(
            "rate,tc,stochastic,scoring,alpha,kept_params,ac_percent,acc_mean,acc_std,seeds,"
            "wall_s\n0.9,true,false,local,,,,,,1,0.5\n"
        )

    def test_table_to_stdout_redirected_to_file_keeps_its_inode(self, tmp_path):
        (tmp_path / "runs.json").write_text(json.dumps([RUN]))
        log = tmp_path / "log.txt"
        with open(log, "w") as fh:
            inode = os.fstat(fh.fileno()).st_ino
            proc = self.report_to("/dev/stdout", tmp_path, fh)
        assert proc.returncode == 0
        assert os.stat(log).st_ino == inode
        # The summary printed after the table reached the same file.
        assert "rate=0.9 tc=True" in log.read_text()

    def test_table_to_stdout_redirected_to_file_keeps_earlier_output(self, tmp_path):
        (tmp_path / "runs.json").write_text(json.dumps([RUN]))
        log = tmp_path / "log.txt"
        shell = ("sh", "-c", 'echo before; "$@"; echo after', "sh")
        with open(log, "w") as fh:
            proc = self.report_to("/dev/stdout", tmp_path, fh, prefix=shell)
        assert proc.returncode == 0
        text = log.read_text()
        marks = ["before\n", "rate,tc,stochastic,", "\n0.9,true,false,local,",
                 "results written to /dev/stdout\n", "rate=0.9 tc=True", "after\n"]
        where = [text.find(m) for m in marks]
        assert text.startswith("before\n") and text.endswith("after\n"), text
        assert -1 not in where and where == sorted(where), text


class TestExitCodes:
    def test_divergence_maps_to_exit_4(self, trained_model, tmp_path, monkeypatch):
        import tcprune.cli as cli_mod
        from tcprune.errors import DivergenceError

        def exploding_train(model, dataset, cfg, mask=None):
            raise DivergenceError(3)

        monkeypatch.setattr(cli_mod, "train", exploding_train)
        code = run_cli(
            "train", "--synthetic", SYNTH, *MODEL_FLAGS,
            "--epochs", "1", "--out", str(tmp_path / "m.json"),
        )
        assert code == 4

    def test_diverged_baseline_ends_ablate_with_exit_4(self, tmp_path, monkeypatch):
        # a diverged fine-tune is a row status; a diverged baseline has no grid to keep
        import tcprune.harness as harness_mod
        from tcprune.errors import DivergenceError

        def exploding_train(model, data, cfg, mask=None):
            raise DivergenceError(0)

        monkeypatch.setattr(harness_mod, "train", exploding_train)
        code = run_cli(
            "ablate", "--synthetic", SYNTH, *MODEL_FLAGS,
            "--rates", "0.9", "--seeds", "0", "--epochs", "1",
            "--finetune-epochs", "1", "--out", str(tmp_path / "run"),
        )
        assert code == 4
        assert not (tmp_path / "run" / "runs.json").exists()

    def test_out_of_memory_maps_to_exit_5(self, tmp_path, monkeypatch, capsys):
        # numpy refuses an allocation it cannot make with a MemoryError that
        # names the shape; patched in, since a real one would allocate
        import tcprune.harness as harness_mod
        from tcprune import parallel

        message = ("Unable to allocate 35.8 GiB for an array with shape (16, 1500000, 200) "
                   "and data type float64")

        def train(model, data, cfg, mask=None):
            raise MemoryError(message)

        monkeypatch.setattr(harness_mod, "train", train)
        blas = parallel._openblas()
        threads_before = blas[0]() if blas else None
        code = run_cli(
            "ablate", "--synthetic", SYNTH, *MODEL_FLAGS,
            "--rates", "0.9", "--seeds", "0", "--epochs", "1", "--out", str(tmp_path / "run"),
        )
        assert code == 5
        assert capsys.readouterr().err == f"error: {message}\n"
        if blas:
            assert blas[0]() == threads_before



class TestReadme:
    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(ln, comments=True) for ln in lines if ln.startswith("tcprune ")]
        assert {argv[1] for argv in commands} == {"train", "prune", "finetune", "ablate", "report"}
        for argv in commands:
            build_parser().parse_args(argv[1:])


# ---------------------------------------------------------------------------
# Fuzz: one field of a tiny valid artifact set at a time


FUZZ_EXAMPLES = 100  # about 2 s of tier-1 on a 2-CPU x86_64 box
# What a JSON value is replaced by: each JSON type, bounds of the domains,
# non-finite numbers (written as NaN and Infinity) and 1e999, too large for
# a float. No number is a count above 2, so no example trains for long.
TOO_LARGE = "1e999"
JSON_VALUES = [
    None, True, False, 0, 1, 2, -1, 0.5, 1.5, -0.5, float("nan"), float("inf"), TOO_LARGE,
    "", "x", "..", [], [0.9], {}, {"a": 1},
]
# What a token of a text file (a mask or a sequence) is replaced by.
TOKENS = ["", "x", "0", "1", "2", "-1", "0.5", "nan", "inf", "1e999", "layers", "\xff"]


@pytest.fixture(scope="module")
def artifact_set(tmp_path_factory) -> Path:
    """A config whose grid reads a dataset of two sequences a split, and
    the runs.json and mask files of running it."""
    root = tmp_path_factory.mktemp("artifacts")
    sequences = synth_dataset(2, 2, 3, 6, 5, 0.2, 0.0, 0.0)
    save_dataset(sequences[0::2], root / "data" / "train")
    save_dataset(sequences[1::2], root / "data" / "test")
    config = {k: v for k, v in CONFIG.items() if k != "synthetic"}
    (root / "config.json").write_text(json.dumps({**config, "dataset_path": str(root / "data")}))
    assert run_cli("ablate", "--config", str(root / "config.json"), "--out", str(root / "run")) == 0
    return root


def _leaves(value, path=()):
    """Every position of a parsed JSON value, itself first, as key paths."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, item in items:
        yield from _leaves(item, (*path, key))


def _mutate_json(data, text: str) -> str:
    value = json.loads(text)
    path = data.draw(st.sampled_from(list(_leaves(value))))
    action = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if not path:
        value = data.draw(st.sampled_from(JSON_VALUES))
    else:
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if action == "drop":
            del parent[key]
        elif action == "add" and isinstance(parent, dict):
            parent["unknown"] = parent[key]
        else:
            parent[key] = data.draw(st.sampled_from(JSON_VALUES))
    return json.dumps(value).replace(f'"{TOO_LARGE}"', TOO_LARGE)


def _mutate_text(data, text: str) -> str:
    lines = text.splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    action = data.draw(st.sampled_from(["replace", "drop", "repeat"]))
    if action == "drop":
        del lines[row]
    elif action == "repeat":
        lines.insert(row, lines[row])
    else:
        tokens = lines[row].split(" ")
        col = data.draw(st.integers(0, len(tokens) - 1))
        tokens[col] = data.draw(st.sampled_from(TOKENS))
        lines[row] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class TestFuzz:
    @given(data=st.data())
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    def test_one_mutated_field_exits_typed(self, artifact_set, data):
        target = data.draw(st.sampled_from(["config", "sequence", "runs", "mask"]))
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(shutil.copytree(artifact_set, Path(scratch) / "set"))
            config = json.loads((root / "config.json").read_text())
            config["dataset_path"] = str(root / "data")
            (root / "config.json").write_text(json.dumps(config))
            path, mutate = {
                "config": (root / "config.json", _mutate_json),
                "sequence": (root / "data" / "train" / "seq_00000.txt", _mutate_text),
                "runs": (root / "run" / "runs.json", _mutate_json),
                "mask": (min((root / "run" / "masks").iterdir()), _mutate_text),
            }[target]
            path.write_bytes(mutate(data, path.read_text()).encode("latin-1"))
            if target in ("config", "sequence"):
                argv = ["ablate", "--config", str(root / "config.json"), "--out", str(root / "out")]
            else:
                argv = ["report", "--artifacts", str(root / "run")]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse
                    code = exc.code
                except Exception:  # what a user would see as a traceback
                    traceback.print_exc()
                    code = None
        assert code in range(6), err.getvalue()
        assert "Traceback" not in err.getvalue(), err.getvalue()
