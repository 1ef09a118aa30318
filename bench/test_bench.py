"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py -q

Run from the root of a checkout; the package is imported from `src/`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from checks import check_chain_mask, check_plain_mask, kept_magnitude_fraction  # noqa: E402
from layers import install  # noqa: E402
from tracing import Span, Tracer, self_times, totals  # noqa: E402


def test_wrappers_restore_the_original_functions():
    from tcprune import cli, gcn, harness, pruner, topology

    modules = (cli, gcn, harness, pruner, topology)
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    with ExitStack() as stack:
        install(stack, tracer)
        assert harness.train is not before[2]["train"]
        assert pruner.build_table is not before[3]["build_table"]
    for module, saved in zip(modules, before):
        assert vars(module).keys() == saved.keys()
        assert all(vars(module)[k] is v for k, v in saved.items())


def test_wrappers_restore_after_an_error():
    from tcprune import pruner

    original = pruner.standard_mp
    with pytest.raises(RuntimeError):
        with ExitStack() as stack:
            install(stack, Tracer())
            raise RuntimeError("boom")
    assert pruner.standard_mp is original


def test_self_time_is_duration_minus_child_coverage():
    # root [0, 10] has children [1, 3] and [2, 6] (overlapping, union 5) and
    # [8, 9]; the second child has a grandchild [4, 5].
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("b", 2.0, 6.0, 0, 1),
        Span("c", 4.0, 5.0, 2, 1),
        Span("d", 8.0, 9.0, 0, 1),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2, 3, 1, 1])
    t = totals(spans)
    assert t["root"] == {"calls": 1, "total_s": 10.0, "self_s": pytest.approx(4.0)}
    assert t["c<b"]["calls"] == 1


def test_spans_nest_and_share_the_operation_id():
    tracer = Tracer()

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = tracer.traced("inner")(inner)
    wrapped_outer = tracer.traced("outer")(outer)
    assert wrapped_outer(1) == 4 and not tracer.spans  # not recording
    with tracer.operation() as op:
        tracer.recording = True
        wrapped_outer(1)
        tracer.recording = False
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [("outer", None, op), ("inner", 0, op)]


def _net(dims, seed=0):
    from tcprune.network import LayeredNetwork

    rng = np.random.default_rng(seed)
    weights = tuple(rng.standard_normal((a, b)) for a, b in zip(dims, dims[1:]))
    return LayeredNetwork(weights, ("relu",) * (len(dims) - 2) + ("softmax",))


def test_a_stalled_chain_call_still_counts_its_chains():
    from tcprune import pruner
    from tcprune.errors import SaturationError
    from tcprune.pruner import PruneSpec
    from layers import layer_metrics

    net = _net((2, 2, 2))
    net.weights[1][0, 0] = 0.0  # never sampled, so the full budget is never met
    tracer = Tracer()
    with ExitStack() as stack:
        install(stack, tracer)
        tracer.recording = True
        with pytest.raises(SaturationError):
            pruner.tc_mp_trace(net, PruneSpec(rate=0.0, stochastic=True))
    m = layer_metrics(tracer)
    assert m["pruner.saturated"] == 1
    assert m["pruner.zero_gain_chains"] >= 1000  # the stall allowance
    assert m["pruner.chains"] > m["pruner.zero_gain_chains"]
    assert 0.0 < m["pruner.useful_ratio"] < 1.0


def _check(mask, max_kept):
    from tcprune.topology import consistency_report, trim_to_consistent

    return check_chain_mask(mask, max_kept, consistency_report(mask), trim_to_consistent(mask))


def test_checks_pass_real_masks():
    from tcprune.network import budget
    from tcprune.pruner import PruneSpec, standard_mp, tc_mp

    net = _net((6, 8, 8, 3))
    max_kept = budget(net, 0.8).max_kept
    mask = tc_mp(net, PruneSpec(rate=0.8))
    assert _check(mask, max_kept) == []
    assert check_plain_mask(standard_mp(net, 0.8), max_kept) == []
    assert 0.0 < kept_magnitude_fraction(net, mask) < 1.0


def test_checks_flag_a_dangling_mask():
    from tcprune.network import MaskTensor

    dims = (3, 4, 2)
    masks = [np.zeros((a, b), dtype=bool) for a, b in zip(dims, dims[1:])]
    masks[0][0, 0] = masks[1][0, 0] = True  # one complete path
    masks[1][3, 1] = True  # fed by nothing: dangling
    problems = _check(MaskTensor(tuple(masks)), max_kept=3)
    assert any("ac_percentage" in p for p in problems)
    assert any("trim_to_consistent changed" in p for p in problems)


def test_checks_flag_an_over_budget_mask():
    from tcprune.network import MaskTensor

    dims = (3, 4, 2)
    masks = tuple(np.ones((a, b), dtype=bool) for a, b in zip(dims, dims[1:]))
    mask = MaskTensor(masks)  # 20 connections, all consistent
    problems = _check(mask, max_kept=10)
    assert problems == ["kept 20 outside [10, 11]"]
    assert check_plain_mask(mask, 10) == ["kept 20 != max_kept 10"]


def test_layers_json_places_every_per_layer_metric_once():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((ROOT / "bench" / "layers.json").read_text())
    placed = [name for t in layers["targets"] for name in t["layers"]]
    names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    assert sorted(placed) == sorted(names)
    assert set(layers["repeats_exactly"]) <= names


def test_a_second_seed_runs_clean():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "global_scoring",
         "--seed", "11", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package_source():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    tmp_path = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain_prune",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    shutil.rmtree(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
