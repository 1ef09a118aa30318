"""Where the traced run wraps the package, and how spans become layer metrics.

Each site names the module whose attribute the caller looks up, the
attribute, and the span name (`<defining module>.<function>`). The per-layer
metric names follow the package's module names; `bench/layers.json` says
which end-to-end metric and workload each one should move.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from unittest import mock

from tcprune import cli, gcn, harness, pruner, topology
from tcprune.errors import SaturationError
from tcprune.network import budget

from tracing import Tracer, totals

_TC_MP_TRACE_CODE = pruner.tc_mp_trace.__code__


def _chunked(tracer: Tracer, args, kwargs, result, error) -> None:
    dataset = args[0] if args else kwargs["dataset"]
    tracer.count("data.sequences_chunked", len(dataset))


def _traces_of(error: BaseException):
    """The chains a raising `tc_mp_trace` call had selected, read off its frame."""
    tb = error.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code is _TC_MP_TRACE_CODE:
            return tb.tb_frame.f_locals.get("traces", [])
        tb = tb.tb_next
    return []


def _chains(tracer: Tracer, args, kwargs, result, error) -> None:
    # A call that stalls raises SaturationError after a run of zero-gain
    # chains; those chains count too, or the stall would not show here.
    if isinstance(error, SaturationError):
        tracer.count("pruner.saturated")
        chains = _traces_of(error)
    elif result is not None:
        net, spec = args[0], args[1]
        mask, chains = result
        kept = sum(int(m.sum()) for m in mask.masks)
        tracer.count("pruner.overshoot", kept - budget(net, spec.rate).max_kept)
    else:
        return
    tracer.count("pruner.chains", len(chains))
    tracer.count("pruner.zero_gain_chains", sum(1 for c in chains if c.newly_added == 0))
    tracer.count("pruner.chain_steps", sum(len(c.steps) for c in chains))
    tracer.count("pruner.new_bits", sum(c.newly_added for c in chains))


def _trimmed(tracer: Tracer, args, kwargs, result, error) -> None:
    if result is None:
        return
    before = sum(int(m.sum()) for m in args[0].masks)
    after = sum(int(m.sum()) for m in result.masks)
    tracer.count("topology.trim_removed", before - after)


def _saved(tracer: Tracer, args, kwargs, result, error) -> None:
    if error is None:
        tracer.count("network.mask_bytes", os.path.getsize(args[1]))


def install(stack: ExitStack, tracer: Tracer) -> None:
    """Wrap every traced site; closing `stack` puts the originals back."""
    sites = [
        (cli, "run_ablation", "harness.run_ablation", None),
        (harness, "synth_dataset", "data.synth_dataset", None),
        (harness, "train", "gcn.train", None),
        (harness, "evaluate", "gcn.evaluate", None),
        (harness, "as_layered", "gcn.as_layered", None),
        (harness, "prune", "pruner.prune", None),
        (harness, "consistency_report", "topology.consistency_report", None),
        (harness, "trim_to_consistent", "topology.trim_to_consistent", _trimmed),
        (harness, "save_mask", "network.save_mask", _saved),
        (harness, "load_mask", "network.load_mask", None),
        (harness, "_persist", "harness._persist", None),
        (gcn, "dataset_arrays", "gcn.dataset_arrays", _chunked),
        (gcn, "loss_and_grads", "gcn.loss_and_grads", None),
        (gcn, "forward_batch", "gcn.forward_batch", None),
        (gcn, "view_mask_to_param_masks", "gcn.view_mask_to_param_masks", None),
        (pruner, "tc_mp_trace", "pruner.tc_mp_trace", _chains),
        (pruner, "standard_mp", "pruner.standard_mp", None),
        (pruner, "stochastic_mp", "pruner.stochastic_mp", None),
        (pruner, "log_score_matrix", "surrogate.log_score_matrix", None),
        (topology, "consistency_report", "topology.consistency_report", None),
        (topology, "trim_to_consistent", "topology.trim_to_consistent", _trimmed),
    ]
    for module, attr, name, inspect in sites:
        wrapper = tracer.traced(name, inspect)(getattr(module, attr))
        stack.enter_context(mock.patch.object(module, attr, wrapper))
    wrapper = tracer.traced("surrogate.build_table", measure_memory=True)(pruner.build_table)
    stack.enter_context(mock.patch.object(pruner, "build_table", wrapper))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, from one traced rep."""
    t = totals(tracer.spans)
    c = tracer.counts

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def total(name):
        return t.get(name, {}).get("total_s", 0.0)

    def own(name):
        return t.get(name, {}).get("self_s", 0.0)

    in_trim = "topology.consistency_report<topology.trim_to_consistent"
    steps = c.get("pruner.chain_steps", 0)
    return {
        "data.synth_s": total("data.synth_dataset"),
        "data.chunk_s": total("gcn.dataset_arrays"),
        "data.chunk_calls": calls("gcn.dataset_arrays"),
        "data.sequences_chunked": c.get("data.sequences_chunked", 0),
        "gcn.train_calls": calls("gcn.train"),
        "gcn.steps": calls("gcn.loss_and_grads"),
        "gcn.step_s": own("gcn.loss_and_grads"),
        "gcn.forward_s": total("gcn.forward_batch"),
        "gcn.update_s": own("gcn.train"),
        "gcn.evaluate_s": own("gcn.evaluate"),
        "gcn.view_s": total("gcn.as_layered") + total("gcn.view_mask_to_param_masks"),
        "surrogate.table_s": total("surrogate.build_table"),
        "surrogate.table_calls": calls("surrogate.build_table"),
        "surrogate.table_peak_mib": c.get("surrogate.build_table.peak_mib", 0.0),
        "surrogate.score_s": total("surrogate.log_score_matrix"),
        "pruner.tc_s": own("pruner.tc_mp_trace"),
        "pruner.tc_calls": calls("pruner.tc_mp_trace"),
        "pruner.chains": c.get("pruner.chains", 0),
        "pruner.zero_gain_chains": c.get("pruner.zero_gain_chains", 0),
        "pruner.useful_ratio": c.get("pruner.new_bits", 0) / steps if steps else 0.0,
        "pruner.overshoot": c.get("pruner.overshoot", 0),
        "pruner.saturated": c.get("pruner.saturated", 0),
        "pruner.standard_s": total("pruner.standard_mp"),
        "pruner.stochastic_s": total("pruner.stochastic_mp"),
        "topology.report_s": total("topology.consistency_report") - total(in_trim),
        "topology.report_calls": calls("topology.consistency_report") - calls(in_trim),
        "topology.trim_s": total("topology.trim_to_consistent"),
        "topology.trim_sweeps": calls(in_trim),
        "topology.trim_removed": c.get("topology.trim_removed", 0),
        "network.mask_io_s": total("network.save_mask") + total("network.load_mask"),
        "network.mask_bytes": c.get("network.mask_bytes", 0),
        "harness.persist_s": total("harness._persist"),
        "harness.cells": c.get("harness.cells", 0),
        "harness.cell_s": c.get("harness.cell_s", 0.0),
        "harness.cells_ok": c.get("harness.cells_ok", 0),
        "harness.cells_saturated": c.get("harness.cells_saturated", 0),
        "harness.cells_disconnected": c.get("harness.cells_disconnected", 0),
        "harness.cells_budget": c.get("harness.cells_budget", 0),
    }
