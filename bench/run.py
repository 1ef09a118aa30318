"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload chain_prune --seed 1 --seconds 42 --trace 0

Run from the root of a checkout; the package is imported from its `src/`
directory. The workload's inputs come from `--seed` alone. The fixed work is
repeated while another rep fits in `--seconds` (at least once) and times are
medians over reps. Every output is checked; failures are counted, not fatal.

With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics, from reps
that alternate untraced and traced so the tracing overhead is measured in
the same process. Machine facts, per-rep figures and (traced) the spans are
written to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# setup_s is the median of at least this many fresh processes, each timed
# from its start to "inputs ready". One is timed before each rep and the rest
# of the run is filled with them, so the samples span the same stretch of
# machine drift as the reps.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120


def _timed_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup process for {workload} exited with {rc}")
    return ready


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _measure(args, setup, run) -> dict:
    from layers import install, layer_metrics
    from machine import facts
    from tracing import Tracer

    inputs = setup(args.seed, str(OUT))
    setups = []
    reps = []
    start = perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        t0 = perf_counter()
        if not args.trace:
            setups.append(_timed_setup(args.workload, args.seed))
        tracer = Tracer() if traced else None
        if traced:
            with ExitStack() as stack:
                install(stack, tracer)
                rep = run(inputs, tracer)
        else:
            rep = run(inputs, None)
        reps.append((rep, tracer))
        longest = max(longest, perf_counter() - t0)
        traced_once = not args.trace or len(reps) >= 2
        if traced_once and perf_counter() - start + longest > args.seconds:
            break
    while not args.trace and (len(setups) < SETUP_REPEATS
                              or perf_counter() - start + max(setups) <= args.seconds):
        setups.append(_timed_setup(args.workload, args.seed))

    untraced = [rep for rep, tracer in reps if tracer is None]
    problems = [p for rep, _ in reps for p in rep.problems]
    attempted = sum(rep.attempted for rep, _ in reps)
    failed = sum(rep.failed_ops for rep, _ in reps)
    wall_s = statistics.median(rep.wall_s for rep in untraced)
    end_to_end = {
        "setup_s": _median(setups),
        "wall_s": wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acc_mean": _median(rep.acc_mean for rep, _ in reps),
        "kept_mag_frac": _median(rep.kept_mag_frac for rep, _ in reps),
    }
    for name in ("acc_mean", "kept_mag_frac"):
        if end_to_end[name] is None:
            problems.append(f"no output to compute {name} from")
            failed, end_to_end[name] = failed + 1, 0.0
    per_layer = {}
    tracers = [tracer for _, tracer in reps if tracer is not None]
    if tracers:
        per_rep = [layer_metrics(tracer) for tracer in tracers]
        per_layer = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        traced_wall = statistics.median(rep.wall_s for rep, t in reps if t is not None)
        per_layer["trace.overhead_s"] = traced_wall - wall_s
    return {
        "machine": facts(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_samples_s": setups,
        "reps": [{"wall_s": rep.wall_s, "traced": t is not None, "attempted": rep.attempted,
                  "failed": rep.failed_ops} for rep, t in reps],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "spans": [vars(s) for s in tracers[0].spans] if tracers else [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tcprune" / "__init__.py").is_file():
        print(f"error: no package source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    setup, run = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        setup(args.seed, str(OUT))
        print("ready", flush=True)
        return 0

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    result = _measure(args, setup, run)
    kind = "per_layer" if args.trace else "end_to_end"
    values = result[kind]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("machine: " + json.dumps(result["machine"]))
    traced = sum(r["traced"] for r in result["reps"])
    print(f"workload={args.workload} seed={args.seed} reps={len(result['reps'])} "
          f"traced_reps={traced} record={path.relative_to(ROOT)}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'fail_ratio':24s} {ratio:.6g} ratio ({result['failed']}/{result['attempted']})")
    for name, m in metrics.items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
