#!/usr/bin/env python3
"""The tltt benchmark: time to verdicts, per item and per layer.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Runs one workload (corpus, normalize or convert) in this one process with a
single closed-loop caller: each item starts when the previous verdict has
returned.  Every pass imports tltt afresh and builds its own signature, so
nothing a pass evaluates is seen by the next one.  Every verdict is checked
against an answer that does not come from the kernel.

--trace 0 prints the end-to-end metrics, measured with no layer spans.
--trace 1 runs untraced passes, then two traced passes, and prints the
per-layer metrics, the tracing overhead and the slowest items; the two
traced passes must agree on every call count.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Full results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from harness import LAYERS, ROOT, SRC, MissingSource, Program, Recorder, instrument, layer_totals
from speed import SpeedProbe
from workloads import ROUND_TRIP_ONLY, WORKLOADS, PassResult

OUT = Path(__file__).resolve().parent / "out"
MIN_PASSES = 3          # untraced passes per run, at the least
TRACED_PASSES = 2       # their call counts must agree
RECURSION_LIMIT = 40000  # what the tltt command line runs with
PERCENTILES = (50, 90, 95, 99, 99.9)


@dataclass
class Pass:
    backend: str
    setup_s: float
    verdict_s: float
    result: PassResult
    items: list               # (key, seconds, ok)
    layers: dict | None = None
    spans: list | None = None


def one_pass(workload, inputs, layers: bool, probe: SpeedProbe) -> Pass:
    """Set up a fresh program, then run and check one measured pass.  Every
    time is taken in seconds at the reference speed (see speed.py)."""
    seconds = probe.seconds
    program = Program(probe.now)
    started = probe.now()
    state = workload.setup(program, inputs)
    setup_s = seconds(*program.imported) + seconds(started, probe.now())
    recorder = Recorder(layers, probe.now)
    instrument(program, recorder)
    began = probe.now()
    result = workload.run_pass(program, state, recorder, inputs)
    factor = probe.factor(began, probe.now())
    done = Pass(program.backend, setup_s, sum(seconds(*s) for s in result.segments), result,
                [(key, seconds(start, end), ok) for key, start, end, ok in recorder.items])
    if layers:
        done.layers = layer_totals(recorder)
        for totals in done.layers.values():
            totals["self_s"] *= factor
        done.layers["parser"]["tokens"] = sum(
            len(program.tokenize(text, "<count>")) for text in recorder.parsed)
        done.layers["printer"]["chars"] = recorder.printed_chars
        done.layers["nbe.conv"]["false"] = recorder.conv_false
        done.spans = recorder.spans
    return done


def passes_for(workload, inputs, seconds: float, least: int, layers: bool,
               probe: SpeedProbe) -> list[Pass]:
    """Closed loop: start another pass while it should end within `seconds`."""
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(one_pass(workload, inputs, layers, probe))
        gc.collect()
        now = time.perf_counter()
        if len(passes) >= least and now - started + (now - began) > seconds:
            return passes


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    usable = [p for p in PERCENTILES if len(values) * (100 - p) / 100 >= 10]
    if not usable:
        return f"n={len(values)}, no percentile has 10 samples beyond it"
    p = usable[-1]
    return f"n={len(values)}, p{p:g} {percentile(values, p):.6g}"


def environment(seed: int, backend: str) -> dict:
    """Where the numbers come from.  A checkout without git has no commit;
    the digest of src/ identifies the code then."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "tltt").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "backend": backend,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "commit": commit, "src_sha256": digest.hexdigest()}


def failed_items(passes: list[Pass]) -> int:
    return sum(max(len(p.result.failures), 1 if p.result.errors else 0) for p in passes)


def end_to_end(passes: list[Pass]) -> tuple[dict, list[str]]:
    verdicts = [p.verdict_s for p in passes]
    items_ms = [seconds * 1000 for p in passes for _, seconds, _ in p.items]
    setups = [p.setup_s for p in passes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "verdict_s": (statistics.median(verdicts), "s"),
        "item_p50_ms": (percentile(items_ms, 50), "ms"),
        "item_p90_ms": (percentile(items_ms, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "verdict_s": f"median of {tail(verdicts)}",
        "item_p50_ms": f"pooled over {len(passes)} passes, {tail(items_ms)}",
        "item_p90_ms": f"pooled over {len(passes)} passes, {tail(items_ms)}",
        "setup_s": f"median of {tail(setups)}: import tltt + build the signature",
        "peak_rss_mb": "ru_maxrss of this worker",
    }
    lines = [f"{name:<14} {value:>12.6g} {unit:<3} {notes[name]}"
             for name, (value, unit) in metrics.items()]
    return metrics, lines


def per_layer(untraced: list[Pass], traced: list[Pass]) -> tuple[dict, list[str]]:
    metrics: dict[str, tuple[float, str]] = {}
    lines = [f"{'layer':<10} {'calls':>9} {'self_s':>10}"]
    mean = statistics.fmean
    for layer in LAYERS:
        calls = traced[0].layers[layer]["calls"]
        self_s = mean(p.layers[layer]["self_s"] for p in traced)
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        lines.append(f"{layer:<10} {calls:>9} {self_s:>10.4f}")

    def rate(layer, amount):
        return mean(p.layers[layer][amount] / p.layers[layer]["self_s"]
                    if p.layers[layer]["self_s"] > 0 else 0.0 for p in traced)
    conv = traced[0].layers["nbe.conv"]
    metrics["parser.tokens_per_s"] = (rate("parser", "tokens"), "1/s")
    metrics["printer.chars_per_s"] = (rate("printer", "chars"), "1/s")
    metrics["nbe.conv.false_share"] = (conv["false"] / conv["calls"] if conv["calls"] else 0.0,
                                       "share")
    traced_s = statistics.median(p.verdict_s for p in traced)
    untraced_s = statistics.median(p.verdict_s for p in untraced)
    metrics["trace_overhead"] = (traced_s - untraced_s, "s")
    lines.append(f"traced verdict_s {traced_s:.4f} s, untraced {untraced_s:.4f} s")
    for name in ("parser.tokens_per_s", "printer.chars_per_s", "nbe.conv.false_share",
                 "trace_overhead"):
        value, unit = metrics[name]
        lines.append(f"{name:<22} {value:>12.6g} {unit}")
    return metrics, lines


def slowest(passes: list[Pass], count: int = 10) -> list[str]:
    """The slowest items by their median time over untraced passes."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for key, seconds, _ in p.items:
            times.setdefault(key, []).append(seconds)
    ranked = sorted(times.items(), key=lambda kv: -statistics.median(kv[1]))[:count]
    lines = [f"{'item (file:line:name)':<44} {'median_s':>9}  n"]
    lines += [f"{key:<44} {statistics.median(v):>9.4f}  {len(v)}" for key, v in ranked]
    return lines


def write_out(name: str, payload) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.setrecursionlimit(max(sys.getrecursionlimit(), RECURSION_LIMIT))

    workload = WORKLOADS[args.workload]
    inputs = workload.generate(args.seed)
    started = time.perf_counter()
    probe = SpeedProbe()
    try:
        with probe:
            if args.trace:
                untraced = passes_for(workload, inputs, args.seconds / 3, 1, False, probe)
                traced = [one_pass(workload, inputs, True, probe) for _ in range(TRACED_PASSES)]
            else:
                untraced = passes_for(workload, inputs, args.seconds, MIN_PASSES, False, probe)
                traced = []
    except MissingSource as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    wall_s = time.perf_counter() - started
    every = untraced + traced
    env = environment(args.seed, every[0].backend)
    attempted = sum(p.result.attempted for p in every)
    failed = failed_items(every)
    problems = [f for p in every for f in p.result.errors + p.result.failures]

    print(f"# tltt benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes: {len(untraced)} untraced, {len(traced)} traced, "
          f"{wall_s:.1f} s")
    print(f"# env {json.dumps(env)}")
    if args.workload == "normalize":
        print(f"# {ROUND_TRIP_ONLY} has no independent reference: it is checked by "
              "printing and parsing back only")
    if args.trace:
        metrics, lines = per_layer(untraced, traced)
        counts = [{layer: p.layers[layer]["calls"] for layer in LAYERS} for p in traced]
        if any(c != counts[0] for c in counts):
            problems.append(f"call counts differ between traced passes: {counts}")
        lines += ["slowest items, untraced:"] + slowest(untraced)
        write_out(f"{args.workload}-seed{args.seed}-spans.json",
                  {"columns": ["layer", "start", "end", "parent", "item"],
                   "passes": [{"items": [k for k, _, _ in p.items], "spans": p.spans}
                              for p in traced]})
    else:
        metrics, lines = end_to_end(untraced)
    lines.append(f"failed_share   {failed / attempted:>12.6g}     "
                 f"{failed} of {attempted} items attempted")
    for line in lines:
        print(line)
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    correct = not problems
    write_out(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        "env": env, "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics,
        "passes": [{"setup_s": p.setup_s, "verdict_s": p.verdict_s,
                    "traced": p.layers is not None, "items": p.items,
                    "layers": p.layers} for p in every]})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
