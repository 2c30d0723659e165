#!/usr/bin/env python3
"""Benchmark the evaluator backends: compiled extension vs pure Python.

Runs the same workloads in two subprocesses (one with TLTT_PURE=1 forcing
the interpreted kernel) and prints a comparison table.  Workloads:

  corpus    parse + check the whole default-mode corpus
  normalize repeated normalization of the stage-2 semi-simplicial type
  conv      repeated conversion checks on eta-expanded composites

Without the compiled extension there is nothing to compare, and the script
says so and exits; perfbench/run.py measures the checker end to end.

Usage: python benchmarks/bench_nbe.py [--repeat N]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def workloads(repeat: int) -> dict[str, float]:
    from tltt import corpus, nbe, typecheck as tc
    from tltt.cli import RunConfig, run
    from tltt.parser import parse_term

    results: dict[str, float] = {}

    started = time.perf_counter()
    report = run(RunConfig(files=corpus.default_run_files()))
    assert report.ok
    results["corpus"] = time.perf_counter() - started

    ctx = report.context
    names = ctx.sig.entries.keys()
    sst2, _ = tc.infer(ctx, parse_term("SST 2s", known_names=names))
    started = time.perf_counter()
    for _ in range(40 * repeat):
        nbe.normalize(ctx, sst2)
    results["normalize"] = time.perf_counter() - started

    ty, _ = tc.infer_universe(ctx, parse_term(
        "(f : Delta 0s 1s) -> (g : Delta 1s 2s) -> (e : Delta 2s 3s) -> Delta 0s 3s",
        known_names=names))
    ty_v = nbe.eval_in(ctx, ty)
    lhs = tc.check(ctx, parse_term(
        "\\f. \\g. \\e. dcomp 0s 2s 3s (dcomp 0s 1s 2s f g) e", known_names=names), ty_v)
    rhs = tc.check(ctx, parse_term(
        "\\f. \\g. \\e. dcomp 0s 1s 3s f (dcomp 1s 2s 3s g e)", known_names=names), ty_v)
    va, vb = nbe.eval_in(ctx, lhs), nbe.eval_in(ctx, rhs)
    started = time.perf_counter()
    for _ in range(60 * repeat):
        assert nbe.conv(0, va, vb, ty_v)
    results["conv"] = time.perf_counter() - started

    from tltt.nbe import BACKEND
    results["backend"] = BACKEND  # type: ignore[assignment]
    return results


def spawn(pure: bool, repeat: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if pure:
        env["TLTT_PURE"] = "1"
    else:
        env.pop("TLTT_PURE", None)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker",
         "--repeat", str(repeat)],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def compiled_backend_built() -> bool:
    sys.path.insert(0, str(SRC))
    try:
        import tltt._nbe_compiled  # noqa: F401
    except ImportError:
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--worker", action="store_true")
    args = parser.parse_args()

    if args.worker:
        print(json.dumps(workloads(args.repeat)))
        return 0

    if not compiled_backend_built():
        print("compiled backend tltt._nbe_compiled is not built "
              "(python setup.py build_ext --inplace, needs Cython); "
              "nothing to compare.\n"
              "For end-to-end and per-layer timings of the checker run "
              "python3 perfbench/run.py (see perfbench/README.md).")
        return 0
    pure = spawn(pure=True, repeat=args.repeat)
    fast = spawn(pure=False, repeat=args.repeat)
    print(f"{'workload':<12} {'pure [s]':>10} {fast['backend']:>14} {'speedup':>9}")
    for name in ("corpus", "normalize", "conv"):
        ratio = pure[name] / fast[name] if fast[name] else float("inf")
        print(f"{name:<12} {pure[name]:>10.3f} {fast[name]:>14.3f} {ratio:>8.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
