"""Tests of the benchmark itself: its definition, its verdict checks, and its
refusal to run without sources.

Passes run in a subprocess, because every pass re-imports tltt and would
otherwise replace the modules the rest of the test session holds.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
from harness import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"verdict_s", "item_p50_ms", "item_p90_ms", "setup_s", "peak_rss_mb"}
PER_LAYER = ({f"{layer}.calls" for layer in LAYERS} | {f"{layer}.self_s" for layer in LAYERS}
             | {"parser.tokens_per_s", "printer.chars_per_s", "nbe.conv.false_share",
                "trace_overhead"})

FLIPPED_CONVERT_PASS = """
import json, sys
sys.path.insert(0, "perfbench")
import run, speed, workloads
workload = workloads.WORKLOADS["convert"]
queries = workload.generate(0)
flipped = next(q for q in queries if q.key == "refl SST 4s")
flipped.expect = not flipped.expect
with speed.SpeedProbe() as probe:
    done = run.one_pass(workload, queries, False, probe)
print(json.dumps({"failures": done.result.failures, "errors": done.result.errors,
                  "failed": run.failed_items([done]), "attempted": done.result.attempted,
                  "verdicts": {q.key: q.expect for q in queries}}))
"""


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert all(w["why"].strip() for w in spec["workloads"])
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == PER_LAYER
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] and metric["better"] in ("lower", "higher")
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_convert_verdicts_agree_with_the_checker_and_a_flip_is_counted():
    # one convert pass at seed 0 with the expected verdict of one query
    # flipped: that query, and no other, must be counted as failed
    proc = subprocess.run([sys.executable, "-c", FLIPPED_CONVERT_PASS], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout.splitlines()[-1])
    assert outcome["errors"] == []
    assert [f.split(":")[0] for f in outcome["failures"]] == ["refl SST 4s"]
    assert outcome["failed"] == 1 and outcome["attempted"] == len(outcome["verdicts"])
    assert True in outcome["verdicts"].values() and False in outcome["verdicts"].values()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "convert",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probe_scales_time_by_the_speed_of_nearby_samples():
    # probes at program times 0, 1, 2, 3; the machine ran at half the
    # reference speed around t = 1 and at the reference speed elsewhere
    probe = speed.SpeedProbe()
    probe.at = [0.0, 1.0, 2.0, 3.0]
    probe.speed = [1.0, 0.5, 1.0, 1.0]
    assert probe.seconds(0.999, 1.001) == pytest.approx(0.002 * 0.5)
    assert probe.seconds(2.0, 3.0) == pytest.approx(1.0)
    assert probe.factor(0.0, 3.0) == pytest.approx(0.875)
    assert probe.factor(10.0, 11.0) == 1.0  # no probe near: the nearest one


def test_probe_clock_leaves_out_probe_time():
    with speed.SpeedProbe() as probe:
        began, wall = probe.now(), time.perf_counter()
        while time.perf_counter() - wall < 0.2:
            pass
        program_s, wall_s = probe.now() - began, time.perf_counter() - wall
    assert len(probe.at) > 10
    assert program_s < wall_s
    assert program_s == pytest.approx(wall_s - probe.spent, abs=0.01)
