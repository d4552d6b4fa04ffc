"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest bench/test_bench.py

Every workload runs untraced and traced with ``--tiny``; each must report
exactly the metrics BENCHMARK.json names, with their units, and the
traced spans must nest.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
from tracing import Span, check_nesting  # noqa: E402


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def read_spans(path):
    lines = path.read_text().splitlines()[1:]
    spans = []
    for line in lines:
        d = json.loads(line)
        spans.append(Span(d["id"], d["name"], d["op"], d["parent"], d["start"], d["end"]))
    return spans


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"], m["name"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])
    if trace:
        spans = read_spans(ROOT / ".bench_runs" / f"trace-{workload}-seed{SEED}.jsonl")
        assert len(spans) > 100
        assert check_nesting(spans) == []


def test_nesting_check_flags_a_child_outside_its_parent():
    parent = Span(0, "experiment.train", "0.1:train", None, 1.0, 2.0)
    inside = Span(1, "network.forward", "0.1:train", 0, 1.2, 1.3)
    outside = Span(2, "network.adam_step", "0.1:train", 0, 1.9, 2.1)
    assert check_nesting([parent, inside]) == []
    assert len(check_nesting([parent, inside, outside])) == 1


def test_differing_outputs_of_one_seed_are_flagged(tmp_path, monkeypatch):
    digests = iter(str(i) for i in range(100))
    monkeypatch.setattr(run, "output_digest", lambda out: next(digests))
    result, _ = run.benchmark(run.WORKLOADS["scalar-adapt"], SEED, 0.0, False, True,
                              tmp_path / "work")
    assert result["correct"] is False


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("scalar-adapt", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
