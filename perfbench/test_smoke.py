"""Smoke test of the benchmark at tiny shapes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced through ``run.py --smoke`` from the
repository root, and checks the empty-checkout refusal.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("holdout-paper", "retro-wide", "grid-small")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_traced_counts_repeat_across_runs():
    outputs = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", "retro-wide", "--seed", "5", "--seconds", "1",
                    "--trace", "1", "--smoke")
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert all(o["correct"] for o in outputs)
    for name in ("model.steps", "propagation.pairs", "model.scored_pairs",
                 "metrics.scores_ranked", "graph.edges_added", "formats.records"):
        values = [o["metrics"][name]["value"] for o in outputs]
        assert values[0] == values[1] > 0, name


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "grid-small", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
