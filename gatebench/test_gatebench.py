"""Tests of the gate benchmark itself: ``python3 -m pytest gatebench -q``.

The smoke runs start a one-CPU Ray session on a tiny input, so the
module takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(run_py: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, run_py, *args], capture_output=True,
                          text=True, timeout=600, cwd=os.path.dirname(os.path.dirname(run_py)))


def test_benchmark_json_lists_the_workloads_and_layers_the_code_runs():
    import inputs
    import layers

    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        r[:3] for r in layers.LAYER_METRICS]
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_self_time_subtracts_child_spans():
    import layers

    tr = layers.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    st = tr.self_times()
    outer, inner = tr.spans
    assert inner[4] == outer[0]
    assert st["inner"] == pytest.approx(inner[3] - inner[2])
    assert st["outer"] == pytest.approx((outer[3] - outer[2]) - (inner[3] - inner[2]))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_and_counts_the_corrupted_op(trace, section):
    p = _run(os.path.join(HERE, "run.py"), "--workload", "html_gate", "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())
    # smoke corrupts one written row of exactly one gate call
    assert res["failed"] == 1 and res["correct"] is False
    assert res["attempted"] > 1
    assert "decision columns differ" in p.stderr


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "gatebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = _run(str(tmp_path / "gatebench" / "run.py"), "--workload", "html_gate",
             "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert p.stdout.strip() == ""
