"""Metric names and units agree with BENCHMARK.json, and one short run
prints the result line the contract asks for."""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _listed(key):
    return {m["name"]: m["unit"] for m in _bench()[key]}


def test_metric_names_are_well_formed():
    for name in [*run.END_TO_END, *run.PER_LAYER, *run.TRAIN_ONLY]:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64


def test_every_metric_is_listed_with_its_unit():
    assert _listed("end_to_end") == run.END_TO_END
    assert _listed("per_layer") == run.PER_LAYER


def test_workloads_match_the_benchmark():
    import workloads as wl

    assert [w["name"] for w in _bench()["workloads"]] == list(wl.SPECS)


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_the_result_line(trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "toy-train", "--seed", "3", "--seconds", "0.5", "--trace",
         str(trace)], capture_output=True, text=True, timeout=170,
        cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == names
    if trace:
        assert "PASS  flops per block" in out.stdout
