"""Smoke tests of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SEED = 3


def bench(workload: str, trace: int, cwd: Path = ROOT):
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return res, res.stdout.strip().splitlines()


def result_of(workload: str, trace: int):
    res, lines = bench(workload, trace)
    assert res.returncode == 0, res.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert any(line.split()[:2] == ["fail_ratio", "0"] for line in lines)
    return lines, result


def printed(lines: list[str], name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and line.split()[-1] == unit
               for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_end_to_end_metrics(workload):
    lines, result = result_of(workload, 0)
    units = run.metric_units("end_to_end")
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert metric["value"] > 0
        assert printed(lines, name, unit)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run(workload):
    lines, first = result_of(workload, 1)
    units = run.metric_units("per_layer")
    assert set(first["metrics"]) == set(units)
    for name, unit in units.items():
        assert first["metrics"][name]["unit"] == unit
        assert printed(lines, name, unit)
        if not name.startswith("trace.overhead"):   # noise can make it < 0
            assert first["metrics"][name]["value"] >= 0
    record = json.loads(
        (run.OUT / f"{workload}-seed{SEED}-trace1.json").read_text())
    for spans in record["spans"]:
        own = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= 0:
                own[parent] -= end - start
        assert min(own) >= 0

    _, second = result_of(workload, 1)
    for name in run.REPEATED_COUNTS:
        assert first["metrics"][name] == second["metrics"][name]


def test_layers_per_workload():
    """Each workload drives the layers its documentation says it does."""
    _, cold = result_of("lookdown-cold", 1)
    _, particles = result_of("particles-equilibrium", 1)
    value = {"cold": cold["metrics"], "particles": particles["metrics"]}
    assert value["cold"]["stream.events_delivered"]["value"] > 0
    assert value["cold"]["particles.transitions"]["value"] == 0
    assert value["particles"]["stream.events_delivered"]["value"] == 0
    assert value["particles"]["particles.transitions"]["value"] > 0


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res, lines = bench("lookdown-cold", 0, cwd=tmp_path)
    assert res.returncode != 0
    assert lines == []
