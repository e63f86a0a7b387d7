"""End-to-end runs of the harness at ``--smoke`` scale."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
from conftest import BENCH, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _summary(done):
    assert done.returncode == 0, done.stderr[-3000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    return summary


def test_spec_matches_the_harness():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(layers.WORKLOADS)
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    per_layer = [(e["name"], e["unit"], e["better"]) for e in SPEC["per_layer"]]
    assert per_layer == [tuple(entry) for entry in layers.PER_LAYER]


@pytest.mark.parametrize(
    "trace, section", [("0", "end_to_end"), ("1", "per_layer")], ids=["end_to_end", "per_layer"]
)
def test_smoke_run_emits_exactly_the_declared_metrics(trace, section):
    summary = _summary(_run("--seed", "3", "--smoke", "--trace", trace))
    expected = {
        f"{workload['name']}.{metric['name']}": metric["unit"]
        for workload in SPEC["workloads"]
        for metric in SPEC[section]
    }
    assert {name: entry["unit"] for name, entry in summary["metrics"].items()} == expected
    for name, entry in summary["metrics"].items():
        assert isinstance(entry["value"], float), name
        if section == "end_to_end":
            assert entry["value"] > 0, name


def test_single_workload_run_uses_bare_metric_names():
    done = _run("--workload", "design", "--seed", "4", "--seconds", "20", "--smoke", "--trace", "0")
    summary = _summary(done)
    assert set(summary["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("--workload", "design", "--seed", "1", "--seconds", "1", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
