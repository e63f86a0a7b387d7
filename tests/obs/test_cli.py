"""End-to-end tests for ``python -m repro.obs``."""

import json
import os
import pathlib
import subprocess
import sys

from repro.obs.cli import main
from repro.obs.perfetto import validate_chrome_trace

HORIZON = "800"

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def test_module_runs_in_a_fresh_interpreter(tmp_path):
    """``python -m repro.obs`` imports ``repro.obs`` first, with nothing
    else loaded: its import graph must be free of cycles."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro.obs", "export", "--horizon", "200",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr
    validate_chrome_trace(json.loads((tmp_path / "trace.json").read_text()))
    assert (tmp_path / "metrics.json").is_file()


class TestExport:
    def test_writes_valid_artifacts(self, tmp_path, capsys):
        exit_code = main(
            ["export", "--out", str(tmp_path), "--horizon", HORIZON]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "trace.json" in out and "metrics.json" in out

        document = json.loads((tmp_path / "trace.json").read_text())
        validate_chrome_trace(document)
        assert document["otherData"]["slot_us"] == 10

        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["meta"]["scenario"] == "fault-isolation"
        assert metrics["meta"]["seed"] == 2021
        assert "counters" in metrics["metrics"]
        assert metrics["metrics"]["counters"]["trace.dropped_events"] == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            main(
                ["export", "--out", str(tmp_path / name), "--horizon", HORIZON]
            )
        assert (tmp_path / "a" / "trace.json").read_bytes() == (
            tmp_path / "b" / "trace.json"
        ).read_bytes()
        assert (tmp_path / "a" / "metrics.json").read_bytes() == (
            tmp_path / "b" / "metrics.json"
        ).read_bytes()

    def test_ring_buffer_eviction_is_reported(self, tmp_path, capsys):
        main(
            [
                "export", "--out", str(tmp_path), "--horizon", HORIZON,
                "--max-events", "50",
            ]
        )
        captured = capsys.readouterr()
        assert "evicted" in captured.err
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["metrics"]["counters"]["trace.dropped_events"] > 0

    def test_slot_us_scales_timestamps(self, tmp_path):
        main(
            [
                "export", "--out", str(tmp_path / "x1"), "--horizon", HORIZON,
                "--slot-us", "1",
            ]
        )
        main(
            [
                "export", "--out", str(tmp_path / "x5"), "--horizon", HORIZON,
                "--slot-us", "5",
            ]
        )
        narrow = json.loads((tmp_path / "x1" / "trace.json").read_text())
        wide = json.loads((tmp_path / "x5" / "trace.json").read_text())
        narrow_ts = [e["ts"] for e in narrow["traceEvents"] if e["ph"] == "i"]
        wide_ts = [e["ts"] for e in wide["traceEvents"] if e["ph"] == "i"]
        assert wide_ts == [ts * 5 for ts in narrow_ts]


class TestTextCommands:
    def test_summary_prints_registry_table(self, capsys):
        assert main(["summary", "--horizon", HORIZON]) == 0
        out = capsys.readouterr().out
        assert "Metrics registry" in out
        assert "trace.events.gsched.grant" in out
        assert "isolation.ioguard.victim_misses" in out

    def test_spans_prints_derived_spans(self, capsys):
        assert main(["spans", "--horizon", HORIZON, "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "derived job spans" in out
        assert "run" in out

    def test_sweep_serial(self, capsys):
        assert main(["sweep", "--seeds", "7", "--horizon", "500",
                     "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "Bounded traced sweep" in out
        assert "trace digest" in out
