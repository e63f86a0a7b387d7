"""Tests for the command-line entry point."""

import pytest

from repro.exp.__main__ import main


class TestCli:
    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out
        assert "+129.8%" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "proposed" in out

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8(a)" in out and "Fig. 8(c)" in out

    def test_fig7_tiny(self, capsys):
        assert main(["fig7", "--trials", "1", "--horizon", "6000"]) == 0
        out = capsys.readouterr().out
        assert "4-VM group" in out

    def test_isolation(self, capsys):
        assert main(["isolation", "--horizon", "16000"]) == 0
        out = capsys.readouterr().out
        assert "rogue" in out

    def test_acceptance(self, capsys):
        assert main(["acceptance"]) == 0
        out = capsys.readouterr().out
        assert "Acceptance ratio" in out

    def test_export(self, tmp_path, capsys):
        assert main([
            "export", "--trials", "1", "--horizon", "6000",
            "--out", str(tmp_path / "results"),
        ]) == 0
        out = capsys.readouterr().out
        assert "fig7.csv" in out
        assert (tmp_path / "results" / "fig8.csv").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])
