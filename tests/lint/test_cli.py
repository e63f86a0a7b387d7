"""CLI, baseline, formatter and self-check tests for iolint."""

import json
import subprocess
import sys
from pathlib import Path

from repro.lint import Baseline, LintConfig, lint_paths, lint_source
from repro.lint.cli import main
from repro.lint.engine import LintResult
from repro.lint.formatters import format_github, format_json, format_stats

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_MODULE = (
    "table = {}\n"
    "obj = object()\n"
    "table[id(obj)] = 1\n"
)


def write_tree(tmp_path: Path) -> Path:
    pkg = tmp_path / "src"
    pkg.mkdir()
    (pkg / "bad.py").write_text(BAD_MODULE)
    (pkg / "good.py").write_text("x = 1\n")
    return tmp_path


class TestCli:
    def test_exit_one_on_findings(self, tmp_path, capsys):
        write_tree(tmp_path)
        code = main(["--root", str(tmp_path), "src"])
        out = capsys.readouterr().out
        assert code == 1
        assert "src/bad.py:3" in out and "IOL001" in out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write_tree(tmp_path)
        (tmp_path / "src" / "bad.py").unlink()
        assert main(["--root", str(tmp_path), "src"]) == 0

    def test_json_format(self, tmp_path, capsys):
        write_tree(tmp_path)
        code = main(["--root", str(tmp_path), "--format=json", "src"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["exit_code"] == 1
        (finding,) = [f for f in payload["findings"] if not f["suppressed"]]
        assert finding["rule"] == "IOL001"
        assert finding["line"] == 3

    def test_github_format(self, tmp_path, capsys):
        write_tree(tmp_path)
        main(["--root", str(tmp_path), "--format=github", "src"])
        out = capsys.readouterr().out
        assert "::error file=src/bad.py,line=3,col=7,title=IOL001::" in out

    def test_baseline_roundtrip(self, tmp_path, capsys):
        write_tree(tmp_path)
        assert main(["--root", str(tmp_path), "--write-baseline", "src"]) == 0
        baseline = json.loads((tmp_path / "iolint-baseline.json").read_text())
        assert len(baseline["findings"]) == 1
        # baselined debt no longer fails the run...
        assert main(["--root", str(tmp_path), "src"]) == 0
        capsys.readouterr()
        # ...but a NEW finding still does, and --no-baseline sees everything
        (tmp_path / "src" / "worse.py").write_text(BAD_MODULE)
        assert main(["--root", str(tmp_path), "src"]) == 1
        capsys.readouterr()
        assert main(["--root", str(tmp_path), "--no-baseline", "src"]) == 1

    def test_baseline_survives_line_drift(self, tmp_path, capsys):
        write_tree(tmp_path)
        main(["--root", str(tmp_path), "--write-baseline", "src"])
        capsys.readouterr()
        shifted = "# a new comment line\n" + BAD_MODULE
        (tmp_path / "src" / "bad.py").write_text(shifted)
        assert main(["--root", str(tmp_path), "src"]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for number in range(1, 10):
            assert f"IOL{number:03d}" in out
        assert "IOL010" not in out
        assert "(whole-program)" in out

    def test_stats_output(self, tmp_path, capsys):
        write_tree(tmp_path)
        main(["--root", str(tmp_path), "--stats", "src"])
        out = capsys.readouterr().out
        assert "IOL001" in out and "active" in out


class TestFormatters:
    def result(self) -> LintResult:
        result = LintResult(files_checked=1)
        result.findings = lint_source(BAD_MODULE, "src/bad.py", LintConfig())
        return result

    def test_json_is_byte_stable(self):
        assert format_json(self.result()) == format_json(self.result())

    def test_github_escapes_newlines(self):
        result = self.result()
        result.findings[0].message = "line1\nline2"
        assert "%0A" in format_github(result)

    def test_stats_totals(self):
        text = format_stats(self.result())
        assert text.splitlines()[-1].startswith("total")


class TestSelfCheck:
    """The analyzer must hold itself to its own contract."""

    def test_lint_package_is_clean(self):
        result = lint_paths(
            [str(REPO_ROOT / "src" / "repro" / "lint")],
            config=LintConfig(root=str(REPO_ROOT)),
        )
        assert result.files_checked >= 9
        assert result.active == [], [f.location() for f in result.active]

    def test_shipped_tree_is_clean(self):
        """Acceptance criterion: `python -m repro.lint src tests` exits 0."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "tests"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestRegressionGuards:
    """Reintroducing PR-2's bugs must fail the lint run with the right rule."""

    def test_id_keyed_queue_state_detected(self):
        source = (REPO_ROOT / "src/repro/core/priority_queue.py").read_text()
        assert "id(job)" not in source.replace("``id(job)``", "")
        buggy = source.replace(
            "if self._handle_of(job) is not None:",
            "if id(job) in self._seq_of:",
        )
        assert buggy != source
        findings = lint_source(buggy, "src/repro/core/priority_queue.py")
        hits = [f for f in findings if f.active and f.rule_id == "IOL001"]
        assert len(hits) == 1
        assert "membership" in hits[0].message

    def test_unsorted_digest_dumps_detected(self):
        source = (REPO_ROOT / "src/repro/faults/plan.py").read_text()
        buggy = source.replace(
            'json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))',
            'json.dumps(self.to_dict(), separators=(",", ":"))',
        )
        assert buggy != source
        findings = lint_source(buggy, "src/repro/faults/plan.py")
        hits = [f for f in findings if f.active and f.rule_id == "IOL005"]
        assert len(hits) == 1


class TestBaselineDocument:
    def test_shipped_baseline_is_empty(self):
        baseline = Baseline.load(REPO_ROOT / "iolint-baseline.json")
        assert len(baseline) == 0

    def test_save_is_sorted_and_stable(self, tmp_path):
        baseline = Baseline(entries={"bb": "y", "aa": "x"})
        path = baseline.save(tmp_path / "b.json")
        text = path.read_text()
        assert text.index('"aa"') < text.index('"bb"')
        assert baseline.save(tmp_path / "b2.json").read_text() == text
