"""Whole-program rule tests: IOL007-IOL010 over in-memory projects.

Each fixture is a multi-module project dict fed through
:func:`repro.lint.lint_sources` with the file-local rules disabled, so
the assertions isolate exactly one inter-procedural rule.  The
regression classes mirror ``TestRegressionGuards``: they strip the
shipped overflow guards back out of the real kernels and prove IOL008
still catches the original code.
"""

from pathlib import Path

from repro.lint import LintConfig, lint_sources
from repro.lint.program_rules import (
    EngineParityRule,
    EntropyTaintRule,
    Int64OverflowRule,
    RunnerClosureRule,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_rule(files, rule, config=None):
    findings = lint_sources(
        files, config=config, rules=(), program_rules=(rule,)
    )
    return [f for f in findings if f.active]


def locations(findings):
    return [(f.path, f.line, f.rule_id) for f in findings]


class TestIOL007EntropyTaint:
    PROJECT = {
        "src/repro/obs/export.py": (
            "from repro.exp.work import compute\n"
            "\n"
            "\n"
            "def export_table():\n"
            "    return compute()\n"
        ),
        "src/repro/exp/work.py": (
            "from repro.exp.util import stamp\n"
            "\n"
            "\n"
            "def compute():\n"
            "    return stamp()\n"
        ),
        "src/repro/exp/util.py": (
            "import time\n"
            "\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
    }

    def test_transitive_entropy_flagged_at_site(self):
        findings = run_rule(self.PROJECT, EntropyTaintRule())
        assert locations(findings) == [("src/repro/exp/util.py", 5, "IOL007")]

    def test_message_carries_the_chain(self):
        (finding,) = run_rule(self.PROJECT, EntropyTaintRule())
        assert "export_table" in finding.message
        assert "->" in finding.message
        assert "time.time" in finding.message

    def test_unreachable_entropy_is_clean(self):
        project = dict(self.PROJECT)
        # sever the export -> work edge; stamp() is no longer reachable
        project["src/repro/obs/export.py"] = (
            "def export_table():\n    return 0\n"
        )
        assert run_rule(project, EntropyTaintRule()) == []

    def test_rng_allowlist_module_exempt(self):
        project = {
            "src/repro/obs/export.py": (
                "from repro.sim.rng import reseed\n"
                "\n"
                "\n"
                "def export_table():\n"
                "    return reseed()\n"
            ),
            "src/repro/sim/rng.py": (
                "import os\n"
                "\n"
                "\n"
                "def reseed():\n"
                "    return os.urandom(8)\n"
            ),
        }
        assert run_rule(project, EntropyTaintRule()) == []

    def test_name_marker_roots_outside_digest_modules(self):
        project = {
            "src/repro/core/table.py": (
                "import time\n"
                "\n"
                "\n"
                "def canonical_form(rows):\n"
                "    return (time.monotonic(), rows)\n"
            ),
        }
        findings = run_rule(project, EntropyTaintRule())
        assert locations(findings) == [("src/repro/core/table.py", 5, "IOL007")]


class TestIOL008Int64Overflow:
    def test_tainted_product_flagged(self):
        project = {
            "src/repro/analysis/kern.py": (
                "import numpy as np\n"
                "\n"
                "\n"
                "def grid_demand(periods, horizon):\n"
                "    steps = np.asarray(periods)\n"
                "    return steps * horizon\n"
            ),
        }
        findings = run_rule(project, Int64OverflowRule())
        assert locations(findings) == [("src/repro/analysis/kern.py", 6, "IOL008")]
        assert "product" in findings[0].message

    def test_tainted_cumsum_flagged(self):
        project = {
            "src/repro/analysis/kern.py": (
                "import numpy as np\n"
                "\n"
                "\n"
                "def total_demand(horizon):\n"
                "    demands = np.arange(horizon)\n"
                "    return np.cumsum(demands)\n"
            ),
        }
        findings = run_rule(project, Int64OverflowRule())
        assert locations(findings) == [("src/repro/analysis/kern.py", 6, "IOL008")]
        assert "cumsum" in findings[0].message

    def test_cap_guard_forgives_hazards(self):
        project = {
            "src/repro/analysis/kern.py": (
                "import numpy as np\n"
                "\n"
                "GRID_CAP = 1 << 40\n"
                "\n"
                "\n"
                "def grid_demand(periods, horizon):\n"
                "    if horizon > GRID_CAP:\n"
                "        raise OverflowError('horizon too large')\n"
                "    return np.asarray(periods) * horizon\n"
            ),
        }
        assert run_rule(project, Int64OverflowRule()) == []

    def test_untainted_product_is_clean(self):
        project = {
            "src/repro/analysis/kern.py": (
                "import numpy as np\n"
                "\n"
                "\n"
                "def scale(values, factor):\n"
                "    return np.asarray(values) * factor\n"
            ),
        }
        assert run_rule(project, Int64OverflowRule()) == []

    def test_out_of_scope_module_is_clean(self):
        project = {
            "src/repro/sim/kern.py": (
                "import numpy as np\n"
                "\n"
                "\n"
                "def grid_demand(periods, horizon):\n"
                "    return np.asarray(periods) * horizon\n"
            ),
        }
        assert run_rule(project, Int64OverflowRule()) == []

    def test_pure_python_module_is_clean(self):
        """No numpy import -> Python ints cannot wrap, rule stays quiet."""
        project = {
            "src/repro/analysis/kern.py": (
                "def grid_demand(periods, horizon):\n"
                "    return [p * horizon for p in periods]\n"
            ),
        }
        assert run_rule(project, Int64OverflowRule()) == []


RUNNER_MODULE = (
    "class ExperimentRunner:\n"
    "    def map(self, fn, cells):\n"
    "        return [fn(c) for c in cells]\n"
)


class TestIOL009RunnerClosure:
    def project(self, sweep_source):
        return {
            "src/repro/exp/runner.py": RUNNER_MODULE,
            "src/repro/exp/sweep.py": sweep_source,
        }

    def test_lambda_rejected(self):
        project = self.project(
            "from repro.exp.runner import ExperimentRunner\n"
            "\n"
            "\n"
            "def sweep(cells):\n"
            "    runner = ExperimentRunner()\n"
            "    return runner.map(lambda c: c + 1, cells)\n"
        )
        findings = run_rule(project, RunnerClosureRule())
        assert locations(findings) == [("src/repro/exp/sweep.py", 6, "IOL009")]
        assert "lambda" in findings[0].message

    def test_nested_closure_rejected(self):
        project = self.project(
            "from repro.exp.runner import ExperimentRunner\n"
            "\n"
            "\n"
            "def sweep(cells, scale):\n"
            "    runner = ExperimentRunner()\n"
            "\n"
            "    def worker(c):\n"
            "        return c * scale\n"
            "\n"
            "    return runner.map(worker, cells)\n"
        )
        findings = run_rule(project, RunnerClosureRule())
        assert locations(findings) == [("src/repro/exp/sweep.py", 10, "IOL009")]
        assert "scale" in findings[0].message

    def test_mutable_global_read_rejected(self):
        project = self.project(
            "from repro.exp.runner import ExperimentRunner\n"
            "\n"
            "_CACHE = {}\n"
            "\n"
            "\n"
            "def cell(c):\n"
            "    return _CACHE.get(c)\n"
            "\n"
            "\n"
            "def sweep(cells):\n"
            "    runner = ExperimentRunner()\n"
            "    return runner.map(cell, cells)\n"
        )
        findings = run_rule(project, RunnerClosureRule())
        assert locations(findings) == [("src/repro/exp/sweep.py", 12, "IOL009")]
        assert "_CACHE" in findings[0].message

    def test_whitelisted_global_read_allowed(self):
        project = self.project(
            "from repro.exp.runner import ExperimentRunner\n"
            "\n"
            "_CACHE = {}\n"
            "\n"
            "\n"
            "def cell(c):\n"
            "    return _CACHE.get(c)\n"
            "\n"
            "\n"
            "def sweep(cells):\n"
            "    runner = ExperimentRunner()\n"
            "    return runner.map(cell, cells)\n"
        )
        config = LintConfig(runner_shared_whitelist=("_CACHE",))
        assert run_rule(project, RunnerClosureRule(), config=config) == []

    def test_global_write_rejected(self):
        project = self.project(
            "from repro.exp.runner import ExperimentRunner\n"
            "\n"
            "\n"
            "def cell(c):\n"
            "    global _COUNT\n"
            "    _COUNT = c\n"
            "    return c\n"
            "\n"
            "\n"
            "def sweep(cells):\n"
            "    runner = ExperimentRunner()\n"
            "    return runner.map(cell, cells)\n"
        )
        findings = run_rule(project, RunnerClosureRule())
        assert locations(findings) == [("src/repro/exp/sweep.py", 12, "IOL009")]
        assert "_COUNT" in findings[0].message

    def test_clean_module_level_worker(self):
        project = self.project(
            "from repro.exp.runner import ExperimentRunner\n"
            "\n"
            "\n"
            "def cell(c):\n"
            "    return c * 2\n"
            "\n"
            "\n"
            "def sweep(cells):\n"
            "    runner = ExperimentRunner()\n"
            "    return runner.map(cell, cells)\n"
        )
        assert run_rule(project, RunnerClosureRule()) == []


ENGINE_REGISTRY = 'ENGINES = ("scalar", "vectorized")\n'


class TestIOL010EngineParity:
    def project(self, source):
        return {
            "src/repro/analysis/engine.py": ENGINE_REGISTRY,
            "src/repro/analysis/pick.py": source,
        }

    def test_raw_param_compare_flagged(self):
        project = self.project(
            "def decide(tasks, engine=None):\n"
            '    if engine == "scalar":\n'
            "        return 0\n"
            "    return 1\n"
        )
        findings = run_rule(project, EngineParityRule())
        assert locations(findings) == [("src/repro/analysis/pick.py", 2, "IOL010")]
        assert "resolve_engine" in findings[0].message

    def test_resolved_compare_against_registry_member_allowed(self):
        project = self.project(
            "from repro.analysis.engine import resolve_engine\n"
            "\n"
            "\n"
            "def decide(tasks, engine=None):\n"
            '    if resolve_engine(engine) == "scalar":\n'
            "        return 0\n"
            "    return 1\n"
        )
        assert run_rule(project, EngineParityRule()) == []

    def test_resolved_compare_against_unknown_literal_flagged(self):
        project = self.project(
            "from repro.analysis.engine import resolve_engine\n"
            "\n"
            "\n"
            "def decide(tasks, engine=None):\n"
            '    if resolve_engine(engine) == "warp":\n'
            "        return 0\n"
            "    return 1\n"
        )
        findings = run_rule(project, EngineParityRule())
        assert locations(findings) == [("src/repro/analysis/pick.py", 5, "IOL010")]
        assert "warp" in findings[0].message

    def test_unknown_engine_kwarg_flagged(self):
        project = self.project(
            "def run(tasks, engine=None):\n"
            "    return tasks\n"
            "\n"
            "\n"
            "def drive(tasks):\n"
            '    return run(tasks, engine="warp")\n'
        )
        findings = run_rule(project, EngineParityRule())
        assert locations(findings) == [("src/repro/analysis/pick.py", 6, "IOL010")]

    def test_known_engine_kwarg_allowed(self):
        project = self.project(
            "def run(tasks, engine=None):\n"
            "    return tasks\n"
            "\n"
            "\n"
            "def drive(tasks):\n"
            '    return run(tasks, engine="vectorized")\n'
        )
        assert run_rule(project, EngineParityRule()) == []


class TestShippedKernelRegressions:
    """Stripping the shipped guards must resurface the original findings.

    The overflow guards in ``vectorized.py``/``batched.py`` fix true
    positives IOL008 surfaced on first run (PR-3 pattern: every fixed
    site gets a test proving the rule catches the pre-fix code).
    """

    def _iol008(self, rel_path, source):
        findings = lint_sources(
            {rel_path: source}, rules=(), program_rules=(Int64OverflowRule(),)
        )
        return [f for f in findings if f.active and f.rule_id == "IOL008"]

    def test_step_points_guard_removal_detected(self):
        rel_path = "src/repro/analysis/vectorized.py"
        source = (REPO_ROOT / rel_path).read_text()
        assert self._iol008(rel_path, source) == []
        buggy = source.replace(
            "    if hi > INT64_SAFE_HORIZON:\n"
            "        raise OverflowError(\n"
            '            f"step-point range top {hi} exceeds the int64-safe cap "\n'
            '            f"{INT64_SAFE_HORIZON}; the start + k*period grid points "\n'
            '            f"would wrap in int64 -- use the exact (hyper-period) test"\n'
            "        )\n",
            "",
        )
        assert buggy != source
        hits = self._iol008(rel_path, buggy)
        assert hits, "IOL008 must fire once the guard is stripped"
        assert any("step_points_in_range" in f.message for f in hits)

    def test_tiling_guard_removal_detected(self):
        rel_path = "src/repro/analysis/batched.py"
        source = (REPO_ROOT / rel_path).read_text()
        assert self._iol008(rel_path, source) == []
        buggy = source.replace(
            "    if horizon > INT64_SAFE_HORIZON:\n"
            "        raise OverflowError(\n"
            '            f"tiling horizon {horizon} exceeds the int64-safe cap "\n'
            '            f"{INT64_SAFE_HORIZON}; hyperperiod*shift products would "\n'
            '            f"wrap in int64"\n'
            "        )\n",
            "",
        )
        assert buggy != source
        hits = self._iol008(rel_path, buggy)
        assert hits, "IOL008 must fire once the guard is stripped"
        assert any("_tiled" in f.message for f in hits)

    def test_raw_slack_suppression_removal_detected(self):
        """The two pure-Python suppressions are load-bearing, not decoration."""
        rel_path = "src/repro/analysis/batched.py"
        source = (REPO_ROOT / rel_path).read_text()
        lines = source.splitlines(keepends=True)
        kept = [
            line
            for line in lines
            if "iolint: disable=IOL008" not in line
        ]
        assert len(kept) < len(lines)
        hits = self._iol008(rel_path, "".join(kept))
        assert any("_raw_slack" in f.message for f in hits)
