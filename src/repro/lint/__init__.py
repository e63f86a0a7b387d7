"""iolint: determinism & real-time-invariant static analyzer.

The repository's value is *reproducible* real-time guarantees --
byte-identical traces and exact Theorem 1-4 admission results.  This
package turns that determinism contract into a checked property: an
two-phase analyzer with project-specific rules: file-local
(IOL001-IOL006, one module at a time) and whole-program (IOL007-IOL009,
over a project-wide symbol table and call graph), inline justified
suppressions, a baseline file for tracked debt, a content-hash record
cache with a deterministic ``--jobs`` parallel mode, and CLI output
formats for humans, machines, GitHub annotations and SARIF.

Run it as ``python -m repro.lint [paths...]`` or import
:func:`lint_paths` / :func:`lint_source` / :func:`lint_sources`
directly.
"""

from repro.lint.baseline import Baseline
from repro.lint.config import LintConfig, load_config
from repro.lint.engine import (
    LintResult,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.lint.findings import Finding, Severity
from repro.lint.graph import CallGraph, ModuleSummary, summarize_module
from repro.lint.program_rules import (
    Program,
    ProgramRule,
    all_program_rules,
    program_rule_ids,
)
from repro.lint.rules import Rule, all_rules, rule_ids
from repro.lint.suppressions import META_RULE_ID

__all__ = [
    "Baseline",
    "CallGraph",
    "Finding",
    "LintConfig",
    "LintResult",
    "META_RULE_ID",
    "ModuleSummary",
    "Program",
    "ProgramRule",
    "Rule",
    "Severity",
    "all_program_rules",
    "all_rules",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "load_config",
    "program_rule_ids",
    "rule_ids",
    "summarize_module",
]
