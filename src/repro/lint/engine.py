"""Analysis driver: two-phase whole-program engine.

Phase one is *per-file* and embarrassingly parallel: parse, run the
file-local rules (IOL001-IOL006), collect suppressions, and extract the
:class:`~repro.lint.graph.ModuleSummary` the whole-program rules need.
Each file's phase-one output is a picklable :class:`FileRecord`, which
buys two things for free:

* **Caching** -- records are stored under a key derived from the file
  content hash, the config digest and the engine schema version, so an
  unchanged file is never re-analyzed (``--jobs``/CI reuse the same
  ``.iolint-cache`` directory).
* **Parallelism** -- ``--jobs N`` fans phase one out over a process
  pool.  Results are reassembled in submission order and all later
  sorting is by (path, line, col, rule), so parallel output is
  byte-identical to serial output.

Phase two is *whole-program* and serial: link the summaries into a
:class:`~repro.lint.graph.CallGraph` and run IOL007-IOL009 over it.
Program findings are routed back through each file's stored suppression
map, merged with the file-local findings, renumbered for fingerprint
stability and baselined exactly like v1 findings.
"""

# iolint: disable-file=IOL003 -- analyzer self-profiling; wall-clock feeds
# the --stats/--profile display only, never findings or artifacts

from __future__ import annotations

import ast
import hashlib
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.baseline import Baseline
from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity
from repro.lint.graph import CallGraph, ModuleSummary, summarize_module
from repro.lint.program_rules import Program, ProgramRule, all_program_rules
from repro.lint.rules import ModuleContext, Rule, all_rules
from repro.lint.suppressions import (
    META_RULE_ID,
    SuppressionMap,
    collect_suppressions,
)

#: Bump when FileRecord layout or rule semantics change; invalidates
#: every cached record.
CACHE_SCHEMA = 3

DEFAULT_CACHE_DIR = ".iolint-cache"


@dataclass
class LintResult:
    """Outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Phase wall-clock seconds: parse / file_rules / graph_build /
    #: program_rules (``--profile``).
    timings: Dict[str, float] = field(default_factory=dict)
    #: Per-rule wall-clock seconds (``--stats``); cached files
    #: contribute no rule time.
    rule_timings: Dict[str, float] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    #: The linked phase-two graph (for self-checks and tooling).
    graph: Optional[CallGraph] = None

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if f.active]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def baselined(self) -> List[Finding]:
        return [f for f in self.findings if f.baselined]

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-rule counts: ``{rule: {active, suppressed, baselined}}``."""
        table: Dict[str, Dict[str, int]] = {}
        for finding in self.findings:
            row = table.setdefault(
                finding.rule_id, {"active": 0, "suppressed": 0, "baselined": 0}
            )
            if finding.suppressed:
                row["suppressed"] += 1
            elif finding.baselined:
                row["baselined"] += 1
            else:
                row["active"] += 1
        return dict(sorted(table.items()))


@dataclass
class FileRecord:
    """Phase-one output for one file; the unit of caching and fan-out."""

    rel_path: str
    findings: List[Finding] = field(default_factory=list)
    summary: Optional[ModuleSummary] = None
    suppressions: Optional[SuppressionMap] = None
    parse_seconds: float = 0.0
    rules_seconds: float = 0.0
    rule_seconds: Dict[str, float] = field(default_factory=dict)
    source: str = ""
    from_cache: bool = False


def iter_python_files(
    paths: Sequence[str], config: LintConfig
) -> Iterable[Path]:
    """Every non-excluded ``.py`` file under ``paths``, sorted."""
    root = Path(config.root)
    collected: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            collected.extend(path.rglob("*.py"))
        elif path.suffix == ".py":
            collected.append(path)
    unique = sorted(set(collected))
    for path in unique:
        if not config.is_excluded(_rel_path(path, root)):
            yield path


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_source(
    source: str,
    rel_path: str,
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one in-memory module with the file-local rules (v1 surface).

    Returns all findings with suppression state resolved (baseline and
    the whole-program rules are file-set concerns -- see
    :func:`lint_paths` / :func:`lint_sources`).
    """
    cfg = config if config is not None else LintConfig()
    record = _analyze_source(source, rel_path, cfg, rules)
    findings = list(record.findings)
    _assign_occurrences(findings)
    findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return findings


def _analyze_source(
    source: str,
    rel_path: str,
    config: LintConfig,
    rules: Optional[Sequence[Rule]] = None,
) -> FileRecord:
    """Phase one for one in-memory module."""
    record = FileRecord(rel_path=rel_path, source=source)
    active_rules = rules if rules is not None else all_rules()

    started = time.perf_counter()
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as exc:
        record.findings.append(
            Finding(
                rule_id=META_RULE_ID,
                severity=Severity.ERROR,
                path=rel_path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"file does not parse: {exc.msg}",
                fix_hint="fix the syntax error; unparseable files are unanalyzable",
            )
        )
        record.parse_seconds = time.perf_counter() - started
        return record
    record.parse_seconds = time.perf_counter() - started

    suppressions = collect_suppressions(rel_path, source)
    record.suppressions = suppressions
    ctx = ModuleContext.build(rel_path, source, tree, config)

    record.findings.extend(suppressions.malformed)
    rules_started = time.perf_counter()
    for rule in active_rules:
        rule_started = time.perf_counter()
        for finding in rule.check(ctx):
            hit, why = suppressions.lookup(finding.line, finding.rule_id)
            if hit:
                finding.suppressed = True
                finding.justification = why
            record.findings.append(finding)
        elapsed = time.perf_counter() - rule_started
        record.rule_seconds[rule.rule_id] = (
            record.rule_seconds.get(rule.rule_id, 0.0) + elapsed
        )
    record.rules_seconds = time.perf_counter() - rules_started

    graph_started = time.perf_counter()
    record.summary = summarize_module(rel_path, tree, config)
    record.rule_seconds["graph-extract"] = time.perf_counter() - graph_started
    return record


def _assign_occurrences(findings: List[Finding]) -> None:
    """Number repeated (rule, line-text) pairs so fingerprints stay unique."""
    counters: Dict[Tuple[str, str], int] = {}
    for finding in sorted(findings, key=lambda f: (f.line, f.col, f.rule_id)):
        key = (finding.rule_id, finding.line_text)
        finding.occurrence = counters.get(key, 0)
        counters[key] = finding.occurrence + 1


# -- phase-one cache ---------------------------------------------------------


def _package_digest() -> str:
    """Content hash of the analyzer itself.

    Folding this into the cache key means editing any rule invalidates
    every cached record automatically -- no stale findings after a
    rules change, no manual schema bumps during development.
    """
    global _PACKAGE_DIGEST
    if _PACKAGE_DIGEST is None:
        digest = hashlib.sha256()
        for path in sorted(Path(__file__).parent.glob("*.py")):
            digest.update(path.name.encode("utf-8"))
            try:
                digest.update(path.read_bytes())
            except OSError:  # pragma: no cover - defensive
                pass
        _PACKAGE_DIGEST = digest.hexdigest()[:16]
    return _PACKAGE_DIGEST


_PACKAGE_DIGEST: Optional[str] = None


def _config_digest(config: LintConfig) -> str:
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]


def _cache_key(rel_path: str, source: str, config: LintConfig) -> str:
    payload = "\x00".join(
        (
            str(CACHE_SCHEMA),
            _package_digest(),
            _config_digest(config),
            rel_path,
            hashlib.sha256(source.encode("utf-8")).hexdigest(),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cache_load(cache_dir: str, key: str) -> Optional[FileRecord]:
    path = Path(cache_dir) / f"{key}.pkl"
    try:
        with open(path, "rb") as handle:
            record = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        return None
    if not isinstance(record, FileRecord):
        return None
    return record


def _cache_store(cache_dir: str, key: str, record: FileRecord) -> None:
    directory = Path(cache_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp = directory / f".{key}.{os.getpid()}.tmp"
        with open(tmp, "wb") as handle:
            pickle.dump(record, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, directory / f"{key}.pkl")
    except OSError:  # pragma: no cover - cache is best-effort
        pass


def _phase1_worker(
    payload: Tuple[str, str, LintConfig, Optional[str]],
) -> FileRecord:
    """Read, (maybe) cache-hit, analyze one file.  Process-pool safe."""
    abs_path, rel_path, config, cache_dir = payload
    try:
        source = Path(abs_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        record = FileRecord(rel_path=rel_path)
        record.findings.append(
            Finding(
                rule_id=META_RULE_ID,
                severity=Severity.ERROR,
                path=rel_path,
                line=1,
                col=1,
                message=f"cannot read file: {exc}",
            )
        )
        return record

    key = ""
    if cache_dir is not None:
        key = _cache_key(rel_path, source, config)
        cached = _cache_load(cache_dir, key)
        if cached is not None:
            cached.source = source
            cached.from_cache = True
            cached.parse_seconds = 0.0
            cached.rules_seconds = 0.0
            cached.rule_seconds = {}
            return cached

    record = _analyze_source(source, rel_path, config)
    if cache_dir is not None:
        _cache_store(cache_dir, key, record)
    return record


# -- phase two ---------------------------------------------------------------


def _run_program_phase(
    records: Sequence[FileRecord],
    config: LintConfig,
    program_rules: Sequence[ProgramRule],
    result: LintResult,
) -> Dict[str, List[Finding]]:
    """Link the graph, run IOL007-IOL009, route through suppressions."""
    graph_started = time.perf_counter()
    summaries = [r.summary for r in records if r.summary is not None]
    graph = CallGraph.build(summaries, config)
    sources = {r.rel_path: r.source for r in records}
    program = Program(config, graph, sources)
    result.graph = graph
    result.timings["graph_build"] = time.perf_counter() - graph_started

    by_path: Dict[str, FileRecord] = {r.rel_path: r for r in records}
    extra: Dict[str, List[Finding]] = {}
    phase_started = time.perf_counter()
    for rule in program_rules:
        rule_started = time.perf_counter()
        for finding in rule.check_program(program):
            record = by_path.get(finding.path)
            if record is None:
                continue
            if record.suppressions is not None:
                hit, why = record.suppressions.lookup(
                    finding.line, finding.rule_id
                )
                if hit:
                    finding.suppressed = True
                    finding.justification = why
            extra.setdefault(finding.path, []).append(finding)
        result.rule_timings[rule.rule_id] = (
            result.rule_timings.get(rule.rule_id, 0.0)
            + time.perf_counter()
            - rule_started
        )
    result.timings["program_rules"] = time.perf_counter() - phase_started
    return extra


def _finalize(
    records: Sequence[FileRecord],
    extra: Dict[str, List[Finding]],
    baseline: Optional[Baseline],
    result: LintResult,
) -> None:
    """Merge, renumber, baseline and sort -- identical serial or parallel."""
    for record in records:
        merged = list(record.findings) + extra.get(record.rel_path, [])
        _assign_occurrences(merged)
        if baseline is not None:
            for finding in merged:
                if not finding.suppressed and baseline.contains(finding):
                    finding.baselined = True
        result.findings.extend(merged)
        result.files_checked += 1
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))


def resolve_jobs(jobs: Optional[int]) -> int:
    """``0`` means one worker per CPU; ``None``/negative means serial."""
    if jobs is None or jobs < 0:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def lint_paths(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    baseline: Optional[Baseline] = None,
    rules: Optional[Sequence[Rule]] = None,
    *,
    program_rules: Optional[Sequence[ProgramRule]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> LintResult:
    """Lint every Python file under ``paths``; the importable API.

    ``rules``/``program_rules`` default to the full shipped rule set;
    passing an explicit ``rules`` sequence forces serial, uncached
    analysis (custom rule objects are not assumed picklable).
    ``cache_dir`` enables the phase-one record cache; ``jobs`` > 1 fans
    phase one out over a process pool.  Output is byte-identical across
    all of these modes.
    """
    cfg = config if config is not None else LintConfig()
    root = Path(cfg.root)
    result = LintResult()
    worker_count = resolve_jobs(jobs)
    if rules is not None:
        worker_count = 1
        cache_dir = None

    files = list(iter_python_files(paths, cfg))
    payloads = [
        (str(path), _rel_path(path, root), cfg, cache_dir) for path in files
    ]

    phase1_started = time.perf_counter()
    records: List[FileRecord]
    if worker_count > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=worker_count) as pool:
            # executor.map preserves submission order: determinism does
            # not depend on worker completion order
            records = list(pool.map(_phase1_worker, payloads, chunksize=8))
    elif rules is not None:
        records = []
        for abs_path, rel, _cfg, _cache in payloads:
            try:
                source = Path(abs_path).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                record = FileRecord(rel_path=rel)
                record.findings.append(
                    Finding(
                        rule_id=META_RULE_ID,
                        severity=Severity.ERROR,
                        path=rel,
                        line=1,
                        col=1,
                        message=f"cannot read file: {exc}",
                    )
                )
                records.append(record)
                continue
            records.append(_analyze_source(source, rel, cfg, rules))
    else:
        records = [_phase1_worker(payload) for payload in payloads]

    result.timings["phase1"] = time.perf_counter() - phase1_started
    for record in records:
        if record.from_cache:
            result.cache_hits += 1
        else:
            result.cache_misses += 1
        result.timings["parse"] = (
            result.timings.get("parse", 0.0) + record.parse_seconds
        )
        result.timings["file_rules"] = (
            result.timings.get("file_rules", 0.0) + record.rules_seconds
        )
        for rule_id, seconds in record.rule_seconds.items():
            if rule_id == "graph-extract":
                result.timings["graph_extract"] = (
                    result.timings.get("graph_extract", 0.0) + seconds
                )
            else:
                result.rule_timings[rule_id] = (
                    result.rule_timings.get(rule_id, 0.0) + seconds
                )

    active_program_rules = (
        program_rules if program_rules is not None else all_program_rules()
    )
    extra = _run_program_phase(records, cfg, active_program_rules, result)
    _finalize(records, extra, baseline, result)
    return result


def lint_sources(
    files: Dict[str, str],
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
    program_rules: Optional[Sequence[ProgramRule]] = None,
) -> List[Finding]:
    """Run the full two-phase analysis over an in-memory project.

    ``files`` maps repo-relative posix paths to source text.  This is
    the test-facing entry point for the whole-program rules: fixtures
    can assemble a multi-module project without touching disk.
    """
    cfg = config if config is not None else LintConfig()
    result = LintResult()
    records = [
        _analyze_source(source, rel_path, cfg, rules)
        for rel_path, source in sorted(files.items())
    ]
    active_program_rules = (
        program_rules if program_rules is not None else all_program_rules()
    )
    extra = _run_program_phase(records, cfg, active_program_rules, result)
    _finalize(records, extra, None, result)
    return result.findings


__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "FileRecord",
    "LintResult",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "resolve_jobs",
]
