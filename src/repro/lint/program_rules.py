"""Whole-program rules IOL007-IOL009: phase two of the v2 analyzer.

These rules consume the linked :class:`~repro.lint.graph.CallGraph`
instead of a single module's AST, so they can see violations that are
invisible file-locally: entropy three calls below an export entry
point, an unguarded int64 product in a kernel only ever invoked with
astronomical Theorem-4 horizons, a worker function defined in one
module and submitted to the parallel runner from another.

Each rule follows the same discipline as the file-local set: one
invariant, deterministic finding order, and messages that carry the
*evidence* (the call chain, the tainted operands, the captured names)
so a reader can judge the finding without re-running the analyzer.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity
from repro.lint.graph import CallGraph, FunctionSummary, ModuleSummary, RunnerSubmit


class Program:
    """Everything a whole-program rule sees: config, graph, sources."""

    def __init__(
        self,
        config: LintConfig,
        graph: CallGraph,
        sources: Dict[str, str],
    ) -> None:
        self.config = config
        self.graph = graph
        #: rel_path -> split source lines (for finding line text)
        self._lines: Dict[str, List[str]] = {
            rel_path: text.splitlines() for rel_path, text in sources.items()
        }

    def line_text(self, rel_path: str, line: int) -> str:
        lines = self._lines.get(rel_path, [])
        if 1 <= line <= len(lines):
            return lines[line - 1].strip()
        return ""

    def modules(self) -> List[ModuleSummary]:
        """Module summaries in deterministic (path) order."""
        return sorted(
            self.graph.modules.values(), key=lambda s: s.rel_path
        )


class ProgramRule:
    """Base class for inter-procedural rules."""

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    summary: str = ""
    fix_hint: str = ""

    def check_program(self, program: Program) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        program: Program,
        rel_path: str,
        line: int,
        col: int,
        message: str,
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=rel_path,
            line=line,
            col=col + 1,
            message=message,
            fix_hint=self.fix_hint,
            line_text=program.line_text(rel_path, line),
        )


def _short(qualname: str) -> str:
    """Trim the shared package prefix out of chain displays."""
    return qualname[6:] if qualname.startswith("repro.") else qualname


def _chain_text(chain: Sequence[str]) -> str:
    shown = [_short(q) for q in chain]
    if len(shown) > 4:
        shown = [shown[0], "...", shown[-2], shown[-1]]
    return " -> ".join(shown)


class EntropyTaintRule(ProgramRule):
    """IOL007: no ambient entropy reachable from digest/trace/export scope.

    IOL003 polices entropy *call sites* file-locally; this rule closes
    the gap it cannot see: a digest function calling a helper in another
    module that calls ``time.perf_counter()``.  Roots are every function
    defined in a digest-scope module (same keyword set as IOL005) plus
    any function whose name carries a taint-root marker; the call graph
    is then walked breadth-first and every reachable ambient-entropy
    call outside the rng/clock allowlist is flagged, with the shortest
    root-to-sink chain as evidence.
    """

    rule_id = "IOL007"
    severity = Severity.ERROR
    summary = "ambient entropy reachable from digest/trace/export scope"
    fix_hint = (
        "thread times through repro.sim.clock / randomness through "
        "repro.sim.rng, or suppress with a justification if the value is "
        "host-side-only and never reaches an artifact"
    )

    def _roots(self, program: Program) -> List[str]:
        roots: List[str] = []
        markers = tuple(m.lower() for m in program.config.taint_root_markers)
        for summary in program.modules():
            if summary.rel_path.startswith("tests/"):
                continue
            in_scope = program.config.in_digest_scope(summary.rel_path)
            for fn in summary.functions:
                named_root = any(m in fn.name.lower() for m in markers)
                if in_scope or named_root:
                    roots.append(f"{summary.module}.{fn.qualname}")
        return sorted(roots)

    def check_program(self, program: Program) -> Iterator[Finding]:
        graph = program.graph
        parents = graph.reachable_from(self._roots(program))
        reached = sorted(parents)
        for qualname in reached:
            module_name, fn = graph.functions[qualname]
            summary = graph.modules[module_name]
            if program.config.in_rng_allowlist(summary.rel_path):
                continue
            chain = graph.chain_to(parents, qualname)
            for site in sorted(
                fn.entropy_sites, key=lambda s: (s.lineno, s.col)
            ):
                yield self.finding(
                    program,
                    summary.rel_path,
                    site.lineno,
                    site.col,
                    (
                        f"ambient entropy {site.description}() is reachable "
                        f"from digest/trace/export scope: "
                        f"{_chain_text(chain)}"
                    ),
                )


class Int64OverflowRule(ProgramRule):
    """IOL008: tainted int64 products/cumsums need a visible cap check.

    Consumes the provenance lattice precomputed per function (see
    :mod:`repro.lint.provenance`): a product of two period/horizon/LCM
    typed values, or a cumulative sum over one, inside a numpy kernel in
    ``repro.analysis`` is flagged unless the function visibly checks a
    cap (calls ``lcm_capped``, mentions a ``*CAP*`` identifier, or
    raises ``OverflowError`` itself).
    """

    rule_id = "IOL008"
    severity = Severity.ERROR
    summary = "unguarded int64 product/cumsum of period/horizon-typed values"
    fix_hint = (
        "bound the operands first (lcm_capped, GRID_LCM_CAP, "
        "INT64_SAFE_HORIZON) and raise OverflowError past the cap; numpy "
        "int64 wraps silently and a negative demand reads as schedulable"
    )

    def check_program(self, program: Program) -> Iterator[Finding]:
        for summary in program.modules():
            if not program.config.in_overflow_scope(summary.rel_path):
                continue
            if not summary.imports_numpy:
                continue
            for fn in summary.functions:
                if fn.parent_function is not None or fn.overflow_guarded:
                    continue
                for hazard in fn.overflow_hazards:
                    yield self.finding(
                        program,
                        summary.rel_path,
                        hazard.lineno,
                        hazard.col,
                        (
                            f"unguarded int64 {hazard.kind} in "
                            f"'{fn.qualname}': {hazard.detail}; no cap "
                            f"check in scope"
                        ),
                    )


class RunnerClosureRule(ProgramRule):
    """IOL009: parallel-runner workers must not capture mutable state.

    Worker functions handed to ``ExperimentRunner.map``/``starmap`` run
    in separate processes; anything they capture is pickled or silently
    re-imported per process.  A worker that reads a mutable module
    global (outside the shared-read whitelist), writes one, or closes
    over enclosing locals will see *different* state serial vs parallel
    -- exactly the divergence the runner's determinism contract forbids.
    Lambdas are rejected outright: they do not pickle under the spawn
    start method.
    """

    rule_id = "IOL009"
    severity = Severity.ERROR
    summary = "runner worker captures mutable or unpicklable state"
    fix_hint = (
        "make the worker a module-level function taking all inputs as "
        "arguments; share read-only tables via the whitelist "
        "(runner_shared_whitelist) and per-process caches via lru_cache"
    )

    def check_program(self, program: Program) -> Iterator[Finding]:
        for summary in program.modules():
            for fn in summary.functions:
                for submit in sorted(
                    fn.runner_submits, key=lambda s: (s.lineno, s.col)
                ):
                    for finding in self._check_submit(
                        program, summary, fn, submit
                    ):
                        yield finding

    def _check_submit(
        self,
        program: Program,
        summary: ModuleSummary,
        fn: FunctionSummary,
        submit: RunnerSubmit,
    ) -> Iterator[Finding]:
        graph = program.graph
        if submit.fn_ref[0] == "lambda":
            yield self.finding(
                program,
                summary.rel_path,
                submit.lineno,
                submit.col,
                (
                    f"lambda submitted to runner.{submit.method}(); "
                    f"lambdas do not pickle and capture their defining "
                    f"frame -- use a module-level worker function"
                ),
            )
            return
        worker = self._resolve_worker(graph, summary, fn, submit)
        if worker is None:
            return
        worker_module, worker_fn = worker
        worker_summary = graph.modules[worker_module]
        where = f"{_short(worker_module)}.{worker_fn.qualname}"
        if worker_fn.parent_function is not None and worker_fn.free_reads:
            captured = ", ".join(worker_fn.free_reads)
            yield self.finding(
                program,
                summary.rel_path,
                submit.lineno,
                submit.col,
                (
                    f"worker '{where}' is a nested function closing over "
                    f"enclosing locals ({captured}); closures do not "
                    f"pickle -- pass these as arguments"
                ),
            )
        if worker_fn.writes_globals:
            written = ", ".join(worker_fn.writes_globals)
            yield self.finding(
                program,
                summary.rel_path,
                submit.lineno,
                submit.col,
                (
                    f"worker '{where}' mutates module state ({written}); "
                    f"writes from worker processes are lost and "
                    f"order-dependent"
                ),
            )
        mutable_reads = tuple(
            name
            for name in worker_fn.reads_globals
            if name in worker_summary.mutable_globals
            and name not in program.config.runner_shared_whitelist
        )
        if mutable_reads:
            read = ", ".join(mutable_reads)
            yield self.finding(
                program,
                summary.rel_path,
                submit.lineno,
                submit.col,
                (
                    f"worker '{where}' reads mutable module globals "
                    f"({read}) not on the shared-read whitelist; worker "
                    f"processes see a fresh copy, not the parent's state"
                ),
            )

    def _resolve_worker(
        self,
        graph: CallGraph,
        summary: ModuleSummary,
        fn: FunctionSummary,
        submit: RunnerSubmit,
    ) -> Optional[Tuple[str, FunctionSummary]]:
        ref = submit.fn_ref
        if ref[0] == "name":
            # a def nested inside the submitting function shadows
            # module-level symbols
            nested = f"{summary.module}.{fn.qualname}.{ref[1]}"
            if nested in graph.functions:
                return graph.functions[nested]
            resolved = graph.resolve_symbol(summary.module, ref[1])
            if resolved is not None and resolved[0] == "func":
                return graph.functions.get(resolved[1])
            return None
        if ref[0] == "dotted":
            target, _ = graph._resolve_dotted_call(summary, ref[1])
            if target is not None:
                return graph.functions.get(target)
        return None


_PROGRAM_RULES: Tuple[ProgramRule, ...] = (
    EntropyTaintRule(),
    Int64OverflowRule(),
    RunnerClosureRule(),
)


def all_program_rules() -> Tuple[ProgramRule, ...]:
    return _PROGRAM_RULES


def program_rule_ids() -> Tuple[str, ...]:
    return tuple(rule.rule_id for rule in _PROGRAM_RULES)


__all__ = [
    "EntropyTaintRule",
    "Int64OverflowRule",
    "Program",
    "ProgramRule",
    "RunnerClosureRule",
    "all_program_rules",
    "program_rule_ids",
]
