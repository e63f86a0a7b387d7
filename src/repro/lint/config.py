"""iolint configuration.

The defaults encode this repository's determinism contract (see
``docs/ARCHITECTURE.md``); a ``[tool.iolint]`` table in
``pyproject.toml`` can override them where ``tomllib`` is available
(Python >= 3.11 -- older interpreters silently use the defaults, which
keeps the analyzer dependency-free on 3.9).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Tuple


@dataclass(frozen=True)
class LintConfig:
    """Tunable scope knobs for the rule set."""

    #: Path suffixes (posix, relative) exempt from IOL003: the only
    #: modules allowed to touch wall clocks and entropy sources.
    rng_allowlist: Tuple[str, ...] = (
        "repro/sim/rng.py",
        "repro/sim/clock.py",
    )

    #: Basename keywords that put a module in IOL005 "digest scope":
    #: modules producing digests, traces or serialized artifacts, where
    #: ``json.dumps`` must pin key order.  A module importing ``hashlib``
    #: is in scope regardless of its name.
    digest_path_keywords: Tuple[str, ...] = (
        "trace",
        "export",
        "plan",
        "serial",
        "digest",
    )

    #: Path prefixes (posix, relative) where IOL004 treats *any* float
    #: equality as slot math gone wrong.  Outside these, only float
    #: values flowing into slot-named calls are flagged.
    slot_scope_prefixes: Tuple[str, ...] = (
        "src/repro/core/",
        "src/repro/sim/",
    )

    #: Substring marking a callee as a slot-count consumer for IOL004.
    slot_call_marker: str = "slot"

    #: Callees excluded from the IOL004 call check -- ``as_slot_count``
    #: and ``slots_ceil`` ARE the sanctioned integerization boundaries
    #: (their whole job is turning float time into integer slots).
    slot_call_exempt: Tuple[str, ...] = ("as_slot_count", "slots_ceil")

    #: Receiver-name substrings marking a ``.record(...)`` call as a
    #: trace-recorder sink for IOL004: the first argument is an event
    #: time and must be an integer slot, not a float.
    trace_record_markers: Tuple[str, ...] = ("trace", "recorder")

    #: Class-name substrings marking IOL006 "scheduler/pool" classes
    #: whose class attributes must not be shared mutables.
    scheduler_class_markers: Tuple[str, ...] = (
        "Scheduler",
        "Sched",
        "Pool",
        "Queue",
        "Hypervisor",
        "Server",
    )

    #: -- whole-program (v2) knobs ------------------------------------------

    #: Function-name substrings that make a function an IOL007 taint
    #: root even outside a digest-scope module: anything that digests,
    #: exports or canonicalizes artifacts must be entropy-free all the
    #: way down its call tree.
    taint_root_markers: Tuple[str, ...] = (
        "digest",
        "export",
        "serialize",
        "canonical",
    )

    #: Path prefixes (posix, relative) where IOL008 audits numpy int64
    #: arithmetic.  Only the exact-analysis kernels carry the
    #: overflow-soundness obligation.
    overflow_scope_prefixes: Tuple[str, ...] = ("src/repro/analysis/",)

    #: Identifier substrings that mark a value as period/horizon/LCM
    #: typed for the IOL008 provenance lattice.
    overflow_value_markers: Tuple[str, ...] = (
        "period",
        "horizon",
        "lcm",
        "hyper",
        "laxity",
    )

    #: Callee-name substrings that count as an explicit overflow guard:
    #: a function calling any of these has accepted the cap obligation.
    overflow_guard_callees: Tuple[str, ...] = ("lcm_capped", "_capped")

    #: Identifier substrings (case-insensitive) whose mere mention marks
    #: a function as cap-guarded (``GRID_LCM_CAP``, an ``lcm_cap``
    #: parameter, ...).
    overflow_guard_markers: Tuple[str, ...] = ("cap",)

    #: Class-name substrings identifying parallel runners for IOL009.
    runner_class_markers: Tuple[str, ...] = ("ExperimentRunner", "Runner")

    #: Method names on a runner that submit worker functions.
    runner_submit_methods: Tuple[str, ...] = ("map", "starmap", "submit")

    #: Module-level names workers may read even though they are mutable
    #: containers (per-process caches and the like, re-created in each
    #: worker process rather than shared).
    runner_shared_whitelist: Tuple[str, ...] = ()

    #: Where IOL010 finds the engine registry: module and constant name.
    engine_registry_module: str = "repro.analysis.engine"
    engine_registry_name: str = "ENGINES"

    #: Relative-path fragments excluded from analysis entirely.  The
    #: fixture corpus contains deliberate violations and must never be
    #: linted as production code.
    exclude: Tuple[str, ...] = (
        "tests/lint/fixtures",
        "__pycache__",
        ".git",
        ".egg-info",
        ".iolint-cache",
        "build/",
        "dist/",
    )

    #: Root against which relative paths are computed.
    root: str = "."

    def is_excluded(self, rel_path: str) -> bool:
        return any(fragment in rel_path for fragment in self.exclude)

    def in_rng_allowlist(self, rel_path: str) -> bool:
        return any(rel_path.endswith(suffix) for suffix in self.rng_allowlist)

    def in_digest_scope(self, rel_path: str) -> bool:
        basename = rel_path.rsplit("/", 1)[-1]
        return any(word in basename for word in self.digest_path_keywords)

    def in_slot_scope(self, rel_path: str) -> bool:
        return any(rel_path.startswith(p) for p in self.slot_scope_prefixes)

    def in_overflow_scope(self, rel_path: str) -> bool:
        return any(rel_path.startswith(p) for p in self.overflow_scope_prefixes)


def _coerce(value: object) -> object:
    """TOML arrays arrive as lists; the config stores tuples."""
    if isinstance(value, list):
        return tuple(value)
    return value


def load_config(root: Path, pyproject: Optional[Path] = None) -> LintConfig:
    """Config for ``root``, honouring ``[tool.iolint]`` when readable."""
    config = LintConfig(root=str(root))
    candidate = pyproject if pyproject is not None else root / "pyproject.toml"
    if not candidate.is_file():
        return config
    try:
        import tomllib  # Python >= 3.11
    except ImportError:  # pragma: no cover - exercised only on 3.9/3.10
        return config
    try:
        with open(candidate, "rb") as handle:
            data = tomllib.load(handle)
    except (OSError, tomllib.TOMLDecodeError):  # pragma: no cover - defensive
        return config
    table = data.get("tool", {}).get("iolint", {})
    known = {f.name for f in fields(LintConfig)}
    overrides = {
        key: _coerce(value)
        for key, value in table.items()
        if key in known and key != "root"
    }
    return replace(config, **overrides) if overrides else config


__all__ = ["LintConfig", "load_config"]
