"""One workload in a fresh interpreter: ``python bench/worker.py NAME ...``.

``bench/run.py`` starts this script once per measured pass, with the
program's ``src`` on ``PYTHONPATH`` and the ``REPRO_*`` tuning
variables removed, so every pass sees the defaults a user gets and
starts with empty analysis memo caches.  The script prints one JSON
object on its last stdout line.

Without ``--trace-file`` the pass is untraced and runs for
``--seconds`` (and at least the units the output digest covers); with
``--count`` it runs exactly that many units.  With ``--trace-file`` the
layer wrappers of :mod:`layers` are installed first and the trace is
written to that file when the pass ends.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time
from typing import Any, Dict, List, Optional

import inputs
import layers
import stats
from trace import Tracer

#: Output digest coverage: the first units of every pass.
DESIGN_DIGEST_CONFIGS = 300
FIG7_DIGEST_ROUNDS = 2
#: Every untraced design pass runs at least this many configs, and its
#: peak memory is read there, so memory does not grow with host speed.
DESIGN_MIN_CONFIGS = 1200
#: One full cycle of config shapes (the smoke run's size).
DESIGN_CHUNK = len(inputs.DESIGN_SHAPES)

FIG7_UTILIZATIONS = (0.5, 0.7, 0.9)
FIG7_VM_GROUPS = (4, 8)
FIG7_HORIZON = 50_000
SMOKE_FIG7_HORIZON = 2_500


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _keep_running(
    done: int, count: Optional[int], minimum: int, started: float, seconds: float
) -> bool:
    """Run ``count`` units if given; else at least ``minimum``, then
    while a further unit is expected to end before half of it would
    overrun the budget."""
    if count is not None:
        return done < count
    elapsed = time.perf_counter() - started
    return done < minimum or elapsed + 0.5 * elapsed / done < seconds


def run_design(
    seed: int, seconds: float, count: Optional[int], smoke: bool, traced: bool
) -> Dict[str, Any]:
    """Servers-omitted configs through ``build_system`` + ``analyze``.

    Every accepted design is re-checked with the scalar reference
    engine, outside the timed call; a traced pass skips the re-check
    (its untraced twin ran it on the same inputs) so the trace holds
    only the workload's own calls.
    """
    from repro.analysis.cache import cache_stats
    from repro.api import analyze, build_system

    minimum = DESIGN_CHUNK if smoke else DESIGN_MIN_CONFIGS
    covered = DESIGN_CHUNK if smoke else DESIGN_DIGEST_CONFIGS
    rss = 0.0
    digest = hashlib.sha256()
    latencies: List[float] = []
    by_hyperperiod: Dict[int, List[float]] = {}
    search = {key: 0 for key in ("oracle_calls", "pruned_nodes", "nodes_expanded")}
    fast_path_vms = accepted = failed = 0
    errors: List[str] = []
    started = time.perf_counter()
    index = 0
    while _keep_running(index, count, minimum, started, seconds):
        hyperperiod, config = inputs.design_config(seed, index)
        begin = time.perf_counter()
        try:
            system = build_system(config)
            report = analyze(system)
        except Exception as exc:  # a crash is a failed op, not a harness error
            elapsed = time.perf_counter() - begin
            failed += 1
            errors.append(f"config {index}: {type(exc).__name__}: {exc}")
            record = [index, "error", type(exc).__name__]
        else:
            elapsed = time.perf_counter() - begin
            if report.schedulable:
                accepted += 1
                if not traced and not analyze(system, engine="scalar").schedulable:
                    failed += 1
                    errors.append(f"config {index}: accepted design fails the scalar engine")
            if system.synthesis is not None:
                for key in search:
                    search[key] += getattr(system.synthesis.stats, key)
                fast_path_vms += system.synthesis.fast_path_vms
            record = [
                index,
                [[spec.vm_id, spec.pi, spec.theta] for spec in system.servers],
                report.schedulable,
                report.failing_t,
            ]
        if index < covered:
            digest.update((json.dumps(record, sort_keys=True) + "\n").encode())
        latencies.append(elapsed * 1e3)
        by_hyperperiod.setdefault(hyperperiod, []).append(elapsed * 1e3)
        index += 1
        if index == minimum:
            rss = peak_rss_mb()
    wall = time.perf_counter() - started
    caches = cache_stats()
    hits = sum(entry["hits"] for entry in caches.values())
    lookups = hits + sum(entry["misses"] for entry in caches.values())
    return {
        "units": index,
        "ops": index,
        "ops_failed": failed,
        "errors": errors[:10],
        "wall_s": wall,
        "busy_s": sum(latencies) / 1e3,
        "digest": digest.hexdigest(),
        "peak_rss_mb": rss or peak_rss_mb(),
        "metrics": {
            "p50_ms": stats.median(latencies),
        },
        "diag": {
            "designs_per_s": index * 1e3 / sum(latencies),
            "tail_ms": stats.percentile(latencies, 99),
            "accept_ratio": accepted / index,
            "p50_ms_by_h": {
                str(h): stats.median(values) for h, values in sorted(by_hyperperiod.items())
            },
            "search": dict(search, fast_path_vms=fast_path_vms),
            "cache_hit_ratio": hits / lookups if lookups else 0.0,
        },
    }


def run_fig7(
    seed: int, seconds: float, count: Optional[int], smoke: bool, traced: bool
) -> Dict[str, Any]:
    """Rounds of the Fig. 7 sweep; round ``k`` runs the grid at seed + k.

    ``CaseStudyConfig`` seeds trial ``t`` of a cell with ``seed + t``,
    so the first two rounds are exactly a ``trials=2`` sweep.
    """
    from repro.exp.fig7 import CaseStudyConfig, default_systems, render_fig7, run_case_study

    horizon = SMOKE_FIG7_HORIZON if smoke else FIG7_HORIZON
    minimum = 1 if smoke else FIG7_DIGEST_ROUNDS
    trials_per_round = len(FIG7_UTILIZATIONS) * len(FIG7_VM_GROUPS) * len(default_systems())
    digest = hashlib.sha256()
    round_ms: List[float] = []
    failed = 0
    errors: List[str] = []
    started = time.perf_counter()
    while _keep_running(len(round_ms), count, minimum, started, seconds):
        config = CaseStudyConfig(
            utilizations=FIG7_UTILIZATIONS,
            vm_groups=FIG7_VM_GROUPS,
            trials=1,
            horizon_slots=horizon,
            seed=seed + len(round_ms),
            use_env_scale=False,
        )
        begin = time.perf_counter()
        try:
            result = run_case_study(config)
            text = render_fig7(result)
        except Exception as exc:  # a crash fails the round's trials
            failed += trials_per_round
            errors.append(f"round {len(round_ms)}: {type(exc).__name__}: {exc}")
            text = f"error {type(exc).__name__}"
        round_ms.append((time.perf_counter() - begin) * 1e3)
        if len(round_ms) <= minimum:
            digest.update(text.encode() + b"\n")
    wall = time.perf_counter() - started
    rates = [trials_per_round * horizon * 1e3 / ms for ms in round_ms]
    return {
        "units": len(round_ms),
        "ops": trials_per_round * len(round_ms),
        "ops_failed": failed,
        "errors": errors[:10],
        "wall_s": wall,
        "busy_s": sum(round_ms) / 1e3,
        "digest": digest.hexdigest(),
        "metrics": {
            "p50_ms": stats.median(round_ms),
        },
        "diag": {
            "tail_ms": max(round_ms),
            "sim_slots_per_s": stats.median(rates),
            "trials": trials_per_round * len(round_ms),
            "horizon_slots": horizon,
        },
    }


RUNNERS = {"design": run_design, "fig7": run_fig7}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(RUNNERS) + sorted(layers.SERVE_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--count", type=int)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-file")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    if args.workload in layers.SERVE_WORKLOADS:
        import serve_load

        result = serve_load.run(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            work_dir=args.work_dir,
            trace_file=args.trace_file,
        )
    else:
        tracer = None
        if args.trace_file is not None:
            for module in layers.entry_modules(args.workload):
                importlib.import_module(module)
            tracer = Tracer(layers.targets(args.workload))
            tracer.install()
        result = RUNNERS[args.workload](
            args.seed, args.seconds, args.count, args.smoke, tracer is not None
        )
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.trace_file)
        result.setdefault("peak_rss_mb", peak_rss_mb())
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
