"""Command-line entry: regenerate the paper's tables and figures.

Usage::

    python -m repro.exp            # everything (fig7 at reduced scale)
    python -m repro.exp fig6
    python -m repro.exp table1
    python -m repro.exp fig7 [--trials N] [--horizon SLOTS] [--jobs N]
    python -m repro.exp fig8
    python -m repro.exp predictability
    python -m repro.exp isolation
    python -m repro.exp faults [--fault-trace PATH]
    python -m repro.exp acceptance
    python -m repro.exp chains [--trials N] [--horizon SLOTS] [--out DIR]
    python -m repro.exp synth
    python -m repro.exp export --out results/   # CSV/JSON artefacts

Set ``REPRO_SCALE`` (e.g. 0.2 for a smoke run, 5 for a long run) to
scale the fig7 trials/horizon without editing flags.  Set ``REPRO_JOBS``
(or pass ``--jobs``; ``0`` = one worker per CPU) to fan trials out over
worker processes -- results are bit-identical for every worker count,
because all randomness is derived per cell from the experiment seed
(see :mod:`repro.exp.runner`).  The ``export`` subcommand additionally
writes ``timing.json``, a machine-readable wall-clock/cache summary of
the run.

``chains`` and ``synth`` are the subcommands ``all`` does not include.
``chains`` sweeps chain length x utilization, compares analytical
end-to-end bounds against simulated chain latencies, writes
``chains.json``/``chains.csv`` artifacts to ``--out`` and exits 2 when
any simulated instance violates its bound -- CI runs it as a
regression gate.
``synth`` runs the pinned synthesis sweep (one cell per scenario with
the default analysis engine) and exits 2 unless each design passes
scalar re-verification and is at or below the hand-written baselines.
Performance is measured by the standalone harness under ``bench/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.exp.acceptance import render_acceptance, run_acceptance
from repro.exp.export import (
    export_fig7_csv,
    export_fig7_json,
    export_fig8_csv,
    export_predictability_csv,
    export_timing_json,
)
from repro.exp.chains import (
    ChainsSweepConfig,
    export_chains_csv,
    export_chains_json,
    render_chains_sweep,
    run_chains_sweep,
)
from repro.exp.fig6 import render_fig6
from repro.exp.fig7 import CaseStudyConfig, render_fig7, run_case_study
from repro.exp.fig8 import render_fig8
from repro.exp.isolation import (
    render_fault_isolation,
    render_isolation,
    run_fault_isolation,
    run_isolation,
)
from repro.exp.predictability import render_predictability, run_predictability
from repro.exp.runner import ExperimentRunner
from repro.exp.synth import render_synth_sweep, run_synth_sweep
from repro.exp.table1 import render_table1

EXPERIMENTS = [
    "all",
    "fig6",
    "table1",
    "fig7",
    "fig8",
    "predictability",
    "isolation",
    "faults",
    "acceptance",
    "chains",
    "synth",
    "export",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exp",
        description="Regenerate the I/O-GUARD paper's tables and figures.",
    )
    parser.add_argument(
        "experiment", nargs="?", default="all", choices=EXPERIMENTS
    )
    parser.add_argument("--trials", type=int, default=10, help="fig7 trials/cell")
    parser.add_argument(
        "--horizon", type=int, default=50_000, help="fig7 slots per trial"
    )
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the sweeps (default: REPRO_JOBS or 1 "
        "= serial; 0 = one per CPU); any value yields identical results",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="force progress/ETA lines on stderr (default: only on a TTY)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="record per-cell wall time and memoization-kernel hit/miss "
        "deltas into timing.json (cell_seconds / kernel_stats keys)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("results"),
        help="output directory for the export/chains subcommands",
    )
    parser.add_argument(
        "--fault-trace", type=Path, default=None,
        help="write the faults subcommand's fault trace (JSONL) here; "
        "byte-identical for identical --seed (the determinism contract)",
    )
    args = parser.parse_args(argv)

    runner = ExperimentRunner(
        args.jobs,
        progress=True if args.progress else None,
        profile=args.profile,
    )

    if args.experiment in ("all", "fig6"):
        print(render_fig6())
        print()
    if args.experiment in ("all", "table1"):
        print(render_table1())
        print()
    if args.experiment in ("all", "fig8"):
        print(render_fig8())
        print()
    if args.experiment in ("all", "fig7"):
        config = CaseStudyConfig(
            trials=args.trials, horizon_slots=args.horizon, seed=args.seed
        )
        print(render_fig7(run_case_study(config, runner=runner)))
        print()
    if args.experiment in ("all", "predictability"):
        result = run_predictability(
            trials=max(1, args.trials // 3),
            horizon_slots=args.horizon,
            seed=args.seed,
            runner=runner,
        )
        print(render_predictability(result))
        print()
    if args.experiment in ("all", "isolation"):
        print(render_isolation(run_isolation(horizon_slots=args.horizon // 2)))
        print()
    if args.experiment in ("all", "faults"):
        fault_result = run_fault_isolation(
            seed=args.seed, horizon_slots=args.horizon // 6
        )
        print(render_fault_isolation(fault_result))
        print()
        if args.fault_trace is not None:
            args.fault_trace.parent.mkdir(parents=True, exist_ok=True)
            args.fault_trace.write_text(fault_result.fault_trace_jsonl)
            # stderr keeps stdout byte-comparable across runs with
            # different trace paths (the CI determinism check).
            print(f"wrote {args.fault_trace}", file=sys.stderr)
    if args.experiment in ("all", "acceptance"):
        print(render_acceptance(run_acceptance(seed=args.seed, runner=runner)))
    if args.experiment == "chains":
        # Defaults are sized down from the fig7 flags: the sweep builds
        # and simulates many small systems rather than a few big ones.
        sweep_config = ChainsSweepConfig(
            seed=args.seed,
            trials=max(1, args.trials // 5),
            horizon_slots=max(200, args.horizon // 25),
        )
        sweep = run_chains_sweep(sweep_config, runner=runner)
        print(render_chains_sweep(sweep))
        args.out.mkdir(parents=True, exist_ok=True)
        for path in (
            export_chains_json(sweep, args.out / "chains.json"),
            export_chains_csv(sweep, args.out / "chains.csv"),
        ):
            # stderr keeps stdout byte-comparable across output dirs.
            print(f"wrote {path}", file=sys.stderr)
        if sweep.total_violations:
            print(
                f"FAIL: {sweep.total_violations} simulated chain instances "
                "exceeded their analytical bound",
                file=sys.stderr,
            )
            return 2
    if args.experiment == "synth":
        sweep = run_synth_sweep(runner=runner)
        print(render_synth_sweep(sweep))
        if not sweep.ok:
            print(
                "FAIL: synthesis sweep violated its contract "
                "(infeasible design, scalar re-verification failure, "
                "or bandwidth regression)",
                file=sys.stderr,
            )
            return 2
    if args.experiment == "export":
        args.out.mkdir(parents=True, exist_ok=True)
        config = CaseStudyConfig(
            trials=args.trials, horizon_slots=args.horizon, seed=args.seed
        )
        sweep = run_case_study(config, runner=runner)
        written = [
            export_fig7_csv(sweep, args.out / "fig7.csv"),
            export_fig7_json(sweep, args.out / "fig7.json"),
            export_fig8_csv(args.out / "fig8.csv"),
            export_predictability_csv(
                run_predictability(
                    trials=max(1, args.trials // 3),
                    horizon_slots=args.horizon,
                    seed=args.seed,
                    runner=runner,
                ),
                args.out / "predictability.csv",
            ),
        ]
        # Timing last, so it covers every phase mapped above.
        written.append(
            export_timing_json(runner.timing, args.out / "timing.json")
        )
        for path in written:
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
