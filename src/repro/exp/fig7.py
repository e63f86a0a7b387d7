"""Fig. 7: case-study success ratio and I/O throughput sweep.

Reproduces the experimental protocol of Sec. V-C at reduced scale (the
paper runs 1000 x 100-second executions; a Python reproduction runs
configurable trials x sub-second horizons -- the *shape* of the curves
is the reproduction target, see EXPERIMENTS.md):

* 20 safety + 20 function automotive tasks (~40 % utilization),
* synthetic padding to each target utilization in the sweep,
* groups of 4 and 8 activated VMs,
* systems: BS|Legacy, BS|RT-XEN, BS|BV, I/O-GUARD-40, I/O-GUARD-70,
* identical workload draws across systems within a trial.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines import (
    BlueVisorSystem,
    IOGuardSystem,
    IOVirtSystem,
    LegacySystem,
    RTXenSystem,
    TrialConfig,
    TrialResult,
    prepare_workload,
)
from repro.exp.reporting import render_table
from repro.exp.runner import ExperimentRunner
from repro.metrics.success import SweepPoint, aggregate
from repro.sim.rng import RandomSource
from repro.tasks import build_case_study_taskset, pad_to_target_utilization
from repro.tasks.taskset import TaskSet

#: Default sweep grid, the paper's 40..100 % in 5 % steps.
DEFAULT_UTILIZATIONS = tuple(round(0.40 + 0.05 * i, 2) for i in range(13))


def _env_scale() -> float:
    """REPRO_SCALE environment knob: scales trials and horizon."""
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"REPRO_SCALE must be a number, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"REPRO_SCALE must be positive, got {value}")
    return value


@dataclass
class CaseStudyConfig:
    """Sweep parameters for the Fig. 7 reproduction."""

    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS
    vm_groups: Sequence[int] = (4, 8)
    trials: int = 10
    horizon_slots: int = 50_000
    seed: int = 2021  # the paper's publication year, for the record
    #: Apply the REPRO_SCALE env knob to trials/horizon.
    use_env_scale: bool = True

    def effective(self) -> "CaseStudyConfig":
        """Config after applying the environment scale factor."""
        if not self.use_env_scale:
            return self
        scale = _env_scale()
        if scale == 1.0:
            return self
        return CaseStudyConfig(
            utilizations=self.utilizations,
            vm_groups=self.vm_groups,
            trials=max(1, int(round(self.trials * scale))),
            horizon_slots=max(10_000, int(round(self.horizon_slots * scale))),
            seed=self.seed,
            use_env_scale=False,
        )


def default_systems() -> List[IOVirtSystem]:
    """The five systems of Fig. 7."""
    return [
        LegacySystem(),
        RTXenSystem(),
        BlueVisorSystem(),
        IOGuardSystem(0.4),
        IOGuardSystem(0.7),
    ]


@dataclass
class CaseStudyResult:
    """All aggregated sweep points, keyed by VM group."""

    config: CaseStudyConfig
    #: vm_count -> list of SweepPoint (system x utilization)
    groups: Dict[int, List[SweepPoint]] = field(default_factory=dict)

    def points(self, vm_count: int, system: str) -> List[SweepPoint]:
        return [
            point
            for point in self.groups[vm_count]
            if point.system == system
        ]

    def success_curve(self, vm_count: int, system: str) -> Dict[float, float]:
        return {
            point.target_utilization: point.success_ratio
            for point in self.points(vm_count, system)
        }

    def throughput_curve(self, vm_count: int, system: str) -> Dict[float, float]:
        return {
            point.target_utilization: point.mean_throughput_mbps
            for point in self.points(vm_count, system)
        }


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of the Fig. 7 sweep: a (vm group,
    utilization) point with all its trials, run by every system.

    Each trial draws one workload and runs every system over it --
    identical data input across systems, as in the paper.  Every draw
    is keyed by ``seed + trial`` alone: the stream names that
    :func:`run_sweep_cell` passes (``wl.<group>.<U>``,
    ``sys.<name>.<group>.<U>``) label the generators but do not seed
    them (:class:`~repro.sim.rng.RandomSource` seeds with ``seed``, and
    ``spawn`` hashes only the seed and the child name).  So every cell
    of one trial pads and draws its workload from the same two streams,
    and every system in every cell starts from the same
    ``Random(seed + trial)`` sequence.  Each cell builds its own
    generators, though, so cells share no generator *state*: they can
    run in any process, in any order, and reproduce the serial results
    bit for bit.  Cells are frozen dataclasses of primitives plus the
    system objects, which keeps them picklable for the parallel runner.
    """

    seed: int
    vm_count: int
    utilization: float
    trials: int
    horizon_slots: int
    systems: Tuple[IOVirtSystem, ...]


@lru_cache(maxsize=8)
def _cached_base_taskset(vm_count: int) -> TaskSet:
    """Per-process memo of the deterministic 40-task case-study set.

    ``build_case_study_taskset`` draws no randomness and the padding /
    workload steps never mutate the base set, so sharing one instance
    across cells (as the serial loop always did) is safe.
    """
    return build_case_study_taskset(vm_count=vm_count)


def run_sweep_cell(cell: SweepCell) -> List[SweepPoint]:
    """Execute one sweep cell; one aggregated point per system, in
    ``cell.systems`` order.

    Module-level (not a closure) so the parallel runner can pickle it to
    worker processes; the serial path calls the very same function.
    Only one trial's workload is alive at a time.  Trial ``k`` seeds
    every generator with ``cell.seed + k`` (see :class:`SweepCell`: the
    names do not enter the seed), so other cells replay the same draws.
    """
    base = _cached_base_taskset(cell.vm_count)
    trial_config = TrialConfig(horizon_slots=cell.horizon_slots)
    trials: List[List[TrialResult]] = [[] for _ in cell.systems]
    for trial in range(cell.trials):
        workload_rng = RandomSource(
            cell.seed + trial, f"wl.{cell.vm_count}.{cell.utilization}"
        )
        padded = pad_to_target_utilization(
            base,
            cell.utilization,
            workload_rng.spawn("pad"),
            vm_count=cell.vm_count,
        )
        workload = prepare_workload(
            padded,
            trial_config,
            workload_rng.spawn("draws"),
            target_utilization=cell.utilization,
        )
        for system, results in zip(cell.systems, trials):
            system_rng = RandomSource(
                cell.seed + trial,
                f"sys.{system.name}.{cell.vm_count}.{cell.utilization}",
            )
            results.append(system.run_trial(workload, system_rng))
    return [aggregate(results) for results in trials]


def sweep_cells(
    config: CaseStudyConfig, systems: List[IOVirtSystem]
) -> List[SweepCell]:
    """All cells of the sweep, in the canonical (group, U) order."""
    return [
        SweepCell(
            seed=config.seed,
            vm_count=vm_count,
            utilization=utilization,
            trials=config.trials,
            horizon_slots=config.horizon_slots,
            systems=tuple(systems),
        )
        for vm_count in config.vm_groups
        for utilization in config.utilizations
    ]


def run_case_study(
    config: CaseStudyConfig = None,
    systems: List[IOVirtSystem] = None,
    *,
    jobs: Optional[int] = None,
    runner: Optional[ExperimentRunner] = None,
) -> CaseStudyResult:
    """Run the full sweep: groups x utilizations x systems x trials.

    ``jobs``/``runner`` select the execution backend (see
    :mod:`repro.exp.runner`); results are identical for every worker
    count because each :class:`SweepCell` is seeded independently.
    """
    config = (config or CaseStudyConfig()).effective()
    systems = systems if systems is not None else default_systems()
    runner = runner if runner is not None else ExperimentRunner(jobs)
    cells = sweep_cells(config, systems)
    cell_points = runner.map(run_sweep_cell, cells, label="fig7")
    # Reassemble each group's points in (system, U) order.
    result = CaseStudyResult(config=config)
    per_group = len(config.utilizations)
    for index, vm_count in enumerate(config.vm_groups):
        group = cell_points[index * per_group : (index + 1) * per_group]
        result.groups.setdefault(vm_count, []).extend(
            points[position]
            for position in range(len(systems))
            for points in group
        )
    return result


def render_fig7(result: CaseStudyResult) -> str:
    """Render the Fig. 7(a)/(b)/(c) series as text tables."""
    sections = []
    for vm_count, points in sorted(result.groups.items()):
        rows = [
            (
                point.system,
                point.target_utilization,
                point.success_ratio,
                point.mean_throughput_mbps,
                point.mean_miss_ratio,
            )
            for point in points
        ]
        sections.append(
            render_table(
                ["system", "target U", "success ratio", "throughput Mbps", "miss ratio"],
                rows,
                title=(
                    f"Fig. 7 -- {vm_count}-VM group "
                    f"({result.config.trials} trials x "
                    f"{result.config.horizon_slots} slots)"
                ),
            )
        )
    return "\n\n".join(sections)
