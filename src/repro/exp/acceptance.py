"""Acceptance-ratio experiment: the classic schedulability-test figure.

For each utilization level, draw many random task sets and report the
fraction each test admits under a fixed server -- comparing:

* **theorem4** -- the paper's pseudo-polynomial exact-over-sbf test,
* **linear** -- the sufficient test built on the proof's linear supply
  bound (cheaper, strictly more pessimistic),
* **bandwidth** -- the naive necessary condition ``U <= Theta/Pi``
  (an upper envelope no sound test can exceed).

Expected shape: bandwidth >= theorem4 >= linear at every utilization,
with theorem4 tracking bandwidth closely at low utilization and the
linear test falling away first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.batched import lsched_schedulable_batch
from repro.analysis.linear_test import lsched_schedulable_linear
from repro.exp.reporting import render_table
from repro.exp.runner import ExperimentRunner
from repro.tasks.generators import generate_random_taskset


@dataclass
class AcceptancePoint:
    """Acceptance ratios of all tests at one utilization level."""

    utilization: float
    samples: int
    ratios: Dict[str, float]


@dataclass(frozen=True)
class AcceptanceCell:
    """One utilization level of the sweep: an independent, picklable unit.

    Task-set draws are keyed by ``seed + sample index`` and a name
    encoding the cell's utilization, exactly as in the serial loop, so
    parallel execution reproduces serial ratios bit for bit.  The
    cell's whole column of task sets goes to one
    :func:`~repro.analysis.batched.lsched_schedulable_batch` call.
    """

    pi: int
    theta: int
    utilization: float
    samples: int
    task_count: int
    seed: int
    period_min: int
    period_max: int
    implicit_deadlines: bool


def run_acceptance_cell(cell: AcceptanceCell) -> AcceptancePoint:
    """Evaluate all three tests over one utilization level's samples."""
    bandwidth = cell.theta / cell.pi
    counts = {"theorem4": 0, "linear": 0, "bandwidth": 0}
    tasksets = [
        generate_random_taskset(
            cell.seed + index,
            task_count=cell.task_count,
            total_utilization=cell.utilization,
            period_min=cell.period_min,
            period_max=cell.period_max,
            implicit_deadlines=cell.implicit_deadlines,
            name=f"acc.u{cell.utilization}.s{index}",
        )
        for index in range(cell.samples)
    ]
    verdicts = lsched_schedulable_batch(
        [(cell.pi, cell.theta, tasks) for tasks in tasksets]
    )
    for tasks, verdict in zip(tasksets, verdicts):
        if tasks.utilization <= bandwidth:
            counts["bandwidth"] += 1
        if verdict.schedulable:
            counts["theorem4"] += 1
        if lsched_schedulable_linear(cell.pi, cell.theta, tasks).schedulable:
            counts["linear"] += 1
    return AcceptancePoint(
        utilization=cell.utilization,
        samples=cell.samples,
        ratios={name: count / cell.samples for name, count in counts.items()},
    )


@dataclass
class AcceptanceResult:
    server: Tuple[int, int]
    points: List[AcceptancePoint]

    def curve(self, test: str) -> Dict[float, float]:
        return {p.utilization: p.ratios[test] for p in self.points}


def run_acceptance(
    *,
    pi: int = 20,
    theta: int = 14,
    utilizations: Sequence[float] = (0.3, 0.4, 0.5, 0.6, 0.65, 0.7),
    samples: int = 50,
    task_count: int = 5,
    seed: int = 2021,
    period_min: int = 40,
    period_max: int = 400,
    implicit_deadlines: bool = True,
    jobs: Optional[int] = None,
    runner: Optional[ExperimentRunner] = None,
) -> AcceptanceResult:
    """Sweep utilization; return acceptance ratios per test.

    Utilization levels fan out over the :mod:`repro.exp.runner` backend
    when ``jobs``/``runner`` ask for parallelism; each level's draws are
    independently seeded, so the ratios never depend on worker count.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    runner = runner if runner is not None else ExperimentRunner(jobs)
    cells = [
        AcceptanceCell(
            pi=pi,
            theta=theta,
            utilization=utilization,
            samples=samples,
            task_count=task_count,
            seed=seed,
            period_min=period_min,
            period_max=period_max,
            implicit_deadlines=implicit_deadlines,
        )
        for utilization in utilizations
    ]
    points = runner.map(run_acceptance_cell, cells, label="acceptance")
    return AcceptanceResult(server=(pi, theta), points=points)


def render_acceptance(result: AcceptanceResult) -> str:
    rows = [
        (
            point.utilization,
            point.ratios["bandwidth"],
            point.ratios["theorem4"],
            point.ratios["linear"],
        )
        for point in result.points
    ]
    pi, theta = result.server
    return render_table(
        ["utilization", "bandwidth bound", "Theorem 4", "linear sufficient"],
        rows,
        title=(
            f"Acceptance ratio under server (Pi={pi}, Theta={theta}), "
            f"{result.points[0].samples if result.points else 0} sets/point"
        ),
    )
