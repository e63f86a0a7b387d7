"""Response-time bounds under the two-layer scheduler.

The schedulability tests of Sec. IV answer yes/no; a system integrator
also needs *how late* an I/O can be.  For EDF over a supply bound
function the classic bound (Spuri-style, adapted to the periodic
resource model) is:

    R_k = max over busy-window lengths t of  (completion(t) - release(t))

computed here via the standard fixed-point formulation: job J of task
``tau_k`` released at the critical instant completes no later than the
smallest ``f`` with

    sbf(Gamma, f) >= C_k + sum_{j != k} dbf*(tau_j, window)

A simpler, sound (if pessimistic) bound suffices for the library's
purposes: all higher-or-equal-priority demand in the scheduling window
is EDF demand with deadlines at or before ``tau_k``'s, i.e. the
aggregate dbf evaluated at the job's absolute deadline.  The bound is
*exact enough* to be monotone and sound, and the tests validate
soundness against simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.demand import dbf_sporadic
from repro.analysis.supply import sbf_server, sbf_server_inverse
from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet

#: Fixed-point iteration guard.
MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class ResponseTimeBound:
    """WCRT verdict for one task."""

    task_name: str
    #: Sound upper bound on the response time, in slots; None when the
    #: bound diverged past the deadline (task unschedulable).
    wcrt: Optional[int]
    deadline: int

    @property
    def meets_deadline(self) -> bool:
        return self.wcrt is not None and self.wcrt <= self.deadline

    @property
    def margin(self) -> Optional[int]:
        """Slack between the bound and the deadline."""
        if self.wcrt is None:
            return None
        return self.deadline - self.wcrt


def edf_demand_before(tasks: TaskSet, task: IOTask, window: int) -> int:
    """EDF-relevant demand of the *other* tasks within ``window``.

    Under EDF only jobs with absolute deadlines at or before the
    analysed job's deadline can delay it; for a window equal to that
    deadline, their worst-case demand is exactly their dbf over it.
    """
    total = 0
    for other in tasks:
        if other.name == task.name:
            continue
        total += dbf_sporadic(other, window)
    return total


def _window_demand(tasks: TaskSet, task_name: str) -> Tuple[IOTask, int]:
    """The task and the demand its response window must cover: its own
    WCET plus all competing EDF demand in its deadline window."""
    task = tasks[task_name]
    return task, task.wcet + edf_demand_before(tasks, task, task.deadline)


def response_time_bound(
    pi: int, theta: int, tasks: TaskSet, task_name: str
) -> ResponseTimeBound:
    """Sound WCRT bound for one task under EDF on server (pi, theta).

    Finds the smallest ``f`` such that the server's guaranteed supply in
    ``f`` covers the task's own WCET plus all competing EDF demand in
    its deadline window.  Diverging past the deadline yields ``None``
    (consistent with a failed Theorem-3 test at that point).  The
    window comes from the closed-form supply inverse (Eq. 8's inverse);
    :func:`response_time_bound_reference` scans for it.
    """
    task, demand = _window_demand(tasks, task_name)
    # The reference scans f = 0, 1, ... and gives up at the first
    # unsatisfied f past the deadline, so the smallest satisfying
    # window is reported iff it is <= deadline + 1.
    f = sbf_server_inverse(pi, theta, demand)
    wcrt: Optional[int] = f if f <= task.deadline + 1 else None
    return ResponseTimeBound(task_name=task_name, wcrt=wcrt, deadline=task.deadline)


def response_time_bound_reference(
    pi: int, theta: int, tasks: TaskSet, task_name: str
) -> ResponseTimeBound:
    """:func:`response_time_bound` by a scan over ``f = 0, 1, ...``: the
    reference the closed form is tested against."""
    task, demand = _window_demand(tasks, task_name)
    f = 0
    for _ in range(MAX_ITERATIONS):
        if sbf_server(pi, theta, f) >= demand:
            return ResponseTimeBound(
                task_name=task_name, wcrt=f, deadline=task.deadline
            )
        if f > task.deadline:
            return ResponseTimeBound(
                task_name=task_name, wcrt=None, deadline=task.deadline
            )
        f += 1
    raise AssertionError(
        f"response-time iteration for {task_name!r} did not converge"
    )


def response_time_bounds(
    pi: int, theta: int, tasks: TaskSet
) -> Dict[str, ResponseTimeBound]:
    """WCRT bounds for every task in the VM."""
    return {
        task.name: response_time_bound(pi, theta, tasks, task.name)
        for task in tasks
    }


def pchannel_response_bound(task: IOTask) -> ResponseTimeBound:
    """WCRT of a pre-defined task: its table slots all land inside the
    deadline window by construction, so the deadline itself bounds the
    response."""
    return ResponseTimeBound(
        task_name=task.name, wcrt=task.deadline, deadline=task.deadline
    )
