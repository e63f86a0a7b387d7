"""End-to-end system schedulability.

Ties the pieces of Sec. IV together for a whole configuration: split the
task set into P-channel and R-channel shares, build the time slot table
from the pre-defined tasks, dimension servers for the R-channel VMs, and
run the Theorem-2 and Theorem-4 tests.  This is the analytic counterpart
of a full I/O-GUARD simulation run and is what the schedulability
example and the analysis benchmarks drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.gsched_test import GSchedResult
from repro.analysis.lsched_test import LSchedResult, lsched_schedulable
from repro.analysis.servers import ServerDesign, design_servers
from repro.core.timeslot import (
    TableOverflowError,
    TimeSlotTable,
    build_pchannel_table,
    stagger_offsets,
)
from repro.tasks.taskset import TaskSet


@dataclass
class SystemSchedulabilityResult:
    """Full-system analysis verdict."""

    schedulable: bool
    table: Optional[TimeSlotTable]
    design: Optional[ServerDesign]
    local_results: Dict[int, LSchedResult] = field(default_factory=dict)
    global_result: Optional[GSchedResult] = None
    #: Human-readable reason when unschedulable at a structural level
    #: (e.g. P-channel overload) rather than a failed inequality.
    reason: str = ""

    def __bool__(self) -> bool:
        return self.schedulable

    @property
    def failing_t(self) -> Optional[int]:
        """First failing witness across the global and local tests."""
        if self.global_result is not None and self.global_result.failing_t is not None:
            return self.global_result.failing_t
        for vm_id in sorted(self.local_results):
            result = self.local_results[vm_id]
            if result.failing_t is not None:
                return result.failing_t
        return None

    def summary(self) -> Dict[str, object]:
        return {
            "schedulable": self.schedulable,
            "reason": self.reason,
            "table_H": self.table.total_slots if self.table else None,
            "table_F": self.table.free_slots if self.table else None,
            "servers": dict(self.design.servers) if self.design else {},
            "vms_tested": sorted(self.local_results),
        }


def analyze_system(
    taskset: TaskSet,
    *,
    stagger: bool = True,
) -> SystemSchedulabilityResult:
    """Analyze a full task set (already split into P/R-channel kinds).

    Steps:

    1. Stagger pre-defined start times (unless ``stagger=False``) and
       build sigma* (:func:`build_pchannel_table`); a packing failure
       means the P-channel itself is overloaded.
    2. Dimension servers per VM over the ``RUNTIME`` tasks
       (:func:`design_servers`), which embeds the Theorem-2 global test.
    3. Re-run Theorem 4 per VM with the chosen server (recorded per VM
       for reporting).
    """
    predefined = taskset.predefined()
    runtime = taskset.runtime()
    if stagger:
        predefined = stagger_offsets(predefined)
    try:
        table = build_pchannel_table(predefined)
    except TableOverflowError as error:
        return SystemSchedulabilityResult(
            schedulable=False,
            table=None,
            design=None,
            reason=f"P-channel table construction failed: {error}",
        )
    vm_tasksets = runtime.by_vm()
    if not vm_tasksets:
        return SystemSchedulabilityResult(
            schedulable=True,
            table=table,
            design=None,
            reason="no R-channel tasks; P-channel table feasible",
        )
    design = design_servers(table, vm_tasksets)
    local_results: Dict[int, LSchedResult] = {}
    for vm_id, (pi, theta) in design.servers.items():
        local_results[vm_id] = lsched_schedulable(pi, theta, vm_tasksets[vm_id])
    all_local = bool(design.servers) and all(
        result.schedulable for result in local_results.values()
    ) and not design.failures
    global_ok = design.global_result is not None and design.global_result.schedulable
    schedulable = all_local and global_ok
    reason = ""
    if design.failures:
        reason = "; ".join(design.failures.values())
    elif not global_ok:
        reason = "global Theorem-2 test failed"
    elif not all_local:
        failing = [vm for vm, res in local_results.items() if not res.schedulable]
        reason = f"local Theorem-4 test failed for VMs {failing}"
    return SystemSchedulabilityResult(
        schedulable=schedulable,
        table=table,
        design=design,
        local_results=local_results,
        global_result=design.global_result,
        reason=reason,
    )
