"""BS|RT-XEN: software hypervisor with real-time patches (Sec. V).

"BS|RT-XEN was a virtualized system established using a Xen hypervisor
with real-time patches and I/O enhancement.  Both patches and I/O
enhancement were implemented in software."  The modelled costs:

* trap-and-emulate request/response paths (the ``rt-xen`` stack model),
* vCPU budget gating: a guest that exhausted its RTDS budget cannot
  issue I/O until the next replenishment,
* serialised backend (driver-domain) processing per operation,
* higher effective NoC load (requests cross to the driver domain and
  back).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.baselines.base import TrialResult, WorkloadInstance
from repro.baselines.fifo_system import FifoSystemModel
from repro.noc.latency import NocLatencyModel
from repro.sim.rng import RandomSource
from repro.virt.vmm import SoftwareVMM, VCpuServer

#: RTDS-style default vCPU server, in scheduler slots (10 us each):
#: 4 ms period, 2.5 ms budget -- the stock RT-Xen configuration scaled
#: to the 100 MHz platform.
DEFAULT_VCPU_PERIOD_SLOTS = 400
DEFAULT_VCPU_BUDGET_SLOTS = 250


class RTXenSystem(FifoSystemModel):
    """Software VMM path with vCPU budget gating and backend service."""

    name = "rt-xen"
    stack_name = "rt-xen"
    # Guest -> driver domain -> device: the longest path of the four.
    request_hops = 7
    response_hops = 7
    # Backend driver-domain processing per operation.
    service_overhead_cycles = 900
    noc_load_factor = 1.3
    # Software virtualization on the whole data path: every slot of
    # device occupancy is shepherded by the driver domain (copies, grant
    # mappings, event channels), with strong load coupling from VMM
    # scheduling interference and the worst per-VM scaling of the four
    # systems (each guest adds trap/context-switch pressure).
    service_inflation_base = 1.155
    service_inflation_load = 0.15
    service_inflation_per_vm = 0.025

    def __init__(
        self,
        noc_model: Optional[NocLatencyModel] = None,
        vcpu_period_slots: int = DEFAULT_VCPU_PERIOD_SLOTS,
        vcpu_budget_slots: int = DEFAULT_VCPU_BUDGET_SLOTS,
    ):
        super().__init__(noc_model)
        self.vcpu_period_slots = vcpu_period_slots
        self.vcpu_budget_slots = vcpu_budget_slots
        self._vmm: Optional[SoftwareVMM] = None
        #: Per-VM I/O issues within the current vCPU period; an issue
        #: beyond the budget-proportional quota stalls to the next
        #: replenishment.
        self._period_issues: Dict[int, int] = {}
        self._period_index: Dict[int, int] = {}

    def _build_vmm(self, workload: WorkloadInstance) -> SoftwareVMM:
        vm_ids = workload.taskset.vm_ids() or [0]
        # More vCPUs contending shrinks the budget each receives: the
        # RTDS schedule must fit all vCPUs on the physical cores.
        contention = max(1.0, len(vm_ids) / 4.0)
        budget = max(1, int(self.vcpu_budget_slots / contention))
        servers = [
            VCpuServer(
                vm_id=vm_id, budget=budget, period=self.vcpu_period_slots
            )
            for vm_id in vm_ids
        ]
        return SoftwareVMM(servers, backend_cycles_per_op=self.service_overhead_cycles)

    def run_trial(
        self, workload: WorkloadInstance, rng: RandomSource
    ) -> TrialResult:
        self._vmm = self._build_vmm(workload)
        self._period_issues = {}
        self._period_index = {}
        return super().run_trial(workload, rng)

    def issue_slots(self, workload: WorkloadInstance) -> np.ndarray:
        """Release -> (budget gate): the software path delay follows.

        Approximates RTDS budget accounting at I/O granularity: each
        vCPU period admits ``quota`` I/O issues per VM; in release
        order, an issue beyond the quota waits for the next period.
        """
        quota = self._issue_quota(workload)
        period = self.vcpu_period_slots
        period_index, period_issues = self._period_index, self._period_issues
        columns = workload.columns
        rows = columns.by_slot
        vm_ids = np.array([task.vm_id for task in workload.taskset], dtype=np.int64)
        issued = []
        for vm_id, release in zip(
            vm_ids[columns.task[rows]].tolist(), columns.release[rows].tolist()
        ):
            current = release // period
            if period_index.get(vm_id) != current:
                period_index[vm_id] = current
                period_issues[vm_id] = 0
            if period_issues[vm_id] < quota:
                period_issues[vm_id] += 1
                issued.append(release)
            else:
                # Stalled to the next replenishment.
                period_index[vm_id] = current + 1
                period_issues[vm_id] = 1
                issued.append((current + 1) * period)
        return np.array(issued, dtype=np.float64)

    def _issue_quota(self, workload: WorkloadInstance) -> int:
        """I/O issues one vCPU period admits per VM.

        One issue costs ~the guest-side processing of the request; the
        quota is how many fit in the per-period budget, derated by the
        guest's own computational load at this utilization.
        """
        contention = max(1.0, workload.vm_count / 4.0)
        budget = max(1, int(self.vcpu_budget_slots / contention))
        issue_cost_slots = max(
            1.0,
            self.stack.request_path_cycles / workload.config.cycles_per_slot,
        )
        compute_share = min(0.9, workload.target_utilization * 0.5)
        return max(1, int(budget * (1.0 - compute_share) / issue_cost_slots))
