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

from typing import Dict, List, Optional

import numpy as np

from repro.baselines.base import ReleasedJob, TrialResult, WorkloadInstance
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

    def issue_slots(
        self, jobs: List[ReleasedJob], workload: WorkloadInstance
    ) -> np.ndarray:
        """Release -> (budget gate): the software path delay follows."""
        quota = self._issue_quota(workload)
        return np.fromiter(
            (self._budget_gate(job, quota) for job in jobs),
            dtype=np.float64,
            count=len(jobs),
        )

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

    def _budget_gate(self, job: ReleasedJob, quota: int) -> float:
        """Earliest slot the guest's vCPU can issue the request.

        Approximates RTDS budget accounting at I/O granularity: each
        period admits ``quota`` I/O issues per VM; issues beyond the
        quota wait for the next period.  Call in release order.
        """
        vm_id = job.task.vm_id
        period = self.vcpu_period_slots
        current_period = job.release_slot // period
        if self._period_index.get(vm_id) != current_period:
            self._period_index[vm_id] = current_period
            self._period_issues[vm_id] = 0
        if self._period_issues[vm_id] < quota:
            self._period_issues[vm_id] += 1
            return float(job.release_slot)
        # Stalled to the next replenishment.
        self._period_index[vm_id] = current_period + 1
        self._period_issues[vm_id] = 1
        return float((current_period + 1) * period)
