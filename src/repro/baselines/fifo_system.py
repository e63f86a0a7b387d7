"""Analytic FIFO-served system model (shared by the three baselines).

All three baseline systems keep the conventional FIFO structure at the
I/O hardware level (Sec. I): requests are served in arrival order,
non-preemptively -- an urgent request waits behind every earlier bulk
transfer (head-of-line blocking), which is exactly the predictability
failure I/O-GUARD removes.

Because FIFO service admits a closed recurrence
(``start = max(server_free, arrival)``), baseline trials run in
O(jobs log jobs) instead of slot-stepping, which keeps the 1000-trial
sweeps of Fig. 7 tractable.  Subclasses supply the per-system hooks:
request/response path delays (software stack + NoC) and per-operation
service inflation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baselines.base import (
    IOVirtSystem,
    ReleasedJob,
    TrialResult,
    WorkloadInstance,
    cycles_to_slots,
)
from repro.noc.latency import NocLatencyModel
from repro.noc.packet import FLIT_BYTES
from repro.sim.rng import RandomSource
from repro.virt.stack import SoftwareStackModel, stack_for


class FifoSystemModel(IOVirtSystem):
    """Base class: FIFO device service + pluggable path overheads."""

    name = "fifo-base"
    #: Which stack model charges the software path costs.
    stack_name = "legacy"
    #: Average hop count of the request path through the NoC.
    request_hops = 5
    #: Average hop count of the response path.
    response_hops = 5
    #: Extra service cycles charged per operation (hardware/backend
    #: virtualization processing).
    service_overhead_cycles = 0
    #: Multiplier applied to the offered NoC load (systems whose traffic
    #: crosses more shared links see higher effective contention).
    noc_load_factor = 1.0
    #: Multiplicative service inflation: fixed part (per-transfer
    #: management executed in software/on shared paths for every slot of
    #: device occupancy) ...
    service_inflation_base = 1.0
    #: ... plus a load-coupled part (cache/arbitration interference
    #: growing with offered load).
    service_inflation_load = 0.0
    #: Additional inflation per extra VM beyond the 4-VM reference group
    #: (per-VM on-chip interference, Obs 4), as a fraction per VM.
    service_inflation_per_vm = 0.0

    def __init__(self, noc_model: Optional[NocLatencyModel] = None):
        self.noc = noc_model or NocLatencyModel()
        self.stack: SoftwareStackModel = stack_for(self.stack_name)

    # -- hooks ---------------------------------------------------------------

    def effective_load(self, workload: WorkloadInstance) -> float:
        """Offered NoC/stack load for delay sampling.

        Scales with the target utilization and the VM count relative to
        the paper's 4-VM reference group: more VMs, more on-chip
        interference (Obs 4).
        """
        vm_count = workload.vm_count
        vm_factor = 1.0 + 0.25 * max(0, vm_count - 4) / 4.0
        return min(0.95, workload.target_utilization * self.noc_load_factor * vm_factor)

    def request_delay_slots(
        self, job: ReleasedJob, load: float, rng: RandomSource,
        workload: WorkloadInstance,
    ) -> float:
        """Software + NoC delay from release to arrival at the device."""
        config = workload.config
        software = self.stack.request_delay(load, rng)
        flits = 1 + (job.task.payload_bytes + FLIT_BYTES - 1) // FLIT_BYTES
        noc = self.noc.sample(self.request_hops, flits, load, rng)
        return cycles_to_slots(software + noc, config)

    def response_delay_slots(
        self, job: ReleasedJob, load: float, rng: RandomSource,
        workload: WorkloadInstance,
    ) -> float:
        """Software + NoC delay from device completion to the app."""
        config = workload.config
        software = self.stack.response_delay(load, rng)
        flits = 1 + (job.task.payload_bytes + FLIT_BYTES - 1) // FLIT_BYTES
        noc = self.noc.sample(self.response_hops, flits, load, rng)
        return cycles_to_slots(software + noc, config)

    def service_inflation(self, workload: WorkloadInstance) -> float:
        """Multiplicative inflation of device occupancy for this system."""
        vm_count = workload.vm_count
        load = min(1.0, workload.target_utilization)
        return (
            self.service_inflation_base
            + self.service_inflation_load * load
            + self.service_inflation_per_vm * max(0, vm_count - 4)
        )

    def service_slots(
        self, job: ReleasedJob, rng: RandomSource, workload: WorkloadInstance
    ) -> float:
        """Device occupancy for one job, in slots."""
        overhead = cycles_to_slots(
            self.service_overhead_cycles, workload.config
        )
        return job.actual_slots * self.service_inflation(workload) + overhead

    def arrival_time(
        self,
        job: ReleasedJob,
        load: float,
        rng: RandomSource,
        workload: WorkloadInstance,
    ) -> float:
        """When the request reaches the I/O subsystem (slots, float)."""
        return job.release_slot + self.request_delay_slots(
            job, load, rng, workload
        )

    # -- trial execution --------------------------------------------------------

    def run_trial(
        self, workload: WorkloadInstance, rng: RandomSource
    ) -> TrialResult:
        result = self._new_result(workload)
        load = self.effective_load(workload)
        horizon = workload.config.horizon_slots

        arrivals: List[Tuple[float, ReleasedJob]] = []
        for job in workload.releases_by_slot():
            arrivals.append(
                (self.arrival_time(job, load, rng, workload), job)
            )
        arrivals.sort(key=lambda pair: pair[0])

        server_free = 0.0
        for arrival, job in arrivals:
            start = max(server_free, arrival)
            completion = start + self.service_slots(job, rng, workload)
            server_free = completion
            finish = completion + self.response_delay_slots(
                job, load, rng, workload
            )
            if job.deadline_slot > horizon:
                # Censored: the observation window ends before the
                # job's verdict is due; excluded from all systems alike.
                continue
            missed = finish > job.deadline_slot
            result.record(job.task.criticality, missed)
            if completion > horizon:
                result.unfinished += 1
            else:
                result.bytes_transferred += job.task.payload_bytes
            response = finish - job.release_slot
            result.response_slots_sum += response
            result.response_slots_max = max(result.response_slots_max, response)
            if (
                workload.config.collect_responses
                and job.task.criticality.counts_for_success
            ):
                result.record_response_sample(job.task.name, response)
        return result
