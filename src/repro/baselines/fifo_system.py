"""Analytic FIFO-served system model (shared by the three baselines).

All three baseline systems keep the conventional FIFO structure at the
I/O hardware level (Sec. I): requests are served in arrival order,
non-preemptively -- an urgent request waits behind every earlier bulk
transfer (head-of-line blocking), which is exactly the predictability
failure I/O-GUARD removes.

Because FIFO service admits a closed recurrence
(``start = max(server_free, arrival)``), baseline trials run in
O(jobs log jobs) instead of slot-stepping, which keeps the 1000-trial
sweeps of Fig. 7 tractable.  A trial works on the workload's
task-indexed columns (:attr:`WorkloadInstance.columns`), builds no
per-job object, and draws its path delays in two array passes of the
shared sampler (:meth:`IOVirtSystem.request_delays`, fed per-job flit
counts from a per-task table): every request in release order, then
every response in service order -- the draws, and so the results, of
one scalar draw per job in that order.  Only the recurrence itself
stays a per-job Python loop, over floats.
Subclasses supply the per-system hooks: issue times (the budget gate of
RT-Xen), path parameters (stack model, hop counts, NoC load factor) and
per-operation service inflation.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (
    IOVirtSystem,
    ReleasedJob,
    TrialResult,
    WorkloadInstance,
    cycles_to_slots,
    task_flits,
)
from repro.sim.rng import RandomSource


class FifoSystemModel(IOVirtSystem):
    """Base class: FIFO device service + pluggable path overheads."""

    name = "fifo-base"
    #: Extra service cycles charged per operation (hardware/backend
    #: virtualization processing).
    service_overhead_cycles = 0
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

    def issue_slots(self, workload: WorkloadInstance) -> np.ndarray:
        """When each job's request leaves the guest (slots, float), in
        :meth:`~WorkloadInstance.releases_by_slot` order; the request
        path delay is added on top."""
        columns = workload.columns
        return columns.release[columns.by_slot].astype(np.float64)

    # -- trial execution --------------------------------------------------------

    def run_trial(
        self, workload: WorkloadInstance, rng: RandomSource
    ) -> TrialResult:
        result = self._new_result(workload)
        config = workload.config
        horizon = config.horizon_slots
        load = self.effective_load(workload)
        inflation = self.service_inflation(workload)
        overhead = cycles_to_slots(self.service_overhead_cycles, config)
        tasks = list(workload.taskset)
        columns = workload.columns

        # Request delays are drawn in release order, response delays in
        # service order: every request draw precedes every response draw.
        flits = task_flits(tasks)[columns.task[columns.by_slot]]
        arrivals = self.issue_slots(workload) + self.request_delays(
            flits, load, rng, config
        )
        order = np.argsort(arrivals, kind="stable")
        responses = self.response_delays(flits[order], load, rng, config)
        served = columns.by_slot[order]

        # The FIFO recurrence stays a scalar loop: a cumulative numpy
        # form would round differently.
        completions = []
        append = completions.append
        server_free = 0.0
        for service, arrival in zip(
            (columns.actual[served] * inflation + overhead).tolist(),
            arrivals[order].tolist(),
        ):
            if arrival > server_free:
                server_free = arrival
            server_free += service
            append(server_free)
        completion = np.array(completions, dtype=np.float64)
        finish = completion + responses

        task_index = columns.task[served]
        releases = columns.release[served]
        deadlines = releases + np.array(
            [task.deadline for task in tasks], dtype=np.int64
        )[task_index]
        # Censored: jobs whose verdict is due after the observation
        # window ends are excluded from all systems alike.  A counted job
        # still in service at the horizon is unfinished and moved no
        # bytes.
        counted = deadlines <= horizon
        transferred = completion[counted] <= horizon
        result.unfinished += int(np.count_nonzero(~transferred))
        result.record_batch(
            tasks,
            task_index[counted],
            finish[counted] > deadlines[counted],
            finish[counted] - releases[counted],
            transferred=transferred,
            collect=config.collect_responses,
        )
        return result
