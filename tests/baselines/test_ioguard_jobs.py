"""The I/O-GUARD trial builds a ``Job`` only for a job the horizon cuts
off.

Both channels take and return jobs as columns (``PChannel.run_until``,
``RChannel.run_until``) and the trial accounts every completion by task
position, so ``IOTask.job`` runs once per run-time job still queued in
an R-channel pool at the horizon and once per P-channel job the horizon
cuts off in flight -- channel state, never a completion.
"""

from unittest import mock

import pytest

import repro.baselines.ioguard_system as ioguard_module
from repro.baselines import IOGuardSystem, TrialConfig, prepare_workload
from repro.core.pchannel import PChannel
from repro.core.rchannel import RChannel
from repro.sim.rng import RandomSource
from repro.tasks import build_case_study_taskset, pad_to_target_utilization
from repro.tasks.task import IOTask


def recording(channel_type):
    class Recording(channel_type):
        created = []

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.created.append(self)

    return Recording


@pytest.mark.parametrize(
    "preload, placement, horizon",
    [
        (0.4, "spread", 9_973),
        (0.7, "spread", 20_000),
        (0.7, "contiguous", 4_001),
        (1.0, "spread", 6_007),
    ],
)
def test_jobs_only_for_runtime_arrivals(preload, placement, horizon):
    rng = RandomSource(7, "wl")
    tasks = pad_to_target_utilization(
        build_case_study_taskset(vm_count=4), 0.8, rng.spawn("pad"), vm_count=4
    )
    workload = prepare_workload(
        tasks, TrialConfig(horizon_slots=horizon), rng.spawn("draws"), 0.8
    )
    system = IOGuardSystem(preload, placement=placement)
    created = []
    build_job = IOTask.job

    def spy(task, release, index):
        job = build_job(task, release, index)
        created.append(job)
        return job

    pchannel_type, rchannel_type = recording(PChannel), recording(RChannel)
    with mock.patch.object(IOTask, "job", spy), \
            mock.patch.object(ioguard_module, "PChannel", pchannel_type), \
            mock.patch.object(ioguard_module, "RChannel", rchannel_type):
        system.run_trial(workload, RandomSource(7, "sys"))
    (pchannel,) = pchannel_type.created
    (rchannel,) = rchannel_type.created

    predefined = {task.name for task in pchannel.tasks}
    pchannel_jobs = [job for job in created if job.task.name in predefined]
    runtime_jobs = [job for job in created if job.task.name not in predefined]
    assert pchannel.jobs_completed > 0
    # The only P-channel jobs built are the ones still in flight.
    in_flight = list(pchannel._in_flight.values())
    assert len(pchannel_jobs) == len(in_flight) <= len(predefined)
    assert all(any(job is flying for flying in in_flight) for job in pchannel_jobs)
    # One run-time job per job left queued at the horizon, and it is
    # the queued one.
    queued = [job for pool in rchannel.pools.values() for job in pool.queue.jobs()]
    assert len(runtime_jobs) == len(queued)
    assert all(any(job is left for left in queued) for job in runtime_jobs)
