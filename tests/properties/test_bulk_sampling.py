"""Array delay samplers against the per-call scalar draws they replace.

The reference functions below are the scalar formulas the simulator
drew per job before sampling moved to arrays: one ``rng.uniform`` per
jitter term, stack first, then NoC, with the flit count read off each
job's task.  The system samplers take per-job flit counts gathered from
a per-task table instead.  Every array sampler must give the
same floats, bit for bit, and leave the generator in the same state.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    BlueVisorSystem,
    IOGuardSystem,
    LegacySystem,
    RTXenSystem,
    TrialConfig,
    prepare_workload,
)
from repro.baselines.base import task_flits
from repro.noc.latency import MAX_MODEL_LOAD, NocLatencyModel
from repro.noc.packet import FLIT_BYTES
from repro.sim.rng import WORDS_MIN_DRAWS, RandomSource
from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet
from repro.virt.stack import STACK_MODELS

STACKS = sorted(STACK_MODELS)

#: Zero, the NoC clamp (0.95), the stack clamp (1.5) and beyond.
LOADS = st.one_of(
    st.sampled_from([0, 0.0, 0.5, 0.95, 0.97, 1.5, 1.7, 3.0]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)


def reference_path_delay(stack, base, load, rng):
    if load < 0:
        raise ValueError(f"negative load: {load}")
    delay = base + stack.load_sensitivity_cycles * min(load, 1.5)
    if stack.path_jitter > 0:
        delay *= 1.0 + rng.uniform(0, stack.path_jitter)
    if stack.vmm_quantum_cycles > 0:
        delay += rng.uniform(0, stack.vmm_quantum_cycles)
    return delay


def reference_noc_sample(model, hops, flits, load, rng):
    if hops < 0 or flits < 1 or load < 0:
        raise ValueError("invalid sample")
    if hops == 0:
        return 0.0
    rho = min(load, MAX_MODEL_LOAD)
    mean = hops * (model.router_latency + flits)
    mean = mean * (1.0 + model.contention_gain * rho / (1.0 - rho))
    amplitude = model.jitter_amplitude * min(max(load, 0.0), MAX_MODEL_LOAD)
    return mean * max(1.0 + rng.uniform(-amplitude, amplitude), 0.1)


def reference_delay_slots(system, job, base, hops, load, rng, config):
    software = reference_path_delay(system.stack, base, load, rng)
    flits = 1 + (job.task.payload_bytes + FLIT_BYTES - 1) // FLIT_BYTES
    noc = reference_noc_sample(system.noc, hops, flits, load, rng)
    return (software + noc) / config.cycles_per_slot


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    # Either side of the switch from per-draw calls to raw words, and
    # the sizes of a Fig. 7 trial's delay draws.
    n=st.one_of(
        st.integers(0, 2 * WORDS_MIN_DRAWS),
        st.integers(2 * WORDS_MIN_DRAWS, 50_000),
    ),
)
@example(seed=1, n=WORDS_MIN_DRAWS - 1)
@example(seed=1, n=WORDS_MIN_DRAWS)
@example(seed=2**32, n=50_000)
def test_random_array_equals_n_random_calls(seed, n):
    bulk, scalar = RandomSource(seed), RandomSource(seed)
    draws = bulk.random_array(n)
    assert draws.dtype == np.float64
    assert draws.tolist() == [scalar.random() for _ in range(n)]
    assert bulk.getstate() == scalar.getstate()


def test_random_array_rejects_negative_count():
    with pytest.raises(ValueError):
        RandomSource(1).random_array(-1)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(STACKS),
    load=LOADS,
    n=st.integers(0, 40),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_stack_arrays_equal_scalar_draws(name, load, n, seed):
    stack = STACK_MODELS[name]
    for array_form, base in (
        (stack.request_delays, stack.request_path_cycles),
        (stack.response_delays, stack.response_path_cycles),
    ):
        bulk, scalar = RandomSource(seed), RandomSource(seed)
        uniforms = bulk.random_array(n * stack.draws_per_delay).reshape(
            n, stack.draws_per_delay
        )
        expected = [reference_path_delay(stack, base, load, scalar) for _ in range(n)]
        assert array_form(load, uniforms).tolist() == expected
        assert bulk.getstate() == scalar.getstate()
    one_row, reference = RandomSource(seed), RandomSource(seed)
    assert stack.request_delay(load, one_row) == reference_path_delay(
        stack, stack.request_path_cycles, load, reference
    )
    assert stack.response_delay(load, one_row) == reference_path_delay(
        stack, stack.response_path_cycles, load, reference
    )
    assert one_row.getstate() == reference.getstate()


@settings(max_examples=60, deadline=None)
@given(
    hops=st.sampled_from([0, 1, 2, 5, 7]),
    flits=st.lists(st.integers(1, 40), max_size=40),
    load=LOADS,
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_noc_array_equals_scalar_draws(hops, flits, load, seed):
    model = NocLatencyModel()
    draws = model.draws_per_sample(hops)
    bulk, scalar = RandomSource(seed), RandomSource(seed)
    uniforms = bulk.random_array(len(flits) * draws).reshape(len(flits), draws)
    expected = [reference_noc_sample(model, hops, f, load, scalar) for f in flits]
    assert model.samples(hops, np.array(flits, dtype=np.int64), load, uniforms).tolist() == (
        expected
    )
    assert bulk.getstate() == scalar.getstate()
    for f in flits[:3]:
        assert model.sample(hops, f, load, bulk) == reference_noc_sample(
            model, hops, f, load, scalar
        )
    assert bulk.getstate() == scalar.getstate()


def hopless_system():
    """A system whose NoC paths have no hops: no NoC draw per job."""
    system = LegacySystem()
    system.request_hops = system.response_hops = 0
    return system


SYSTEMS = [
    LegacySystem(),
    RTXenSystem(),
    BlueVisorSystem(),
    IOGuardSystem(0.4),
    hopless_system(),
]


def sample_workload(seed):
    tasks = TaskSet(
        [
            IOTask(name=f"t{i}", period=50 * (i + 1), wcet=3, vm_id=i % 2,
                   payload_bytes=8 + 61 * i)
            for i in range(4)
        ]
    )
    return prepare_workload(
        tasks, TrialConfig(horizon_slots=600), RandomSource(seed, "wl"), 0.5
    )


@settings(max_examples=40, deadline=None)
@given(
    system=st.sampled_from(SYSTEMS),
    load=LOADS,
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_system_sampler_interleaves_stack_then_noc_per_job(system, load, seed):
    workload = sample_workload(seed % 1000)
    jobs = workload.releases_by_slot()
    columns = workload.columns
    flits = task_flits(list(workload.taskset))[columns.task[columns.by_slot]]
    config = workload.config
    for bulk_form, one_row, base, hops in (
        (system.request_delays, system._request_delay_slots,
         system.stack.request_path_cycles, system.request_hops),
        (system.response_delays, system._response_delay_slots,
         system.stack.response_path_cycles, system.response_hops),
    ):
        bulk, scalar = RandomSource(seed), RandomSource(seed)
        expected = [
            reference_delay_slots(system, job, base, hops, load, scalar, config)
            for job in jobs
        ]
        assert bulk_form(flits, load, bulk, config).tolist() == expected
        assert bulk.getstate() == scalar.getstate()
        for job in jobs[:3]:
            assert one_row(job, load, bulk, workload) == reference_delay_slots(
                system, job, base, hops, load, scalar, config
            )
        assert bulk.getstate() == scalar.getstate()


@pytest.mark.parametrize("name", STACKS)
def test_bulk_draws_lie_within_both_envelopes(name):
    stack = STACK_MODELS[name]
    rng = RandomSource(11)
    for load in (0.0, 0.5, 0.97, 1.7):
        uniforms = rng.random_array(500 * stack.draws_per_delay).reshape(
            500, stack.draws_per_delay
        )
        requests = stack.request_delays(load, uniforms)
        responses = stack.response_delays(load, uniforms)
        assert requests.min() >= stack.request_path_cycles
        assert requests.max() <= stack.worst_request_delay(load) + 1e-9
        assert responses.min() >= stack.response_path_cycles
        assert responses.max() <= stack.worst_response_delay(load) + 1e-9


@pytest.mark.parametrize("name", STACKS)
def test_negative_load_rejected_everywhere(name):
    stack = STACK_MODELS[name]
    rng = RandomSource(1)
    state = rng.getstate()
    for call in (
        lambda: stack.request_delay(-0.1, rng),
        lambda: stack.response_delay(-0.1, rng),
        lambda: stack.worst_request_delay(-0.1),
        lambda: stack.worst_response_delay(-0.1),
        lambda: stack.request_delays(-0.1, np.zeros((2, stack.draws_per_delay))),
    ):
        with pytest.raises(ValueError, match="negative load"):
            call()
    # The scalar forms check the load before drawing.
    assert rng.getstate() == state
    with pytest.raises(ValueError, match="negative load"):
        LegacySystem().request_delays(np.ones(3, dtype=np.int64), -0.1, rng, TrialConfig())
