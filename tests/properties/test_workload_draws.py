"""``prepare_workload``'s bulk draws against one scalar call per draw.

``prepare_workload`` reads each task's stream as raw 32-bit words and
parses them as CPython's ``randint`` and ``uniform`` would.
``per_job_workload`` below is the straightforward form, one
``randint``/``uniform`` call per job; it lives here, test-only, as the
oracle.  The columns must be equal for every jitter cap -- 0 (no jitter
draw), 1, ``2**k - 1`` (no rejection), other caps (rejections) and caps
wider than 32 bits (multi-word attempts) -- with phases on and off and
with offsets past the horizon.  Running on every interpreter CI uses
pins the parsing to each one's ``random`` module.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import TrialConfig, prepare_workload
from repro.baselines.base import ReleasedJob, WorkloadInstance, _job_draws
from repro.sim.rng import RandomSource, unit_floats
from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet

#: Jitter caps: none, one, all-accepting ``2**k - 1``, rejecting
#: non-powers of two, a power of two, and caps of 33 and 61 bits.
CAPS = (0, 1, 3, 31, 2, 5, 6, 11, 100, 1_000, 64, 2**32 - 1, 2**32, 2**33 + 5, 2**60 + 7)


def per_job_workload(taskset, config, rng, target_utilization=0.0):
    """The oracle: one ``randint`` per phase and jitter and one
    ``uniform`` per execution fraction, job by job."""
    releases = []
    for task in taskset:
        task_rng = rng.spawn(f"rel.{task.name}")
        jitter_cap = int(task.period * config.release_jitter_fraction)
        phase = (
            task_rng.randint(0, task.period - 1)
            if config.randomize_phases and task.period > 1
            else 0
        )
        index = 0
        while True:
            nominal = task.offset + phase + index * task.period
            if nominal >= config.horizon_slots:
                break
            jitter = task_rng.randint(0, jitter_cap) if jitter_cap > 0 else 0
            actual = max(
                1,
                int(
                    round(
                        task.wcet
                        * task_rng.uniform(
                            config.exec_fraction_min, config.exec_fraction_max
                        )
                    )
                ),
            )
            releases.append(
                ReleasedJob(
                    task=task,
                    index=index,
                    release_slot=nominal + jitter,
                    actual_slots=min(actual, task.wcet),
                )
            )
            index += 1
    return WorkloadInstance.from_releases(taskset, config, releases, target_utilization)


def assert_same_columns(taskset, config, seed):
    drawn = prepare_workload(taskset, config, RandomSource(seed, "wl"), 0.5)
    expected = per_job_workload(taskset, config, RandomSource(seed, "wl"), 0.5)
    for name, column, oracle in zip(expected.columns._fields, drawn.columns, expected.columns):
        assert column.dtype == np.int64, name
        assert column.tolist() == oracle.tolist(), name


@st.composite
def tasksets(draw):
    """Tasks whose jitter cap is ``int(period * 0.5)`` = a drawn cap,
    each with up to ~40 jobs below the horizon (an offset shortens a
    long-period task's window) or an offset past it."""
    horizon = draw(st.integers(min_value=1, max_value=2**40))
    tasks = []
    for number in range(draw(st.integers(min_value=1, max_value=5))):
        cap = draw(st.sampled_from(CAPS))
        period = max(1, 2 * cap + draw(st.integers(min_value=0, max_value=1)))
        wcet = draw(st.integers(min_value=1, max_value=min(period, 10_000)))
        if draw(st.booleans()):
            offset = horizon + draw(st.integers(min_value=0, max_value=period))
        else:
            jobs = draw(st.integers(min_value=0, max_value=40))
            offset = max(0, horizon - jobs * period)
        tasks.append(
            IOTask(name=f"t{number}", period=period, wcet=wcet, offset=offset)
        )
    return TaskSet(tasks), horizon


@settings(max_examples=150, deadline=None)
@given(
    drawn=tasksets(),
    phases=st.booleans(),
    fractions=st.sampled_from([(0.85, 1.0), (0.5, 0.5), (0.01, 1.0)]),
    seed=st.integers(min_value=0, max_value=2**32),
)
# Every cap at once, phases on, on the case-study fractions.
@example(
    drawn=(
        TaskSet(
            [
                IOTask(name=f"c{cap}", period=max(1, 2 * cap), wcet=1,
                       offset=max(0, 2**40 - 30 * max(1, 2 * cap)))
                for cap in CAPS
            ]
        ),
        2**40,
    ),
    phases=True,
    fractions=(0.85, 1.0),
    seed=2021,
)
def test_bulk_draws_equal_per_job_draws(drawn, phases, fractions, seed):
    taskset, horizon = drawn
    config = TrialConfig(
        horizon_slots=horizon,
        release_jitter_fraction=0.5,
        randomize_phases=phases,
        exec_fraction_min=fractions[0],
        exec_fraction_max=fractions[1],
    )
    assert_same_columns(taskset, config, seed)


@pytest.mark.parametrize("jitter", [0.0, 0.05, 0.3])
def test_case_study_sized_workload(jitter):
    """Hundreds of jobs per task on the case-study default fractions."""
    tasks = TaskSet(
        [
            IOTask(name=f"t{period}", period=period, wcet=max(1, period // 20), vm_id=index % 4)
            for index, period in enumerate((100, 200, 400, 500, 1_000, 2_000, 2_500, 37))
        ]
    )
    config = TrialConfig(horizon_slots=50_000, release_jitter_fraction=jitter)
    assert_same_columns(tasks, config, 7)


class ShortWords(RandomSource):
    """A source that hands out at most three words per ``words`` call,
    as if every estimate of the words a jitter parse needs fell short:
    the parser must fetch more of the stream again and again.  (With no
    jitter a job takes exactly two words, fetched in one call.)"""

    def words(self, m):
        return super().words(min(m, 3))


@pytest.mark.parametrize("cap", [1, 5, 16, 2**33 + 5])
def test_parse_continues_across_short_reads(cap):
    count = 50
    jitter, fraction = _job_draws(ShortWords(3, "short"), cap, count)
    scalar = RandomSource(3, "short")
    expected = [
        (scalar.randint(0, cap) if cap else 0, scalar.random()) for _ in range(count)
    ]
    assert list(zip(jitter.tolist(), fraction.tolist())) == expected


@pytest.mark.parametrize("m", [0, 1, 2, 7, 1_000])
def test_words_leave_the_generator_where_single_draws_would(m):
    bulk, scalar = RandomSource(11, "words"), RandomSource(11, "words")
    words = bulk.words(m)
    assert words.dtype == np.uint32
    assert words.tolist() == [scalar.getrandbits(32) for _ in range(m)]
    assert bulk.getstate() == scalar.getstate()


def test_unit_floats_are_random_draws():
    bulk, scalar = RandomSource(5, "floats"), RandomSource(5, "floats")
    words = bulk.words(200)
    assert unit_floats(words[0::2], words[1::2]).tolist() == [
        scalar.random() for _ in range(100)
    ]
    assert bulk.getstate() == scalar.getstate()


def test_negative_word_count_refused():
    with pytest.raises(ValueError, match="negative"):
        RandomSource(1).words(-1)
