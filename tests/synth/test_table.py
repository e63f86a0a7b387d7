"""The sigma* table search: windows, lags, determinism, bounded failure."""

import copy
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ConfigurationError, SystemConfig, build_system
from repro.core.timeslot import (
    PLACEMENTS,
    TableConstraint,
    TableOverflowError,
    build_pchannel_table,
)
from repro.tasks.task import IOTask, TaskKind
from repro.tasks.taskset import TaskSet


def predefined(*specs):
    tasks = []
    for spec in specs:
        tasks.append(
            IOTask(
                name=spec["name"],
                period=spec.get("period", 20),
                wcet=spec.get("wcet", 1),
                deadline=spec.get("deadline"),
                offset=spec.get("offset", 0),
                device=spec.get("device", "dev0"),
                kind=TaskKind.PREDEFINED,
            )
        )
    return TaskSet(tasks, name="predefined")


def job_slots(table, task):
    """Per job of ``task``: its slots, unwrapped into the job's window."""
    jobs = []
    for index in range(table.total_slots // task.period):
        release = task.offset + index * task.period
        jobs.append(
            [
                slot
                for slot in range(release, release + task.deadline)
                if table.entries.get(slot % table.total_slots) is task
            ]
        )
    return jobs


def lags_hold(table, tasks, constraints):
    by_name = {task.name: task for task in tasks}
    for constraint in constraints:
        before = job_slots(table, by_name[constraint.before])
        after = job_slots(table, by_name[constraint.after])
        for before_slots, after_slots in zip(before, after):
            gap = min(after_slots) - max(before_slots) - 1
            if gap < constraint.min_lag:
                return False
            if constraint.max_lag is not None and gap > constraint.max_lag:
                return False
    return True


def sense_act():
    return predefined(
        {"name": "sense", "period": 20, "wcet": 2, "deadline": 10, "device": "lidar"},
        {"name": "act", "period": 20, "wcet": 1, "device": "canbus"},
    )


class TestFeasibleSynthesis:
    def test_basic_placement_covers_every_job(self):
        tasks = predefined(
            {"name": "a", "period": 10, "wcet": 2},
            {"name": "b", "period": 20, "wcet": 3},
        )
        table = build_pchannel_table(tasks)
        # 2 jobs x 2 slots for "a" + 1 job x 3 slots for "b".
        assert table.total_slots == 20
        assert len(table.occupied_indices()) == 7
        assert [len(job) for job in job_slots(table, tasks["a"])] == [2, 2]
        assert [len(job) for job in job_slots(table, tasks["b"])] == [3]

    def test_slots_fall_inside_release_windows(self):
        tasks = predefined(
            {"name": "a", "period": 10, "wcet": 2, "deadline": 6},
            {"name": "b", "period": 20, "wcet": 3, "deadline": 9, "offset": 4},
        )
        table = build_pchannel_table(tasks)
        # Every occupied slot lies in the window of a job of its task.
        assert [len(job) for job in job_slots(table, tasks["a"])] == [2, 2]
        assert [len(job) for job in job_slots(table, tasks["b"])] == [3]
        assert table.occupied_slots == 7

    def test_time_lag_constraint_enforced_per_job(self):
        tasks = sense_act()
        constraint = TableConstraint("sense", "act", min_lag=2, max_lag=12)
        table = build_pchannel_table(tasks, constraints=[constraint])
        assert lags_hold(table, tasks, [constraint])
        # The synth scenario's table: sense at its ideal slots 0 and 5,
        # act at the first slot past sense's last one plus the lag.
        assert table.occupied_indices() == [0, 5, 8]

    def test_max_lag_bounds_only_the_first_slot(self):
        # act's first slot (1) is within max_lag of sense's last slot
        # (0), so its second slot keeps its ideal offset 10.
        tasks = predefined(
            {"name": "sense", "period": 20, "wcet": 1},
            {"name": "act", "period": 20, "wcet": 2},
        )
        constraint = TableConstraint("sense", "act", max_lag=2)
        table = build_pchannel_table(tasks, constraints=[constraint])
        assert job_slots(table, tasks["act"]) == [[1, 10]]
        assert lags_hold(table, tasks, [constraint])

    def test_reruns_byte_identical(self):
        tasks = sense_act()
        constraints = [TableConstraint("sense", "act", min_lag=2)]
        first = build_pchannel_table(tasks, constraints=constraints)
        second = build_pchannel_table(tasks, constraints=constraints)
        assert first.occupancy_pattern() == second.occupancy_pattern()
        assert first.entries == second.entries

    def test_placements_registry(self):
        assert PLACEMENTS == ("contiguous", "spread")
        tasks = predefined({"name": "a", "period": 10, "wcet": 2})
        spread = build_pchannel_table(tasks, placement="spread")
        contiguous = build_pchannel_table(tasks, placement="contiguous")
        # Contiguous fills from the front of each window, spread evenly.
        assert contiguous.occupied_indices() == [0, 1]
        assert spread.occupied_indices() == [0, 5]
        with pytest.raises(ValueError, match="placement"):
            build_pchannel_table(tasks, placement="packed")

    def test_empty_taskset_trivial(self):
        table = build_pchannel_table(TaskSet(name="empty"))
        assert table.total_slots == 1
        assert table.free_slots == 1

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_backtracks_past_a_greedy_dead_end(self, placement):
        # Greedily, "a" takes slot 7 (release 7, ideal offset 0), the
        # only slot of "b"'s job releasing at 7.  The search moves "a".
        tasks = predefined(
            {"name": "a", "period": 3, "wcet": 1, "deadline": 3, "offset": 1},
            {"name": "b", "period": 4, "wcet": 1, "deadline": 1, "offset": 3},
        )
        table = build_pchannel_table(tasks, placement=placement)
        assert table.entries[7] is tasks["b"]
        assert [len(job) for job in job_slots(table, tasks["a"])] == [1] * 4
        assert [len(job) for job in job_slots(table, tasks["b"])] == [1] * 3


    def test_each_slot_set_of_a_job_is_tried_once(self):
        # "b" needs slot 0, which "a" takes first.  Moving "a" off slot 0
        # means backtracking over the 5-subsets of a's later slots; in
        # every order, that would be 5! times as many and over the cap.
        tasks = predefined(
            {"name": "a", "period": 16, "wcet": 6},
            {"name": "b", "period": 16, "wcet": 1, "deadline": 1},
        )
        table = build_pchannel_table(tasks)
        assert table.entries[0] is tasks["b"]
        assert [len(job) for job in job_slots(table, tasks["a"])] == [6]


class TestInfeasibleSynthesis:
    def test_blocked_job_names_device_and_slot(self):
        tasks = predefined(
            {"name": "x", "period": 4, "wcet": 3, "deadline": 3, "device": "dx"},
            {"name": "y", "period": 8, "wcet": 3, "offset": 2, "device": "dy"},
        )
        with pytest.raises(TableOverflowError, match="'y'") as excinfo:
            build_pchannel_table(tasks)
        assert excinfo.value.device == "dy"
        assert excinfo.value.slot == 2

    def test_joint_infeasibility_still_reported(self):
        # Each task fits alone, but act's first slot would have to come
        # at least 9 slots after sense's last one, past act's window.
        tasks = sense_act()
        build_pchannel_table(tasks)
        constraint = TableConstraint("sense", "act", min_lag=19)
        with pytest.raises(TableOverflowError, match="no slot assignment fits"):
            build_pchannel_table(tasks, constraints=[constraint])


class TestModelValidation:
    def test_duplicate_names_rejected(self):
        # TaskSet already enforces uniqueness, so feed the raw list the
        # constraint validator also guards against.
        tasks = [
            IOTask("a", period=10, wcet=1, kind=TaskKind.PREDEFINED),
            IOTask("a", period=20, wcet=1, kind=TaskKind.PREDEFINED),
            IOTask("b", period=10, wcet=1, kind=TaskKind.PREDEFINED),
        ]
        with pytest.raises(ValueError, match="unique"):
            build_pchannel_table(tasks, constraints=[TableConstraint("a", "b")])

    def test_unknown_constraint_name_rejected(self):
        tasks = predefined({"name": "a"})
        with pytest.raises(ValueError, match="ghost"):
            build_pchannel_table(tasks, constraints=[TableConstraint("a", "ghost")])

    def test_constraint_needs_equal_periods(self):
        tasks = predefined({"name": "a", "period": 10}, {"name": "b", "period": 20})
        with pytest.raises(ValueError, match="period"):
            build_pchannel_table(tasks, constraints=[TableConstraint("a", "b")])

    def test_constraint_needs_ordered_offsets(self):
        tasks = predefined({"name": "a", "offset": 3}, {"name": "b"})
        with pytest.raises(ValueError, match="offset"):
            build_pchannel_table(tasks, constraints=[TableConstraint("a", "b")])

    def test_constraint_cycle_rejected(self):
        tasks = predefined({"name": "a"}, {"name": "b"})
        with pytest.raises(ValueError, match="cycle"):
            build_pchannel_table(
                tasks,
                constraints=[TableConstraint("a", "b"), TableConstraint("b", "a")],
            )

    def test_constraint_lag_validation(self):
        with pytest.raises(ValueError):
            TableConstraint("a", "b", min_lag=-1)
        with pytest.raises(ValueError):
            TableConstraint("a", "b", min_lag=5, max_lag=2)
        with pytest.raises(ValueError):
            TableConstraint("a", "a")


def fig7_size_input():
    """64 pre-defined tasks at H = 20,000 with two tight lag chains.

    The task shapes are those of the heaviest Fig. 7 P-channel input
    (the 0.9-utilization, 70 %-preload cell); the two constrained pairs
    share a period and release offset.
    """
    from tests.core.test_table_pins import pchannel_inputs

    tasks = TaskSet(
        [copy.copy(task) for task in pchannel_inputs()["fig7-s1-vm4-u0.9-p0.7"]]
    )
    by_period = {}
    for task in tasks:
        by_period.setdefault(task.period, []).append(task)
    pairs = [group[:2] for group in by_period.values() if len(group) >= 2][:2]
    constraints = []
    for before, after in pairs:
        after.offset = before.offset
        constraints.append(TableConstraint(before.name, after.name, max_lag=3))
    return tasks, constraints


class TestBoundedFailure:
    def test_constrained_fig7_size_input_builds(self):
        tasks, constraints = fig7_size_input()
        assert len(tasks) == 64 and len(constraints) == 2
        table = build_pchannel_table(tasks, constraints=constraints)
        assert table.total_slots == 20_000
        assert lags_hold(table, tasks, constraints)

    def test_over_cap_model_raises_the_typed_failure(self):
        # "q" is decided last and can never meet its lag (its window
        # ends before p's last slot + 23), so the search backtracks
        # through the 12 fill jobs' slot choices until the cap stops it.
        fill = [
            {"name": f"f{index}", "period": 12, "wcet": 1, "offset": index}
            for index in range(6)
        ]
        chain = [
            {"name": "p", "period": 24, "wcet": 2, "device": "spi0"},
            {"name": "q", "period": 24, "wcet": 1, "device": "can0"},
        ]
        tasks = predefined(*fill, *chain)
        constraint = TableConstraint("p", "q", min_lag=23)
        with pytest.raises(TableOverflowError, match="cap") as excinfo:
            build_pchannel_table(tasks, constraints=[constraint])
        assert (excinfo.value.device, excinfo.value.slot) == ("can0", 0)
        config = SystemConfig(tasks=list(tasks), table_constraints=[constraint])
        with pytest.raises(ConfigurationError, match="'q'") as excinfo:
            build_system(config)
        assert (excinfo.value.device, excinfo.value.slot) == ("can0", 0)

    def test_unconstrained_failure_stays_a_table_overflow(self):
        tasks = predefined(
            {"name": "a", "period": 4, "wcet": 3}, {"name": "b", "period": 4, "wcet": 3}
        )
        with pytest.raises(TableOverflowError):
            build_system(SystemConfig(tasks=list(tasks), stagger=False))


# -- property: the search against brute force on tiny hyper-periods -----------


@st.composite
def tiny_models(draw):
    """1-3 tasks with H <= 12 and, optionally, one lag constraint."""
    count = draw(st.integers(min_value=1, max_value=3))
    period_pool = draw(st.sampled_from([(2, 4), (3, 6), (4, 12), (6, 12), (2, 6), (3, 12)]))
    specs = []
    for index in range(count):
        period = draw(st.sampled_from(period_pool))
        deadline = draw(st.integers(min_value=1, max_value=period))
        specs.append(
            {
                "name": f"t{index}",
                "period": period,
                "wcet": draw(st.integers(min_value=1, max_value=deadline)),
                "deadline": deadline,
                "offset": draw(st.integers(min_value=0, max_value=period - 1)),
            }
        )
    tasks = predefined(*specs)
    constraints = []
    pairs = [
        (a, b)
        for a, b in itertools.permutations(tasks, 2)
        if a.period == b.period and a.offset <= b.offset
    ]
    if pairs and draw(st.booleans()):
        before, after = draw(st.sampled_from(pairs))
        min_lag = draw(st.integers(min_value=0, max_value=3))
        max_lag = draw(st.one_of(st.none(), st.integers(min_value=min_lag, max_value=min_lag + 4)))
        constraints.append(TableConstraint(before.name, after.name, min_lag, max_lag))
    return tasks, constraints


def brute_force_feasible(tasks, constraints):
    """Whether any assignment of C window slots per job fits, by
    enumerating every combination of every job's window offsets."""
    hyperperiod = math.lcm(*(task.period for task in tasks))
    jobs = [
        (task, index)
        for task in tasks
        for index in range(hyperperiod // task.period)
    ]
    by_name = {task.name: task for task in tasks}

    def lags_ok(chosen):
        for constraint in constraints:
            before = by_name[constraint.before]
            for index in range(hyperperiod // before.period):
                gap = (
                    min(chosen[constraint.after, index])
                    - max(chosen[constraint.before, index])
                    - 1
                )
                if gap < constraint.min_lag:
                    return False
                if constraint.max_lag is not None and gap > constraint.max_lag:
                    return False
        return True

    def extend(position, used, chosen):
        if position == len(jobs):
            return lags_ok(chosen)
        task, index = jobs[position]
        release = task.offset + index * task.period
        for offsets in itertools.combinations(range(task.deadline), task.wcet):
            slots = {(release + offset) % hyperperiod for offset in offsets}
            if slots & used:
                continue
            chosen[task.name, index] = [release + offset for offset in offsets]
            if extend(position + 1, used | slots, chosen):
                return True
        return False

    return extend(0, frozenset(), {})


def assert_valid(table, tasks, constraints, placement):
    """Every job has C distinct slots in its window, every lag holds,
    and a rebuild gives the same table."""
    for task in tasks:
        assert all(len(job) == task.wcet for job in job_slots(table, task))
    assert table.occupied_slots == sum(
        task.wcet * (table.total_slots // task.period) for task in tasks
    )
    assert lags_hold(table, tasks, constraints)
    again = build_pchannel_table(tasks, placement=placement, constraints=constraints)
    assert again.occupancy_pattern() == table.occupancy_pattern()
    assert again.entries == table.entries


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(model=tiny_models())
    def test_found_exactly_when_brute_force_finds_one(self, model):
        tasks, constraints = model
        try:
            table = build_pchannel_table(tasks, constraints=constraints)
        except TableOverflowError:
            table = None
        assert (table is not None) == brute_force_feasible(tasks, constraints)
        if table is not None:
            assert_valid(table, tasks, constraints, "spread")

    @settings(max_examples=100, deadline=None)
    @given(model=tiny_models())
    def test_contiguous_tables_are_valid(self, model):
        # Contiguous candidates are runs and one fragmented set, so the
        # search is not complete; what it builds must still be valid.
        tasks, constraints = model
        try:
            table = build_pchannel_table(
                tasks, placement="contiguous", constraints=constraints
            )
        except TableOverflowError:
            return
        assert_valid(table, tasks, constraints, "contiguous")
