"""Unit tests for the Time Slot Table and its builder."""

import pytest

from repro.core.timeslot import (
    TableOverflowError,
    TimeSlotTable,
    as_slot_count,
    build_pchannel_table,
    stagger_offsets,
)
from repro.tasks.task import IOTask, TaskKind
from repro.tasks.taskset import TaskSet


def predefined(name, period, wcet, offset=0, deadline=None):
    return IOTask(
        name=name,
        period=period,
        wcet=wcet,
        deadline=deadline,
        offset=offset,
        kind=TaskKind.PREDEFINED,
    )


class TestTimeSlotTable:
    def test_counts(self, small_table):
        assert small_table.total_slots == 10
        assert small_table.free_slots == 7
        assert small_table.occupied_slots == 3
        assert small_table.free_fraction == pytest.approx(0.7)

    def test_is_free_wraps_modulo_h(self, small_table):
        assert small_table.is_occupied(0)
        assert small_table.is_occupied(10)  # wraps
        assert small_table.is_free(1)
        assert small_table.is_free(11)

    def test_from_pattern_roundtrip(self):
        pattern = [1, 0, 1, 1, 0]
        table = TimeSlotTable.from_pattern(pattern)
        assert table.occupancy_pattern() == pattern

    def test_indices(self, small_table):
        assert small_table.occupied_indices() == [0, 4, 8]
        assert small_table.free_indices() == [1, 2, 3, 5, 6, 7, 9]

    def test_double_occupation_rejected(self):
        with pytest.raises(ValueError, match="doubly"):
            TimeSlotTable(5, [2, 2])

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(ValueError):
            TimeSlotTable(5, [5])

    def test_entry_without_occupancy_rejected(self):
        task = predefined("p", 10, 1)
        with pytest.raises(ValueError, match="no matching"):
            TimeSlotTable(10, [0], entries={3: task})

    def test_enum_bounds(self, small_table):
        with pytest.raises(ValueError):
            small_table.enum(-1)
        with pytest.raises(ValueError):
            small_table.enum(11)

    def test_length_cap(self):
        with pytest.raises(TableOverflowError):
            TimeSlotTable(10_000_000)


class TestIntegerSlotTime:
    """Slot-table time arguments must be whole slots.

    The simulation layer measures time in floats (``Timeout`` accepts
    ``2.5``); the hypervisor schedules in integer slots.  The slot-table
    entry points normalize integral floats and reject fractional ones
    instead of silently truncating a supply window or deadline.
    """

    def test_as_slot_count_passes_ints(self):
        assert as_slot_count(7) == 7
        assert as_slot_count(0) == 0

    def test_as_slot_count_normalizes_integral_floats(self):
        value = as_slot_count(7.0)
        assert value == 7
        assert isinstance(value, int)

    def test_as_slot_count_rejects_fractions(self):
        with pytest.raises(ValueError, match="whole number of slots"):
            as_slot_count(2.5, "delay")

    def test_as_slot_count_rejects_bool_and_junk(self):
        with pytest.raises(ValueError, match="integer slot count"):
            as_slot_count(True)
        with pytest.raises(ValueError, match="integer slot count"):
            as_slot_count(False)
        with pytest.raises(ValueError, match="integer slot count"):
            as_slot_count("3")
        with pytest.raises(ValueError, match="integer slot count"):
            as_slot_count(float("nan"))

    def test_as_slot_count_rejects_numpy_bool(self):
        """Regression: ``np.True_`` is not a ``bool`` subclass but
        compares equal to 1, so it used to slip through as one slot."""
        np = pytest.importorskip("numpy")
        with pytest.raises(ValueError, match="integer slot count"):
            as_slot_count(np.True_)
        with pytest.raises(ValueError, match="integer slot count"):
            as_slot_count(np.False_, "delay")

    def test_as_slot_count_still_accepts_numpy_ints(self):
        np = pytest.importorskip("numpy")
        assert as_slot_count(np.int64(9)) == 9
        assert as_slot_count(np.int32(0)) == 0

    def test_sbf_fractional_window_rejected(self, small_table):
        with pytest.raises(ValueError, match="whole number of slots"):
            small_table.sbf(2.5)

    def test_sbf_integral_float_window_normalized(self, small_table):
        assert small_table.sbf(4.0) == small_table.sbf(4)

    def test_enum_fractional_window_rejected(self, small_table):
        with pytest.raises(ValueError, match="whole number of slots"):
            small_table.enum(1.5)

    def test_is_occupied_fractional_slot_rejected(self, small_table):
        with pytest.raises(ValueError, match="whole number of slots"):
            small_table.is_occupied(0.25)

    def test_fractional_table_length_rejected(self):
        with pytest.raises(ValueError, match="whole number of slots"):
            TimeSlotTable(5.5)  # iolint: disable=IOL004 -- asserts fractional rejection

    def test_fractional_occupied_slot_rejected(self):
        with pytest.raises(ValueError, match="whole number of slots"):
            TimeSlotTable(10, [0, 1.5])

    def test_integral_float_table_arguments_normalized(self):
        # iolint: disable=IOL004 -- integral floats must normalize, not raise
        table = TimeSlotTable(10.0, [0.0, 4])
        assert table.total_slots == 10
        assert table.occupied_indices() == [0, 4]


class TestBuildPchannelTable:
    def test_empty_set(self):
        table = build_pchannel_table(TaskSet())
        assert table.total_slots == 1
        assert table.free_slots == 1

    def test_single_task_occupancy(self):
        tasks = TaskSet([predefined("p", 10, 3)])
        table = build_pchannel_table(tasks)
        assert table.total_slots == 10
        assert table.occupied_slots == 3

    def test_occupancy_equals_wcet_share(self):
        tasks = TaskSet([
            predefined("a", 10, 2),
            predefined("b", 20, 5),
        ])
        table = build_pchannel_table(tasks)
        assert table.total_slots == 20
        # 2 jobs of a (2 slots each) + 1 job of b (5 slots) per H.
        assert table.occupied_slots == 2 * 2 + 5

    def test_every_job_inside_deadline_window(self):
        tasks = TaskSet([
            predefined("a", 12, 3, deadline=8),
            predefined("b", 24, 6),
            predefined("c", 8, 1, offset=2),
        ])
        table = build_pchannel_table(tasks)
        # Every occupied slot must belong to the window of some job of
        # its task.
        for slot in table.occupied_indices():
            task = table.entries[slot]
            ok = False
            job_count = table.total_slots // task.period
            for j in range(-1, job_count + 1):
                release = task.offset + j * task.period
                if (
                    release <= slot < release + task.deadline
                    or release <= slot + table.total_slots < release + task.deadline
                ):
                    ok = True
                    break
            assert ok, f"slot {slot} of {task.name} outside every window"

    def test_overload_raises(self):
        tasks = TaskSet([
            predefined("a", 4, 3),
            predefined("b", 4, 3),
        ])
        with pytest.raises(TableOverflowError):
            build_pchannel_table(tasks)

    def test_deadline_constrained_placement(self):
        # Task with D < T must fit all its C inside the first D slots of
        # each period window.
        tasks = TaskSet([predefined("a", 20, 4, deadline=5)])
        table = build_pchannel_table(tasks)
        for slot in table.occupied_indices():
            assert slot % 20 < 5

    def test_spread_placement_improves_sbf(self):
        """Spreading gives strictly better small-window supply than the
        worst possible (fully clustered) placement."""
        tasks = TaskSet([predefined("a", 100, 30)])
        table = build_pchannel_table(tasks)
        # With spreading, a 10-slot window always contains free slots.
        assert table.sbf(10) > 0


class TestStaggerOffsets:
    def test_preserves_tasks(self, two_vm_taskset):
        pre = two_vm_taskset.predefined()
        staggered = stagger_offsets(pre)
        assert {t.name for t in staggered} == {t.name for t in pre}

    def test_offsets_within_period(self):
        tasks = TaskSet([predefined(f"p{i}", 10 * (i + 1), 1) for i in range(5)])
        staggered = stagger_offsets(tasks)
        for task in staggered:
            assert 0 <= task.offset < task.period

    def test_distinct_offsets_for_same_period(self):
        tasks = TaskSet([predefined(f"p{i}", 100, 1) for i in range(4)])
        staggered = stagger_offsets(tasks)
        offsets = {task.offset for task in staggered}
        assert len(offsets) == 4
