"""The sigma* memo (:class:`TableMemo`) against fresh table builds, and
a table's entries as columns against its entries mapping.

A memoised table must equal what :func:`build_pchannel_table` builds
from the same input -- length, occupancy and the task at every slot, in
the same entry order -- while its entries are the caller's own task
objects, also when the call that stored the layout passed other objects
(a different ``vm_id``).  The memo holds at most ``maxsize`` layouts,
stores no failed build, and ``clear_caches()`` empties the registered
instance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cache import cache_stats, clear_caches
from repro.baselines import IOGuardSystem
from repro.baselines.ioguard_system import TABLE_MEMO
from repro.core.pchannel import PChannel
from repro.core.timeslot import (
    PLACEMENTS,
    TableMemo,
    TableOverflowError,
    TimeSlotTable,
    build_pchannel_table,
)
from repro.sim.rng import RandomSource
from repro.tasks import build_case_study_taskset, pad_to_target_utilization
from repro.tasks.task import IOTask, TaskKind


@st.composite
def predefined_sets(draw):
    """Small pre-defined sets with unique names, some of them too dense
    to pack."""
    tasks = []
    for index in range(draw(st.integers(0, 5))):
        period = draw(st.sampled_from([4, 6, 8, 12]))
        wcet = draw(st.integers(1, period // 2))
        tasks.append(
            IOTask(
                name=f"p{index}",
                period=period,
                wcet=wcet,
                deadline=draw(st.integers(wcet, period)),
                vm_id=draw(st.integers(0, 3)),
                kind=TaskKind.PREDEFINED,
                offset=draw(st.integers(0, period - 1)),
            )
        )
    return draw(st.permutations(tasks))


def moved(tasks, shift):
    """Copies of ``tasks`` on other VMs: equal keys, other objects."""
    copies = []
    for task in tasks:
        copy = task.renamed(task.name)
        copy.vm_id = task.vm_id + shift
        copies.append(copy)
    return copies


def assert_same_table(table, expected, owners):
    assert table.length == expected.length
    assert table._occupied.tobytes() == expected._occupied.tobytes()
    assert list(table.entries) == list(expected.entries)
    assert [task.name for task in table.entries.values()] == [
        task.name for task in expected.entries.values()
    ]
    by_name = {task.name: task for task in owners}
    assert all(task is by_name[task.name] for task in table.entries.values())
    assert table.free_slots == expected.free_slots


@settings(max_examples=150, deadline=None)
@given(
    tasks=predefined_sets(),
    placement=st.sampled_from(PLACEMENTS),
    shift=st.integers(1, 3),
)
def test_memoised_table_equals_fresh_build(tasks, placement, shift):
    memo = TableMemo(maxsize=2)
    try:
        expected = build_pchannel_table(tasks, placement=placement)
    except TableOverflowError:
        with pytest.raises(TableOverflowError):
            memo.build(tasks, placement)
        assert memo.cache_info() == (0, 1, 2, 0)
        return
    stored = memo.build(tasks, placement)
    twins = moved(tasks, shift)
    hit = memo.build(twins, placement)
    again = memo.build(tasks, placement)
    assert memo.cache_info() == (2, 1, 2, 1)
    assert_same_table(stored, expected, tasks)
    assert_same_table(hit, expected, twins)
    assert_same_table(again, expected, tasks)
    # Nothing is shared between the tables a memo hands out.
    assert hit is not again
    assert hit.sbf_cache is not again.sbf_cache
    assert not np.shares_memory(hit._occupied, again._occupied)
    assert not np.shares_memory(hit._occupied, stored._occupied)


def test_placements_are_separate_keys():
    tasks = [IOTask("a", 8, 3, kind=TaskKind.PREDEFINED)]
    memo = TableMemo(maxsize=4)
    for placement in PLACEMENTS:
        table = memo.build(tasks, placement)
        assert_same_table(
            table, build_pchannel_table(tasks, placement=placement), tasks
        )
    assert memo.cache_info().misses == len(PLACEMENTS)


@pytest.mark.parametrize(
    "field, value",
    [("name", "c"), ("period", 16), ("wcet", 3), ("deadline", 6), ("offset", 3)],
)
def test_each_key_field_separates_layouts(field, value):
    def task_set(**changes):
        first = dict(name="a", period=8, wcet=2, deadline=8, offset=0)
        first.update(changes)
        return [
            IOTask(kind=TaskKind.PREDEFINED, **first),
            IOTask("b", 4, 1, kind=TaskKind.PREDEFINED, offset=1),
        ]

    memo = TableMemo(maxsize=4)
    memo.build(task_set(), "spread")
    changed = task_set(**{field: value})
    table = memo.build(changed, "spread")
    assert memo.cache_info().misses == 2
    assert_same_table(table, build_pchannel_table(changed), changed)


def test_entry_bound_evicts_the_least_recently_used():
    memo = TableMemo(maxsize=2)
    sets = [[IOTask(f"t{period}", period, 1, kind=TaskKind.PREDEFINED)] for period in (4, 5, 6)]
    memo.build(sets[0], "spread")
    memo.build(sets[1], "spread")
    memo.build(sets[0], "spread")  # hit: sets[1] is now the oldest
    memo.build(sets[2], "spread")
    assert memo.cache_info() == (1, 3, 2, 2)
    memo.build(sets[0], "spread")
    assert memo.cache_info().hits == 2
    memo.build(sets[1], "spread")
    assert memo.cache_info() == (2, 4, 2, 2)
    with pytest.raises(ValueError):
        TableMemo(maxsize=0)


def test_trials_share_layouts_not_tables_and_clear_caches_empties_the_memo():
    """The 4-VM and 8-VM cells of one Fig. 7 utilization hand the
    builder the same pre-defined set; the second split is a memo hit
    whose entries are its own tasks."""
    clear_caches()
    splits = []
    for vm_count in (4, 8):
        rng = RandomSource(1, f"wl.{vm_count}.0.7")
        padded = pad_to_target_utilization(
            build_case_study_taskset(vm_count=vm_count), 0.7, rng.spawn("pad"),
            vm_count=vm_count,
        )
        splits.append(IOGuardSystem(0.7)._split_with_fallback(padded))
    stats = cache_stats()["core.timeslot.table_memo"]
    assert (stats["hits"], stats["misses"], stats["currsize"]) == (1, 1, 1)
    (_, first), (_, second) = splits
    assert second is not first
    assert second._occupied.tobytes() == first._occupied.tobytes()
    for split, table in splits:
        by_name = {task.name: task for task in split.predefined()}
        assert all(task is by_name[task.name] for task in table.entries.values())
    assert TABLE_MEMO.cache_info().maxsize >= 6
    clear_caches()
    assert TABLE_MEMO.cache_info() == (0, 0, TABLE_MEMO.maxsize, 0)


@settings(max_examples=60, deadline=None)
@given(
    tasks=predefined_sets(),
    placement=st.sampled_from(PLACEMENTS),
    horizon=st.integers(0, 60),
)
def test_owner_columns_agree_with_the_entries_mapping(tasks, placement, horizon):
    """A built table keeps its entries as columns; the mapping made from
    them, and columns read back from a mapping, say the same, and the
    P-channel completes the same jobs from either form."""
    try:
        built = build_pchannel_table(tasks, placement=placement)
    except TableOverflowError:
        return
    owners, slots, positions = built.owner_columns()
    columns = [(slot, owners[at]) for slot, at in zip(slots.tolist(), positions.tolist())]
    mapped = TimeSlotTable(
        built.length, built.occupied_indices(), entries=dict(columns)
    )
    assert [(slot, task.name) for slot, task in built.entries.items()] == [
        (slot, task.name) for slot, task in columns
    ]
    assert all(built.entries[slot] is task for slot, task in columns)
    for table in (built, mapped):
        owners, slots, positions = table.owner_columns()
        assert [
            (slot, owners[at]) for slot, at in zip(slots.tolist(), positions.tolist())
        ] == columns
    runs = []
    for table in (built, mapped):
        channel = PChannel(tasks, table=table)
        runs.append(
            ([column.tolist() for column in channel.run_until(horizon)],
             channel.slots_executed, dict(channel._job_counts))
        )
    assert runs[0] == runs[1]
