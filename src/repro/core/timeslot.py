"""Time Slot Table sigma* (Sec. III-A, Sec. IV-A).

The table records, for one hyper-period of length ``H`` slots, which
slots are occupied by pre-defined (P-channel) I/O jobs and which are
*free* for R-channel work.  The infinite schedule sigma is the infinite
repetition of sigma*.  The P-channel executor walks the table at run
time; the G-Sched analysis derives ``sbf(sigma, t)`` from it.
"""

from __future__ import annotations

import heapq
import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from functools import reduce
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet

#: Safety cap on constructed hyper-periods.  P-channel tables above this
#: length signal a mis-configured experiment (the FPGA table is a small
#: on-chip memory); construction raises instead of silently exploding.
MAX_TABLE_LENGTH = 2_000_000


class TableOverflowError(ValueError):
    """Raised when pre-defined jobs cannot be packed into the table.

    ``device``/``slot`` name the job the table search could not place
    (its task's device and its release slot mod ``H``); both are
    ``None`` when the hyper-period itself is over the cap.
    """

    def __init__(
        self,
        message: str,
        *,
        device: Optional[str] = None,
        slot: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.device = device
        self.slot = slot


def as_slot_count(value: Any, what: str = "slot value") -> int:
    """Normalize a time quantity to an integer slot count.

    The hypervisor schedules in whole slots (every quantity in Sec. IV is
    an integer number of slots), but the surrounding simulation measures
    time as floats -- :class:`~repro.sim.engine.Timeout` happily accepts
    ``2.5``.  Slot-table and executor entry points route their time
    arguments through here: integral values (``7``, ``7.0``, numpy
    integer scalars) are normalized to ``int``; fractional values are a
    caller bug and raise ``ValueError`` instead of silently truncating a
    deadline or supply window.
    """
    if isinstance(value, (bool, np.bool_, str, bytes)):
        # bool is an int subclass (and numpy bools compare equal to 0/1),
        # so without this guard True would silently normalize to 1 slot.
        raise ValueError(f"{what} must be an integer slot count, got {value!r}")
    if isinstance(value, int):
        return value
    try:
        as_int = int(value)
        integral = value == as_int
    except (TypeError, OverflowError, ValueError):
        raise ValueError(
            f"{what} must be an integer slot count, got {value!r}"
        ) from None
    if not integral:
        raise ValueError(
            f"{what} must be a whole number of slots, got {value!r}; "
            "the hypervisor schedules in integer slots"
        )
    return as_int


class SbfCache:
    """Explicit per-table memo for the Eq. (1)/(2) supply computation.

    One instance per :class:`TimeSlotTable`.  Holds the free-slot count
    ``F`` and the doubled prefix-sum array (both built lazily from the
    occupancy bitmap) and the per-window enumeration results, and counts
    hits/misses so the experiment runner's timing summary can report
    cache effectiveness.  Dropping the cache (:meth:`clear`) is always
    safe -- it only costs recomputation.
    """

    __slots__ = (
        "_table", "_windows", "_free_prefix", "_free_count", "hits", "misses"
    )

    def __init__(self, table: "TimeSlotTable") -> None:
        # A weak back-reference: no table <-> cache cycle, so a table is
        # freed as soon as its last user drops it, not at the next
        # full garbage collection.
        self._table = weakref.ref(table)
        self._windows: Dict[int, int] = {}
        self._free_prefix: Optional[np.ndarray] = None
        self._free_count: Optional[int] = None
        self.hits = 0
        self.misses = 0

    def free_count(self) -> int:
        """``F``: free slots in one repetition of sigma*."""
        if self._free_count is None:
            occupied = self._owner()._occupied
            self._free_count = int(occupied.size - occupied.sum())
        return self._free_count

    def free_prefix(self) -> np.ndarray:
        """Prefix sums of free slots over two repetitions of sigma*."""
        if self._free_prefix is None:
            free = (~self._owner()._occupied).astype(np.int64)
            doubled = np.concatenate([free, free])
            self._free_prefix = np.concatenate([[0], np.cumsum(doubled)])
        return self._free_prefix

    def enum(self, window: int) -> int:
        """Memoized Eq. (1) enumeration for ``0 <= window <= H``."""
        cached = self._windows.get(window)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        if window == 0:
            value = 0
        else:
            prefix = self.free_prefix()
            length = self._owner().length
            # window starting at s covers [s, s+window); minimise over
            # s in [0, H).
            sums = prefix[window : window + length] - prefix[:length]
            value = int(sums.min())
        self._windows[window] = value
        return value

    def _owner(self) -> "TimeSlotTable":
        table = self._table()
        if table is None:
            raise ReferenceError("SbfCache outlived its TimeSlotTable")
        return table

    def clear(self) -> None:
        """Drop memoized windows, the prefix array and ``F``."""
        self._windows.clear()
        self._free_prefix = None
        self._free_count = None
        self.hits = 0
        self.misses = 0

    # lru_cache-style protocol, so tables can sit in the central registry.
    cache_clear = clear

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "currsize": len(self._windows),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SbfCache(windows={len(self._windows)}, hits={self.hits}, "
            f"misses={self.misses})"
        )


class OwnerColumns(NamedTuple):
    """A table's entries as columns: entry ``i`` puts
    ``tasks[positions[i]]`` at slot ``slots[i]``.  Every task owns at
    least one entry."""

    tasks: Sequence[IOTask]
    slots: np.ndarray
    positions: np.ndarray


class TimeSlotTable:
    """Occupancy of one hyper-period of the static P-channel schedule.

    Parameters
    ----------
    length:
        ``H`` -- total slots in the hyper-period.
    occupied:
        Iterable of slot indices in ``[0, H)`` taken by P-channel jobs.
    entries:
        Optional mapping from slot index to the pre-defined task
        scheduled there (used by the run-time executor; the analysis
        only needs the occupancy bitmap).  The table builders set the
        same mapping as columns instead (:meth:`owner_columns`).
    """

    def __init__(
        self,
        length: int,
        occupied: Iterable[int] = (),
        entries: Optional[Dict[int, IOTask]] = None,
    ) -> None:
        if length < 1:
            raise ValueError(f"table length must be >= 1, got {length}")
        if length > MAX_TABLE_LENGTH:
            raise TableOverflowError(
                f"hyper-period {length} exceeds the table cap "
                f"{MAX_TABLE_LENGTH}; reduce pre-defined task periods"
            )
        self.length = as_slot_count(length, "table length")
        length = self.length
        self._occupied = np.zeros(length, dtype=bool)
        for slot in occupied:
            slot = as_slot_count(slot, "occupied slot")
            if not 0 <= slot < length:
                raise ValueError(f"slot {slot} outside table of length {length}")
            if self._occupied[slot]:
                raise ValueError(f"slot {slot} is doubly occupied")
            self._occupied[slot] = True
        self._entries: Optional[Dict[int, IOTask]] = dict(entries or {})
        for slot in self._entries:
            if not self._occupied[slot]:
                raise ValueError(
                    f"entry at slot {slot} has no matching occupied slot"
                )
        #: The entries as columns, while :attr:`entries` is unbuilt.
        self._owners: Optional[OwnerColumns] = None
        self.sbf_cache = SbfCache(self)

    # -- entries ---------------------------------------------------------------

    @property
    def entries(self) -> Dict[int, IOTask]:
        """Slot index -> the pre-defined task scheduled there.

        A built table holds its entries as columns
        (:meth:`owner_columns`); the mapping is made on first read.
        """
        if self._entries is None:
            tasks, slots, positions = self._owners
            self._entries = dict(
                zip(slots.tolist(), map(tasks.__getitem__, positions.tolist()))
            )
        return self._entries

    def owner_columns(self) -> OwnerColumns:
        """The entries as columns ``(tasks, slots, positions)``: entry
        ``i`` puts ``tasks[positions[i]]`` at slot ``slots[i]``, in
        :attr:`entries` order."""
        if self._entries is None:
            return self._owners
        # Read from the mapping, which a caller may have edited.
        tasks: List[IOTask] = []
        positions = np.array(_positions(self._entries.values(), tasks), dtype=np.int64)
        slots = np.fromiter(self._entries, dtype=np.int64, count=len(positions))
        return OwnerColumns(tasks, slots, positions)

    def set_owner_columns(
        self, tasks: Sequence[IOTask], slots: np.ndarray, positions: np.ndarray
    ) -> None:
        """Set the entries from columns (see :meth:`owner_columns`)
        without building the mapping."""
        self._owners = OwnerColumns(tasks, slots, positions)
        self._entries = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_pattern(cls, pattern: Sequence[int]) -> "TimeSlotTable":
        """Build from a 0/1 sequence (1 = occupied)."""
        occupied = [i for i, bit in enumerate(pattern) if bit]
        return cls(len(pattern), occupied)

    @classmethod
    def empty(cls, length: int) -> "TimeSlotTable":
        """A table with every slot free."""
        return cls(length)

    # -- basic queries ---------------------------------------------------------

    @property
    def total_slots(self) -> int:
        """``H`` in the analysis."""
        return self.length

    @property
    def free_slots(self) -> int:
        """``F`` in the analysis (memoized in :attr:`sbf_cache`)."""
        return self.sbf_cache.free_count()

    @property
    def occupied_slots(self) -> int:
        return int(self._occupied.sum())

    @property
    def free_fraction(self) -> float:
        """``F / H`` -- the bandwidth left for the R-channel."""
        return self.free_slots / self.length

    def is_occupied(self, slot: int) -> bool:
        slot = as_slot_count(slot, "slot index")
        return bool(self._occupied[slot % self.length])

    def is_free(self, slot: int) -> bool:
        """Whether absolute slot index ``slot`` (in sigma) is free."""
        return not self.is_occupied(slot)

    def task_at(self, slot: int) -> Optional[IOTask]:
        """Pre-defined task scheduled at absolute slot ``slot``, if any."""
        slot = as_slot_count(slot, "slot index")
        return self.entries.get(slot % self.length)

    def occupied_indices(self) -> List[int]:
        return np.flatnonzero(self._occupied).tolist()

    def free_indices(self) -> List[int]:
        return np.flatnonzero(~self._occupied).tolist()

    def occupancy_pattern(self) -> List[int]:
        """The 0/1 pattern of sigma* (1 = occupied)."""
        return [int(bit) for bit in self._occupied]

    # -- supply-bound function ---------------------------------------------------

    def enum(self, window: int) -> int:
        """Eq. (1): minimum free slots over all windows of ``window`` slots.

        Valid for ``0 <= window <= H``; windows are slid over the infinite
        repetition sigma, and since sigma repeats sigma* there are at most
        H distinct placements.  Memoized in :attr:`sbf_cache`.
        """
        window = as_slot_count(window, "enum window")
        if not 0 <= window <= self.length:
            raise ValueError(
                f"enum window must lie in [0, H={self.length}], got {window}"
            )
        return self.sbf_cache.enum(window)

    def sbf(self, t: int) -> int:
        """``sbf(sigma, t)`` via Eqs. (1) and (2) for any ``t >= 0``."""
        t = as_slot_count(t, "sbf window")
        if t < 0:
            raise ValueError(f"sbf requires t >= 0, got {t}")
        if t < self.length:
            return self.sbf_cache.enum(t)
        whole, rest = divmod(t, self.length)
        return self.sbf_cache.enum(rest) + whole * self.free_slots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimeSlotTable(H={self.length}, F={self.free_slots}, "
            f"entries={len(self.entries)})"
        )


def stagger_offsets(predefined: TaskSet) -> TaskSet:
    """Assign staggered start times to pre-defined tasks.

    Pre-defined tasks are loaded "with their corresponding start times"
    (Sec. II-B); those start times are a design-time degree of freedom.
    Releasing every task at slot 0 clusters P-channel occupancy into long
    bursts, which collapses ``sbf(sigma, t)`` for small windows and
    starves the R-channel.  Spreading first releases proportionally over
    each task's period keeps the free slots well distributed.  Returns a
    new task set; offsets are ``round(i * T_i / n) mod T_i``.
    """
    tasks = sorted(predefined, key=lambda task: (task.period, task.name))
    count = len(tasks)
    staggered = TaskSet(name=f"{predefined.name}.staggered")
    for index, task in enumerate(tasks):
        copy = task.renamed(task.name)
        copy.vm_id = task.vm_id
        copy.offset = int(round(index * task.period / count)) % task.period
        staggered.add(copy)
    return staggered


#: Supported sigma* layout strategies.
PLACEMENTS = ("contiguous", "spread")

#: Candidates the table search may examine after its first dead end.
#: Up to that point it is the greedy descent and runs uncapped; the
#: budget bounds the backtracking, so an over-constrained model fails
#: in bounded time and memory.
SEARCH_NODE_CAP = 100_000


@dataclass(frozen=True)
class TableConstraint:
    """Precedence with time lag between two pre-defined tasks.

    For every job index ``j``, the first slot of job ``j`` of ``after``
    lies at least ``min_lag`` slots after the last slot of job ``j`` of
    ``before`` (``min_lag = 0``: merely afterwards) and -- when
    ``max_lag`` is set -- at most ``max_lag`` slots after it.  Slots are
    compared unwrapped (``release + offset`` in the job's window), so a
    job wrapping across the hyper-period seam keeps its order.  Both
    tasks must have the same period (same job cadence) and
    ``before.offset <= after.offset``.
    """

    before: str
    after: str
    min_lag: int = 0
    max_lag: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_lag < 0:
            raise ValueError(f"min_lag must be >= 0, got {self.min_lag}")
        if self.max_lag is not None and self.max_lag < self.min_lag:
            raise ValueError(
                f"max_lag {self.max_lag} < min_lag {self.min_lag} "
                f"for {self.before!r} -> {self.after!r}"
            )
        if self.before == self.after:
            raise ValueError(f"constraint relates {self.before!r} to itself")


#: One job in decision order: its task, its unwrapped release slot and
#: one ``(log index, release, C, min_lag, max_lag)`` per predecessor,
#: where ``log index`` is the position of the predecessor job's first
#: slot in the search's undo log.
_Lag = Tuple[int, int, int, int, Optional[int]]
_Job = Tuple[IOTask, int, Tuple[_Lag, ...]]


def build_pchannel_table(
    predefined: Iterable[IOTask],
    *,
    placement: str = "spread",
    constraints: Sequence[TableConstraint] = (),
) -> TimeSlotTable:
    """Construct sigma* from the pre-defined task set.

    Pre-defined tasks are strictly periodic; each job of task ``tau``
    must receive ``C`` distinct slots inside its window
    ``[release, release + D)``, where ``release = offset + j*T`` and
    windows wrap across the hyper-period seam.  Two layouts with a real
    design trade-off (studied by the layout ablation):

    * ``"spread"`` (default): the job's slots are spaced evenly across
      its window, maximising ``sbf(sigma, t)`` -- the free slots stay
      well distributed, so the R-channel servers get the strongest
      supply guarantee.  P-channel jobs complete later inside their
      windows (still always by their deadlines, and with *zero*
      period-to-period jitter: the table repeats exactly).  The paper's
      high-preload configuration (I/O-GUARD-70) is only analytically
      schedulable under this layout.
    * ``"contiguous"``: the executor runs each pre-defined job as one
      burst at its designed start time -- the earliest free run at or
      after the release (falling back to the earliest free slots when
      fragmented).  Tight P-channel latency (~C slots), but long busy
      bursts depress ``sbf`` for small windows, which can make tightly
      constrained R-channel servers infeasible at high preload.

    ``constraints`` add :class:`TableConstraint` precedence with time
    lags between same-index jobs of equal-period tasks.

    The table is found by a depth-first search over slot decisions.
    Tasks are decided shortest period first, in ``(period, name)`` order
    (rate-monotonic packing), job by job; tasks linked by constraints
    are decided together, job index by job index, predecessors first.
    A spread decision places one slot: slot ``k`` probes the window
    cyclically from its ideal offset ``int(k * D / C)``.  A contiguous
    decision places a whole job: every free run by start, then the
    earliest free slots.  The first descent takes every first candidate,
    which is the greedy table; only a dead end backtracks, within
    :data:`SEARCH_NODE_CAP`.  Memory is one occupancy byte per slot and
    an undo log of the committed slots.

    Raises :class:`TableOverflowError` (naming the blocking job's
    device and release slot) when the search is exhausted or over its
    cap -- the experiment must lower the P-channel share instead of
    silently dropping pre-defined work -- and ``ValueError`` for a
    malformed constraint set (duplicate or unknown task names, unequal
    periods, misordered offsets, cycles).
    """
    if placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
        )
    tasks = sorted(predefined, key=lambda task: (task.period, task.name))
    groups = _decision_groups(tasks, constraints)
    if not tasks:
        return TimeSlotTable.empty(1)
    hyperperiod = reduce(math.lcm, (task.period for task in tasks))
    if hyperperiod > MAX_TABLE_LENGTH:
        raise TableOverflowError(
            f"pre-defined hyper-period {hyperperiod} exceeds cap "
            f"{MAX_TABLE_LENGTH}"
        )
    jobs = _decision_jobs(groups, constraints, hyperperiod)
    occupied, slots = _search(jobs, hyperperiod, placement == "spread")
    table = TimeSlotTable(hyperperiod)
    table._occupied = np.frombuffer(occupied, dtype=np.bool_)
    # The undo log holds each job's C slots, job by job.
    table.set_owner_columns(
        tasks,
        np.array(slots, dtype=np.int64),
        np.repeat(
            np.array(_positions((job[0] for job in jobs), tasks), dtype=np.int64),
            [job[0].wcet for job in jobs],
        ),
    )
    table.sbf_cache.clear()  # occupancy replaced wholesale
    return table


class TableMemoInfo(NamedTuple):
    """:meth:`TableMemo.cache_info`, in ``functools.lru_cache`` order."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class TableMemo:
    """Bounded, content-keyed memo in front of :func:`build_pchannel_table`.

    The key is the placement and each pre-defined task's ``(name,
    period, wcet, deadline, offset)`` in decision order -- all that the
    builder reads when no constraint is given.  The value is compact and
    holds no task object: ``H``, the occupancy bytes, the occupied slots
    in entry order and their owners' positions in decision order.  A hit
    returns a fresh :class:`TimeSlotTable` whose entries are the
    caller's own tasks, so no table, task or :class:`SbfCache` is shared
    between callers; owners are remapped because two calls may differ
    in what the key leaves out (a task's ``vm_id``, say).  A build that
    raises is not stored.  Least recently used values are evicted past
    ``maxsize``.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"memo size must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        #: key -> (H, occupancy bytes, slots, owner positions)
        self._values: OrderedDict[tuple, Tuple[int, bytes, np.ndarray, np.ndarray]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def build(
        self,
        predefined: Iterable[IOTask],
        placement: str,
        builder: Callable[..., TimeSlotTable] = build_pchannel_table,
    ) -> TimeSlotTable:
        """The table ``builder(predefined, placement=placement)`` returns,
        built once per distinct key."""
        tasks = sorted(predefined, key=lambda task: (task.period, task.name))
        key = (placement,) + tuple(
            (task.name, task.period, task.wcet, task.deadline, task.offset)
            for task in tasks
        )
        value = self._values.get(key)
        if value is None:
            self.misses += 1
            table = builder(tasks, placement=placement)
            owners, slots, positions = table.owner_columns()
            remap = np.array(_positions(owners, tasks), dtype=np.int32)
            self._values[key] = (
                table.length,
                table._occupied.tobytes(),
                slots.astype(np.int32),
                remap[positions],
            )
            if len(self._values) > self.maxsize:
                self._values.popitem(last=False)
            return table
        self.hits += 1
        self._values.move_to_end(key)
        length, occupied, slots, positions = value
        table = TimeSlotTable(length)
        table._occupied = np.frombuffer(bytearray(occupied), dtype=np.bool_)
        table.set_owner_columns(
            tasks, slots.astype(np.int64), positions.astype(np.int64)
        )
        table.sbf_cache.clear()  # occupancy replaced wholesale
        return table

    def cache_clear(self) -> None:
        self._values.clear()
        self.hits = 0
        self.misses = 0

    def cache_info(self) -> TableMemoInfo:
        return TableMemoInfo(self.hits, self.misses, self.maxsize, len(self._values))


def _positions(owners: Iterable[IOTask], tasks: List[IOTask]) -> List[int]:
    """Each owner's position in ``tasks``, found by identity; an owner
    not in ``tasks`` is appended to it.  A run of one owner is looked up
    once."""
    found: List[int] = []
    last: Optional[IOTask] = None
    at = -1
    for owner in owners:
        if owner is not last:
            last = owner
            at = next(
                (index for index, task in enumerate(tasks) if task is owner),
                len(tasks),
            )
            if at == len(tasks):
                tasks.append(owner)
        found.append(at)
    return found


def _decision_groups(
    tasks: List[IOTask], constraints: Sequence[TableConstraint]
) -> List[List[IOTask]]:
    """Validate ``constraints``; the task groups in decision order.

    Unconstrained tasks are groups of one.  Tasks linked by constraints
    form one group, placed where its first task in ``tasks`` order
    stands, with its tasks in topological order (ties in ``tasks``
    order) so every predecessor is decided first.
    """
    if not constraints:
        return [[task] for task in tasks]
    index = {task.name: position for position, task in enumerate(tasks)}
    if len(index) != len(tasks):
        raise ValueError("pre-defined task names must be unique")
    successors: Dict[str, List[str]] = {task.name: [] for task in tasks}
    indegree = dict.fromkeys(index, 0)
    parent = list(range(len(tasks)))  # union-find over linked tasks

    def root(position: int) -> int:
        while parent[position] != position:
            parent[position] = parent[parent[position]]
            position = parent[position]
        return position

    for constraint in constraints:
        for name in (constraint.before, constraint.after):
            if name not in index:
                raise ValueError(f"constraint references unknown task {name!r}")
        before = tasks[index[constraint.before]]
        after = tasks[index[constraint.after]]
        if before.period != after.period:
            raise ValueError(
                f"constraint {before.name!r} -> {after.name!r} relates tasks "
                "with different periods"
            )
        if before.offset > after.offset:
            raise ValueError(
                f"constraint {before.name!r} -> {after.name!r} needs "
                f"before.offset ({before.offset}) <= after.offset "
                f"({after.offset}); shift the release offsets"
            )
        successors[before.name].append(after.name)
        indegree[after.name] += 1
        parent[root(index[before.name])] = root(index[after.name])
    ready = [index[name] for name, count in indegree.items() if count == 0]
    heapq.heapify(ready)
    groups: Dict[int, List[IOTask]] = {}
    decided = 0
    while ready:
        position = heapq.heappop(ready)
        decided += 1
        groups.setdefault(root(position), []).append(tasks[position])
        for name in successors[tasks[position].name]:
            indegree[name] -= 1
            if indegree[name] == 0:
                heapq.heappush(ready, index[name])
    if decided != len(tasks):
        raise ValueError("precedence constraints form a cycle")
    return sorted(
        groups.values(), key=lambda group: min(index[task.name] for task in group)
    )


def _decision_jobs(
    groups: List[List[IOTask]],
    constraints: Sequence[TableConstraint],
    hyperperiod: int,
) -> List[_Job]:
    """Every job of one hyper-period, in decision order."""
    incoming: Dict[str, List[TableConstraint]] = {}
    for constraint in constraints:
        incoming.setdefault(constraint.after, []).append(constraint)
    jobs: List[_Job] = []
    logged = 0  # slots committed before the next job, on any full path
    for group in groups:
        period = group[0].period
        count = hyperperiod // period
        if len(group) == 1:
            task = group[0]
            jobs.extend((task, task.offset + index * period, ()) for index in range(count))
            logged += count * task.wcet
            continue
        for index in range(count):
            placed: Dict[str, Tuple[int, int, int]] = {}
            for task in group:
                release = task.offset + index * period
                lags = tuple(
                    (*placed[c.before], c.min_lag, c.max_lag)
                    for c in incoming.get(task.name, ())
                )
                placed[task.name] = (logged, release, task.wcet)
                jobs.append((task, release, lags))
                logged += task.wcet
    return jobs


def _search(
    jobs: List[_Job], hyperperiod: int, spread: bool
) -> Tuple[bytearray, List[int]]:
    """Depth-first search for the slots of every job, in decision order.

    Returns the occupancy bytes and the committed slots, job by job.
    The path is a stack of decisions, each with the index of the
    candidate it took; a dead end pops the last decision, releases its
    slots from the undo log and resumes it at its next candidate.
    Within a spread job, an offset exhausted at one decision is banned
    from that job's later decisions, so each set of a job's slots is
    tried once rather than in every order.
    """
    occupied = bytearray(hyperperiod)
    log: List[int] = []  # undo log: committed slots, job by job
    cursors: List[int] = []  # candidate index of each decision on the path
    bans: Dict[int, List[int]] = {}  # decision level -> offsets it exhausted
    budget: Optional[int] = None  # counts down from the first dead end
    deepest = (0, 0)
    position = k = cursor = 0
    while position < len(jobs):
        task, release, lags = jobs[position]
        wcet = task.wcet
        window = task.deadline
        base = release % hyperperiod
        # The job's decisions: one per slot (spread) or one (contiguous).
        while k < wcet:
            accept = None
            if lags or bans:
                accept = _acceptor(
                    jobs[position], log, k, hyperperiod, bans, len(cursors),
                    final=not spread or k == wcet - 1,
                )
            if spread:
                # Slot k probes (ideal + p) % window from probe ``cursor``.
                ideal = int(k * (window / wcet))
                taken = cursor
                while taken < window:
                    offset = ideal + taken
                    if offset >= window:
                        offset -= window
                    slot = base + offset
                    if slot >= hyperperiod:
                        slot -= hyperperiod
                    if not occupied[slot] and (accept is None or accept(offset)):
                        break
                    taken += 1
                chosen = [slot] if taken < window else []
            else:
                taken, chosen = _contiguous_candidate(
                    occupied, base, hyperperiod, window, wcet, cursor, accept
                )
            if budget is not None:
                budget -= taken - cursor + 1
                if budget < 0:
                    chosen = []
            if not chosen:
                break
            for slot in chosen:
                occupied[slot] = 1
            log.extend(chosen)
            cursors.append(taken)
            k += len(chosen)
            cursor = 0
        else:
            position, k = position + 1, 0
            continue
        # Dead end at (position, k).
        deepest = max(deepest, (position, k))
        if budget is None:
            budget = SEARCH_NODE_CAP
        bans.pop(len(cursors), None)
        if not cursors or budget < 0:
            _raise_overflow(jobs[deepest[0]], hyperperiod, over_cap=budget < 0)
        # Backtrack: release the previous decision, resume it after its
        # candidate, and (spread) ban that offset from its job's later
        # decisions.
        cursor = cursors.pop() + 1
        if k == 0:
            position -= 1
            k = jobs[position][0].wcet
        width = 1 if spread else k
        k -= width
        released = log[len(log) - width :]
        del log[len(log) - width :]
        for slot in released:
            occupied[slot] = 0
        if spread:
            offset = (released[0] - jobs[position][1]) % hyperperiod
            bans.setdefault(len(cursors), []).append(offset)
    return occupied, log


def _acceptor(
    job: _Job,
    log: List[int],
    k: int,
    hyperperiod: int,
    bans: Dict[int, List[int]],
    level: int,
    *,
    final: bool,
) -> Optional[Callable[[int], bool]]:
    """Whether a candidate window offset keeps the job's lags and bans.

    A candidate is the offset of a spread slot, or the first offset of
    a contiguous job.  Every slot of a successor job lies at least
    ``min_lag`` after its predecessors' last slots; the decision that
    completes the job (``final``) also needs the job's first slot within
    ``max_lag``.  The decision is at ``level`` of the path and ``k``
    slots of the job are already at the end of the undo log; offsets
    banned at the job's levels are refused.  ``None`` when nothing
    constrains the decision.
    """
    _task, release, lags = job
    banned = {offset for at in range(level - k, level + 1) for offset in bans.get(at, ())}
    if not lags and not banned:
        return None

    def unwrapped(slot: int, job_release: int) -> int:
        return job_release + (slot - job_release) % hyperperiod

    low, high = 0, math.inf
    for first_index, pred_release, pred_wcet, min_lag, max_lag in lags:
        last = max(
            unwrapped(slot, pred_release)
            for slot in log[first_index : first_index + pred_wcet]
        )
        low = max(low, last + 1 + min_lag - release)
        if max_lag is not None:
            high = min(high, last + 1 + max_lag - release)
    first = min(
        (unwrapped(slot, release) - release for slot in log[len(log) - k :]),
        default=math.inf,
    )

    def accept(offset: int) -> bool:
        return (
            offset not in banned
            and offset >= low
            and (not final or min(first, offset) <= high)
        )

    return accept


def _contiguous_candidate(
    occupied: bytearray,
    base: int,
    hyperperiod: int,
    window: int,
    wcet: int,
    cursor: int,
    accept: Optional[Callable[[int], bool]],
) -> Tuple[int, List[int]]:
    """The slots of the job whose window starts at slot ``base``, at
    candidate ``cursor`` onward: a free run by its start offset, then
    (index ``window - C + 1``) the earliest free slots when they are
    fragmented.  ``(window - C + 2, [])`` when none is left."""
    last_start = window - wcet

    def slots(offsets: Iterable[int]) -> List[int]:
        return [
            base + offset - (hyperperiod if base + offset >= hyperperiod else 0)
            for offset in offsets
        ]

    run = 0
    for offset in range(cursor, window):
        slot = base + offset
        if slot >= hyperperiod:
            slot -= hyperperiod
        if occupied[slot]:
            run = 0
            continue
        run += 1
        if run >= wcet:
            start = offset - wcet + 1
            if accept is None or accept(start):
                return start, slots(range(start, offset + 1))
    if cursor <= last_start + 1:
        free: List[int] = []
        for offset in range(window):
            slot = base + offset
            if slot >= hyperperiod:
                slot -= hyperperiod
            if not occupied[slot]:
                free.append(offset)
                if len(free) == wcet:
                    break
        # A contiguous set was already a run candidate.
        if (
            len(free) == wcet
            and free[-1] - free[0] >= wcet
            and (accept is None or accept(free[0]))
        ):
            return last_start + 1, slots(free)
    return last_start + 2, []


def _raise_overflow(job: _Job, hyperperiod: int, *, over_cap: bool) -> NoReturn:
    task, release, _lags = job
    why = (
        f"the search stopped at its cap of {SEARCH_NODE_CAP} candidates"
        if over_cap
        else "no slot assignment fits"
    )
    raise TableOverflowError(
        f"cannot place pre-defined task {task.name!r} (device "
        f"{task.device!r}, release {release}) within its {task.deadline}-slot "
        f"deadline window: {why}; P-channel overloaded",
        device=task.device,
        slot=release % hyperperiod,
    )
