"""Time Slot Table sigma* (Sec. III-A, Sec. IV-A).

The table records, for one hyper-period of length ``H`` slots, which
slots are occupied by pre-defined (P-channel) I/O jobs and which are
*free* for R-channel work.  The infinite schedule sigma is the infinite
repetition of sigma*.  The P-channel executor walks the table at run
time; the G-Sched analysis derives ``sbf(sigma, t)`` from it.
"""

from __future__ import annotations

import math
import weakref
from functools import reduce
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet

#: Safety cap on constructed hyper-periods.  P-channel tables above this
#: length signal a mis-configured experiment (the FPGA table is a small
#: on-chip memory); construction raises instead of silently exploding.
MAX_TABLE_LENGTH = 2_000_000


class TableOverflowError(ValueError):
    """Raised when pre-defined jobs cannot be packed into the table."""


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
        only needs the occupancy bitmap).
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
        self.entries: Dict[int, IOTask] = dict(entries or {})
        for slot in self.entries:
            if not self._occupied[slot]:
                raise ValueError(
                    f"entry at slot {slot} has no matching occupied slot"
                )
        self.sbf_cache = SbfCache(self)

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
        return [int(i) for i in np.flatnonzero(self._occupied)]

    def free_indices(self) -> List[int]:
        return [int(i) for i in np.flatnonzero(~self._occupied)]

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

    # -- free-slot iteration (run-time use) -----------------------------------------

    def next_free_slot(self, from_slot: int) -> int:
        """Smallest free absolute slot ``>= from_slot``.

        Raises ``ValueError`` when the table has no free slots at all.
        """
        if self.free_slots == 0:
            raise ValueError("time slot table has no free slots")
        slot = as_slot_count(from_slot, "from_slot")
        # At most one full hyper-period of probing is needed.
        for _ in range(self.length + 1):
            if self.is_free(slot):
                return slot
            slot += 1
        raise AssertionError("unreachable: free slot must exist within H")

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


def build_pchannel_table(
    predefined: TaskSet,
    *,
    max_length: int = MAX_TABLE_LENGTH,
    placement: str = "spread",
) -> TimeSlotTable:
    """Construct sigma* from the pre-defined task set.

    Pre-defined tasks are strictly periodic; each job of task ``tau``
    must receive ``C`` slots inside its window ``[release, release+D)``,
    where ``release = offset + j*T``.  Tasks are placed shortest period
    first (rate-monotonic packing order).  Two layouts with a real
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

    If a window lacks ``C`` free slots in total,
    :class:`TableOverflowError` is raised -- the experiment must lower
    the P-channel share instead of silently dropping pre-defined work.
    """
    if placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
        )
    tasks = sorted(predefined, key=lambda task: (task.period, task.name))
    if not tasks:
        return TimeSlotTable.empty(1)
    hyperperiod = reduce(math.lcm, (task.period for task in tasks))
    if hyperperiod > max_length:
        raise TableOverflowError(
            f"pre-defined hyper-period {hyperperiod} exceeds cap {max_length}"
        )
    occupied = np.zeros(hyperperiod, dtype=bool)
    entries: Dict[int, IOTask] = {}
    for task in tasks:
        job_count = hyperperiod // task.period
        for job_index in range(job_count):
            release = task.offset + job_index * task.period
            if placement == "spread":
                _place_job_spread(task, release, occupied, entries, hyperperiod)
            else:
                _place_job_contiguous(
                    task, release, occupied, entries, hyperperiod
                )
    table = TimeSlotTable(hyperperiod)
    table._occupied = occupied
    table.entries = entries
    table.sbf_cache.clear()  # occupancy replaced wholesale
    return table


def _place_job_contiguous(
    task: IOTask,
    release: int,
    occupied: np.ndarray,
    entries: Dict[int, IOTask],
    hyperperiod: int,
) -> None:
    """Reserve a burst of ``C`` slots starting at the job's start time.

    Prefers the earliest fully-free run of length ``C`` inside the
    window; falls back to the earliest ``C`` free slots (fragmented but
    still inside the deadline window) when no whole run exists.
    """
    window = task.deadline
    wcet = task.wcet
    # Pass 1: earliest contiguous run.
    for start in range(window - wcet + 1):
        indices = [(release + start + i) % hyperperiod for i in range(wcet)]
        if not any(occupied[index] for index in indices):
            for index in indices:
                occupied[index] = True
                entries[index] = task
            return
    # Pass 2: earliest free slots, fragmented.
    chosen: List[int] = []
    for offset in range(window):
        index = (release + offset) % hyperperiod
        if not occupied[index]:
            chosen.append(index)
            if len(chosen) == wcet:
                break
    if len(chosen) < wcet:
        raise TableOverflowError(
            f"cannot place pre-defined task {task.name!r} (release "
            f"{release}) within its {window}-slot deadline window; "
            "P-channel overloaded"
        )
    for index in chosen:
        occupied[index] = True
        entries[index] = task


def _place_job_spread(
    task: IOTask,
    release: int,
    occupied: np.ndarray,
    entries: Dict[int, IOTask],
    hyperperiod: int,
) -> None:
    """Reserve ``task.wcet`` slots spaced evenly across the window."""
    window = task.deadline
    stride = window / task.wcet
    chosen: List[int] = []
    taken_local = set()
    for i in range(task.wcet):
        ideal = int(i * stride)
        slot_offset = None
        for probe in range(window):
            candidate = (ideal + probe) % window
            index = (release + candidate) % hyperperiod
            if candidate not in taken_local and not occupied[index]:
                slot_offset = candidate
                break
        if slot_offset is None:
            raise TableOverflowError(
                f"cannot place pre-defined task {task.name!r} (release "
                f"{release}) within its {window}-slot deadline window; "
                "P-channel overloaded"
            )
        taken_local.add(slot_offset)
        chosen.append((release + slot_offset) % hyperperiod)
    for index in chosen:
        occupied[index] = True
        entries[index] = task


def merge_tables(tables: Sequence[TimeSlotTable]) -> TimeSlotTable:
    """Merge per-source tables into one (union of occupancy).

    Slot collisions raise ``ValueError``: two pre-defined jobs cannot share
    one slot of the single I/O resource.
    """
    if not tables:
        return TimeSlotTable.empty(1)
    hyperperiod = reduce(math.lcm, (table.length for table in tables))
    if hyperperiod > MAX_TABLE_LENGTH:
        raise TableOverflowError(
            f"merged hyper-period {hyperperiod} exceeds cap {MAX_TABLE_LENGTH}"
        )
    occupied: List[int] = []
    entries: Dict[int, IOTask] = {}
    seen = set()
    for table in tables:
        repeats = hyperperiod // table.length
        for base in table.occupied_indices():
            for repeat in range(repeats):
                slot = base + repeat * table.length
                if slot in seen:
                    raise ValueError(f"slot collision at {slot} while merging")
                seen.add(slot)
                occupied.append(slot)
                task = table.entries.get(base)
                if task is not None:
                    entries[slot] = task
    return TimeSlotTable(hyperperiod, occupied, entries)
