"""Vectorized schedulability kernels with QPA-style early termination.

The reference tests of :mod:`repro.analysis.lsched_test` /
:mod:`repro.analysis.gsched_test` walk every dbf step point up to the
Theorem-2/4 horizon in a Python loop.  This module provides the kernels
the production tests run on every window of at least
:data:`~repro.analysis.engine.VECTORIZE_MIN_POINTS` step points:

* **numpy kernels** evaluating the Eq. (3)/(9) demand curves and the
  Eq. (1)/(2)/(8) supply curves over *arrays* of step points at once
  (:func:`dbf_taskset_at`, :func:`dbf_servers_at`, :func:`sbf_server_at`,
  :func:`sbf_sigma_at`, :func:`linear_supply_at`);
* a **QPA-style descent** (after Zhang & Burns' Quick Processor-demand
  Analysis, generalized from ``sbf(t) = t`` to arbitrary monotone supply
  functions with an exact inverse): starting from the largest step point
  below the horizon, each probe at ``t`` with demand ``d <= sbf(t)``
  proves every step point in ``[isbf(d), t]`` schedulable at once --
  ``dbf`` is non-decreasing, so any ``t'`` in that range has
  ``dbf(t') <= d <= sbf(isbf(d)) <= sbf(t')``.  Schedulable systems are
  decided after a handful of probes instead of a full horizon sweep.
* a **vectorized witness scan** for unschedulable systems: once the
  descent finds *a* failing point, the first failing point (the witness
  the reference loop reports) is located by evaluating demand and supply
  over chunks of the step-point grid below it.

Every function here is decision-bit-identical to its scalar counterpart:
identical step-point grids, identical integer/float arithmetic, identical
first-failing witnesses.  The property suite
(``tests/properties/test_vectorized_engine.py``) enforces this.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.cache import register_cache
from repro.analysis.demand import DemandSignature, dbf_signature_demand
from repro.analysis.engine import INT64_SAFE_HORIZON
from repro.analysis.supply import supply_at_least
from repro.core.timeslot import TimeSlotTable

#: Step points evaluated per numpy chunk in the witness scans.  Bounds
#: peak memory at roughly ``chunk * task_count`` int64 cells.
VECTOR_CHUNK = 1 << 14

#: QPA descent probes before falling back to a full vectorized sweep.
#: Near the schedulability boundary the inverse-supply jumps shrink to a
#: single step point and the descent devolves into the scalar loop; a
#: bulk numpy scan of the remaining range is then much cheaper than
#: per-``t`` Python probes.
QPA_PROBE_LIMIT = 64

#: Grids smaller than this skip the QPA descent entirely: a single bulk
#: numpy sweep costs less than even a handful of Python-level probes.
QPA_MIN_GRID = 512

#: (deadline, period) pairs -- the part of a demand signature that
#: determines the step-point grid.
StepPairs = Tuple[Tuple[int, int], ...]


def step_pairs(signature: DemandSignature) -> StepPairs:
    """The (deadline, period) grid pairs of a demand signature."""
    return tuple((deadline, period) for deadline, period, _wcet in signature)


# -- vectorized kernels ------------------------------------------------------


def _signature_arrays_uncached(
    signature: DemandSignature,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(deadlines, periods, wcets)`` column vectors for broadcasting."""
    deadlines = np.array([row[0] for row in signature], dtype=np.int64)
    periods = np.array([row[1] for row in signature], dtype=np.int64)
    wcets = np.array([row[2] for row in signature], dtype=np.int64)
    for array in (deadlines, periods, wcets):
        array.shape = (len(signature), 1)
        array.flags.writeable = False
    return deadlines, periods, wcets


#: Memoized signature -> numpy columns.  Sweeps and admission replay the
#: same signatures across many windows; entries are three tiny arrays.
signature_arrays = register_cache(
    "vectorized.signature_arrays",
    lru_cache(maxsize=1 << 12)(_signature_arrays_uncached),
)


def dbf_taskset_at(signature: DemandSignature, ts: np.ndarray) -> np.ndarray:
    """Aggregate Eq. (9) demand at every ``t`` in ``ts`` (int64 array)."""
    ts = np.asarray(ts, dtype=np.int64)
    if not len(signature) or not ts.size:
        return np.zeros(ts.shape, dtype=np.int64)
    deadlines, periods, wcets = signature_arrays(signature)
    if len(signature) * ts.size <= VECTOR_CHUNK * 8:
        window = ts[None, :]
        jobs = (window - deadlines) // periods + 1
        contrib = np.where(window >= deadlines, jobs * wcets, 0)
        return contrib.sum(axis=0)
    # Chunk over the time axis so tasks x points stays bounded.
    total = np.zeros(ts.shape, dtype=np.int64)
    span = max(1, VECTOR_CHUNK // len(signature))
    for start in range(0, ts.size, span):
        window = ts[start : start + span][None, :]
        jobs = (window - deadlines) // periods + 1
        contrib = np.where(window >= deadlines, jobs * wcets, 0)
        total[start : start + span] = contrib.sum(axis=0)
    return total


def dbf_servers_at(
    servers: Sequence[Tuple[int, int]], ts: np.ndarray
) -> np.ndarray:
    """Aggregate Eq. (3) server demand at every ``t`` in ``ts``."""
    ts = np.asarray(ts, dtype=np.int64)
    total = np.zeros(ts.shape, dtype=np.int64)
    for pi, theta in servers:
        total += (ts // pi) * theta
    return total


def sbf_server_at(
    pi: Union[int, np.ndarray], theta: Union[int, np.ndarray], ts: np.ndarray
) -> np.ndarray:
    """Eq. (8) periodic-resource supply at every ``t`` in ``ts``.

    ``pi`` and ``theta`` may be int64 arrays broadcasting against
    ``ts``: one server per point.
    """
    ts = np.asarray(ts, dtype=np.int64)
    t_shift = ts - (pi - theta)
    whole = t_shift // pi
    tail = np.maximum(t_shift - pi * whole - (pi - theta), 0)
    # For t_shift < 0, whole*theta + tail < 0: the sbf's leading flat.
    return np.maximum(whole * theta + tail, 0)


def sbf_sigma_at(table: TimeSlotTable, ts: np.ndarray) -> np.ndarray:
    """Eqs. (1)/(2) table supply at every ``t`` in ``ts``.

    The Eq. (1) enumeration is shared with the scalar path through the
    table's :class:`~repro.core.timeslot.SbfCache`; only the distinct
    residues ``t mod H`` are enumerated.
    """
    ts = np.asarray(ts, dtype=np.int64)
    if not ts.size:
        return np.zeros(0, dtype=np.int64)
    whole, rest = np.divmod(ts, table.total_slots)
    residues = _dedup_sorted(np.sort(rest))
    enums = np.array(
        [table.sbf_cache.enum(int(residue)) for residue in residues],
        dtype=np.int64,
    )
    return whole * table.free_slots + enums[np.searchsorted(residues, rest)]


def linear_supply_at(pi: int, theta: int, ts: np.ndarray) -> np.ndarray:
    """Eq. (12) linear supply lower bound at every ``t`` (float64).

    Bit-compatible with the scalar
    :func:`repro.analysis.supply.linear_supply_lower_bound`: the int64
    product ``t * theta`` is exact, and IEEE division by ``pi`` rounds
    identically in numpy and pure Python.
    """
    ts = np.asarray(ts, dtype=np.int64)
    return ts * theta / pi - (2 * pi - theta - 1)


# -- step-point grids --------------------------------------------------------


def _dedup_sorted(points: np.ndarray) -> np.ndarray:
    """Drop repeats from a sorted array (``np.unique`` without its
    hash-table detour, which costs ~10x more than the sort itself)."""
    if points.size < 2:
        return points
    keep = np.empty(points.shape, dtype=bool)
    keep[0] = True
    np.not_equal(points[1:], points[:-1], out=keep[1:])
    return points[keep]


def step_points_in_range(pairs: StepPairs, lo: int, hi: int) -> np.ndarray:
    """Sorted dbf step points ``t`` with ``lo <= t <= hi`` (repeats kept).

    The staircase of task ``(D, T)`` jumps exactly at ``D + m*T``;
    matches the scalar :func:`repro.analysis.demand.dbf_step_points`
    grid restricted to the range, except that a point shared by several
    tasks appears once per task -- harmless for scanning, and skipping
    the dedup keeps the per-chunk cost at one sort.
    """
    if hi > INT64_SAFE_HORIZON:
        raise OverflowError(
            f"step-point range top {hi} exceeds the int64-safe cap "
            f"{INT64_SAFE_HORIZON}; the start + k*period grid points "
            f"would wrap in int64 -- use the exact (hyper-period) test"
        )
    arrays: List[np.ndarray] = []
    for deadline, period in pairs:
        if hi < deadline:
            continue
        if lo <= deadline:
            start = deadline
        else:
            start = deadline + -((deadline - lo) // period) * period
        arrays.append(np.arange(start, hi + 1, period, dtype=np.int64))
    if not arrays:
        return np.zeros(0, dtype=np.int64)
    if len(arrays) == 1:
        return arrays[0]
    return np.sort(np.concatenate(arrays))


def taskset_step_points(pairs: StepPairs, horizon: int) -> np.ndarray:
    """All distinct dbf step points in ``[0, horizon]``, sorted.

    Element-for-element identical to the scalar
    :func:`repro.analysis.demand.dbf_step_points`.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    return _dedup_sorted(step_points_in_range(pairs, 0, horizon))


def server_points_in_range(
    periods: Sequence[int], lo: int, hi: int
) -> np.ndarray:
    """Sorted Eq. (3) jump points (period multiples) in [lo, hi]."""
    if hi > INT64_SAFE_HORIZON:
        raise OverflowError(
            f"server step-point range top {hi} exceeds the int64-safe "
            f"cap {INT64_SAFE_HORIZON}; period-multiple grid points "
            f"would wrap in int64 -- use the exact (hyper-period) test"
        )
    arrays: List[np.ndarray] = []
    for pi in periods:
        if hi < pi:
            continue
        start = max(pi, ((lo + pi - 1) // pi) * pi)
        arrays.append(np.arange(start, hi + 1, pi, dtype=np.int64))
    if not arrays:
        return np.zeros(0, dtype=np.int64)
    if len(arrays) == 1:
        return arrays[0]
    return np.sort(np.concatenate(arrays))


def _largest_step_le(pairs: StepPairs, limit: int) -> Optional[int]:
    """Largest dbf step point ``<= limit`` (None when there is none)."""
    best: Optional[int] = None
    for deadline, period in pairs:
        if limit >= deadline:
            # iolint: disable=IOL008 -- pure-Python int arithmetic
            # (arbitrary precision, cannot wrap); results stay Python
            # ints until the scan ranges, which are capped at
            # INT64_SAFE_HORIZON by step_points_in_range
            point = deadline + ((limit - deadline) // period) * period
            if best is None or point > best:
                best = point
    return best


def _largest_server_step_le(
    periods: Sequence[int], limit: int
) -> Optional[int]:
    """Largest server step point (period multiple) ``<= limit``."""
    best: Optional[int] = None
    for pi in periods:
        if limit >= pi:
            # iolint: disable=IOL008 -- pure-Python int arithmetic
            # (arbitrary precision, cannot wrap); scan ranges built from
            # the result are capped by server_points_in_range
            point = (limit // pi) * pi
            if best is None or point > best:
                best = point
    return best


# -- QPA-style descent -------------------------------------------------------


def _grid_estimate(pairs: StepPairs, horizon: int) -> int:
    """Number of (non-deduplicated) step points up to ``horizon``."""
    total = 0
    for deadline, period in pairs:
        if horizon >= deadline:
            total += (horizon - deadline) // period + 1
    return total


def taskset_failure(
    signature: DemandSignature,
    horizon: int,
    supply_of: Callable[[int], float],
    inverse_of: Callable[[int], int],
    supply_at: Callable[[np.ndarray], np.ndarray],
) -> Optional[Tuple[int, int, float]]:
    """First step point ``t <= horizon`` with ``dbf(t) > supply(t)``.

    Returns ``(t, demand, supply)`` with native Python scalars, or
    ``None`` when the window is schedulable.  ``supply_of`` must be
    monotone non-decreasing and ``inverse_of(d)`` must return the
    smallest ``t`` with ``supply_of(t) >= d`` (rounding *up* keeps the
    descent sound); ``supply_at`` is its vectorized twin.

    Strategy: grids below :data:`QPA_MIN_GRID` points are swept in one
    bulk numpy pass.  Larger grids run the QPA descent from the horizon
    down -- each passing probe at ``t`` with demand ``d`` proves every
    step point in ``[inverse_of(d), t]`` schedulable, so well-slacked
    systems finish in a handful of probes.  If the descent finds a
    failing probe, the *first* failure lies at or below it and a bulk
    scan of that prefix locates it; if the descent stalls (boundary
    systems degenerate to single-step jumps), the remaining prefix is
    swept in bulk after :data:`QPA_PROBE_LIMIT` probes.
    """
    pairs = step_pairs(signature)
    top = _largest_step_le(pairs, horizon)
    if top is None:
        return None
    if _grid_estimate(pairs, top) > QPA_MIN_GRID:
        t: Optional[int] = top
        probes = 0
        while t is not None and probes < QPA_PROBE_LIMIT:
            probes += 1
            demand = dbf_signature_demand(signature, t)
            if demand > supply_of(t):
                return _first_taskset_failure(signature, t, supply_at)
            t = _largest_step_le(pairs, min(inverse_of(demand), t) - 1)
        if t is None:
            return None
        top = t  # descent stalled; everything above `t` is proven safe
    first = _scan_taskset_range(signature, 0, top, supply_at)
    if first is None:
        return None
    return _taskset_point_detail(signature, first, supply_at)


def server_failure(
    table: TimeSlotTable,
    servers: Sequence[Tuple[int, int]],
    horizon: int,
) -> Optional[Tuple[int, int, int]]:
    """First Theorem-1 step point ``t <= horizon`` with ``dbf > sbf``.

    Returns ``(t, demand, supply)`` or ``None`` when schedulable; same
    QPA-descent/bulk-scan strategy as :func:`taskset_failure`, with
    :func:`repro.analysis.supply.supply_at_least` as the supply inverse.
    """
    periods = [pi for pi, _theta in servers]
    top = _largest_server_step_le(periods, horizon)
    if top is None:
        return None
    if sum(top // pi for pi in periods) > QPA_MIN_GRID:
        t: Optional[int] = top
        probes = 0
        while t is not None and probes < QPA_PROBE_LIMIT:
            probes += 1
            demand = sum((t // pi) * theta for pi, theta in servers)
            if demand > table.sbf(t):
                return _first_server_failure(table, servers, t)
            safe_from = supply_at_least(table, demand)
            t = _largest_server_step_le(periods, min(safe_from, t) - 1)
        if t is None:
            return None
        top = t
    first = _scan_server_range(table, servers, 0, top)
    if first is None:
        return None
    demand = sum((first // pi) * theta for pi, theta in servers)
    return first, demand, table.sbf(first)


# -- vectorized witness location ---------------------------------------------


def _scan_taskset_range(
    signature: DemandSignature,
    lo: int,
    hi: int,
    supply_at: Callable[[np.ndarray], np.ndarray],
) -> Optional[int]:
    """First step point in ``[lo, hi]`` with ``dbf > supply``, or None.

    Chunks grow geometrically from ``max_period`` slots: early failures
    (the common unschedulable shape -- a deadline inside the supply
    blackout) exit after one small chunk, while full sweeps of
    schedulable grids amortize to a handful of large numpy passes.
    """
    pairs = step_pairs(signature)
    span = 2 * max(period for _d, period in pairs)
    chunk_lo = lo
    while chunk_lo <= hi:
        chunk_hi = min(hi, chunk_lo + span - 1)
        points = step_points_in_range(pairs, chunk_lo, chunk_hi)
        if points.size:
            demand = dbf_taskset_at(signature, points)
            failing = np.nonzero(demand > supply_at(points))[0]
            if failing.size:
                return int(points[int(failing[0])])
        chunk_lo = chunk_hi + 1
        span = min(span * 4, VECTOR_CHUNK * 8)
    return None


def _scan_server_range(
    table: TimeSlotTable,
    servers: Sequence[Tuple[int, int]],
    lo: int,
    hi: int,
) -> Optional[int]:
    """First server step point in ``[lo, hi]`` with ``dbf > sbf``, or None."""
    periods = [pi for pi, _theta in servers]
    span = 2 * max(periods)
    chunk_lo = lo
    while chunk_lo <= hi:
        chunk_hi = min(hi, chunk_lo + span - 1)
        points = server_points_in_range(periods, chunk_lo, chunk_hi)
        if points.size:
            demand = dbf_servers_at(servers, points)
            failing = np.nonzero(demand > sbf_sigma_at(table, points))[0]
            if failing.size:
                return int(points[int(failing[0])])
        chunk_lo = chunk_hi + 1
        span = min(span * 4, VECTOR_CHUNK * 8)
    return None


def _taskset_point_detail(
    signature: DemandSignature,
    t: int,
    supply_at: Callable[[np.ndarray], np.ndarray],
) -> Tuple[int, int, float]:
    """``(t, demand, supply)`` at one point, as native Python scalars."""
    point = np.array([t], dtype=np.int64)
    demand = dbf_taskset_at(signature, point)
    supply = supply_at(point)
    return t, int(demand[0]), supply[0].item()


def _first_taskset_failure(
    signature: DemandSignature,
    upto: int,
    supply_at: Callable[[np.ndarray], np.ndarray],
) -> Tuple[int, int, float]:
    """First step point ``t <= upto`` with ``dbf(t) > supply(t)``.

    The caller guarantees a failure exists at or below ``upto`` (the QPA
    witness); returns ``(t, demand, supply)`` with native Python types.
    """
    t = _scan_taskset_range(signature, 0, upto, supply_at)
    if t is None:
        raise AssertionError(
            "QPA reported a failing point but the vectorized scan found "
            "none; the kernels disagree"
        )
    return _taskset_point_detail(signature, t, supply_at)


def _first_server_failure(
    table: TimeSlotTable,
    servers: Sequence[Tuple[int, int]],
    upto: int,
) -> Tuple[int, int, int]:
    """First Theorem-1 step point ``t <= upto`` failing demand <= supply."""
    t = _scan_server_range(table, servers, 0, upto)
    if t is None:
        raise AssertionError(
            "QPA reported a failing point but the vectorized scan found "
            "none; the kernels disagree"
        )
    demand = sum((t // pi) * theta for pi, theta in servers)
    return t, demand, table.sbf(t)
