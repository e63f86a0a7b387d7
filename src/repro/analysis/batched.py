"""Batched analysis: many (taskset, server) pairs per numpy pass.

The per-pair kernels (:mod:`repro.analysis.vectorized`) decide one
(taskset, server) pair at a time; every pair pays the Python-level cost
of the preamble, QPA probes and a handful of small numpy calls.
Production sweeps -- synthesis search, admission columns, acceptance
grids -- ask *millions* of such questions, and at that scale the
per-pair overhead dominates the arithmetic.  This module is the packed
path: it packs N demand signatures and server parameters into padded
2-D int64 arrays and evaluates the Theorem-1/2/4 inequalities for the
whole batch per numpy pass.

Strategy, per batch entry point (:func:`lsched_schedulable_batch` for
Theorems 3/4, :func:`gsched_schedulable_batch` for Theorems 1/2):

* the scalar preamble (server validation, exact-rational slack, horizon
  bounds, overload witnesses, zero-slack exact-test fallback) runs per
  lane, unchanged -- these paths are cheap and their results must stay
  bit-identical to the per-pair tests;
* the **QPA descent** of the per-pair kernels is reused per batch lane
  to shrink each lane's scan window: lanes the descent fully decides
  never enter the batch, lanes where it finds a failing probe only need
  the prefix below that probe, and stalled lanes scan their proven
  prefix (identical thresholds -- :data:`~repro.analysis.vectorized.QPA_MIN_GRID`,
  :data:`~repro.analysis.vectorized.QPA_PROBE_LIMIT` -- so the windows
  match the per-pair tests exactly);
* the surviving lanes' step-point grids are **compressed**: lanes
  sharing a ``(grid pairs, window)`` key reuse one grid array, and grids
  whose periods admit a small hyper-period are generated by *tiling* one
  hyper-period's worth of points (:func:`step_grid`) -- the technique
  that makes prime-factorization period sampling
  (:class:`repro.tasks.generators.HyperperiodBasis`) pay off;
* **ragged outliers** -- lanes whose grid dwarfs the batch median, which
  would blow up the padded matrix -- fall back to the per-pair test
  (bit-identical by construction);
* each surviving lane's demand curve is computed by the **event
  cumsum** trick (:func:`_taskset_grid_demand`): a dbf only jumps at
  its own grid points, so sorting the jump events and prefix-summing
  their weights yields the exact demand at every point in one
  O(points) pass -- no per-task division sweep, and the curve tiles
  across a hyper-period just like the points
  (``dbf(t + H) = dbf(t) + H_util``);
* everything left is padded into ``[lanes, points]`` point and demand
  arrays and swept in column-chunks of one fused numpy pass each
  (closed-form sbf against the precomputed curve); the first failing
  column per lane is the same first-failing witness the reference
  loop reports.

Padding is inert by construction: pad grid cells sit at ``t = 0`` with
zero demand and zero supply, so they can never produce a failure.

Every decision and witness is bit-identical to the per-pair tests and
their scalar references (``gsched_schedulable_reference``,
``lsched_schedulable_reference``);
``tests/properties/test_batched_engine.py`` enforces this over
randomized batches including ragged, shared-hyperperiod and
``theta == pi`` lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import vectorized as vec
from repro.analysis.demand import (
    DemandSignature,
    dbf_signature_demand,
    demand_signature,
)
from repro.analysis.engine import INT64_SAFE_HORIZON
from repro.analysis.gsched_test import (
    GSchedResult,
    gsched_schedulable,
    gsched_schedulable_exact,
    server_bandwidth,
    theorem2_bound,
)
from repro.analysis.gsched_test import _overload_witness as _gsched_overload
from repro.analysis.hyperperiod import lcm_capped
from repro.analysis.lsched_test import (
    LSchedResult,
    lsched_schedulable,
    lsched_schedulable_exact,
    _validate_server,
)
from repro.analysis.lsched_test import _overload_witness as _lsched_overload
from repro.analysis.supply import (
    sbf_server,
    sbf_server_inverse,
    supply_at_least,
)
from repro.core.timeslot import TimeSlotTable
from repro.tasks.taskset import TaskSet

#: Hyper-period cap for tiled grid generation: grids whose period LCM
#: exceeds this are generated by the plain per-range enumeration.
GRID_LCM_CAP = 1 << 16

#: Flat points per fused numpy chunk; bounds peak memory at roughly
#: ``8 * BATCH_CELL_BUDGET`` bytes per temporary.
BATCH_CELL_BUDGET = 1 << 21

#: Lanes whose grid exceeds this multiple of the batch median (or the
#: absolute point cap below) are ragged outliers: they fall back to the
#: per-pair test instead of bloating the padded matrix.
RAGGED_FACTOR = 8

#: Absolute per-lane grid cap for the padded sweep.
RAGGED_POINTS_CAP = 1 << 20

#: QPA descent rounds per batch.  The per-pair test spends up to
#: :data:`~repro.analysis.vectorized.QPA_PROBE_LIMIT` Python-level
#: probes because a decided lane skips its sweep entirely; in a batch
#: the sweep is one shared numpy pass, so a stalled descent is pure
#: overhead.  The first probe does nearly all the work (it collapses
#: the window from the Theorem-4 horizon to roughly the demand's
#: supply-inverse); near-boundary lanes stall after it and go straight
#: to the shared sweep, so the limit is deliberately tiny.
BATCH_QPA_PROBE_LIMIT = 2


@dataclass
class BatchStats:
    """Counters describing how one batch call was executed.

    Purely observational (populated when passed to the batch entry
    points); the differential tests and the benchmark use it to confirm
    the compression paths actually engage.
    """

    lanes: int = 0
    #: Lanes decided before the padded sweep (preamble or QPA descent).
    decided_early: int = 0
    #: Lanes answered by the per-pair fallback (zero slack or ragged).
    fallback_lanes: int = 0
    #: Distinct grids built for the padded sweep.
    grids_built: int = 0
    #: Lanes that reused another lane's grid array.
    grids_shared: int = 0
    #: Grids generated by hyper-period tiling rather than enumeration.
    grids_tiled: int = 0
    #: Column chunks swept by the fused numpy pass.
    chunks: int = 0


# -- hyperperiod-aware step-point grids --------------------------------------


def _tiled(base: np.ndarray, hyperperiod: int, horizon: int) -> np.ndarray:
    """Tile one hyper-period of sorted points up to ``horizon``."""
    if horizon > INT64_SAFE_HORIZON:
        raise OverflowError(
            f"tiling horizon {horizon} exceeds the int64-safe cap "
            f"{INT64_SAFE_HORIZON}; hyperperiod*shift products would "
            f"wrap in int64"
        )
    reps = horizon // hyperperiod + 1
    shifts = hyperperiod * np.arange(reps, dtype=np.int64)
    tiled = (base[None, :] + shifts[:, None]).ravel()
    return tiled[tiled <= horizon]


def step_grid(
    pairs: vec.StepPairs,
    horizon: int,
    *,
    lcm_cap: int = GRID_LCM_CAP,
    stats: Optional[BatchStats] = None,
) -> np.ndarray:
    """All distinct dbf step points in ``[0, horizon]``, sorted.

    Element-for-element identical to
    :func:`repro.analysis.vectorized.taskset_step_points`; when the
    period LCM is small (the regime the prime-factorization period
    sampler engineers on purpose) the grid is generated by tiling one
    hyper-period's worth of points, which costs O(points in one H)
    instead of O(points in the horizon).
    """
    if horizon < 0 or not pairs:
        return vec.taskset_step_points(pairs, max(horizon, 0))
    if any(deadline > period for deadline, period in pairs):
        # Tiling assumes D <= T (one job per period inside each tile).
        return vec.taskset_step_points(pairs, horizon)
    try:
        hyperperiod = lcm_capped(
            sorted({period for _deadline, period in pairs}), lcm_cap
        )
    except OverflowError:
        return vec.taskset_step_points(pairs, horizon)
    if horizon <= hyperperiod:
        return vec.taskset_step_points(pairs, horizon)
    base = vec._dedup_sorted(
        np.sort(
            np.concatenate(
                [
                    np.arange(
                        deadline, deadline + hyperperiod, period, dtype=np.int64
                    )
                    for deadline, period in pairs
                ]
            )
        )
    )
    if stats is not None:
        stats.grids_tiled += 1
    # Blocks cannot collide: base lies in [min D, H] and every shifted
    # copy starts at k*H + min D > k*H >= previous block's maximum.
    return _tiled(base, hyperperiod, horizon)


# -- grid + demand curves (the event-cumsum trick) ---------------------------
#
# A dbf is a step function whose only jumps sit at the very points the
# grid is built from: task (D, T, C) contributes +C at D, D+T, D+2T, ...
# and a server (pi, theta) contributes +theta at every multiple of pi.
# So instead of re-evaluating ``sum(((t - D) // T + 1) * C)`` at every
# grid point (an O(points x tasks) pass full of int64 divisions), sort
# the jump events once -- the exact same arrays the grid concatenates --
# and prefix-sum their weights: the cumulative sum at the last event
# <= t *is* the demand at t.  One O(points) cumsum replaces the whole
# task dimension.
#
# The curves also tile across a hyper-period H: each task releases
# exactly H/T jobs per tile, so ``dbf(t + H) = dbf(t) + H_util`` where
# ``H_util = sum((H // T) * C)`` -- demand tiles by the same shift
# arithmetic as the points themselves.


def _event_grid_demand(
    point_arrays: List[np.ndarray], weights: List[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Dedup-sorted event points and the demand curve over them."""
    if not point_arrays:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    points = np.concatenate(point_arrays)
    weight = np.repeat(
        np.asarray(weights, dtype=np.int64),
        np.array([arr.size for arr in point_arrays], dtype=np.int64),
    )
    order = np.argsort(points, kind="stable")
    points = points[order]
    cumulative = np.cumsum(weight[order])
    if points.size > 1:
        # Keep the *last* duplicate: its cumsum includes every event
        # landing on that point.
        keep = np.empty(points.shape, dtype=bool)
        keep[-1] = True
        np.not_equal(points[:-1], points[1:], out=keep[:-1])
        points = points[keep]
        cumulative = cumulative[keep]
    return points, cumulative


def _tiled_grid_demand(
    base_points: np.ndarray,
    base_demand: np.ndarray,
    hyperperiod: int,
    hyperperiod_demand: int,
    horizon: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Tile one hyper-period of (points, demand) up to ``horizon``."""
    if horizon > INT64_SAFE_HORIZON:
        raise OverflowError(
            f"tiling horizon {horizon} exceeds the int64-safe cap "
            f"{INT64_SAFE_HORIZON}; tiled demand offsets would wrap "
            f"in int64"
        )
    reps = horizon // hyperperiod + 1
    shifts = np.arange(reps, dtype=np.int64)
    points = (base_points[None, :] + (hyperperiod * shifts)[:, None]).ravel()
    demand = (
        base_demand[None, :] + (hyperperiod_demand * shifts)[:, None]
    ).ravel()
    mask = points <= horizon
    return points[mask], demand[mask]


def _taskset_grid_demand(
    signature: DemandSignature,
    horizon: int,
    *,
    lcm_cap: int = GRID_LCM_CAP,
    stats: Optional[BatchStats] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted step points in ``[0, horizon]`` and the exact dbf at each.

    The points equal :func:`step_grid`; the demands equal
    :func:`repro.analysis.demand.dbf_signature_demand` at every point
    (the differential tests assert both).
    """
    def enumerated(top: int) -> Tuple[np.ndarray, np.ndarray]:
        return _event_grid_demand(
            [
                np.arange(deadline, top + 1, period, dtype=np.int64)
                for deadline, period, _wcet in signature
                if top >= deadline
            ],
            [
                wcet
                for deadline, _period, wcet in signature
                if top >= deadline
            ],
        )

    if horizon < 0 or not signature:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    if all(deadline <= period for deadline, period, _wcet in signature):
        try:
            hyperperiod = lcm_capped(
                sorted({period for _d, period, _c in signature}), lcm_cap
            )
        except OverflowError:
            hyperperiod = 0
        # Tiling is strictly cheaper than enumeration as soon as the
        # horizon exceeds one hyper-period: the base costs the same
        # either way and every further tile is one broadcast add.
        if hyperperiod and horizon > hyperperiod:
            base_points, base_demand = enumerated(hyperperiod)
            hyperperiod_demand = sum(
                (hyperperiod // period) * wcet
                for _deadline, period, wcet in signature
            )
            if stats is not None:
                stats.grids_tiled += 1
            return _tiled_grid_demand(
                base_points, base_demand, hyperperiod, hyperperiod_demand, horizon
            )
    return enumerated(horizon)


def _grouped_arange(
    starts: np.ndarray, steps: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """``concatenate([arange(s, s + c*st, st) for s, st, c in rows])``.

    The standard cumsum trick: repeat each row's step, overwrite each
    row's first element with the jump from the previous row's last
    value, and prefix-sum.  One numpy pass regardless of row count.
    """
    flat = np.repeat(steps, counts)
    firsts = np.cumsum(counts) - counts
    last_values = starts + (counts - 1) * steps
    flat[firsts[0]] = starts[0]
    flat[firsts[1:]] = starts[1:] - last_values[:-1]
    return np.cumsum(flat)


def _taskset_grid_demand_many(
    entries: Sequence[Tuple[DemandSignature, int]],
    *,
    lcm_cap: int = GRID_LCM_CAP,
    stats: Optional[BatchStats] = None,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """:func:`_taskset_grid_demand` for many lanes in fused passes.

    Builds every lane's step events with one grouped arange, sorts them
    with one lexsort keyed (lane, point), prefix-sums all weights at
    once (subtracting each lane's running offset), and deduplicates
    with one keep-last mask.  Only the final hyper-period tiling runs
    per lane -- a couple of broadcast adds each.  Element-for-element
    identical to calling :func:`_taskset_grid_demand` per entry.
    """
    empty = np.zeros(0, dtype=np.int64)
    results: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(entries)
    # Plan: (entry index, enumeration top, tiled?, H, H_util, horizon).
    plans: List[Tuple[int, int, bool, int, int, int]] = []
    for i, (signature, horizon) in enumerate(entries):
        if horizon < 0 or not signature:
            results[i] = (empty, empty)
            continue
        hyperperiod = 0
        if all(d <= p for d, p, _c in signature):
            try:
                hyperperiod = lcm_capped(
                    sorted({p for _d, p, _c in signature}), lcm_cap
                )
            except OverflowError:
                hyperperiod = 0
        if hyperperiod and horizon > hyperperiod:
            hyperperiod_demand = sum(
                (hyperperiod // p) * c for _d, p, c in signature
            )
            plans.append(
                (i, hyperperiod, True, hyperperiod, hyperperiod_demand, horizon)
            )
            if stats is not None:
                stats.grids_tiled += 1
        else:
            plans.append((i, horizon, False, 0, 0, horizon))
    if not plans:
        return results  # type: ignore[return-value]
    starts: List[int] = []
    steps: List[int] = []
    weights: List[int] = []
    row_plan: List[int] = []
    row_top: List[int] = []
    for j, (i, top, _tiled, _h, _hd, _hor) in enumerate(plans):
        for deadline, period, wcet in entries[i][0]:
            if top >= deadline:
                starts.append(deadline)
                steps.append(period)
                weights.append(wcet)
                row_plan.append(j)
                row_top.append(top)
    if not starts:
        for i, _top, _tiled, _h, _hd, _hor in plans:
            results[i] = (empty, empty)
        return results  # type: ignore[return-value]
    starts_a = np.array(starts, dtype=np.int64)
    steps_a = np.array(steps, dtype=np.int64)
    counts = (np.array(row_top, dtype=np.int64) - starts_a) // steps_a + 1
    points = _grouped_arange(starts_a, steps_a, counts)
    weight = np.repeat(np.array(weights, dtype=np.int64), counts)
    plan_ids = np.repeat(np.array(row_plan, dtype=np.int64), counts)
    order = np.lexsort((points, plan_ids))
    points = points[order]
    weight = weight[order]
    plan_ids = plan_ids[order]
    cumulative = np.cumsum(weight)
    # Per-lane demand = global cumsum minus the cumsum just before the
    # lane's first event.
    plan_bounds = np.searchsorted(plan_ids, np.arange(len(plans) + 1))
    lane_sizes = np.diff(plan_bounds)
    lane_offsets = np.where(
        plan_bounds[:-1] > 0, cumulative[plan_bounds[:-1] - 1], 0
    )
    cumulative = cumulative - np.repeat(lane_offsets, lane_sizes)
    keep = np.empty(points.shape, dtype=bool)
    keep[-1] = True
    np.not_equal(points[:-1], points[1:], out=keep[:-1])
    np.logical_or(keep[:-1], plan_ids[:-1] != plan_ids[1:], out=keep[:-1])
    points = points[keep]
    cumulative = cumulative[keep]
    plan_ids = plan_ids[keep]
    dedup_bounds = np.searchsorted(plan_ids, np.arange(len(plans) + 1))
    for j, (i, _top, tiled, hyperperiod, hyperperiod_demand, horizon) in enumerate(plans):
        segment = slice(int(dedup_bounds[j]), int(dedup_bounds[j + 1]))
        base_points = points[segment]
        base_demand = cumulative[segment]
        if tiled:
            results[i] = _tiled_grid_demand(
                base_points, base_demand, hyperperiod, hyperperiod_demand, horizon
            )
        else:
            results[i] = (base_points, base_demand)
    return results  # type: ignore[return-value]


def _server_grid_demand(
    servers: Sequence[Tuple[int, int]],
    horizon: int,
    *,
    lcm_cap: int = GRID_LCM_CAP,
    stats: Optional[BatchStats] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Theorem-1 twin: Eq. (3) jump points and aggregate server demand."""
    def enumerated(top: int) -> Tuple[np.ndarray, np.ndarray]:
        return _event_grid_demand(
            [
                np.arange(pi, top + 1, pi, dtype=np.int64)
                for pi, _theta in merged
                if top >= pi
            ],
            [theta for pi, theta in merged if top >= pi],
        )

    if horizon < 0 or not servers:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    # Merge same-period servers so each period contributes one event
    # stream (weights add; the grid is unchanged).
    by_period: Dict[int, int] = {}
    for pi, theta in servers:
        by_period[pi] = by_period.get(pi, 0) + theta
    merged = sorted(by_period.items())
    try:
        hyperperiod = lcm_capped([pi for pi, _theta in merged], lcm_cap)
    except OverflowError:
        hyperperiod = 0
    if hyperperiod and horizon > hyperperiod:
        base_points, base_demand = enumerated(hyperperiod)
        hyperperiod_demand = sum(
            (hyperperiod // pi) * theta for pi, theta in merged
        )
        if stats is not None:
            stats.grids_tiled += 1
        return _tiled_grid_demand(
            base_points, base_demand, hyperperiod, hyperperiod_demand, horizon
        )
    return enumerated(horizon)


# -- QPA window shrinking (identical control flow to the per-pair test) ------


#: Pad deadline for lanes with fewer tasks than the widest lane: far
#: above any probe point, so a pad task contributes no step point, no
#: demand and no grid estimate.
_PAD_DEADLINE = np.int64(1) << 62


def _qpa_taskset_windows(
    entries: Sequence[Tuple[DemandSignature, int, int, int]],
) -> List[Tuple[str, int]]:
    """Shrink every Theorem-4 window with one lockstep QPA descent.

    The per-pair test runs the Zhang-Burns descent one lane at a time
    in Python; here all lanes descend together, one fused numpy pass per
    probe round over ``[lanes, tasks]`` arrays.  Per lane the result is
    ``("schedulable", 0)`` (the descent bottomed out below every step
    point), ``("fail", upto)`` (a failing probe exists at or below
    ``upto``) or ``("scan", top)`` (everything above ``top`` is proven
    safe; the prefix still needs a sweep).  Probe arithmetic -- dbf,
    Eq. (8) and its closed-form inverse, largest-step-below -- matches
    the scalar helpers exactly; rounds are truncated at
    :data:`BATCH_QPA_PROBE_LIMIT` (a stalled descent is pure overhead
    when the sweep is a shared numpy pass).
    """
    n = len(entries)
    for _signature, _pi, _theta, entry_horizon in entries:
        if entry_horizon > INT64_SAFE_HORIZON:
            # Without this the np.int64 lane fill below dies with an
            # opaque "int too big to convert" -- or, worse, the probe
            # products deadline + k*period wrap silently.
            raise OverflowError(
                f"theorem-4 window {entry_horizon} exceeds the "
                f"int64-safe cap {INT64_SAFE_HORIZON}; route this lane "
                f"to the per-pair test instead"
            )
    kmax = max(len(signature) for signature, _pi, _theta, _h in entries)
    deadlines = np.full((n, kmax), _PAD_DEADLINE, dtype=np.int64)
    periods = np.ones((n, kmax), dtype=np.int64)
    wcets = np.zeros((n, kmax), dtype=np.int64)
    pis = np.empty(n, dtype=np.int64)
    thetas = np.empty(n, dtype=np.int64)
    horizons = np.empty(n, dtype=np.int64)
    for i, (signature, pi, theta, horizon) in enumerate(entries):
        for k, (deadline, period, wcet) in enumerate(signature):
            deadlines[i, k] = deadline
            periods[i, k] = period
            wcets[i, k] = wcet
        pis[i] = pi
        thetas[i] = theta
        horizons[i] = horizon

    def largest_step(limits: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Largest step point <= limit per row; -1 when there is none."""
        limit_col = limits[:, None]
        reachable = limit_col >= deadlines[rows]
        points = np.where(
            reachable,
            deadlines[rows]
            + ((limit_col - deadlines[rows]) // periods[rows]) * periods[rows],
            np.int64(-1),
        )
        return points.max(axis=1)

    def sbf(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        return vec.sbf_server_at(pis[rows], thetas[rows], t)

    # 0 = still descending, 1 = schedulable, 2 = fail, 3 = scan.
    verdict = np.zeros(n, dtype=np.int8)
    bound = np.zeros(n, dtype=np.int64)
    every_row = np.arange(n)
    t = largest_step(horizons, every_row)
    verdict[t < 0] = 1
    active = verdict == 0
    if active.any():
        estimate = np.maximum(
            (t[:, None] - deadlines) // periods + 1, 0
        ).sum(axis=1)
        small = active & (estimate <= vec.QPA_MIN_GRID)
        verdict[small] = 3
        bound[small] = t[small]
        active &= ~small
    for _probe in range(BATCH_QPA_PROBE_LIMIT):
        if not active.any():
            break
        rows = np.nonzero(active)[0]
        t_col = t[rows][:, None]
        demand = (
            np.maximum((t_col - deadlines[rows]) // periods[rows] + 1, 0)
            * wcets[rows]
        ).sum(axis=1)
        failing = demand > sbf(rows, t[rows])
        failed = rows[failing]
        verdict[failed] = 2
        bound[failed] = t[failed]
        active[failed] = False
        rest = rows[~failing]
        if not rest.size:
            continue
        rest_demand = demand[~failing]
        # Closed-form Eq. (8) inverse, exactly as sbf_server_inverse.
        whole = (rest_demand - 1) // thetas[rest]
        tail = rest_demand - whole * thetas[rest]
        inverse = np.where(
            rest_demand <= 0,
            0,
            whole * pis[rest] + 2 * (pis[rest] - thetas[rest]) + tail,
        )
        next_t = largest_step(np.minimum(inverse, t[rest]) - 1, rest)
        bottomed = rest[next_t < 0]
        verdict[bottomed] = 1
        active[bottomed] = False
        t[rest] = next_t
    verdict[active] = 3
    bound[active] = t[active]
    labels = {1: "schedulable", 2: "fail", 3: "scan"}
    return [
        (labels[int(v)], int(b) if v != 1 else 0)
        for v, b in zip(verdict, bound)
    ]


def _qpa_server_window(
    table: TimeSlotTable,
    servers: Sequence[Tuple[int, int]],
    horizon: int,
) -> Tuple[str, int]:
    """Theorem-1/2 twin of :func:`_qpa_taskset_windows`, one lane at a
    time (table supply is an object-level memoized enumeration, so there
    is nothing to fuse across lanes)."""
    periods = [pi for pi, _theta in servers]
    top = vec._largest_server_step_le(periods, horizon)
    if top is None:
        return ("schedulable", 0)
    if sum(top // pi for pi in periods) <= vec.QPA_MIN_GRID:
        return ("scan", top)
    t: Optional[int] = top
    probes = 0
    while t is not None and probes < BATCH_QPA_PROBE_LIMIT:
        probes += 1
        demand = sum((t // pi) * theta for pi, theta in servers)
        if demand > table.sbf(t):
            return ("fail", t)
        t = vec._largest_server_step_le(
            periods, min(supply_at_least(table, demand), t) - 1
        )
    if t is None:
        return ("schedulable", 0)
    return ("scan", t)


# -- padded batch sweeps -----------------------------------------------------


@dataclass
class _TasksetLane:
    """One Theorem-4 lane that survived the preamble and QPA."""

    request: int
    pi: int
    theta: int
    grid: np.ndarray
    #: Exact dbf at every grid point (the event-cumsum curve).
    demand: np.ndarray
    #: A failing point is guaranteed at or below the window top (the QPA
    #: descent observed one); the sweep must find it.
    must_fail: bool


@dataclass
class _ServerLane:
    """One Theorem-1 lane that survived the preamble and QPA."""

    request: int
    table: TimeSlotTable
    servers: List[Tuple[int, int]]
    grid: np.ndarray
    demand: np.ndarray
    must_fail: bool


def _record_first_failures(
    first: List[Optional[int]],
    fail_index: np.ndarray,
    lane_ids: np.ndarray,
    pts: np.ndarray,
) -> None:
    """Fold one chunk's failing flat indices into per-lane firsts.

    ``np.unique(return_index=True)`` yields each lane's earliest failing
    index within the chunk; chunks run left to right and grids are
    sorted ascending, so the first chunk that records a lane holds its
    global first failure.
    """
    lanes_hit, firsts = np.unique(lane_ids[fail_index], return_index=True)
    for lane_index, where in zip(lanes_hit, firsts):
        lane = int(lane_index)
        if first[lane] is None:
            first[lane] = int(pts[fail_index[where]])


def _first_taskset_failures(
    lanes: Sequence[_TasksetLane], stats: Optional[BatchStats]
) -> List[Optional[int]]:
    """First failing step point per lane, via fused flat numpy passes.

    Demand was already folded into each lane's grid by the event-cumsum
    builder (:func:`_taskset_grid_demand`), so the sweep is purely
    per-point: concatenate every lane's (points, demand) into one flat
    1-D layout -- no padding, a lane costs exactly its own grid --
    gather each point's server parameters through a lane-id vector,
    evaluate the closed-form periodic-resource sbf, and compare.  Flat
    chunks (memory bound, not lane bound) run left to right; lane
    segments are contiguous and sorted ascending, so each lane's first
    recorded failure is its global first failure.
    """
    n = len(lanes)
    sizes = np.array([lane.grid.size for lane in lanes], dtype=np.int64)
    points = np.concatenate([lane.grid for lane in lanes])
    demand = np.concatenate([lane.demand for lane in lanes])
    lane_ids = np.repeat(np.arange(n, dtype=np.int64), sizes)
    pis = np.array([lane.pi for lane in lanes], dtype=np.int64)[lane_ids]
    thetas = np.array([lane.theta for lane in lanes], dtype=np.int64)[lane_ids]
    first: List[Optional[int]] = [None] * n
    for start in range(0, points.size, BATCH_CELL_BUDGET):
        if stats is not None:
            stats.chunks += 1
        sl = slice(start, start + BATCH_CELL_BUDGET)
        pts = points[sl]
        pi_c = pis[sl]
        theta_c = thetas[sl]
        t_shift = pts - (pi_c - theta_c)
        whole = t_shift // pi_c
        tail = np.maximum(t_shift - pi_c * whole - (pi_c - theta_c), 0)
        # For t_shift < 0 (t inside the first blackout) whole*theta+tail
        # is <= 0, so clamping at zero is exactly the sbf's leading flat.
        supply = np.maximum(whole * theta_c + tail, 0)
        fail_index = np.flatnonzero(demand[sl] > supply)
        if fail_index.size:
            _record_first_failures(first, fail_index, lane_ids[sl], pts)
    return first


def _first_server_failures(
    lanes: Sequence[_ServerLane], stats: Optional[BatchStats]
) -> List[Optional[int]]:
    """Theorem-1 twin of :func:`_first_taskset_failures`.

    The server demand curve comes pre-summed from the event-cumsum
    builder; the table supply is evaluated per lane segment with the
    vectorized residue-deduplicated kernel (tables are per-lane objects
    with their own enumeration caches, so supply cannot be fused across
    lanes).
    """
    n = len(lanes)
    sizes = np.array([lane.grid.size for lane in lanes], dtype=np.int64)
    offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(sizes)]
    )
    points = np.concatenate([lane.grid for lane in lanes])
    demand = np.concatenate([lane.demand for lane in lanes])
    lane_ids = np.repeat(np.arange(n, dtype=np.int64), sizes)
    supply = np.empty_like(points)
    for i, lane in enumerate(lanes):
        seg = slice(int(offsets[i]), int(offsets[i + 1]))
        supply[seg] = vec.sbf_sigma_at(lane.table, points[seg])
    first: List[Optional[int]] = [None] * n
    for start in range(0, points.size, BATCH_CELL_BUDGET):
        if stats is not None:
            stats.chunks += 1
        sl = slice(start, start + BATCH_CELL_BUDGET)
        fail_index = np.flatnonzero(demand[sl] > supply[sl])
        if fail_index.size:
            _record_first_failures(
                first, fail_index, lane_ids[sl], points[sl]
            )
    return first


def _is_ragged(size: int, median: float) -> bool:
    return size > RAGGED_POINTS_CAP or size > RAGGED_FACTOR * max(median, 1.0)


def _raw_slack(pi: int, theta: int, tasks: TaskSet) -> Tuple[int, int]:
    """``theta/pi - sum C/T`` as an unnormalized ``(num, den)``, ``den > 0``.

    The same accumulation as
    :func:`~repro.analysis.lsched_test._exact_slack` minus the final
    ``Fraction`` normalization.  The batch preamble only needs the sign
    (``den`` stays positive, so it is the sign of ``num``), the float
    value (int true division is correctly rounded, so ``num / den``
    equals ``float(Fraction(num, den))`` whether or not the pair is
    gcd-reduced) and one ceiling division -- and the gcd over
    hundreds-of-bit period products costs more per lane than the rest
    of the preamble combined.
    """
    num, den = theta, pi
    for task in tasks:
        num = num * task.period - task.wcet * den
        # iolint: disable=IOL008 -- pure-Python int accumulation; the
        # whole point of the raw preamble is arbitrary precision (period
        # products run to hundreds of bits and must not wrap)
        den *= task.period
    return num, den


def _theorem4_bound_raw(
    pi: int, theta: int, tasks: TaskSet, num: int, den: int
) -> int:
    """Integer twin of ``_theorem4_bound_from_slack``; needs ``num > 0``.

    ``ceil(numerator / (num / den)) == -((-numerator * den) // num)``
    exactly, so the horizon matches the per-pair test bit for bit.
    """
    numerator = tasks.max_laxity_gap + 2 * pi - theta - 1
    if numerator <= 0:
        # Degenerate single-slot server with implicit deadlines: the
        # utilization condition alone decides, but keep one step point.
        return 1
    return -((-numerator * den) // num)


# -- batch entry points ------------------------------------------------------


def lsched_schedulable_batch(
    requests: Sequence[Tuple[int, int, TaskSet]],
    *,
    stats: Optional[BatchStats] = None,
) -> List[LSchedResult]:
    """Theorem 4 over a whole batch of ``(pi, theta, tasks)`` lanes.

    Result ``i`` equals ``lsched_schedulable(*requests[i])`` bit for bit
    -- same decisions, witnesses, horizons and methods.
    """
    if stats is not None:
        stats.lanes += len(requests)
    results: List[Optional[LSchedResult]] = [None] * len(requests)
    pending: List[Tuple[int, int, int, DemandSignature, int, float, List[str], str, int]] = []
    probe_entries: List[Tuple[DemandSignature, int, int, int]] = []
    probe_meta: List[Tuple[int, int, int, DemandSignature, int, float, List[str]]] = []
    for index, (pi, theta, tasks) in enumerate(requests):
        _validate_server(pi, theta)
        num, den = _raw_slack(pi, theta, tasks)
        names = [task.name for task in tasks]
        if len(tasks) == 0:
            results[index] = LSchedResult(
                schedulable=True,
                horizon=0,
                slack=num / den,
                method="theorem4",
                server=(pi, theta),
            )
        elif num < 0:
            witness = _lsched_overload(pi, theta, tasks)
            results[index] = LSchedResult(
                schedulable=False,
                horizon=witness[0],
                slack=num / den,
                failing_t=witness[0],
                failing_demand=witness[1],
                failing_supply=witness[2],
                method="utilization",
                server=(pi, theta),
                task_names=names,
            )
        elif num == 0:
            # Theorem-3 fallback, exactly as the per-pair test; exact
            # windows are the classic ragged outlier (LCM horizons).
            results[index] = lsched_schedulable_exact(pi, theta, tasks)
            if stats is not None:
                stats.fallback_lanes += 1
        else:
            horizon = _theorem4_bound_raw(pi, theta, tasks, num, den)
            if horizon > INT64_SAFE_HORIZON:
                # Near-zero slack blows the Theorem-4 window past what
                # the int64 lane arrays can represent; decide this lane
                # with the per-pair test (whose QPA descent runs on
                # Python ints) instead of poisoning the whole batch.
                results[index] = lsched_schedulable(pi, theta, tasks)
                if stats is not None:
                    stats.fallback_lanes += 1
                continue
            signature = demand_signature(tasks)
            probe_entries.append((signature, pi, theta, horizon))
            probe_meta.append(
                (index, pi, theta, signature, horizon, num / den, names)
            )
    if probe_entries:
        windows = _qpa_taskset_windows(probe_entries)
        for meta, (verdict, bound) in zip(probe_meta, windows):
            index, pi, theta, signature, horizon, slack_f, names = meta
            if verdict == "schedulable":
                results[index] = LSchedResult(
                    schedulable=True,
                    horizon=horizon,
                    slack=slack_f,
                    method="theorem4",
                    server=(pi, theta),
                    task_names=names,
                )
                if stats is not None:
                    stats.decided_early += 1
            else:
                pending.append(
                    (
                        index,
                        pi,
                        theta,
                        signature,
                        horizon,
                        slack_f,
                        names,
                        verdict,
                        bound,
                    )
                )
    if pending:
        sizes = [
            vec._grid_estimate(vec.step_pairs(entry[3]), entry[8])
            for entry in pending
        ]
        median = float(np.median(np.array(sizes, dtype=np.int64)))
        lane_meta: List[Tuple[int, int, int, DemandSignature, int, float, List[str], str, int]] = []
        grid_index: Dict[Tuple[DemandSignature, int], int] = {}
        build_entries: List[Tuple[DemandSignature, int]] = []
        lane_grid: List[int] = []
        for entry, size in zip(pending, sizes):
            index, pi, theta, signature, horizon, slack_f, names, verdict, bound = entry
            if _is_ragged(size, median):
                results[index] = lsched_schedulable(
                    pi, theta, _taskset_of(requests[index])
                )
                if stats is not None:
                    stats.fallback_lanes += 1
                continue
            key = (signature, bound)
            position = grid_index.get(key)
            if position is None:
                position = len(build_entries)
                grid_index[key] = position
                build_entries.append((signature, bound))
                if stats is not None:
                    stats.grids_built += 1
            elif stats is not None:
                stats.grids_shared += 1
            lane_grid.append(position)
            lane_meta.append(entry)
        built = _taskset_grid_demand_many(build_entries, stats=stats)
        lanes: List[_TasksetLane] = []
        for entry, position in zip(lane_meta, lane_grid):
            index, pi, theta, signature, horizon, slack_f, names, verdict, bound = entry
            grid, curve = built[position]
            lanes.append(
                _TasksetLane(
                    request=index,
                    pi=pi,
                    theta=theta,
                    grid=grid,
                    demand=curve,
                    must_fail=(verdict == "fail"),
                )
            )
        if lanes:
            failures = _first_taskset_failures(lanes, stats)
            for lane, meta, failing_t in zip(lanes, lane_meta, failures):
                index, pi, theta, signature, horizon, slack_f, names, _v, _b = meta
                if failing_t is None:
                    if lane.must_fail:
                        raise AssertionError(
                            "QPA reported a failing point but the batched "
                            "sweep found none; the kernels disagree"
                        )
                    results[index] = LSchedResult(
                        schedulable=True,
                        horizon=horizon,
                        slack=slack_f,
                        method="theorem4",
                        server=(pi, theta),
                        task_names=names,
                    )
                else:
                    results[index] = LSchedResult(
                        schedulable=False,
                        horizon=horizon,
                        slack=slack_f,
                        failing_t=failing_t,
                        failing_demand=dbf_signature_demand(
                            signature, failing_t
                        ),
                        failing_supply=sbf_server(pi, theta, failing_t),
                        method="theorem4",
                        server=(pi, theta),
                        task_names=names,
                    )
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]


def _taskset_of(request: Tuple[int, int, TaskSet]) -> TaskSet:
    return request[2]


def gsched_schedulable_batch(
    requests: Sequence[Tuple[TimeSlotTable, Sequence[Tuple[int, int]]]],
    *,
    stats: Optional[BatchStats] = None,
) -> List[GSchedResult]:
    """Theorem 2 over a whole batch of ``(table, servers)`` lanes.

    Result ``i`` equals ``gsched_schedulable(*requests[i])`` bit for
    bit.
    """
    if stats is not None:
        stats.lanes += len(requests)
    results: List[Optional[GSchedResult]] = [None] * len(requests)
    lanes: List[_ServerLane] = []
    lane_meta: List[Tuple[int, List[Tuple[int, int]], int, float]] = []
    grids: Dict[Tuple[Tuple[Tuple[int, int], ...], int], Tuple[np.ndarray, np.ndarray]] = {}
    pending: List[Tuple[int, TimeSlotTable, List[Tuple[int, int]], int, float, str, int]] = []
    for index, (table, raw_servers) in enumerate(requests):
        servers = [(int(pi), int(theta)) for pi, theta in raw_servers]
        server_bandwidth(servers)  # validates the pairs
        slack = Fraction(table.free_slots, table.total_slots) - sum(
            (Fraction(theta, pi) for pi, theta in servers), Fraction(0)
        )
        if not servers:
            results[index] = GSchedResult(
                schedulable=True,
                horizon=0,
                slack=float(slack),
                method="theorem2",
                servers=[],
            )
        elif slack < 0:
            witness = _gsched_overload(table, servers)
            results[index] = GSchedResult(
                schedulable=False,
                horizon=witness[0],
                slack=float(slack),
                failing_t=witness[0],
                failing_demand=witness[1],
                failing_supply=witness[2],
                method="utilization",
                servers=servers,
            )
        elif slack == 0:
            results[index] = gsched_schedulable_exact(table, servers)
            if stats is not None:
                stats.fallback_lanes += 1
        else:
            horizon = theorem2_bound(table, servers)
            verdict, bound = _qpa_server_window(table, servers, horizon)
            if verdict == "schedulable":
                results[index] = GSchedResult(
                    schedulable=True,
                    horizon=horizon,
                    slack=float(slack),
                    method="theorem2",
                    servers=servers,
                )
                if stats is not None:
                    stats.decided_early += 1
            else:
                pending.append(
                    (index, table, servers, horizon, float(slack), verdict, bound)
                )
    if pending:
        sizes = [
            sum(entry[6] // pi for pi, _theta in entry[2]) for entry in pending
        ]
        median = float(np.median(np.array(sizes, dtype=np.int64)))
        for entry, size in zip(pending, sizes):
            index, table, servers, horizon, slack_f, verdict, bound = entry
            if _is_ragged(size, median):
                results[index] = gsched_schedulable(table, servers)
                if stats is not None:
                    stats.fallback_lanes += 1
                continue
            key = (tuple(sorted(servers)), bound)
            cached = grids.get(key)
            if cached is None:
                cached = _server_grid_demand(servers, bound, stats=stats)
                grids[key] = cached
                if stats is not None:
                    stats.grids_built += 1
            elif stats is not None:
                stats.grids_shared += 1
            grid, curve = cached
            lanes.append(
                _ServerLane(
                    request=index,
                    table=table,
                    servers=servers,
                    grid=grid,
                    demand=curve,
                    must_fail=(verdict == "fail"),
                )
            )
            lane_meta.append((index, servers, horizon, slack_f))
        if lanes:
            failures = _first_server_failures(lanes, stats)
            for lane, meta, failing_t in zip(lanes, lane_meta, failures):
                index, servers, horizon, slack_f = meta
                if failing_t is None:
                    if lane.must_fail:
                        raise AssertionError(
                            "QPA reported a failing point but the batched "
                            "sweep found none; the kernels disagree"
                        )
                    results[index] = GSchedResult(
                        schedulable=True,
                        horizon=horizon,
                        slack=slack_f,
                        method="theorem2",
                        servers=servers,
                    )
                else:
                    demand = sum(
                        (failing_t // pi) * theta for pi, theta in servers
                    )
                    results[index] = GSchedResult(
                        schedulable=False,
                        horizon=horizon,
                        slack=slack_f,
                        failing_t=failing_t,
                        failing_demand=demand,
                        failing_supply=lane.table.sbf(failing_t),
                        method="theorem2",
                        servers=servers,
                    )
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]
