"""Supply bound functions (Sec. IV, Eqs. 1, 2 and 8)."""

from __future__ import annotations

from functools import lru_cache

from repro.analysis.cache import register_cache
from repro.core.timeslot import TimeSlotTable


def sbf_sigma(table: TimeSlotTable, t: int) -> int:
    """``sbf(sigma, t)``: minimum free slots in any window of length t.

    Computed from the time slot table via the enumeration look-up of
    Eq. (1) for ``t < H`` and the periodic extension of Eq. (2) for
    ``t >= H``.  Delegates to :meth:`TimeSlotTable.sbf`, which memoizes
    the enumeration in the table's :class:`~repro.core.timeslot.SbfCache`.
    """
    return table.sbf(t)


def sbf_server_uncached(pi: int, theta: int, t: int) -> int:
    """``sbf(Gamma_i, t)`` of the periodic resource model, Eq. (8).

    ``Gamma = (pi, theta)`` guarantees ``theta`` slots in every ``pi``;
    the worst-case phasing delays supply by up to ``2*(pi - theta)``
    slots, which Eq. (8) captures with the shifted time
    ``t' = t - (pi - theta)``.

    Reference implementation; :func:`sbf_server` adds memoization.
    """
    _validate_server(pi, theta)
    if t < 0:
        raise ValueError(f"sbf requires t >= 0, got {t}")
    t_shift = t - (pi - theta)
    if t_shift < 0:
        return 0
    whole = t_shift // pi
    theta_tail = max(t_shift - pi * whole - (pi - theta), 0)
    return whole * theta + theta_tail


#: Memoized Eq. (8).  Step-point scans re-evaluate the same (pi, theta, t)
#: triples across sweep cells (every acceptance sample shares the server,
#: every server search probes neighbouring budgets), so a process-wide
#: LRU pays for itself quickly; entries are three ints -> int.
sbf_server = register_cache(
    "supply.sbf_server", lru_cache(maxsize=1 << 18)(sbf_server_uncached)
)


def sbf_server_exact_blackout(pi: int, theta: int, t: int) -> int:
    """Reference implementation of Eq. (8) by explicit window sliding.

    The periodic resource model's worst case delivers the budget at the
    *start* of one period and at the *end* of every later period,
    creating the famous ``2*(pi - theta)`` blackout.  This builds that
    adversarial pattern explicitly and slides a window of length ``t``
    over every start position in the first two periods to find the
    minimum supply.  Much slower than :func:`sbf_server`; used by the
    tests to validate the closed form.
    """
    _validate_server(pi, theta)
    if t < 0:
        raise ValueError(f"sbf requires t >= 0, got {t}")
    if t == 0:
        return 0
    periods = (t // pi) + 4
    pattern = [1] * theta + [0] * (pi - theta)  # early delivery
    for _ in range(periods):
        pattern.extend([0] * (pi - theta))
        pattern.extend([1] * theta)  # late delivery ever after
    best = None
    for start in range(2 * pi):
        supplied = sum(pattern[start : start + t])
        if best is None or supplied < best:
            best = supplied
    return int(best or 0)


def sbf_server_inverse(pi: int, theta: int, demand: int) -> int:
    """Smallest window ``t`` with ``sbf_server(pi, theta, t) >= demand``.

    The closed-form inverse of Eq. (8): write ``demand = q*theta + r``
    with ``1 <= r <= theta``; the supply reaches it once ``q`` whole
    periods plus ``r`` tail slots have been delivered after the
    ``2*(pi - theta)`` blackout.  The QPA-style descent of
    :mod:`repro.analysis.vectorized` uses this to skip every step point
    whose supply provably covers the current demand.
    """
    _validate_server(pi, theta)
    if demand <= 0:
        return 0
    whole, tail = divmod(demand - 1, theta)
    tail += 1
    return whole * pi + 2 * (pi - theta) + tail


def linear_supply_lower_bound(pi: int, theta: int, t: int) -> float:
    """The linear lower bound on Eq. (8) used in the Theorem-4 proof.

    ``sbf(Gamma, t) >= t * theta/pi - (2*pi - theta - 1)`` (Eq. 12).
    Returned as a float; it may be negative for small ``t``.
    """
    _validate_server(pi, theta)
    return t * theta / pi - (2 * pi - theta - 1)


def linear_sigma_lower_bound(table: TimeSlotTable, t: int) -> float:
    """The linear lower bound on sbf(sigma, t) from the Theorem-2 proof.

    ``sbf(sigma, t) >= (t - (H - 1)) / H * F`` (Eq. 6).
    """
    h = table.total_slots
    f = table.free_slots
    return (t - (h - 1)) / h * f


def _validate_server(pi: int, theta: int) -> None:
    if pi < 1:
        raise ValueError(f"server period must be >= 1, got {pi}")
    if not 0 < theta <= pi:
        raise ValueError(
            f"server budget must satisfy 0 < theta <= pi, got "
            f"theta={theta}, pi={pi}"
        )


def supply_at_least(table: TimeSlotTable, demand: int) -> int:
    """Smallest window length t with ``sbf(sigma, t) >= demand``.

    Used by server dimensioning to translate a slot requirement into a
    latency bound.  ``demand`` of zero returns 0.

    Whole hyper-periods are jumped in closed form: ``sbf(sigma, k*H + r)
    = k*F + enum(r)`` (Eq. 2), so with ``k = (demand - 1) // F`` the
    remainder needs ``1 <= demand - k*F <= F`` slots.  ``enum`` is
    non-decreasing in the window and ``enum(H) = F``, so the smallest
    such ``r`` in ``[0, H]`` is found by binary search: O(log H) memoized
    Eq. (1) enumerations instead of a linear scan.
    """
    if demand < 0:
        raise ValueError(f"demand must be >= 0, got {demand}")
    if demand == 0:
        return 0
    f = table.free_slots
    if f == 0:
        raise ValueError("table supplies no free slots; demand unreachable")
    whole = (demand - 1) // f
    need = demand - whole * f
    low, high = 0, table.total_slots
    while low < high:
        mid = (low + high) // 2
        if table.sbf_cache.enum(mid) >= need:
            high = mid
        else:
            low = mid + 1
    return whole * table.total_slots + low
