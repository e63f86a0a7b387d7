"""LCM / hyper-period utilities shared by the exact tests."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Tuple

from repro.analysis.cache import register_cache


@lru_cache(maxsize=1 << 16)
def _lcm_cached(values: Tuple[int, ...]) -> int:
    result = 1
    for value in values:
        if value <= 0:
            raise ValueError(f"hyper-period needs positive values, got {value}")
        result = math.lcm(result, value)
    return result


register_cache("hyperperiod.lcm", _lcm_cached)


def lcm_all(values: Iterable[int]) -> int:
    """LCM of all values (1 for the empty iterable).

    Raises ``ValueError`` for non-positive inputs: periods of zero or
    below have no hyper-period.  Memoized on the value tuple: task sets
    are re-analyzed across sweep cells with identical periods.
    """
    return _lcm_cached(tuple(values))


#: What :func:`_lcm_capped_cached` memoizes for a tuple whose LCM
#: exceeds the cap.  A sentinel, not a raise: ``lru_cache`` stores no
#: exception, so a raising reduction would be redone on every call.
_OVER_CAP = -1


@lru_cache(maxsize=1 << 16)
def _lcm_capped_cached(values: Tuple[int, ...], cap: int) -> int:
    result = 1
    for value in values:
        if value <= 0:
            raise ValueError(f"hyper-period needs positive values, got {value}")
        result = math.lcm(result, value)
        if result > cap:
            # The running LCM only ever grows, so bail before folding in
            # the remaining values: with adversarial co-prime inputs the
            # full product is astronomically large and computing it would
            # defeat the guard this function exists to provide.
            return _OVER_CAP
    return result


register_cache("hyperperiod.lcm_capped", _lcm_capped_cached)


def lcm_capped(values: Iterable[int], cap: int) -> int:
    """LCM with an explicit explosion guard.

    Exact tests (Theorems 1 and 3 checked to the LCM) are exponential in
    the input values; callers pass a cap and fall back to the
    pseudo-polynomial tests when it is exceeded.  The cap is enforced
    *inside* the reduction loop: the guard bails out as soon as the
    running LCM crosses it instead of materializing the full LCM first.
    Over-cap verdicts are memoized like any other, so a rerun of the
    same failing tuple raises ``OverflowError`` without reducing again.
    """
    result = _lcm_capped_cached(tuple(values), cap)
    if result == _OVER_CAP:
        raise OverflowError(
            f"hyper-period exceeds cap {cap}; use the pseudo-polynomial test"
        )
    return result
