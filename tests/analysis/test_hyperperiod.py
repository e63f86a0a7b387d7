"""Unit tests for LCM utilities."""

import pytest

from repro.analysis.cache import cache_stats, clear_caches
from repro.analysis.hyperperiod import lcm_all, lcm_capped
from repro.exp.acceptance import run_acceptance


class TestLcmAll:
    def test_basic(self):
        assert lcm_all([4, 6]) == 12
        assert lcm_all([2, 3, 5]) == 30

    def test_empty(self):
        assert lcm_all([]) == 1

    def test_single(self):
        assert lcm_all([7]) == 7

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            lcm_all([4, 0])
        with pytest.raises(ValueError):
            lcm_all([-2])


class TestLcmCapped:
    def test_under_cap(self):
        assert lcm_capped([4, 6], cap=100) == 12

    def test_over_cap_raises(self):
        with pytest.raises(OverflowError, match="pseudo-polynomial"):
            lcm_capped([7, 11, 13, 17, 19], cap=1000)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            lcm_capped([0], cap=10)

    def test_early_bail_skips_astronomical_products(self):
        # Regression: the guard must trip at the first cap crossing
        # instead of folding every value first -- with thousands of
        # pairwise-coprime inputs the full LCM has tens of thousands of
        # digits and materializing it defeats the guard.  Keep a bound
        # on the big-int the reduction is allowed to grow: crossing the
        # cap at value k leaves at most cap * values[k] in hand.
        primes = _first_primes(2_000)
        cap = 10**6
        for _attempt in range(3):  # the memoized verdict raises too
            with pytest.raises(OverflowError, match="pseudo-polynomial"):
                lcm_capped(primes, cap)

    def test_bail_point_is_exact(self):
        # 2 * 3 * 5 * 7 = 210; a cap of 209 must reject, 210 accept.
        assert lcm_capped([2, 3, 5, 7], cap=210) == 210
        with pytest.raises(OverflowError):
            lcm_capped([2, 3, 5, 7], cap=209)

    def test_over_cap_verdict_is_memoized(self):
        # Regression: the over-cap raise used to skip lru_cache, so an
        # identical acceptance sweep redid every failing reduction.
        clear_caches()
        first = run_acceptance(samples=30, task_count=5, seed=2021, jobs=1)
        misses = cache_stats()["hyperperiod.lcm_capped"]["misses"]
        assert misses > 0
        second = run_acceptance(samples=30, task_count=5, seed=2021, jobs=1)
        assert cache_stats()["hyperperiod.lcm_capped"]["misses"] == misses
        assert second == first


def _first_primes(count):
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes
