"""Unit tests for supply bound functions (Eqs. 1, 2, 8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.supply import (
    linear_sigma_lower_bound,
    linear_supply_lower_bound,
    sbf_server,
    sbf_server_exact_blackout,
    sbf_sigma,
    supply_at_least,
)
from repro.core.timeslot import TimeSlotTable


class TestSbfSigma:
    def test_zero_window(self, small_table):
        assert sbf_sigma(small_table, 0) == 0

    def test_full_hyperperiod_gives_f(self, small_table):
        # Any H-length window contains exactly F free slots.
        assert sbf_sigma(small_table, small_table.total_slots) == (
            small_table.free_slots
        )

    def test_periodic_extension_eq2(self, small_table):
        h = small_table.total_slots
        f = small_table.free_slots
        for t in range(0, 3 * h):
            expected = small_table.enum(t % h) + (t // h) * f
            assert sbf_sigma(small_table, t) == expected

    def test_worst_window_manual(self):
        # Pattern 1 1 0 0: worst 2-window is the occupied pair -> 0 free.
        table = TimeSlotTable.from_pattern([1, 1, 0, 0])
        assert sbf_sigma(table, 1) == 0
        assert sbf_sigma(table, 2) == 0
        assert sbf_sigma(table, 3) == 1
        assert sbf_sigma(table, 4) == 2

    def test_sliding_window_bruteforce(self, small_table):
        """sbf equals the explicit minimum over all window placements."""
        pattern = small_table.occupancy_pattern()
        h = len(pattern)
        free = [1 - bit for bit in pattern] * 4
        for t in range(0, 2 * h):
            brute = min(sum(free[s : s + t]) for s in range(h))
            assert sbf_sigma(small_table, t) == brute, f"t={t}"

    def test_all_free_table(self):
        table = TimeSlotTable.empty(5)
        for t in range(12):
            assert sbf_sigma(table, t) == t

    def test_all_occupied_table(self):
        table = TimeSlotTable.from_pattern([1, 1, 1])
        for t in range(10):
            assert sbf_sigma(table, t) == 0

    def test_negative_t_rejected(self, small_table):
        with pytest.raises(ValueError):
            sbf_sigma(small_table, -1)

    def test_monotone_nondecreasing(self, small_table):
        values = [sbf_sigma(small_table, t) for t in range(40)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_linear_lower_bound_eq6(self, small_table):
        for t in range(0, 50):
            assert sbf_sigma(small_table, t) >= linear_sigma_lower_bound(
                small_table, t
            ) - 1e-9


class TestSbfServer:
    def test_blackout_region_zero(self):
        # Gamma=(10,4): no supply guaranteed before t' >= 0, i.e. t < 6.
        for t in range(0, 6):
            assert sbf_server(10, 4, t) == 0

    def test_hand_computed_values(self):
        # Worst-case phasing of (10, 4): double blackout of 2*(pi-theta)
        # = 12 slots, then 4 supplied slots closing each period.
        assert sbf_server(10, 4, 6) == 0
        assert sbf_server(10, 4, 10) == 0
        assert sbf_server(10, 4, 13) == 1
        assert sbf_server(10, 4, 16) == 4
        assert sbf_server(10, 4, 26) == 8

    def test_matches_blackout_reference(self):
        for pi, theta in [(10, 4), (7, 7), (5, 1), (12, 6), (9, 8)]:
            for t in range(0, 4 * pi):
                assert sbf_server(pi, theta, t) == sbf_server_exact_blackout(
                    pi, theta, t
                ), (pi, theta, t)

    def test_full_bandwidth_server(self):
        # theta == pi: supply is t (no blackout).
        for t in range(20):
            assert sbf_server(10, 10, t) == t

    def test_monotone(self):
        values = [sbf_server(10, 3, t) for t in range(60)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_long_run_rate(self):
        # Over k periods the supply approaches k * theta.
        assert sbf_server(10, 4, 1006) >= 4 * 100 - 10

    def test_invalid_server(self):
        with pytest.raises(ValueError):
            sbf_server(0, 1, 5)
        with pytest.raises(ValueError):
            sbf_server(10, 0, 5)
        with pytest.raises(ValueError):
            sbf_server(10, 11, 5)

    def test_negative_t(self):
        with pytest.raises(ValueError):
            sbf_server(10, 4, -1)

    def test_linear_lower_bound_eq12(self):
        for pi, theta in [(10, 4), (8, 3), (20, 15)]:
            for t in range(0, 5 * pi):
                assert sbf_server(pi, theta, t) >= linear_supply_lower_bound(
                    pi, theta, t
                ) - 1e-9


class TestSupplyAtLeast:
    def test_zero_demand(self, small_table):
        assert supply_at_least(small_table, 0) == 0

    def test_definition(self, small_table):
        for demand in (1, 3, 7, 15):
            t = supply_at_least(small_table, demand)
            assert sbf_sigma(small_table, t) >= demand
            assert t == 0 or sbf_sigma(small_table, t - 1) < demand

    def test_no_free_slots(self):
        table = TimeSlotTable.from_pattern([1, 1])
        with pytest.raises(ValueError, match="no free"):
            supply_at_least(table, 1)

    def test_negative_demand(self, small_table):
        with pytest.raises(ValueError):
            supply_at_least(small_table, -1)

    @settings(max_examples=200, deadline=None)
    @given(
        pattern=st.lists(st.booleans(), min_size=1, max_size=60).filter(
            lambda bits: not all(bits)
        )
    )
    def test_equals_linear_scan_below_three_hyperperiods(self, pattern):
        table = TimeSlotTable.from_pattern([int(bit) for bit in pattern])
        h = table.total_slots
        t = 0
        for demand in range(3 * h):
            while table.sbf(t) < demand:
                t += 1
            assert supply_at_least(table, demand) == t

    def test_free_slot_count_tracks_occupancy_changes(self):
        table = TimeSlotTable.from_pattern([1, 0, 0, 1])
        assert table.free_slots == 2
        table._occupied[1] = True
        table.sbf_cache.clear()
        assert table.free_slots == 1
        assert supply_at_least(table, 1) == 4
