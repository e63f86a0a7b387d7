"""The single-source-of-truth cutoff constant."""

from repro.analysis import gsched_test, linear_test, lsched_test
from repro.analysis.engine import VECTORIZE_MIN_POINTS


class TestVectorizeMinPointsSingleSource:
    def test_theorem_modules_do_not_drift(self):
        """The cutoff is defined once in ``repro.analysis.engine``; the
        theorem-test modules re-export it.  A module growing its own
        value would silently route G-Sched and L-Sched differently."""
        for module in (lsched_test, gsched_test, linear_test):
            assert module.VECTORIZE_MIN_POINTS == VECTORIZE_MIN_POINTS

    def test_pinned_value(self):
        # Deliberate drift guard: retune in engine.py, not per module.
        assert VECTORIZE_MIN_POINTS == 96
