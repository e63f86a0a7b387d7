"""Engine selection and the single-source-of-truth cutoff constant."""

import pytest

from repro.analysis import gsched_test, linear_test, lsched_test
from repro.analysis.batched import lsched_schedulable_batch
from repro.analysis.engine import ENGINES, VECTORIZE_MIN_POINTS, resolve_engine
from repro.api import IOTask, SystemConfig, analyze, analyze_many, build_system


class TestResolution:
    def test_none_resolves_to_vectorized(self):
        assert resolve_engine(None) == "vectorized"
        for engine in ENGINES:
            assert resolve_engine(engine) == engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown analysis engine"):
            resolve_engine("simd")

    def test_registry_has_two_engines(self):
        assert ENGINES == ("scalar", "vectorized")

    def test_batched_engine_name_rejected_everywhere(self):
        """The retired third engine name fails loudly at every entry
        point instead of silently running some other path."""
        system = build_system(
            SystemConfig(tasks=[IOTask(name="t", period=50, wcet=5, vm_id=0)])
        )
        tasks = system.tasks.runtime()
        retired = "batched"
        calls = (
            lambda: analyze(system, engine=retired),
            lambda: analyze_many([system], engine=retired),
            lambda: lsched_schedulable_batch([(10, 5, tasks)], engine=retired),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"expected one of \('scalar', 'vectorized'\)"):
                call()


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
