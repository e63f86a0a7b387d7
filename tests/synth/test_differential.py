"""Differential properties: searched designs vs the reference analysis.

The synthesis acceptance contract, asserted end to end:

* every synthesized design re-passes the ``"scalar"`` reference engine
  (the search's own oracle never grades its own homework);
* ``sum Theta/Pi`` never exceeds the hand-written example baselines;
* the canonical payload is byte-identical across engines, reruns and
  worker counts (``REPRO_JOBS``);
* the search effort over the pinned sweep stays within its oracle-call
  budget (call counts are deterministic, so the pin is exact).
"""

from repro.analysis.engine import ENGINES
from repro.exp.runner import ExperimentRunner
from repro.exp.synth import (
    SynthCell,
    run_synth_cell,
    run_synth_sweep,
    scenario_names,
)

#: Total oracle calls the pinned sweep may spend.
MAX_SWEEP_ORACLE_CALLS = 200


class TestScalarReverification:
    def test_every_scenario_engine_cell_verifies(self):
        sweep = run_synth_sweep()
        assert sweep.all_feasible
        assert sweep.all_scalar_verified


class TestBandwidthBaselines:
    def test_never_worse_than_hand_written_or_seed(self):
        sweep = run_synth_sweep()
        assert sweep.all_bandwidth_ok
        admission = sweep.for_scenario("admission-control")[0]
        assert admission.bandwidth <= 8 / 20 + 6 / 20
        assert admission.improved


class TestByteIdentity:
    def test_identical_across_engines(self):
        digests = {
            run_synth_cell(
                SynthCell("admission-control", engine)
            ).payload_digest
            for engine in ENGINES
        }
        assert len(digests) == 1

    def test_identical_across_worker_counts(self):
        serial = run_synth_sweep(runner=ExperimentRunner(1))
        parallel = run_synth_sweep(runner=ExperimentRunner(2))
        for scenario in scenario_names():
            first = {c.payload_digest for c in serial.for_scenario(scenario)}
            second = {
                c.payload_digest for c in parallel.for_scenario(scenario)
            }
            assert first == second
            assert len(first) == 1

    def test_identical_across_reruns(self):
        first = run_synth_cell(SynthCell("quickstart"))
        second = run_synth_cell(SynthCell("quickstart"))
        assert first.payload_digest == second.payload_digest
        assert first.oracle_calls == second.oracle_calls


class TestSearchEffort:
    def test_sweep_stays_within_oracle_budget(self):
        sweep = run_synth_sweep()
        assert sweep.total_oracle_calls <= MAX_SWEEP_ORACLE_CALLS
