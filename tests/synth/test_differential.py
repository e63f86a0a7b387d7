"""Differential properties: searched designs vs the reference analysis.

The synthesis acceptance contract, asserted end to end:

* every synthesized design re-passes the scalar reference tests (the
  search's own oracle never grades its own homework), and the verdicts
  synthesis stores are the ones the references compute;
* ``sum Theta/Pi`` never exceeds the hand-written example baselines;
* the canonical payload is byte-identical across reruns and worker
  counts (``REPRO_JOBS``);
* the search effort over the pinned sweep stays within its oracle-call
  budget (call counts are deterministic, so the pin is exact).
"""

from repro.analysis.gsched_test import gsched_schedulable_reference
from repro.analysis.lsched_test import lsched_schedulable_reference
from repro.api import synthesize
from repro.exp.runner import ExperimentRunner
from repro.exp.synth import (
    SYNTH_SCENARIOS,
    SynthCell,
    run_synth_cell,
    run_synth_sweep,
    scenario_names,
)
from repro.tasks.taskset import TaskSet

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
        """The Theorem-2/4 verdicts synthesis stores equal the scalar
        references' on the synthesized design, field for field."""
        builders = {name: builder for name, builder, _ in SYNTH_SCENARIOS}
        config = builders["admission-control"]()
        report = synthesize(config)
        assert report.schedulable
        assert report.global_result == gsched_schedulable_reference(
            report.table, report.server_pairs()
        )
        by_vm = TaskSet(list(config.tasks)).runtime().by_vm()
        assert sorted(report.local_results) == sorted(by_vm)
        for spec in report.servers:
            assert report.local_results[spec.vm_id] == (
                lsched_schedulable_reference(spec.pi, spec.theta, by_vm[spec.vm_id])
            )

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
