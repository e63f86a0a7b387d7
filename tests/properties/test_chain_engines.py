"""Reference differential for the chain-analysis composition path.

The Theorem 2/4 property suites prove the production tests agree with
their scalar references; chain analysis adds one more shared kernel --
the per-hop response-time bound, which production computes with the
closed-form supply inverse and :func:`response_time_bound_reference`
with the fixed-point scan.  This suite pins their equality on every hop
bound the chain analysis produces, across randomized servers, task sets
and whole systems.
"""

import pytest

from repro.analysis import response_time
from repro.analysis.response_time import (
    response_time_bound,
    response_time_bound_reference,
)
from repro.api import (
    ChainConfig,
    ChainWorkloadConfig,
    analyze,
    analyze_chains,
    build_chain_system,
)
from repro.chains import analysis as chain_analysis
from repro.sim.rng import RandomSource
from repro.tasks.generators import generate_random_taskset


def reference_report(system, chains, monkeypatch):
    """``analyze_chains`` with every hop bound from the reference scan."""
    with monkeypatch.context() as patch:
        patch.setattr(
            chain_analysis, "response_time_bound", response_time_bound_reference
        )
        return analyze_chains(system, chains)


class TestResponseTimeEngineDifferential:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_server_and_taskset_agree(self, seed):
        rng = RandomSource(seed, "rtb-engines")
        pi = rng.randint(2, 15)
        theta = rng.randint(1, pi)
        tasks = generate_random_taskset(
            seed,
            task_count=rng.randint(1, 5),
            total_utilization=round(rng.uniform(0.1, 0.9), 3),
            period_min=5,
            period_max=120,
            name=f"rtb{seed}",
        )
        for task in tasks:
            reference = response_time_bound_reference(pi, theta, tasks, task.name)
            production = response_time_bound(pi, theta, tasks, task.name)
            assert reference == production, (
                f"bounds disagree for {task.name!r} on server "
                f"({pi}, {theta}): reference={reference} production={production}"
            )

    def test_divergent_case_agrees_on_none(self):
        tasks = generate_random_taskset(
            3, task_count=4, total_utilization=2.0,
            period_min=5, period_max=40,
        )
        results = {
            bound.__name__: [bound(10, 1, tasks, task.name) for task in tasks]
            for bound in (response_time_bound_reference, response_time_bound)
        }
        assert results["response_time_bound_reference"] == (
            results["response_time_bound"]
        )
        # A starved server must actually produce unbounded hops, or this
        # case tests nothing.
        assert any(
            bound.wcrt is None for bound in results["response_time_bound"]
        )


class TestChainAnalysisEngineDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_whole_chain_reports_agree(self, seed, monkeypatch):
        config = ChainConfig(
            seed=seed,
            workload=ChainWorkloadConfig(
                chain_count=3,
                hops_min=1,
                hops_max=4,
                total_utilization=0.5,
                vm_count=2,
                periods=(10, 20, 40, 80),
                period_weights=(4, 3, 2, 1),
            ),
        )
        system, chains = build_chain_system(config)
        scalar = reference_report(system, chains, monkeypatch)
        production = analyze_chains(system, chains)
        assert scalar.chains == production.chains
        assert scalar.schedulable == production.schedulable
        assert analyze(system, engine="scalar").schedulable == (
            production.base.schedulable
        )
        for chain in chains:
            assert scalar.data_age_bound(chain.name) == (
                production.data_age_bound(chain.name)
            )
            assert scalar.reaction_time_bound(chain.name) == (
                production.reaction_time_bound(chain.name)
            )

    def test_default_engine_gives_scalar_bound_on_every_hop(self, monkeypatch):
        """Production takes the closed-form supply inverse (not a silent
        fallback to the scalar scan) and matches the reference bound on
        every hop."""
        config = ChainConfig(
            seed=5,
            workload=ChainWorkloadConfig(
                chain_count=2, hops_min=2, hops_max=3,
                total_utilization=0.4, periods=(10, 20),
            ),
        )
        system, chains = build_chain_system(config)
        scalar = reference_report(system, chains, monkeypatch)
        inverse_calls = []
        inverse = response_time.sbf_server_inverse

        def counting_inverse(*args):
            inverse_calls.append(args)
            return inverse(*args)

        monkeypatch.setattr(response_time, "sbf_server_inverse", counting_inverse)
        default = analyze_chains(system, chains)
        assert default.chains == scalar.chains
        assert inverse_calls
