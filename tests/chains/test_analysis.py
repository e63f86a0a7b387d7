"""Chain end-to-end bound composition."""

import pytest

from repro.analysis.response_time import (
    response_time_bound,
    response_time_bound_reference,
)
from repro.chains.analysis import analyze_chain, analyze_chain_set
from repro.chains.model import CauseEffectChain
from repro.core.gsched import ServerSpec
from repro.tasks.task import IOTask, TaskKind
from repro.tasks.taskset import TaskSet


def _two_hop():
    tasks = TaskSet(
        [
            IOTask("rx", period=10, wcet=2, vm_id=0, device="ethernet0"),
            IOTask("tx", period=20, wcet=3, vm_id=0, device="flexray0"),
        ],
        name="pair",
    )
    servers = {0: ServerSpec(0, 5, 5)}
    chain = CauseEffectChain("c", ("rx", "tx"))
    return chain, tasks, servers


class TestAnalyzeChain:
    def test_composes_per_hop_bounds(self):
        chain, tasks, servers = _two_hop()
        bound = analyze_chain(chain, tasks, servers)
        r_rx = response_time_bound(5, 5, tasks, "rx").wcrt
        r_tx = response_time_bound(5, 5, tasks, "tx").wcrt
        assert [hop.response_bound for hop in bound.hops] == [r_rx, r_tx]
        # Data age drops the last period; reaction pays every period.
        assert bound.data_age_bound == r_rx + r_tx + 10
        assert bound.reaction_time_bound == r_rx + r_tx + 10 + 20

    def test_reaction_exceeds_age_by_last_period(self):
        chain, tasks, servers = _two_hop()
        bound = analyze_chain(chain, tasks, servers)
        assert (
            bound.reaction_time_bound - bound.data_age_bound
            == bound.hops[-1].period
        )

    def test_predefined_hop_uses_table_placement_bound(self):
        tasks = TaskSet(
            [
                IOTask(
                    "ptask",
                    period=10,
                    wcet=1,
                    kind=TaskKind.PREDEFINED,
                    vm_id=0,
                ),
                IOTask("run", period=10, wcet=1, vm_id=0),
            ]
        )
        servers = {0: ServerSpec(0, 5, 4)}
        chain = CauseEffectChain("c", ("ptask", "run"))
        bound = analyze_chain(chain, tasks, servers)
        assert bound.hops[0].channel == "predefined"
        assert bound.hops[0].response_bound == 10  # R = D for the table
        assert bound.hops[1].channel == "runtime"

    def test_starved_hop_yields_unbounded_chain(self):
        tasks = TaskSet(
            [
                # Demands 6 slots in a 10-slot deadline from a server
                # guaranteeing only 1 in 10: the WCRT iteration diverges.
                IOTask("hungry", period=10, wcet=6, vm_id=0),
            ]
        )
        servers = {0: ServerSpec(0, 10, 1)}
        chain = CauseEffectChain("c", ("hungry",))
        bound = analyze_chain(chain, tasks, servers)
        assert not bound.bounded
        assert bound.data_age_bound is None
        assert bound.reaction_time_bound is None
        assert "unbounded" in bound.summary()

    def test_missing_server_raises(self):
        chain, tasks, _ = _two_hop()
        with pytest.raises(KeyError, match="no server"):
            analyze_chain(chain, tasks, {3: ServerSpec(3, 5, 5)})

    def test_engines_agree(self):
        """Every hop bound equals the reference scan's."""
        chain, tasks, servers = _two_hop()
        bound = analyze_chain(chain, tasks, servers)
        assert [hop.response_bound for hop in bound.hops] == [
            response_time_bound_reference(5, 5, tasks, name).wcrt
            for name in ("rx", "tx")
        ]


class TestAnalyzeChainSet:
    def test_keyed_by_chain_name(self):
        chain, tasks, servers = _two_hop()
        other = CauseEffectChain("d", ("tx",))
        bounds = analyze_chain_set((chain, other), tasks, servers)
        assert set(bounds) == {"c", "d"}
        assert bounds["d"].data_age_bound == bounds["d"].hops[0].response_bound

    def test_single_hop_age_has_no_period_term(self):
        chain, tasks, servers = _two_hop()
        solo = CauseEffectChain("solo", ("rx",))
        bound = analyze_chain(solo, tasks, servers)
        r_rx = response_time_bound(5, 5, tasks, "rx").wcrt
        assert bound.data_age_bound == r_rx
        assert bound.reaction_time_bound == r_rx + 10
