"""End-to-end latency bounds for cause-effect chains.

Composes the per-hop response-time bounds (Sec. IV's Theorem 1-4
machinery: Eq. 8 server supply against EDF demand for R-channel hops,
table placement for P-channel hops) into the two standard end-to-end
metrics for implicit (register) communication, where each job reads its
input at release and publishes its output at completion:

* **maximum data age**: ``sum_i R_i + sum_{i<n} T_i``.  Walking
  backward from an output job released at ``r_n``, the freshest
  predecessor value was published by a hop-``i`` job released at most
  ``T_i + R_i`` before the hop-``i+1`` release (periodic releases put a
  job in every window of length ``T_i``, and it publishes within
  ``R_i``); the output itself completes within ``R_n``.
* **maximum reaction time**: ``sum_i (T_i + R_i)``.  An input arriving
  just after a first-hop release waits up to ``T_1`` for the next
  sample, then propagates forward paying at most ``T_i`` to be picked
  up plus ``R_i`` to complete per hop.

The two differ by exactly ``T_n`` (reaction adds the sampling delay of
the *first* hop; data age drops the period of the *last*), which the
tests assert as an invariant.  Both bounds are sound but pessimistic --
the differential suite in ``tests/properties`` checks the sound
direction against every simulated chain instance.

P-channel hops use the table-placement bound ``R = D`` (their slots all
land inside the deadline window by construction); R-channel hops use
:func:`repro.analysis.response_time.response_time_bound` against the
hop VM's *entire* run-time population -- a superset of the demand the
hop actually competes with on any one device, hence sound under the
per-device simulation model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.analysis.response_time import (
    pchannel_response_bound,
    response_time_bound,
)
from repro.chains.model import CauseEffectChain
from repro.core.gsched import ServerSpec
from repro.tasks.task import TaskKind
from repro.tasks.taskset import TaskSet


@dataclass(frozen=True)
class HopBound:
    """Per-hop ingredients of the end-to-end bounds."""

    task_name: str
    period: int
    deadline: int
    #: Sound response-time bound in slots; None when the hop's WCRT
    #: iteration diverged past its deadline (hop unschedulable).
    response_bound: Optional[int]
    #: "runtime" (R-channel, server bound) or "predefined" (P-channel,
    #: table-placement bound).
    channel: str


@dataclass(frozen=True)
class ChainBound:
    """Analytical end-to-end verdict for one chain."""

    chain_name: str
    hops: Tuple[HopBound, ...]

    @property
    def bounded(self) -> bool:
        """True when every hop has a finite response-time bound."""
        return all(hop.response_bound is not None for hop in self.hops)

    @property
    def data_age_bound(self) -> Optional[int]:
        """``sum_i R_i + sum_{i<n} T_i``; None when any hop diverged."""
        if not self.bounded:
            return None
        responses = sum(hop.response_bound or 0 for hop in self.hops)
        periods = sum(hop.period for hop in self.hops[:-1])
        return responses + periods

    @property
    def reaction_time_bound(self) -> Optional[int]:
        """``sum_i (T_i + R_i)``; None when any hop diverged."""
        if not self.bounded:
            return None
        return sum(
            hop.period + (hop.response_bound or 0) for hop in self.hops
        )

    def summary(self) -> str:
        age = self.data_age_bound
        reaction = self.reaction_time_bound
        return (
            f"{self.chain_name}: {len(self.hops)} hops, "
            f"data age <= {age if age is not None else 'unbounded'}, "
            f"reaction <= {reaction if reaction is not None else 'unbounded'}"
        )


def analyze_chain(
    chain: CauseEffectChain,
    tasks: TaskSet,
    servers: Mapping[int, ServerSpec],
) -> ChainBound:
    """Bound one chain's end-to-end latencies over the two-layer schedule.

    ``tasks`` must contain every hop plus the rest of each hop VM's
    run-time population (the competing EDF demand); ``servers`` maps
    each hop VM to its ``(Pi, Theta)`` reservation.
    """
    populations: Dict[int, TaskSet] = tasks.runtime().by_vm()
    hops = []
    for task in chain.resolve(tasks):
        if task.kind == TaskKind.PREDEFINED:
            bound = pchannel_response_bound(task)
            channel = "predefined"
        else:
            if task.vm_id not in servers:
                raise KeyError(
                    f"chain {chain.name!r} hop {task.name!r} runs on VM "
                    f"{task.vm_id}, which has no server; "
                    f"configured: {sorted(servers)}"
                )
            spec = servers[task.vm_id]
            bound = response_time_bound(
                spec.pi, spec.theta, populations[task.vm_id], task.name
            )
            channel = "runtime"
        hops.append(
            HopBound(
                task_name=task.name,
                period=task.period,
                deadline=task.deadline,
                response_bound=bound.wcrt,
                channel=channel,
            )
        )
    return ChainBound(chain_name=chain.name, hops=tuple(hops))


def analyze_chain_set(
    chains: Tuple[CauseEffectChain, ...],
    tasks: TaskSet,
    servers: Mapping[int, ServerSpec],
) -> Dict[str, ChainBound]:
    """Per-chain bounds for a whole workload, keyed by chain name."""
    return {chain.name: analyze_chain(chain, tasks, servers) for chain in chains}
