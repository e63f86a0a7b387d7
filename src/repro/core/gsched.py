"""G-Sched: the global scheduler (Sec. III-A, Sec. IV-A).

The global scheduler "physically connects to the shadow registers in all
I/O pools and the memory banks in the P-channel.  It simultaneously
compares the deadlines of the I/O operations buffered in the shadow
registers and checks free time slots in the time slot table, deciding the
next task to be executed and the starting time point."

The allocation realises the analysis model: each VM i is backed by a
periodic server ``Gamma_i = (Pi_i, Theta_i)`` whose jobs (one per server
period, ``Theta_i`` slots of budget, implicit deadline) are scheduled by
EDF over the free slots of sigma.  Slots no budgeted server can use are
handed out as *background* slots to keep the hardware work-conserving;
background allocation never consumes budget, so the analytic guarantee of
Theorem 1 is untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.trace import TraceRecorder


@dataclass(frozen=True)
class ServerSpec:
    """Static description of one VM's periodic server."""

    vm_id: int
    pi: int
    theta: int

    def __post_init__(self) -> None:
        if self.pi < 1:
            raise ValueError(f"server period must be >= 1, got {self.pi}")
        if not 0 < self.theta <= self.pi:
            raise ValueError(
                f"server budget must satisfy 0 < theta <= pi, got "
                f"theta={self.theta}, pi={self.pi}"
            )

    @property
    def bandwidth(self) -> float:
        return self.theta / self.pi


class _ServerState:
    """Run-time budget accounting for one server."""

    __slots__ = ("spec", "budget", "deadline", "slots_consumed", "_last_boundary")

    def __init__(self, spec: ServerSpec) -> None:
        self.spec = spec
        self.budget = 0
        self.deadline = 0
        self.slots_consumed = 0
        self._last_boundary: Optional[int] = None

    def replenish_if_due(self, slot: int) -> bool:
        """Full replenishment at the latest period boundary <= ``slot``.

        A caller is allowed to advance the clock by more than one slot
        (a fault-stalled executor, a hypervisor skipping P-channel
        windows); every period boundary crossed since the last call
        triggers a catch-up replenishment from the *most recent*
        boundary, so servers never starve after a jump.  Budget does not
        accumulate across missed periods -- unused budget is discarded
        at each boundary, exactly as slot-by-slot ticking would have.
        Returns True when a replenishment happened.
        """
        boundary = slot - slot % self.spec.pi
        if self._last_boundary is not None and boundary <= self._last_boundary:
            return False
        self.budget = self.spec.theta
        self.deadline = boundary + self.spec.pi
        self._last_boundary = boundary
        return True


@dataclass(frozen=True)
class Allocation:
    """G-Sched decision for one free slot."""

    vm_id: int
    #: True when the slot was granted from the VM's server budget; False
    #: for work-conserving background slots.
    budgeted: bool


class GlobalScheduler:
    """EDF allocation of free time slots to VM servers."""

    def __init__(
        self,
        servers: List[ServerSpec],
        name: str = "gsched",
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.name = name
        self.trace = trace
        self._states: Dict[int, _ServerState] = {}
        for spec in servers:
            if spec.vm_id in self._states:
                raise ValueError(f"duplicate server for VM {spec.vm_id}")
            self._states[spec.vm_id] = _ServerState(spec)
        self.budgeted_grants = 0
        self.background_grants = 0
        self.idle_slots = 0
        #: Earliest slot at which some server crosses a period boundary
        #: it has not replenished at yet; ``-inf`` before the first tick.
        self._next_boundary: float = -math.inf

    @property
    def total_bandwidth(self) -> float:
        return sum(state.spec.bandwidth for state in self._states.values())

    def budget_of(self, vm_id: int) -> int:
        return self._states[vm_id].budget

    @property
    def next_boundary(self) -> float:
        """Earliest slot at which :meth:`tick` next replenishes a server
        (``-inf`` before the first tick, ``inf`` with no servers)."""
        return self._next_boundary

    def tick(self, slot: int) -> None:
        """Advance budget accounting to slot ``slot``.

        Call it every slot, or after any jump of the clock: a server
        replenishes exactly when :meth:`_ServerState.replenish_if_due`
        says so (inlined here), and slots before the earliest pending
        period boundary return at once.
        """
        if slot < self._next_boundary:
            return
        trace = self.trace
        # Every server has replenished by the end of the loop, at its
        # last boundary ``deadline - pi``; its next one is its deadline.
        earliest: float = math.inf
        for state in self._states.values():
            spec = state.spec
            boundary = slot - slot % spec.pi
            last = state._last_boundary
            if last is None or boundary > last:
                state.budget = spec.theta
                state.deadline = boundary + spec.pi
                state._last_boundary = boundary
                if trace is not None:
                    trace.record(
                        slot,
                        "gsched.replenish",
                        self.name,
                        vm=spec.vm_id,
                        budget=state.budget,
                        server_deadline=state.deadline,
                    )
            if state.deadline < earliest:
                earliest = state.deadline
        self._next_boundary = earliest

    def allocate(
        self,
        slot: int,
        pending_vms: Dict[int, int],
    ) -> Optional[Allocation]:
        """Decide which VM receives free slot ``slot``.

        ``pending_vms`` maps vm_id -> earliest staged absolute deadline
        (the shadow-register contents); VMs with empty pools are absent.
        Selection order:

        1. EDF over *server* deadlines among servers with remaining
           budget and pending work (consumes one budget unit), matching
           the analysis;
        2. otherwise, background: EDF over the *job* deadlines in the
           shadow registers (no budget consumed);
        3. otherwise the slot idles.
        """
        if not pending_vms:
            self.idle_slots += 1
            return None
        eligible = [
            (state.deadline, pending_vms[vm_id], vm_id)
            for vm_id, state in self._states.items()
            if state.budget > 0 and vm_id in pending_vms
        ]
        if eligible:
            # Server-EDF; ties broken by staged job deadline then vm_id,
            # which keeps the decision deterministic.
            server_deadline, _job_deadline, vm_id = min(eligible)
            state = self._states[vm_id]
            state.budget -= 1
            state.slots_consumed += 1
            self.budgeted_grants += 1
            if self.trace is not None:
                self.trace.record(
                    slot,
                    "gsched.grant",
                    self.name,
                    vm=vm_id,
                    budgeted=True,
                    budget_left=state.budget,
                    server_deadline=server_deadline,
                )
            return Allocation(vm_id=vm_id, budgeted=True)
        vm_id = min(pending_vms, key=lambda vm: (pending_vms[vm], vm))
        self.background_grants += 1
        if self.trace is not None:
            self.trace.record(
                slot,
                "gsched.grant",
                self.name,
                vm=vm_id,
                budgeted=False,
                job_deadline=pending_vms[vm_id],
            )
        return Allocation(vm_id=vm_id, budgeted=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GlobalScheduler({self.name!r}, servers={len(self._states)}, "
            f"bandwidth={self.total_bandwidth:.3f})"
        )
