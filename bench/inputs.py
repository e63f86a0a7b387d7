"""Seeded workload inputs.

Everything the benchmark feeds the program is a pure function of the
``--seed`` argument (and of an item's index), drawn here from
``random.Random`` streams keyed by strings -- string seeding hashes
with SHA-512, so the draws do not depend on ``PYTHONHASHSEED``.  The
program under test only ever sees the generated configs and requests.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Tuple

#: Hyper-period bases of the ``design`` workload: every task period is a
#: product of a sub-multiset of one of these factor lists, so the LCM of
#: any subset of periods divides the basis hyper-period (the
#: factor-filter sampler of the end-to-end-latency literature).
HYPERPERIOD_BASES: Dict[int, Tuple[int, ...]] = {
    1000: (2, 2, 2, 5, 5, 5),
    3600: (2, 2, 2, 2, 3, 3, 5, 5),
    6000: (2, 2, 2, 2, 3, 5, 5, 5),
}

#: Config shapes cycle through every (H, pre-defined count, VM count)
#: combination, H fastest, so each run of any length sees the same mix
#: whatever the seed: the seed varies the draws inside a shape, not the
#: share of expensive shapes, which keeps run-to-run spread low.
DESIGN_SHAPES: Tuple[Tuple[int, int, int], ...] = tuple(
    (hyperperiod, predefined, vms)
    for vms in range(2, 7)
    for predefined in range(4)
    for hyperperiod in sorted(HYPERPERIOD_BASES)
)

DESIGN_TASKS_PER_VM = (4, 8)
DESIGN_UTILIZATION = (0.25, 0.55)
#: Pre-defined SPI tasks of one config share one period from this range,
#: which keeps the P-channel table short next to the task hyper-period.
SPI_PERIOD_RANGE = (50, 250)


def uunifast(rng: random.Random, count: int, total: float) -> List[float]:
    """``count`` task utilizations summing to ``total`` (Bini & Buttazzo)."""
    shares = []
    remaining = total
    for index in range(1, count):
        following = remaining * rng.random() ** (1.0 / (count - index))
        shares.append(remaining - following)
        remaining = following
    shares.append(remaining)
    return shares


def design_config(seed: int, index: int) -> Tuple[int, Any]:
    """``(H, SystemConfig)`` of the ``index``-th design input.

    Servers are omitted, so ``build_system`` synthesizes them.  Each VM
    gets 4-8 run-time tasks carrying a ``U/n_vm`` share of a system
    utilization ``U`` in [0.25, 0.55]; 0-3 pre-defined SPI tasks go to
    the P-channel.
    """
    from repro.api import IOTask, SystemConfig, TaskKind
    from repro.tasks.generators import HyperperiodBasis

    hyperperiod, predefined, vms = DESIGN_SHAPES[index % len(DESIGN_SHAPES)]
    rng = random.Random(f"design:{seed}:{index}")
    basis = HyperperiodBasis(factors=HYPERPERIOD_BASES[hyperperiod], period_min=20)
    tasks = []
    for vm in range(vms):
        count = rng.randint(*DESIGN_TASKS_PER_VM)
        share = rng.uniform(*DESIGN_UTILIZATION) / vms
        for number, utilization in enumerate(uunifast(rng, count, share)):
            period = basis.sample_period(rng)
            tasks.append(
                IOTask(
                    name=f"d{index}.vm{vm}.t{number}",
                    period=period,
                    wcet=min(period, max(1, math.floor(utilization * period))),
                    vm_id=vm,
                    device=f"dev{vm % 3}",
                )
            )
    low, high = SPI_PERIOD_RANGE
    spi_period = rng.choice(
        [period for period in basis.candidate_periods() if low <= period <= high]
    )
    for number in range(predefined):
        tasks.append(
            IOTask(
                name=f"d{index}.spi{number}",
                period=spi_period,
                wcet=max(1, int(spi_period * rng.uniform(0.02, 0.06))),
                kind=TaskKind.PREDEFINED,
                device="spi0",
            )
        )
    return hyperperiod, SystemConfig(tasks=tasks, name=f"design{index}")


# -- admission service -------------------------------------------------------

SERVE_VMS = 4
#: Per-VM population the churn keeps: admit below it, withdraw above.
SERVE_POPULATION = 6
#: In ``serve-mixed`` every ``ANALYZE_EVERY``-th request is an analyze.
ANALYZE_EVERY = 5


def serve_system() -> Dict[str, Any]:
    """The served system: an H=20 table with 4 busy slots, 4 servers.

    The servers reserve 14 of the 16 free slots per hyper-period, so
    the global Theorem-2 test passes and admissions decide each task.
    """
    return {
        "table_pattern": [1 if slot % 5 == 0 else 0 for slot in range(20)],
        "servers": [
            [vm, 10, 2] if vm % 2 == 0 else [vm, 20, 3] for vm in range(SERVE_VMS)
        ],
    }


@dataclass
class Request:
    """One scheduled request: due offset (s), connection, message."""

    offset: float
    conn: int
    vm: int
    message: Dict[str, Any]


@dataclass
class Churn:
    """Admit/withdraw churn at a steady per-VM population.

    Per VM, admit a fresh task while fewer than ``SERVE_POPULATION`` of
    its admits are outstanding, otherwise withdraw the oldest.  The rule
    reads only what was *sent*, never a reply, so the request stream is
    fixed before the server answers (an open loop); a withdraw of a task
    the server rejected earns a matching ``unknown_task`` reply.
    """

    mixed: bool
    outstanding: Dict[int, Deque[str]] = field(default_factory=dict)
    sent: int = 0
    seq: int = 0
    tasks: int = 0

    def next(self, rng: random.Random, vm: int) -> Dict[str, Any]:
        self.sent += 1
        self.seq += 1
        if self.mixed and self.sent % ANALYZE_EVERY == 0:
            return {
                "op": "analyze",
                "seq": self.seq,
                "tasks": [self._task(rng, vm, probe=True)],
            }
        queue = self.outstanding.setdefault(vm, deque())
        if len(queue) < SERVE_POPULATION:
            task = self._task(rng, vm, probe=False)
            queue.append(task["name"])
            return {"op": "admit", "seq": self.seq, "task": task}
        return {
            "op": "withdraw",
            "seq": self.seq,
            "vm_id": vm,
            "task_name": queue.popleft(),
        }

    def _task(self, rng: random.Random, vm: int, *, probe: bool) -> Dict[str, Any]:
        self.tasks += 1
        return {
            "name": f"vm{vm}.{'probe' if probe else 'task'}{self.tasks}",
            "vm_id": vm,
            "period": rng.choice((50, 100, 200)),
            "wcet": rng.randint(1, 3),
            "device": f"dev{vm}",
        }


def poisson_schedule(
    seed: int,
    phase: str,
    rate: float,
    duration: float,
    churn: Churn,
    connections: int,
) -> List[Request]:
    """Open-loop Poisson arrivals at ``rate`` req/s for ``duration`` s.

    VMs are drawn uniformly and pinned to connection ``vm % connections``,
    which keeps each VM's requests in ``seq`` order on one stream.
    """
    rng = random.Random(f"serve:{seed}:{phase}")
    requests: List[Request] = []
    clock = rng.expovariate(rate)
    while clock < duration:
        vm = rng.randrange(SERVE_VMS)
        requests.append(Request(clock, vm % connections, vm, churn.next(rng, vm)))
        clock += rng.expovariate(rate)
    return requests
