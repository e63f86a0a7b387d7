#!/usr/bin/env python3
"""Schedulability analysis walkthrough (Sec. IV of the paper).

Demonstrates every analytic piece on a worked example, all imported
from the ``repro.api`` facade:

* the Time Slot Table sigma* and its supply bound function (Eqs. 1-2),
* periodic-server supply (Eq. 8) and demand (Eqs. 3, 9),
* the G-Sched test (Theorems 1 + 2) with the pseudo-polynomial horizon,
* the L-Sched test (Theorems 3 + 4) and minimum-budget server design,
* an acceptance-ratio experiment: the fraction of random task systems
  each test admits as utilization grows (the classic schedulability
  plot), run on both analysis engines to show they agree.
"""

import time

from repro.api import (
    TimeSlotTable,
    dbf_server,
    dbf_sporadic,
    generate_random_taskset,
    gsched_schedulable,
    gsched_schedulable_exact,
    lsched_schedulable,
    minimum_budget,
    sbf_server,
    sbf_sigma,
    theorem2_bound,
    theorem4_bound,
)


def slot_table_demo() -> TimeSlotTable:
    print("=== Time Slot Table sigma* ===")
    # A 20-slot hyper-period with 6 slots taken by P-channel jobs.
    table = TimeSlotTable.from_pattern(
        [1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0]
    )
    print(f"H={table.total_slots}, F={table.free_slots}")
    for t in (0, 5, 10, 20, 45):
        print(f"  sbf(sigma, {t:2d}) = {sbf_sigma(table, t)}")
    return table


def server_functions_demo() -> None:
    print("\n=== Periodic server Gamma = (Pi=10, Theta=4) ===")
    for t in (0, 6, 10, 16, 25, 40):
        print(
            f"  t={t:2d}: sbf={sbf_server(10, 4, t):2d}  "
            f"dbf={dbf_server(10, 4, t):2d}"
        )


def gsched_demo(table: TimeSlotTable) -> None:
    print("\n=== G-Sched: Theorems 1 and 2 ===")
    servers = [(10, 3), (14, 4)]
    bound = theorem2_bound(table, servers)
    fast = gsched_schedulable(table, servers)
    exact = gsched_schedulable_exact(table, servers)
    print(f"  servers={servers}, Theorem-2 horizon={bound}")
    print(f"  Theorem 2 verdict: {fast.schedulable} (checked t < {fast.horizon})")
    print(f"  Theorem 1 verdict: {exact.schedulable} (checked t <= {exact.horizon})")
    assert fast.schedulable == exact.schedulable


def lsched_demo() -> None:
    print("\n=== L-Sched: Theorems 3, 4 and server design ===")
    tasks = generate_random_taskset(
        seed=7, task_count=4, total_utilization=0.25, name="vm0"
    )
    for task in tasks:
        print(
            f"  {task.name}: T={task.period} C={task.wcet} D={task.deadline} "
            f"(dbf at D: {dbf_sporadic(task, task.deadline)})"
        )
    pi = 20
    theta = minimum_budget(pi, tasks)
    print(f"  minimum budget for Pi={pi}: Theta={theta}")
    result = lsched_schedulable(pi, theta, tasks)
    print(
        f"  Theorem 4 verdict with ({pi}, {theta}): {result.schedulable} "
        f"(horizon {theorem4_bound(pi, theta, tasks)})"
    )
    tight = lsched_schedulable(pi, theta - 1, tasks) if theta > 1 else None
    if tight is not None:
        print(f"  with Theta={theta - 1}: {tight.schedulable} (minimality check)")


def acceptance_ratio_experiment() -> None:
    """The classic acceptance plot, run once per analysis engine.

    The vectorized engine (QPA descent + numpy step-point sweeps) must
    agree with the scalar reference on every single verdict; it earns
    its keep on the larger near-boundary systems.
    """
    print("\n=== Acceptance ratio vs utilization (Theorem 4) ===")
    pi, theta = 20, 14  # a 70%-bandwidth server
    samples = 40
    for engine_name in ("scalar", "vectorized"):
        started = time.perf_counter()
        rows = []
        for utilization in (0.3, 0.4, 0.5, 0.6, 0.7):
            accepted = 0
            for seed in range(samples):
                tasks = generate_random_taskset(
                    seed=1000 + seed,
                    task_count=5,
                    total_utilization=utilization,
                    name=f"u{utilization}s{seed}",
                )
                verdict = lsched_schedulable(pi, theta, tasks, engine=engine_name)
                if verdict.schedulable:
                    accepted += 1
            rows.append((utilization, accepted))
        elapsed = time.perf_counter() - started
        print(f"  engine={engine_name} ({elapsed * 1000:.1f} ms):")
        for utilization, accepted in rows:
            print(
                f"    U={utilization:.1f}: accepted {accepted}/{samples} "
                f"({100 * accepted / samples:.0f}%)"
            )


def main() -> None:
    table = slot_table_demo()
    server_functions_demo()
    gsched_demo(table)
    lsched_demo()
    acceptance_ratio_experiment()
    print("\nschedulability walkthrough complete")


if __name__ == "__main__":
    main()
