#!/usr/bin/env python3
"""Online admission control over the two-layer scheduler.

A mode change in a vehicle (entering a parking-assist mode, starting a
diagnostic session) registers new sporadic I/O tasks at run time.  The
``repro.api`` facade routes each request through the incremental
Theorem-4 admission test, so admitted sets always keep the full Sec. IV
guarantee -- and the guarantee is then *demonstrated* by executing the
admitted workload on the hypervisor without a single deadline miss.
"""

from repro.api import (
    IOTask,
    ServerConfig,
    SystemConfig,
    admit,
    build_system,
    simulate,
)


def main() -> None:
    # A hypervisor configuration with a half-loaded P-channel table and
    # two VMs: a 40%-bandwidth control VM and a 30%-bandwidth infotainment
    # VM (slots of 10 us).
    system = build_system(
        SystemConfig(
            name="admission-demo",
            table_pattern=[1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
            servers=[
                ServerConfig(0, pi=20, theta=8),
                ServerConfig(1, pi=20, theta=6),
            ],
        )
    )

    requests = [
        IOTask(name="steering_assist", period=100, wcet=8, vm_id=0),
        IOTask(name="park_sensors", period=200, wcet=20, vm_id=0),
        IOTask(name="camera_feed", period=150, wcet=45, vm_id=0),  # too heavy
        IOTask(name="media_stream", period=250, wcet=25, vm_id=1),
        IOTask(name="nav_updates", period=500, wcet=30, vm_id=1),
        IOTask(name="voice_assist", period=200, wcet=40, vm_id=1),  # too heavy
    ]
    print("admission sequence:")
    for task in requests:
        decision = admit(system, task)
        verdict = "ADMIT " if decision.schedulable else "REJECT"
        print(f"  {verdict} {task.name:16s} "
              f"(T={task.period}, C={task.wcet}, VM{task.vm_id}) "
              f"- {decision.reason}")

    controller = system.controller
    print(
        f"\nadmitted {controller.admitted_count}, "
        f"rejected {controller.rejected_count}"
    )
    for vm_id in (0, 1):
        server = system.server_for(vm_id)
        print(
            f"  VM{vm_id}: utilization "
            f"{controller.vm_utilization(vm_id):.3f} under server "
            f"{server.pi, server.theta}"
        )

    # -- prove it: run the admitted workload -------------------------------
    run = simulate(system, horizon=2_000)
    print(
        f"\nexecuted admitted set: {run.completed} jobs, "
        f"{run.deadline_misses} misses"
    )
    assert bool(run), "admission promised schedulability"
    print("admission control demo OK")


if __name__ == "__main__":
    main()
