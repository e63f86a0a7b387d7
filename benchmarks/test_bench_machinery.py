"""Library machinery benches: throughput of the core building blocks.

Not paper figures -- engineering numbers for the reproduction itself:
how fast the hypervisor steps slots, how many admission decisions per
second, how fast the event-driven NoC moves packets.  Regressions here
are regressions in every experiment's wall-clock time.
"""

from repro.core.admission import AdmissionController
from repro.core.gsched import ServerSpec
from repro.core.hypervisor import HypervisorConfig, IOGuardHypervisor
from repro.core.driver import VirtualizationDriver
from repro.core.timeslot import TimeSlotTable
from repro.hw.controller import EthernetController
from repro.hw.devices import EchoDevice
from repro.noc.network import NocNetwork
from repro.noc.packet import Packet, PacketKind
from repro.sim.engine import Simulator
from repro.sim.rng import RandomSource
from repro.tasks.task import IOTask, TaskKind
from repro.tasks.taskset import TaskSet


def test_bench_hypervisor_slot_rate(benchmark):
    """Slots stepped per second with a loaded R-channel."""
    hypervisor = IOGuardHypervisor(HypervisorConfig())
    driver = VirtualizationDriver(
        EthernetController("eth0"), EchoDevice("dev", service_cycles=50)
    )
    predefined = TaskSet([
        IOTask(name="p0", period=20, wcet=3, kind=TaskKind.PREDEFINED,
               device="eth0", payload_bytes=32),
    ])
    hypervisor.attach_device(
        "eth0", driver, predefined,
        [ServerSpec(0, 10, 3), ServerSpec(1, 10, 3)],
    )
    tasks = [
        IOTask(name=f"r{i}", period=40 + 10 * i, wcet=3, vm_id=i % 2,
               device="eth0", payload_bytes=32)
        for i in range(6)
    ]

    state = {"slot": 0}

    def step_block():
        base = state["slot"]
        for offset in range(1_000):
            slot = base + offset
            for task in tasks:
                if slot % task.period == 0:
                    hypervisor.submit(
                        task.job(release=slot, index=slot // task.period)
                    )
            hypervisor.step(slot)
        state["slot"] = base + 1_000
        return hypervisor.pending_jobs

    benchmark(step_block)
    assert hypervisor.completed_jobs


def test_bench_admission_rate(benchmark):
    """Admission decisions per second on a populated controller."""
    rng = RandomSource(5, "bench-adm")
    state = {"counter": 0}

    def admit_batch():
        controller = AdmissionController(
            TimeSlotTable.empty(50),
            [ServerSpec(0, 20, 8), ServerSpec(1, 20, 8)],
        )
        admitted = 0
        for i in range(50):
            state["counter"] += 1
            task = IOTask(
                name=f"t{state['counter']}",
                period=rng.choice([40, 80, 100, 200]),
                wcet=rng.randint(1, 6),
                vm_id=i % 2,
            )
            if controller.try_admit(task).schedulable:
                admitted += 1
        return admitted

    admitted = benchmark(admit_batch)
    assert admitted > 0


def test_bench_noc_packet_rate(benchmark):
    """Event-network packets delivered per second (hotspot traffic)."""
    def run_network():
        sim = Simulator()
        network = NocNetwork(sim)
        nodes = [(x, y) for x in range(5) for y in range(5) if (x, y) != (4, 4)]
        for i, source in enumerate(nodes * 8):
            network.inject(
                Packet(
                    source=source,
                    destination=(4, 4),
                    kind=PacketKind.REQUEST,
                    payload_bytes=32,
                )
            )
        sim.run()
        return len(network.delivered)

    delivered = benchmark(run_network)
    assert delivered == 24 * 8
