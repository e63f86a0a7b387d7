"""Unit tests for software stack models, VMs and the software VMM."""

import pytest

from repro.sim.rng import RandomSource
from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet
from repro.virt.stack import STACK_MODELS, stack_for
from repro.virt.vm import VirtualMachine
from repro.virt.vmm import SoftwareVMM, VCpuServer


class TestStackModels:
    def test_all_four_systems_modelled(self):
        assert set(STACK_MODELS) == {"legacy", "rt-xen", "bv", "ioguard"}

    def test_lookup(self):
        assert stack_for("ioguard").name == "ioguard"
        with pytest.raises(KeyError):
            stack_for("kvm")

    def test_path_cost_ordering(self):
        """The paper's architecture story: trap-based paths are the most
        expensive, para-virtual forwarding the cheapest."""
        costs = {
            name: model.request_path_cycles
            for name, model in STACK_MODELS.items()
        }
        assert costs["rt-xen"] > costs["legacy"] > costs["bv"] > costs["ioguard"]

    def test_only_rtxen_has_vmm_quantum(self):
        for name, model in STACK_MODELS.items():
            if name == "rt-xen":
                assert model.vmm_quantum_cycles > 0
            else:
                assert model.vmm_quantum_cycles == 0

    def test_request_delay_within_envelope(self):
        rng = RandomSource(3)
        for model in STACK_MODELS.values():
            worst = model.worst_request_delay(0.8)
            for _ in range(50):
                delay = model.request_delay(0.8, rng)
                assert model.request_path_cycles <= delay <= worst + 1e-9

    def test_delay_grows_with_load(self):
        model = stack_for("rt-xen")
        rng_a, rng_b = RandomSource(1), RandomSource(1)
        low = sum(model.request_delay(0.1, rng_a) for _ in range(200))
        high = sum(model.request_delay(0.9, rng_b) for _ in range(200))
        assert high > low

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            stack_for("legacy").request_delay(-0.1, RandomSource(1))


class TestVirtualMachine:
    def make(self):
        tasks = TaskSet([IOTask(name="t", period=10, wcet=2, vm_id=1)])
        return VirtualMachine(1, tasks, system="ioguard")

    def test_task_ownership_checked(self):
        tasks = TaskSet([IOTask(name="t", period=10, wcet=2, vm_id=0)])
        with pytest.raises(ValueError):
            VirtualMachine(1, tasks)

    def test_completion_accounting(self):
        vm = self.make()
        task = vm.tasks["t"]
        met = task.job(0, 0)
        met.completed_at = 5.0
        vm.record_completion(met)
        missed = task.job(10, 1)
        missed.completed_at = 25.0
        vm.record_completion(missed)
        assert vm.jobs_completed == 2
        assert vm.jobs_missed == 1
        assert vm.miss_ratio == 0.5

    def test_foreign_job_rejected(self):
        vm = self.make()
        foreign = IOTask(name="x", period=10, wcet=1, vm_id=9).job(0, 0)
        with pytest.raises(ValueError):
            vm.record_completion(foreign)

    def test_stats(self):
        vm = self.make()
        vm.record_release()
        vm.record_rejection()
        stats = vm.stats()
        assert sorted(stats) == [
            "completed", "missed", "rejected", "released", "utilization", "vm_id"
        ]
        assert stats["released"] == 1
        assert stats["rejected"] == 1
        assert stats["utilization"] == pytest.approx(0.2)


class TestSoftwareVMM:
    def make(self):
        return SoftwareVMM(
            [VCpuServer(0, budget=5, period=10), VCpuServer(1, budget=3, period=10)]
        )

    def test_duplicate_server_rejected(self):
        with pytest.raises(ValueError):
            SoftwareVMM([VCpuServer(0, 1, 10), VCpuServer(0, 2, 10)])

    def test_invalid_server(self):
        with pytest.raises(ValueError):
            VCpuServer(0, budget=11, period=10)

    def test_budget_replenishment(self):
        vmm = self.make()
        vmm.tick(0)
        assert vmm.can_dispatch(0)
        for _ in range(5):
            vmm.consume(0)
        assert not vmm.can_dispatch(0)
        vmm.tick(10)
        assert vmm.can_dispatch(0)

    def test_next_dispatch_slot(self):
        vmm = self.make()
        vmm.tick(0)
        assert vmm.next_dispatch_slot(0, 3) == 3
        for _ in range(5):
            vmm.consume(0)
        assert vmm.next_dispatch_slot(0, 3) == 10
        assert vmm.budget_stalls >= 1

    def test_unknown_vm(self):
        with pytest.raises(KeyError):
            self.make().can_dispatch(9)

    def test_backend_service(self):
        vmm = self.make()
        cycles = vmm.backend_service()
        assert cycles == 1200
        assert vmm.backend_ops == 1
