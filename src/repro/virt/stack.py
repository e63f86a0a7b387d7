"""Per-operation software-path timing for each system architecture.

Every I/O request crosses a different software stack depending on the
system (Fig. 1 vs Fig. 2): guest OS, virtual hardware, VMM, routers.
The model charges each request a *request-path cost* (cycles of software
execution between the application call and the request reaching the I/O
subsystem) and a symmetric *response-path cost*; the VMM-based stack
additionally delays requests to the next VMM scheduling quantum.

Costs are in platform cycles at 100 MHz; component values follow the
published overhead characterisations the paper builds on (trap-and-
emulate round trips cost microseconds; para-virtual forwarding costs
tens of cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.sim.rng import RandomSource, scale_uniform


@dataclass(frozen=True)
class SoftwareStackModel:
    """Timing description of one system's software I/O path."""

    name: str
    #: Application -> I/O subsystem software cycles (fixed part).
    request_path_cycles: int
    #: I/O subsystem -> application software cycles.
    response_path_cycles: int
    #: Relative jitter on the software path (scheduling noise inside the
    #: guest/VMM), as a fraction of the fixed cost.
    path_jitter: float
    #: VMM scheduling quantum in cycles; requests issued mid-quantum
    #: wait for the VMM's next I/O dispatch (0 = no VMM batching).
    vmm_quantum_cycles: int
    #: Extra software cycles per operation that scale with system load
    #: (cache/TLB pressure from co-running VMs).
    load_sensitivity_cycles: int

    @property
    def draws_per_delay(self) -> int:
        """Uniform draws one delay sample consumes: jitter, then the VMM
        quantum residual, each only when the stack has it."""
        return int(self.path_jitter > 0) + int(self.vmm_quantum_cycles > 0)

    def request_delays(self, load: float, uniforms: np.ndarray) -> np.ndarray:
        """Software delays of many requests at one load.

        Row ``i`` of ``uniforms`` holds the ``draws_per_delay`` draws of
        ``random()`` for sample ``i``, in draw order.  Equal, sample for
        sample, to :meth:`request_delay` fed the same draws.
        """
        return self._path_delays(self.request_path_cycles, load, uniforms)

    def response_delays(self, load: float, uniforms: np.ndarray) -> np.ndarray:
        """Software delays of many responses; see :meth:`request_delays`."""
        return self._path_delays(self.response_path_cycles, load, uniforms)

    def request_delay(self, load: float, rng: RandomSource) -> float:
        """Sample the software delay for one request at a given load."""
        return self._path_delay(self.request_path_cycles, load, rng)

    def response_delay(self, load: float, rng: RandomSource) -> float:
        """Sample the software delay for one response at a given load."""
        return self._path_delay(self.response_path_cycles, load, rng)

    def worst_request_delay(self, load: float) -> float:
        """Deterministic upper envelope of :meth:`request_delay`."""
        return self._worst_delay(self.request_path_cycles, load)

    def worst_response_delay(self, load: float) -> float:
        """Deterministic upper envelope of :meth:`response_delay`."""
        return self._worst_delay(self.response_path_cycles, load)

    def _loaded_cycles(self, base: int, load: float) -> float:
        """Path cost at ``load`` before jitter; rejects a negative load."""
        if load < 0:
            raise ValueError(f"negative load: {load}")
        return base + self.load_sensitivity_cycles * min(load, 1.5)

    def _path_delay(self, base: int, load: float, rng: RandomSource) -> float:
        """One sample: a one-row :meth:`_jittered`, drawn after the load
        check."""
        loaded = self._loaded_cycles(base, load)
        draws = rng.random_array(self.draws_per_delay)
        return float(self._jittered(loaded, draws[np.newaxis, :])[0])

    def _path_delays(
        self, base: int, load: float, uniforms: np.ndarray
    ) -> np.ndarray:
        return self._jittered(self._loaded_cycles(base, load), uniforms)

    def _jittered(self, loaded: float, uniforms: np.ndarray) -> np.ndarray:
        """``loaded`` stretched by path jitter and delayed by the VMM
        quantum residual, one sample per row of ``uniforms``."""
        delay = np.full(len(uniforms), loaded, dtype=np.float64)
        column = 0
        if self.path_jitter > 0:
            delay *= 1.0 + scale_uniform(0, self.path_jitter, uniforms[:, column])
            column += 1
        if self.vmm_quantum_cycles > 0:
            delay += scale_uniform(0, self.vmm_quantum_cycles, uniforms[:, column])
        return delay

    def _worst_delay(self, base: int, load: float) -> float:
        delay = self._loaded_cycles(base, load) * (1.0 + self.path_jitter)
        return delay + self.vmm_quantum_cycles


#: The four evaluated software organisations.
STACK_MODELS: Dict[str, SoftwareStackModel] = {
    # Legacy: syscall + kernel I/O manager + low-level driver, no
    # virtualization layers.
    "legacy": SoftwareStackModel(
        name="legacy",
        request_path_cycles=850,
        response_path_cycles=600,
        path_jitter=0.20,
        vmm_quantum_cycles=0,
        load_sensitivity_cycles=400,
    ),
    # RT-Xen: guest kernel + trap into VMM + backend driver domain.
    # Trap-and-return alone is ~1-2 us (100-200 cycles x privilege
    # switches); the backend adds a scheduling quantum (1 ms default
    # RTDS quantum scaled down to the 100 MHz platform: 10 us = 1000
    # cycles of dispatch granularity).
    "rt-xen": SoftwareStackModel(
        name="rt-xen",
        request_path_cycles=3600,
        response_path_cycles=2400,
        path_jitter=0.35,
        vmm_quantum_cycles=1000,
        load_sensitivity_cycles=1500,
    ),
    # BlueVisor: requests forwarded to the hardware hypervisor by a thin
    # stub; no trap, small fixed cost.
    "bv": SoftwareStackModel(
        name="bv",
        request_path_cycles=300,
        response_path_cycles=250,
        path_jitter=0.10,
        vmm_quantum_cycles=0,
        load_sensitivity_cycles=150,
    ),
    # I/O-GUARD: para-virtual driver writes the request descriptor and
    # rings a doorbell -- "the implementation of I/O drivers is
    # straightforward, as they only forward the I/O requests" (Sec. II-A).
    "ioguard": SoftwareStackModel(
        name="ioguard",
        request_path_cycles=90,
        response_path_cycles=80,
        path_jitter=0.05,
        vmm_quantum_cycles=0,
        load_sensitivity_cycles=40,
    ),
}


def stack_for(system: str) -> SoftwareStackModel:
    """Look up a stack model, with a helpful error for typos."""
    try:
        return STACK_MODELS[system]
    except KeyError:
        raise KeyError(
            f"unknown system {system!r}; expected one of {sorted(STACK_MODELS)}"
        ) from None
