"""The synthesis verdict: a verified design plus its provenance.

:class:`SynthesisReport` is to :func:`repro.api.synthesize` what
``AnalysisReport`` is to ``analyze``: it satisfies the
:class:`~repro.analysis.result.SchedulabilityResult` protocol
(``schedulable``/``__bool__``/``failing_t``/``summary()`` via the
shared :class:`~repro.analysis.result.ReportBase`), carries the witness
design (servers + table), the Theorem-2/Theorem-4 evidence it was
verified against, and the search provenance (oracle calls, pruned
nodes, bound trajectory) the synthesis sweep and the observability
layer consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.gsched_test import GSchedResult
from repro.analysis.lsched_test import LSchedResult
from repro.analysis.result import ReportBase, SchedulabilityResult
from repro.core.gsched import ServerSpec
from repro.core.timeslot import TimeSlotTable
from repro.synth.search import SearchStats


@dataclass
class SynthesisReport(ReportBase):
    """Verdict + witness design from one synthesis run.

    ``schedulable`` means the synthesized design passed its final
    verification (every Theorem-4 lane and the Theorem-2 check, run
    through the analysis oracle, not the search's internal bookkeeping;
    the Theorem-2 verdict is the assembly oracle's for the chosen
    servers).  ``servers``/``table`` are the witness; ``provenance``
    the search counters; ``seed_bandwidth`` the seed designer's
    incumbent for the improvement claim.

    :func:`repro.api.analyze` returns ``global_result`` and a copy of
    ``local_results`` for a built system while it still holds this
    table and these servers, no task was admitted or withdrawn and both
    results are present; otherwise it recomputes.
    """

    schedulable: bool
    table: TimeSlotTable
    servers: List[ServerSpec] = field(default_factory=list)
    global_result: Optional[GSchedResult] = None
    local_results: Dict[int, LSchedResult] = field(default_factory=dict)
    reason: str = ""
    stats: SearchStats = field(default_factory=SearchStats)
    seed_bandwidth: Optional[float] = None
    improved: bool = False
    fast_path_vms: int = 0

    @property
    def bandwidth(self) -> float:
        """``sum Theta/Pi`` of the synthesized servers."""
        return sum(spec.theta / spec.pi for spec in self.servers)

    def server_pairs(self) -> List[Tuple[int, int]]:
        """``(pi, theta)`` pairs in vm order, for re-analysis."""
        return [
            (spec.pi, spec.theta)
            for spec in sorted(self.servers, key=lambda spec: spec.vm_id)
        ]

    def _witness_results(self):
        yield self.global_result
        for vm_id in sorted(self.local_results):
            yield self.local_results[vm_id]

    def summary(self) -> str:
        verdict = "feasible" if self.schedulable else "infeasible"
        text = (
            f"synthesis: {verdict} "
            f"[H={self.table.total_slots}, {len(self.servers)} servers, "
            f"bandwidth {self.bandwidth:.4f}, "
            f"{self.stats.oracle_calls} oracle calls, "
            f"{self.stats.pruned_nodes} pruned]"
        )
        if self.reason:
            text += f" - {self.reason}"
        return text

    def to_payload(self) -> Dict[str, object]:
        """Canonical JSON-ready rendering (byte-identity comparisons).

        Deterministic by construction: server order is vm order, the
        pattern is the table's occupancy bitmap, provenance counters
        come from the deterministic search.  Two synthesis runs agree
        iff their payloads serialize identically.
        """
        return {
            "schedulable": self.schedulable,
            "hyperperiod": self.table.total_slots,
            "free_slots": self.table.free_slots,
            "servers": [
                {"vm_id": spec.vm_id, "pi": spec.pi, "theta": spec.theta}
                for spec in sorted(self.servers, key=lambda spec: spec.vm_id)
            ],
            "bandwidth": self.bandwidth,
            "table_pattern": self.table.occupancy_pattern(),
            "seed_bandwidth": self.seed_bandwidth,
            "improved": self.improved,
            "fast_path_vms": self.fast_path_vms,
            "reason": self.reason,
            "provenance": self.stats.as_payload(),
        }


def _protocol_check(report: SynthesisReport) -> SchedulabilityResult:
    """Static witness that the report satisfies the protocol."""
    return report
