"""Which functions make up each layer, and the per-layer metrics.

Every layer is named ``<module>.<part>`` after the program package it
lives in and is reached by dotted path (see :mod:`trace`).  The traced
run of a workload turns the trace into the ``PER_LAYER`` metrics below;
a layer the workload never enters reports zero calls, and a layer whose
functions are missing at the commit under test is listed as ``absent``.

Per-layer times are reported as shares of the time the traced pass
spent inside the program (``self_pct``; serve: of the driven time) and
per-layer throughputs as rates, so no per-layer value is a bare time
that reads the same (zero) on every run of a workload that does not
use the layer.  The absolute self times, call means and tagged
breakdowns stay in the run's full JSON document.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Tuple

from trace import Target

SERVE_WORKLOADS = ("serve-admit", "serve-mixed")
WORKLOADS = ("design", "fig7") + SERVE_WORKLOADS

#: Modules imported before tracing starts, so that every ``from x
#: import f`` binding exists when the wrappers are installed.
ENTRY_MODULES = {
    "design": ("repro.api",),
    "fig7": ("repro.exp.fig7",),
    "serve": ("repro.serve.__main__", "repro.api"),
}

FIG7_SYSTEMS = ("legacy", "rt-xen", "bv", "ioguard-40", "ioguard-70")

_SEQ = re.compile(rb'"seq":(\d+)')


def _lanes(requests: Any, *args: Any, **kwargs: Any) -> int:
    return len(requests)


def _frame_seq(server: Any, line: bytes, *args: Any, **kwargs: Any) -> int:
    match = _SEQ.search(line)
    return int(match.group(1)) if match else 0


def _trial_outcome(result: Any) -> Dict[str, float]:
    return {
        "sim.jobs_completed": result.total_completed,
        "sim.jobs_missed": result.total_missed,
    }


DESIGN_TARGETS = [
    Target("api.build_system", ("repro.api.build_system",)),
    Target("api.analyze", ("repro.api.analyze",)),
    Target("synth.search", ("repro.synth.search.best_first_assignment",)),
    Target("synth.budget", ("repro.analysis.servers.minimum_budgets_batched",)),
    Target("synth.seed", ("repro.analysis.servers.design_servers",)),
    Target(
        "analysis.servers.minimum_budget",
        ("repro.analysis.servers.minimum_budget",),
        kind="fine",
    ),
    Target(
        "analysis.batched.lsched",
        ("repro.analysis.batched.lsched_schedulable_batch",),
        units=_lanes,
    ),
    Target(
        "analysis.batched.gsched",
        ("repro.analysis.batched.gsched_schedulable_batch",),
        units=_lanes,
    ),
    Target("analysis.lsched", ("repro.analysis.lsched_test.lsched_schedulable",), kind="fine"),
    Target("analysis.gsched", ("repro.analysis.gsched_test.gsched_schedulable",), kind="fine"),
]

FIG7_TARGETS = [
    Target(
        "baselines.run_trial",
        (
            "repro.baselines.fifo_system.FifoSystemModel.run_trial",
            "repro.baselines.ioguard_system.IOGuardSystem.run_trial",
            "repro.baselines.rtxen.RTXenSystem.run_trial",
        ),
        tag=lambda system, *args, **kwargs: system.name,
        units=lambda system, workload, *args, **kwargs: workload.config.horizon_slots,
        on_result=_trial_outcome,
    ),
    Target(
        "tasks.workload",
        (
            "repro.baselines.base.prepare_workload",
            "repro.tasks.workload.pad_to_target_utilization",
        ),
    ),
    Target("core.timeslot.build_pchannel_table", ("repro.core.timeslot.build_pchannel_table",)),
    Target("core.rchannel.tick", ("repro.core.rchannel.RChannel.tick",), kind="fine"),
    Target(
        "core.rchannel.execute_slot",
        ("repro.core.rchannel.RChannel.execute_slot",),
        kind="fine",
    ),
    Target("core.rchannel.submit", ("repro.core.rchannel.RChannel.submit",), kind="fine"),
    Target(
        "core.pchannel.execute_slot",
        ("repro.core.pchannel.PChannel.execute_slot",),
        kind="fine",
    ),
    Target("noc.latency.sample", ("repro.noc.latency.NocLatencyModel.sample",), kind="fine"),
    Target(
        "virt.stack.delay",
        (
            "repro.virt.stack.SoftwareStackModel.request_delay",
            "repro.virt.stack.SoftwareStackModel.response_delay",
        ),
        kind="fine",
    ),
]

SERVE_TARGETS = [
    Target(
        "serve.request",
        ("repro.serve.server.AdmissionServer._dispatch_frame",),
        rid=_frame_seq,
    ),
    Target(
        "serve.protocol",
        (
            "repro.serve.protocol.decode_message",
            "repro.serve.protocol.validate_request",
            "repro.serve.protocol.encode_message",
        ),
        kind="fine",
    ),
    Target("serve.shard_call", ("repro.serve.shard.ShardHandle.call",)),
    Target("serve.epoch", ("repro.api.analyze_many",), units=_lanes),
    Target("serve.epoch.build", ("repro.api.build_system",)),
]


def targets(workload: str) -> List[Target]:
    if workload in SERVE_WORKLOADS:
        return SERVE_TARGETS
    return {"design": DESIGN_TARGETS, "fig7": FIG7_TARGETS}[workload]


def entry_modules(workload: str) -> Tuple[str, ...]:
    return ENTRY_MODULES["serve" if workload in SERVE_WORKLOADS else workload]


# -- the per-layer metric catalog ------------------------------------------

COUNT, PCT, RATIO, RATE = "count", "%", "ratio", "1/s"
LOW, HIGH = "lower", "higher"


def _layer(name: str, *stats: str) -> List[Tuple[str, str, str]]:
    units = {"calls": COUNT, "lanes": COUNT, "self_pct": PCT}
    return [(f"{name}.{stat}", units[stat], LOW) for stat in stats]


#: ``(name, unit, better)`` of every per-layer metric, in report order.
#: A trace run of any workload reports all of them.
PER_LAYER: List[Tuple[str, str, str]] = (
    [("trace.overhead", RATIO, LOW), ("trace.spans", COUNT, LOW)]
    # design: synthesis and analysis
    + _layer("api.build_system", "self_pct")
    + _layer("api.analyze", "self_pct")
    + _layer("synth.search", "calls", "self_pct")
    + _layer("synth.budget", "calls", "self_pct")
    + _layer("synth.seed", "calls", "self_pct")
    + _layer("analysis.servers.minimum_budget", "calls")
    + [
        ("synth.oracle_calls", COUNT, LOW),
        ("synth.pruned_nodes", COUNT, HIGH),
        ("synth.nodes_expanded", COUNT, LOW),
        ("synth.fast_path_vms", COUNT, HIGH),
        ("synth.oracle_calls_per_design", RATIO, LOW),
        ("design.accept_ratio", RATIO, HIGH),
    ]
    + _layer("analysis.batched.lsched", "calls", "lanes", "self_pct")
    + _layer("analysis.batched.gsched", "calls", "lanes", "self_pct")
    + _layer("analysis.lsched", "calls", "self_pct")
    + _layer("analysis.gsched", "calls", "self_pct")
    + [("analysis.cache.hit_ratio", RATIO, HIGH)]
    + [(f"design.h{h}.p50_rate", RATE, HIGH) for h in (1000, 3600, 6000)]
    # fig7: the slot-level simulator
    + _layer("tasks.workload", "calls", "self_pct")
    + [(f"baselines.{system}.slots_per_s", RATE, HIGH) for system in FIG7_SYSTEMS]
    + _layer("core.rchannel.tick", "calls", "self_pct")
    + _layer("core.rchannel.execute_slot", "calls", "self_pct")
    + _layer("core.rchannel.submit", "calls", "self_pct")
    + _layer("core.pchannel.execute_slot", "calls", "self_pct")
    + _layer("core.timeslot.build_pchannel_table", "calls", "self_pct")
    + _layer("noc.latency.sample", "calls", "self_pct")
    + _layer("virt.stack.delay", "calls", "self_pct")
    + [("sim.jobs_completed", COUNT, HIGH), ("sim.jobs_missed", COUNT, LOW)]
    # serve: the admission service
    + _layer("serve.protocol", "calls", "self_pct")
    + _layer("serve.shard_call", "calls", "self_pct")
    + [("serve.wait_pct", PCT, LOW), ("serve.wait_pct_2x", PCT, LOW)]
    + [("serve.epoch.batches", COUNT, LOW), ("serve.epoch.mean_batch", COUNT, HIGH)]
    + _layer("serve.epoch", "self_pct")
    + [
        ("serve.shed", COUNT, LOW),
        ("serve.quarantined_rejects", COUNT, LOW),
        ("serve.admitted", COUNT, HIGH),
        ("serve.rejected", COUNT, LOW),
        ("serve.analyze_batches", COUNT, LOW),
        ("serve.gen_late_pct", PCT, LOW),
    ]
)

def layer_metrics(snapshot: Dict[str, Any], base_s: float) -> Dict[str, float]:
    """``calls`` / ``lanes`` / ``self_pct`` (share of ``base_s``) of every traced layer."""
    values: Dict[str, float] = {}
    for layer, entry in snapshot.get("layers", {}).items():
        values[f"{layer}.calls"] = entry["calls"]
        values[f"{layer}.lanes"] = entry["units"]
        values[f"{layer}.self_pct"] = 100.0 * entry["self_s"] / base_s if base_s > 0 else 0.0
    return values


def per_layer(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """The catalog filled from ``values``; missing entries are zero."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _better in PER_LAYER
    }
