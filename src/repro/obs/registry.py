"""Unified metrics registry: named counters, gauges and histograms.

The repo grew metric sources organically -- :class:`LatencyStats`
summaries, success ratios, per-pool back-pressure counters, the
analysis-kernel cache statistics, trace-recorder category counts.  Each
is fine in isolation but there was no single object an experiment (or
the CI smoke job) could snapshot.  :class:`MetricsRegistry` is that
object: every metric is registered under one dot-separated name, the
snapshot is sorted and JSON-canonical, and ``ingest_*`` helpers adapt
each existing source without changing it.

Three metric kinds, mirroring the usual monitoring vocabulary:

* :class:`Counter` -- monotonically non-decreasing integer (events
  observed, jobs rejected);
* :class:`Gauge` -- a point-in-time number (occupancy, a ratio);
* :class:`Histogram` -- a sample of observations, summarized through
  :func:`repro.metrics.stats.summarize` at snapshot time.

Determinism: a registry built from the same inputs in the same order
snapshots to byte-identical JSON (sorted names, sorted keys, no
wall-clock or environment data anywhere).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union

from repro.metrics.backpressure import BackPressureReport
from repro.metrics.stats import LatencyStats, summarize
from repro.sim.trace import TraceRecorder

Number = Union[int, float]


class Counter:
    """Monotonically non-decreasing integer metric."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if not isinstance(amount, int) or isinstance(amount, bool):
            raise TypeError(
                f"counter {self.name!r} increments must be int, "
                f"got {type(amount).__name__}"
            )
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (increment {amount})"
            )
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """Point-in-time numeric metric (last write wins)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: Number) -> None:
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Observation sample, summarized at snapshot time."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []

    def observe(self, value: Number) -> None:
        self.values.append(float(value))

    def summary(self) -> Dict[str, float]:
        """``LatencyStats``-shaped dict; ``{"count": 0}`` when empty."""
        if not self.values:
            return {"count": 0}
        return summarize(self.values).as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={len(self.values)})"


class MetricsRegistry:
    """One namespace of counters, gauges and histograms.

    A name belongs to exactly one metric kind for the registry's
    lifetime; re-requesting it returns the same object, requesting it
    as a different kind raises -- silent aliasing is how dashboards rot.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- registration ------------------------------------------------------

    def _check_free(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{other_kind}, cannot re-register as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._check_free(name, "counter")
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._check_free(name, "gauge")
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._check_free(name, "histogram")
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def names(self) -> List[str]:
        """Every registered metric name, sorted."""
        return sorted(
            list(self._counters)
            + list(self._gauges)
            + list(self._histograms)
        )

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic nested snapshot: kind -> sorted name -> value."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
        }

    def to_json(self) -> str:
        """Canonical JSON rendering of :meth:`snapshot` (byte-stable)."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"

    # -- ingestion adapters ------------------------------------------------

    def ingest_trace(self, recorder: TraceRecorder, prefix: str = "trace") -> None:
        """Category counts + storage accounting of one trace recorder."""
        for category in sorted(recorder.counters):
            self.counter(f"{prefix}.events.{category}").inc(
                recorder.count(category)
            )
        self.counter(f"{prefix}.dropped_events").inc(recorder.dropped_events)
        self.gauge(f"{prefix}.stored_events").set(len(recorder))

    def ingest_latency(self, prefix: str, stats: LatencyStats) -> None:
        """Spread one :class:`LatencyStats` over gauges + a count counter."""
        self.counter(f"{prefix}.count").inc(stats.count)
        for key, value in sorted(stats.as_dict().items()):
            if key == "count":
                continue
            self.gauge(f"{prefix}.{key}").set(value)
        self.gauge(f"{prefix}.jitter").set(stats.jitter)

    def ingest_backpressure(
        self, report: BackPressureReport, prefix: str = "backpressure"
    ) -> None:
        """Per-pool rejection/drop counters + occupancy gauges."""
        for pool in report.pools:
            pool_prefix = f"{prefix}.vm{pool.vm_id}"
            self.counter(f"{pool_prefix}.submitted").inc(pool.submitted)
            self.counter(f"{pool_prefix}.rejected").inc(pool.rejected)
            self.counter(f"{pool_prefix}.dropped").inc(pool.dropped)
            self.counter(f"{pool_prefix}.completed").inc(pool.completed)
            self.gauge(f"{pool_prefix}.occupancy").set(pool.occupancy)
            self.gauge(f"{pool_prefix}.peak_occupancy").set(pool.peak_occupancy)
            self.gauge(f"{pool_prefix}.rejection_ratio").set(
                pool.rejection_ratio
            )
        self.counter(f"{prefix}.total_rejected").inc(report.total_rejected)
        self.counter(f"{prefix}.total_dropped").inc(report.total_dropped)

    def ingest_cache_stats(
        self,
        stats: Optional[Dict[str, Dict[str, int]]] = None,
        prefix: str = "cache",
    ) -> None:
        """Analysis-kernel memoization traffic (``repro.analysis.cache``)."""
        if stats is None:
            from repro.analysis.cache import cache_stats

            stats = cache_stats()
        for name in sorted(stats):
            self.counter(f"{prefix}.{name}.hits").inc(stats[name]["hits"])
            self.counter(f"{prefix}.{name}.misses").inc(stats[name]["misses"])
            self.gauge(f"{prefix}.{name}.currsize").set(
                stats[name]["currsize"]
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )
