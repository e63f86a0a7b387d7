"""Central registry for the analysis memoization layer.

The schedulability kernels (``sbf_server``, ``dbf_taskset``, step-point
enumeration, hyper-period LCMs) are pure functions of small hashable
inputs and get re-evaluated millions of times across an experiment
sweep: the acceptance-ratio experiment alone runs both the Theorem-4 and
the linear test over the *same* task set and server, and every sweep
cell shares (pi, theta) with its neighbours.  Each kernel module wraps
its hot entry points in ``functools.lru_cache`` and registers the cached
callable here, so callers can reason about the cache layer as one unit:

* :func:`clear_caches` -- drop every registered cache (tests use this to
  compare cached against cold-path results, and long-running services
  can bound memory);
* :func:`cache_stats` -- hits/misses/currsize per kernel, for the
  benchmark harness and the runner's timing summary.

Caching never changes results: every cached kernel is deterministic in
its arguments, and the uncached reference implementations stay exported
(``sbf_server_uncached``, ``dbf_taskset_uncached``) for the
property-test layer to cross-check.

Worker processes spawned by :mod:`repro.exp.runner` each hold their own
cache state; since the kernels are pure this only affects speed, never
values.
"""

from __future__ import annotations

from typing import Callable, Dict

#: Registered cached callables (anything exposing ``cache_clear`` and
#: ``cache_info`` in the ``functools.lru_cache`` style, or an object
#: implementing the same protocol).
_CACHES: Dict[str, Callable] = {}


def register_cache(name: str, cached_callable: Callable) -> Callable:
    """Register an lru_cache-style callable under ``name``.

    Returns the callable unchanged so modules can use this as a
    decorator-ish one-liner.  Re-registering a name replaces the entry
    (module reloads in interactive sessions).
    """
    if not hasattr(cached_callable, "cache_clear"):
        raise TypeError(
            f"cache {name!r} must expose cache_clear(), got "
            f"{type(cached_callable).__name__}"
        )
    _CACHES[name] = cached_callable
    return cached_callable


def clear_caches() -> None:
    """Drop every registered analysis cache."""
    for cached in _CACHES.values():
        cached.cache_clear()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Per-cache ``{hits, misses, currsize, maxsize}`` snapshot."""
    stats: Dict[str, Dict[str, int]] = {}
    for name, cached in sorted(_CACHES.items()):
        info = cached.cache_info()
        stats[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "currsize": info.currsize,
            "maxsize": info.maxsize if info.maxsize is not None else -1,
        }
    return stats
