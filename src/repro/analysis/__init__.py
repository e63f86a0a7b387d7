"""Schedulability analysis for the two-layer scheduler (Sec. IV).

* :mod:`repro.analysis.supply` -- supply bound functions: ``sbf(sigma,t)``
  over the time slot table (Eqs. 1-2) and ``sbf(Gamma,t)`` of the
  periodic resource model (Eq. 8).
* :mod:`repro.analysis.demand` -- demand bound functions for periodic
  servers (Eq. 3) and sporadic tasks (Eq. 9).
* :mod:`repro.analysis.gsched_test` -- Theorem 1 (exact) and Theorem 2
  (pseudo-polynomial) tests for allocating free slots to VMs.
* :mod:`repro.analysis.lsched_test` -- Theorem 3 (exact) and Theorem 4
  (pseudo-polynomial) tests for the per-VM task sets.
* :mod:`repro.analysis.servers` -- (Pi, Theta) server dimensioning.
* :mod:`repro.analysis.schedulability` -- end-to-end system test
  combining table construction, server design and Theorems 2 + 4.
* :mod:`repro.analysis.hyperperiod` -- LCM utilities.
* :mod:`repro.analysis.cache` -- registry over the memoized kernels
  (``clear_caches``, ``cache_stats``); the cached and uncached paths are
  value-identical by construction and cross-checked by the property
  tests.
* One analysis, three sweeps.  The Theorem-2/4 tests run numpy + QPA
  kernels (:mod:`repro.analysis.vectorized`) on windows of at least
  :data:`~repro.analysis.engine.VECTORIZE_MIN_POINTS` step points and a
  plain loop below; the batch entry points in
  :mod:`repro.analysis.batched` pack many requests into one pass (shared
  hyper-period-tiled grids, lock-step QPA).  The ``*_reference``
  functions (``gsched_schedulable_reference``,
  ``lsched_schedulable_reference``, ``response_time_bound_reference``,
  and the Theorem-3 and linear-supply variants in their modules) run
  the plain loop at every size; every path is bit-identical to them,
  enforced by the property suite.  :mod:`repro.analysis.engine`
  holds the size cutoff and the int64 cap the kernels share.
* :mod:`repro.analysis.result` -- the :class:`SchedulabilityResult`
  protocol every verdict class satisfies.
"""

from repro.analysis.cache import (
    cache_stats,
    clear_caches,
)
from repro.analysis.result import SchedulabilityResult
from repro.analysis.supply import (
    sbf_server,
    sbf_server_inverse,
    sbf_server_uncached,
    sbf_sigma,
)
from repro.analysis.demand import (
    dbf_server,
    dbf_sporadic,
    dbf_taskset,
    dbf_taskset_uncached,
)
from repro.analysis.gsched_test import (
    GSchedResult,
    gsched_schedulable,
    gsched_schedulable_exact,
    gsched_schedulable_reference,
    theorem2_bound,
)
from repro.analysis.lsched_test import (
    LSchedResult,
    lsched_schedulable,
    lsched_schedulable_exact,
    lsched_schedulable_reference,
    theorem4_bound,
)
from repro.analysis.servers import (
    design_servers,
    minimum_budget,
)
from repro.analysis.schedulability import (
    SystemSchedulabilityResult,
    analyze_system,
)
from repro.analysis.hyperperiod import lcm_all
from repro.analysis.linear_test import lsched_schedulable_linear
from repro.analysis.response_time import (
    ResponseTimeBound,
    response_time_bound,
    response_time_bound_reference,
    response_time_bounds,
)
from repro.analysis.sensitivity import (
    critical_wcet_scale,
    max_preload_fraction,
)

__all__ = [
    "ResponseTimeBound",
    "cache_stats",
    "clear_caches",
    "critical_wcet_scale",
    "max_preload_fraction",
    "response_time_bound",
    "response_time_bound_reference",
    "response_time_bounds",
    "GSchedResult",
    "LSchedResult",
    "SchedulabilityResult",
    "SystemSchedulabilityResult",
    "analyze_system",
    "dbf_server",
    "dbf_sporadic",
    "dbf_taskset",
    "dbf_taskset_uncached",
    "design_servers",
    "gsched_schedulable",
    "gsched_schedulable_exact",
    "gsched_schedulable_reference",
    "lcm_all",
    "lsched_schedulable",
    "lsched_schedulable_linear",
    "lsched_schedulable_exact",
    "lsched_schedulable_reference",
    "minimum_budget",
    "sbf_server",
    "sbf_server_inverse",
    "sbf_server_uncached",
    "sbf_sigma",
    "theorem2_bound",
    "theorem4_bound",
]
