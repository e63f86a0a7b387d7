"""Design synthesis: from workloads to verified (servers, sigma*) designs.

The paper's guarantees are conditional on a design -- per-VM servers
``(Pi_i, Theta_i)`` and the P-channel slot table sigma* -- that the
integrator is assumed to supply.  This package computes them:

* :func:`~repro.synth.servers.synthesize_servers` searches a
  bandwidth-minimal server design (``min sum Theta/Pi`` s.t. Theorems
  1-4) by deterministic branch-and-bound with the batched analysis
  kernels as the feasibility oracle;
* the P-channel table sigma* comes from the one table builder,
  :func:`~repro.core.timeslot.build_pchannel_table`, which also honours
  :class:`~repro.core.timeslot.TableConstraint` precedence/time-lag
  constraints (re-exported here);
* :class:`~repro.synth.report.SynthesisReport` is the verdict type the
  :func:`repro.api.synthesize` facade returns.

Everything is deterministic: byte-identical designs across reruns and
``REPRO_JOBS`` settings.
"""

from repro.core.timeslot import TableConstraint
from repro.synth.report import SynthesisReport
from repro.synth.search import SearchStats, best_first_assignment
from repro.synth.servers import (
    ServerSearchOutcome,
    candidate_periods_for,
    synthesize_servers,
)

__all__ = [
    "SynthesisReport",
    "SearchStats",
    "best_first_assignment",
    "ServerSearchOutcome",
    "candidate_periods_for",
    "synthesize_servers",
    "TableConstraint",
]
