"""Design synthesis: from workloads to verified (servers, sigma*) designs.

The paper's guarantees are conditional on a design -- per-VM servers
``(Pi_i, Theta_i)`` and the P-channel slot table sigma* -- that the
integrator is assumed to supply.  This package computes them:

* :func:`~repro.synth.servers.synthesize_servers` searches a
  bandwidth-minimal server design (``min sum Theta/Pi`` s.t. Theorems
  1-4) by deterministic branch-and-bound with the batched analysis
  engine as the feasibility oracle;
* :func:`~repro.synth.table.synthesize_table` solves an integer model
  of sigma* (release offsets, precedence/time-lag constraints, wrapping
  jobs) to a canonical lex-min assignment;
* :class:`~repro.synth.report.SynthesisReport` is the verdict type the
  :func:`repro.api.synthesize` facade returns.

Everything is deterministic: byte-identical designs across reruns,
analysis engines and ``REPRO_JOBS`` settings.
"""

from repro.synth.report import SynthesisReport
from repro.synth.search import SearchStats, best_first_assignment, lexmin_backtrack
from repro.synth.servers import (
    ServerSearchOutcome,
    candidate_periods_for,
    synthesize_servers,
)
from repro.synth.table import (
    OBJECTIVES,
    TableConstraint,
    TableSynthesis,
    synthesize_table,
)

__all__ = [
    "SynthesisReport",
    "SearchStats",
    "best_first_assignment",
    "lexmin_backtrack",
    "ServerSearchOutcome",
    "candidate_periods_for",
    "synthesize_servers",
    "OBJECTIVES",
    "TableConstraint",
    "TableSynthesis",
    "synthesize_table",
]
