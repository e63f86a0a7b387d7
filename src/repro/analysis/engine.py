"""Analysis engine selection: scalar reference vs numpy kernels.

The schedulability tests ship two decision engines:

* ``"scalar"`` -- the original per-``t`` Python loops over the memoized
  kernels.  This is the ground-truth reference implementation.
* ``"vectorized"`` (the default) -- numpy evaluation of the dbf/sbf
  curves over *all* step points at once, fronted by a QPA-style descent
  that usually decides schedulability after a handful of probes instead
  of enumerating the full Theorem-2/4 horizon.

Whether a numpy evaluation runs per pair or packed follows from the
function called, not from a setting: the single-pair tests
(``gsched_schedulable``/``lsched_schedulable``) use the per-pair kernels
in :mod:`repro.analysis.vectorized`, while the batch entry points
(``lsched_schedulable_batch``/``gsched_schedulable_batch`` in
:mod:`repro.analysis.batched`, ``repro.api.analyze_many``, acceptance
cells and the service's epoch flush) pack whole columns of requests
into padded int64 arrays whenever the engine is not ``"scalar"``.

Both engines are decision-bit-identical by construction (they share the
same preambles, horizons and step-point grids, and the property suite
cross-checks every result field), so the choice only affects wall-clock
time.  Pass ``engine="scalar"`` to get the reference loop; ``None``
means ``"vectorized"``.
"""

from __future__ import annotations

from typing import Optional

#: Supported engines, in reference-first order.
ENGINES = ("scalar", "vectorized")

#: Windows with fewer step points than this run the plain Python loop
#: even under the vectorized engine: numpy's per-call overhead only
#: amortizes on larger grids, and all paths are bit-identical anyway.
#: Single source of truth -- the theorem-test modules re-export it, so
#: the cutoff cannot drift between G-Sched and L-Sched.
VECTORIZE_MIN_POINTS = 96

#: Largest horizon/step-point magnitude the numpy int64 kernels accept.
#: Theorem-4 horizons are exact integers and can be astronomically large
#: when the slack is a hair above zero; int64 arithmetic on such values
#: wraps silently (a negative demand reads as schedulable) or crashes
#: with an opaque conversion error at array-fill time.  The kernels in
#: :mod:`repro.analysis.vectorized` / :mod:`repro.analysis.batched`
#: check their bounds against this cap and raise ``OverflowError``
#: instead.  ``2**60`` leaves 8x headroom below ``2**63`` for the
#: ``start + k*period`` / tiled-shift products the kernels form.
#: Single source of truth, like :data:`VECTORIZE_MIN_POINTS`.
INT64_SAFE_HORIZON = 1 << 60


def resolve_engine(engine: Optional[str] = None) -> str:
    """Validate an engine name; ``None`` resolves to ``"vectorized"``.

    Unknown names raise ``ValueError`` naming :data:`ENGINES`.
    """
    if engine is None:
        return "vectorized"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown analysis engine {engine!r}; expected one of {ENGINES}"
        )
    return engine
