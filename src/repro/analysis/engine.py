"""Constants the analysis kernels share: the size cutoff below which a
step-point window runs the plain Python loop, and the int64 cap of the
numpy kernels.

Every Theorem-2/4 test has one production path and one scalar
reference (``gsched_schedulable_reference``,
``lsched_schedulable_reference``, ``response_time_bound_reference``).
The production path picks numpy + QPA or the loop from the window size
(:data:`VECTORIZE_MIN_POINTS`); the single-pair tests use the per-pair
kernels in :mod:`repro.analysis.vectorized` and the batch entry points
in :mod:`repro.analysis.batched` pack whole columns of requests into
padded int64 arrays.  Every path is decision-bit-identical to the
reference (same preambles, horizons and step-point grids; the property
suite cross-checks every result field), so the choice only affects
wall-clock time.
"""

from __future__ import annotations

#: Windows with fewer step points than this run the plain Python loop:
#: numpy's per-call overhead only amortizes on larger grids, and all
#: paths are bit-identical anyway.
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

