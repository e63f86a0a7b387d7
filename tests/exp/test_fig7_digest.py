"""End-to-end pin of the rendered Fig. 7 sweep.

The trial-level golden digests (``tests/baselines/test_trial_golden.py``)
pin each ``TrialResult``; this pin covers what sits above them -- cell
assembly, per-system aggregation and rendering -- over all five systems.
The digest was computed with the slot-stepped simulator, before its trial
loops advanced by jobs and scheduling runs.  Regenerate only for an
intended behaviour change, and say why in the change log.
"""

import hashlib

from repro.exp.fig7 import CaseStudyConfig, render_fig7, run_case_study

CONFIG = CaseStudyConfig(
    utilizations=(0.5, 0.9, 1.0),
    vm_groups=(4, 8),
    trials=2,
    horizon_slots=3_000,
    use_env_scale=False,
)

RENDER_SHA256 = "2cc3a30dc18c6eb0f19560ea5f2a313dac3579f6cc88a85761bd7ea83bfb8af2"


def test_render_fig7_matches_pinned_digest():
    text = render_fig7(run_case_study(CONFIG, jobs=1))
    assert hashlib.sha256(text.encode()).hexdigest() == RENDER_SHA256
