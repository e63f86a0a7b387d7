"""End-to-end pin of the rendered synthesis sweep.

``python -m repro.exp synth`` prints this text; CI compares one run
against another, which cannot see a drift shared by every run.  This pin
holds the bytes themselves -- designs, bandwidths, and the oracle,
pruned and fastpath provenance columns.  It was last regenerated when
the budget search moved from bisection to a per-point fixpoint, which
changed only the oracle column (fewer lane evaluations per search).
Regenerate only for an intended behaviour change, and say why in the
change log.
"""

import hashlib

from repro.exp.synth import render_synth_sweep, run_synth_sweep

RENDER_SHA256 = "22efa2c0610679ae3b73c5e9d9cee5da1136083442be2740d5a4d77da6098c89"


def test_render_synth_sweep_matches_pinned_digest():
    text = render_synth_sweep(run_synth_sweep())
    assert hashlib.sha256(text.encode()).hexdigest() == RENDER_SHA256
