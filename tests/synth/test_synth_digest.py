"""End-to-end pin of the rendered synthesis sweep.

``python -m repro.exp synth`` prints this text; CI compares one run
against another, which cannot see a drift shared by every run.  This pin
holds the bytes themselves -- designs, bandwidths, and the oracle,
pruned and fastpath provenance columns.  The digest was computed before
the seed designer and the synthesis grid shared one budget search.
Regenerate only for an intended behaviour change, and say why in the
change log.
"""

import hashlib

from repro.exp.synth import render_synth_sweep, run_synth_sweep

RENDER_SHA256 = "35a4f856ed6d770fb3406e40f77c1788ff391cdee2b8bfa37d3e052fd10e01eb"


def test_render_synth_sweep_matches_pinned_digest():
    text = render_synth_sweep(run_synth_sweep())
    assert hashlib.sha256(text.encode()).hexdigest() == RENDER_SHA256
