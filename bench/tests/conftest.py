"""Make the benchmark's modules importable as the scripts see them.

``bench/run.py`` runs with ``bench/`` as ``sys.path[0]``, so its modules
import each other by bare name (``import stats``, ``from trace import
Tracer``).  The tests do the same; a standard-library ``trace`` module
imported earlier by a plugin would shadow ``bench/trace.py``, so it is
dropped first.
"""

from __future__ import annotations

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

_loaded = sys.modules.get("trace")
if _loaded is not None and os.path.dirname(getattr(_loaded, "__file__", "") or "") != BENCH:
    del sys.modules["trace"]
