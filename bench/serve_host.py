"""Run the admission server with the layer wrappers installed.

    python bench/serve_host.py --trace-file FILE serve --system S.json ...

Installs the ``serve`` targets of :mod:`layers`, then hands the
remaining arguments to the same ``main`` that ``python -m repro.serve``
runs, so the traced server is the CLI's server.  The trace is written
to ``FILE`` when the server shuts down.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional

import layers
from trace import Tracer


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-file", required=True)
    args, serve_argv = parser.parse_known_args(argv)
    for module in layers.entry_modules("serve-admit"):
        importlib.import_module(module)
    tracer = Tracer(layers.SERVE_TARGETS)
    tracer.install()
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(serve_argv)
    finally:
        tracer.uninstall()
        tracer.dump(args.trace_file)


if __name__ == "__main__":
    sys.exit(main())
