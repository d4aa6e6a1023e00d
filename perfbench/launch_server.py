"""Traced server launcher: ``python -m perfbench.launch_server SPANS serve ...``.

Installs the span wrappers of :mod:`perfbench.layers`, then runs the
unmodified ``repro.server`` serve entry point with the remaining
arguments.  When the server stops (SIGTERM), the spans are written to
``SPANS`` as JSON lines.
"""

from __future__ import annotations

import sys

from perfbench import layers, tracer


def main(argv: list[str]) -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    recorder = tracer.Tracer()
    layers.install_server(recorder)
    from repro.server.runner import main as serve

    try:
        return serve(serve_argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
