"""Launch ``serve-http`` with per-layer timing wrappers installed.

Usage: ``python perfbench/traced_server.py SPANS_OUT serve-http ARGS...``

Installs the wrappers of :mod:`tracing`, runs ``repro.cli.main`` with the
remaining arguments (so the server is the unmodified CLI), and writes the
recorded spans to ``SPANS_OUT`` after the graceful SIGTERM drain returns.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    recorder.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
