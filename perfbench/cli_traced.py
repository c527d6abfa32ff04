"""Run one colorplex CLI command with span tracing.

Usage: cli_traced.py SPAN_FILE SUBCOMMAND [ARGS...]
Behaves like ``python -m colorplex SUBCOMMAND ARGS...`` and writes its
spans to SPAN_FILE.
"""

import sys

import colorplex.cli  # noqa: F401  (imports every layer module)
from tracer import Tracer

tracer = Tracer()
tracer.install()
try:
    code = sys.modules["colorplex.cli"].main(sys.argv[2:])
finally:
    tracer.uninstall()
    tracer.dump(sys.argv[1])
sys.exit(code)
