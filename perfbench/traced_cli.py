"""Run one triptych CLI command with span tracing.

Usage: python traced_cli.py SPANS_JSON [triptych arguments...]

Imports the package, rebinds its layer functions to tracing wrappers (see
``tracing.py``), runs the command inside a root span named ``cli``, writes
the spans to SPANS_JSON and exits with the command's exit code.
"""

import json
import sys

import triptych.cli

from tracing import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = tracer.call("cli", triptych.cli.run_command, (argv,), {})
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
