"""Run one ultradyn CLI command with the benchmark's tracer installed.

usage: python bench/cli_child.py TRACE_OUT.json <ultradyn cli arguments>

stdout, stderr and the exit code are the CLI's own; the span summary is
written to TRACE_OUT.json when the command ends.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    from ultradyn import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        calls, orders, counts = tracer.summary()
        with open(out_path, "w") as fh:
            json.dump({"calls": calls, "orders": orders, "counts": counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
