"""Runs the zpure CLI with the benchmark's span tracer installed.

    PYTHONPATH=src python3 perfbench/cli_trace.py TRACE_DIR OP CLI-ARGS...

Every record carries op id OP.  The CLI's forked pool workers inherit the
wrappers and write their own span files as they go.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    trace_dir, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = spans.install(trace_dir, op=op)
    import zpure.cli

    try:
        return zpure.cli.main(argv)
    finally:
        tracer.close()


if __name__ == "__main__":
    sys.exit(main())
