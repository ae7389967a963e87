"""Run one relmargin CLI command with the per-layer tracer installed.

    python3 relbench/cli_traced.py TRACE_FILE <relmargin arguments...>

Writes the spans and the aggregate to TRACE_FILE (JSON lines) and exits
with the command's exit code.  The cli-session workload's traced pass runs
each command through this file instead of ``python -m relmargin.cli``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import relmargin.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return relmargin.cli.main(argv)
    finally:
        tracer.restore()
        tracer.write_spans(trace_file)


if __name__ == "__main__":
    sys.exit(main())
