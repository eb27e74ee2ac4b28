"""Run one ``lorhol`` CLI command with layer spans and save the counters.

Usage: python perfbench/clitrace.py STATS.json <lorhol arguments...>

Behaves like ``python -m lorhol.cli <arguments>`` (same stdout, stderr
and exit code) and additionally writes the tracer snapshot, the import
time of ``lorhol.cli`` and the last exception a span saw to STATS.json.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer


def main() -> None:
    stats_path, args = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import lorhol.cli
    import_s = perf_counter() - start
    tracer = Tracer()
    code = 0
    try:
        with tracer:
            lorhol.cli.main(args=args, prog_name="lorhol")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        Path(stats_path).write_text(json.dumps({
            "layers": tracer.snapshot(), "import_s": import_s,
            "error": tracer.last_error}))
    sys.exit(code)


if __name__ == "__main__":
    main()
