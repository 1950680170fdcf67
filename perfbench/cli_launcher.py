"""Run ``evtkit.cli.main`` under the tracer in a fresh interpreter.

Usage: python cli_launcher.py SPANS_FILE SPAWN_TIME EVTKIT_ARGS...

SPAWN_TIME is the parent's clock reading just before it started this
process, so the gap to the first line below is the interpreter start. The
spans go to SPANS_FILE as one JSON document followed by a line holding the
clock reading taken just before writing; the parent counts the time from
there to the process's end as interpreter exit. The exit code is the CLI's.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer, install, now  # noqa: E402


def main() -> int:
    spans_file, spawn_time, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.add_span("cli.process", spawn_time, STARTED)
    with tracer.span("import.evtkit"):
        with tracer.span("import.numpy"):
            import numpy  # noqa: F401
        import evtkit.cli
    install(tracer)
    code = evtkit.cli.main(argv)
    text = json.dumps(tracer.dump())
    with open(spans_file, "w", encoding="utf-8") as handle:
        handle.write(f"{text}\n{now()!r}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
