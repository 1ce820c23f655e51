"""Run one `extremal_count.cli` command with the benchmark's span wrappers.

    PERFBENCH_TRACE_DIR=DIR PERFBENCH_CMD=ID python perfbench/traced_cli.py ARGS...

behaves like `python -m extremal_count.cli ARGS...` (same stdout, stderr
and exit code) and appends its spans, and those of its pool workers, to
DIR/<pid>.jsonl.  The package is found through PYTHONPATH, as for the
untraced command.
"""

import os
import sys
import time


def main() -> int:
    # Time the package import before the tracer's own imports, which
    # overlap with the package's (concurrent.futures, multiprocessing).
    start = time.perf_counter()
    import extremal_count.cli as cli
    end = time.perf_counter()

    from spans import Tracer, install
    tracer = Tracer(os.environ["PERFBENCH_TRACE_DIR"], os.environ["PERFBENCH_CMD"])
    tracer.record("cli.import", start, end)
    try:
        install(tracer)
        rec = tracer.start("cli.main")
        try:
            return cli.main(sys.argv[1:])
        finally:
            tracer.end(rec)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
