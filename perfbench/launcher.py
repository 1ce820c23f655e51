"""Start benchmark commands one at a time and report their wall time and
peak RSS.

Reads one JSON request per line on stdin:

    {"argv": [...], "cwd": DIR, "env": {...}, "timeout": S,
     "stdout": FILE, "stderr": FILE}

and answers each with one JSON line on stdout:

    {"exit": CODE, "wall_s": W, "rss_kb": K, "timed_out": BOOL}

The benchmark runs this in its own small process (started with `-S`)
because Linux reports, as a child's peak RSS, at least the RSS of the
process that spawned it: spawned from the benchmark, which holds the
output checkers and their imports, a command would be credited with the
benchmark's memory instead of its own.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap_group(pgid: int, wait_s: float = 5.0) -> None:
    """Kill what is left of a finished command's process group and wait
    until the group is empty."""
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        kill_group(pgid)
        time.sleep(0.01)


def run(req: dict) -> dict:
    timed_out = threading.Event()
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                start_new_session=True)

        def on_timeout():
            timed_out.set()
            kill_group(proc.pid)

        timer = threading.Timer(req["timeout"], on_timeout)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    reap_group(proc.pid)
    return {"exit": proc.returncode, "wall_s": wall, "rss_kb": usage.ru_maxrss,
            "timed_out": timed_out.is_set()}


def main() -> None:
    for line in sys.stdin:
        if line.strip():
            sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
