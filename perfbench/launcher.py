"""Start benchmark commands from a small process and time each one.

Run as `python3 -S perfbench/launcher.py` with the child environment and
working directory already set. Each stdin line is a JSON request
{"argv": [...], "stdout": path, "timeout": seconds, "cpu": n}; each stdout
line is the JSON reply {"code", "wall", "cpu", "rss_mb", "timed_out"} for
that command, measured with wait4 on the command's own process, which is
pinned to CPU n.

Linux charges a new process the peak RSS of the address space it was
spawned from, so commands are started from this process, which imports
only a few builtin modules, rather than from run.py, which is larger than
the CLI it measures.
"""

import json
import os
import signal
import sys
import time


def run(request: dict) -> dict:
    child = None
    killed = False

    def on_alarm(signum, frame):
        nonlocal killed
        killed = True
        try:
            os.kill(child, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, on_alarm)
    os.sched_setaffinity(0, {request["cpu"]})  # inherited by the command
    with open(request["stdout"], "wb") as out:
        start = time.perf_counter()
        child = os.posix_spawn(
            request["argv"][0],
            request["argv"],
            os.environ,
            file_actions=[
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
            ],
        )
        signal.setitimer(signal.ITIMER_REAL, request["timeout"])
        try:
            _, status, usage = os.wait4(child, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "timed_out": killed,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
