"""Child processes with a time limit and their own peak memory.

Each child runs in its own session, so a time-out stops it together with any
solver it spawned.  The wall time runs from spawn to reaping; peak memory
comes from the child's rusage as returned by os.wait4.

Children are started by a launcher: this file run as a small process of its
own.  Linux carries a process's peak RSS over fork and exec into the child's
rusage, so a child forked by the benchmark, whose peak grows with the inputs
it holds, would report the benchmark's memory instead of its own.  The
launcher holds only this module and reports its children's rusage.

    python3 perfbench/procs.py    # serves one JSON request per stdin line
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

# a traced child that gets SIGTERM writes its spans; this is how long it has
TERM_GRACE_S = 2.0


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    maxrss_mb: float
    timed_out: bool


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the group is left (solver grandchildren are
    not ours to reap, so poll for them)."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    _signal_group(pgid, signal.SIGKILL)


def run_child(argv: list[str], *, env: dict, cwd: str, stdout_path: str,
              time_limit: float, term_first: bool = False) -> ChildResult:
    """Run argv to completion or until time_limit seconds have passed."""
    timed_out = threading.Event()
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, start_new_session=True)

        def expire():
            timed_out.set()
            if term_first:
                _signal_group(proc.pid, signal.SIGTERM)
                time.sleep(TERM_GRACE_S)
            _signal_group(proc.pid, signal.SIGKILL)

        timer = threading.Timer(time_limit, expire)
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ask leftover solver processes to stop, then wait for them
        _signal_group(proc.pid, signal.SIGTERM)
        _wait_group_gone(proc.pid)
    return ChildResult(proc.returncode, wall, rusage.ru_maxrss / 1024.0, timed_out.is_set())


class Launcher:
    """Client of the launcher process; run_child() has run_child's arguments."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run_child(self, argv: list[str], **kwargs) -> ChildResult:
        self.proc.stdin.write(json.dumps({"argv": argv, **kwargs}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with status {self.proc.wait()}")
        return ChildResult(**json.loads(reply))

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()    # the launcher ends at end of input
        self.proc.wait()
        self.proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        result = run_child(**json.loads(line))
        print(json.dumps(dataclasses.asdict(result)), flush=True)


if __name__ == "__main__":
    serve()
