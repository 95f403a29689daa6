"""Entry point of the benchmark's child processes.

    child.py cli <cardnet arguments...>   cardnet's CLI, traced when the parent
                                          set PERFBENCH_TRACE_DIR; writes its
                                          own peak RSS to PERFBENCH_RSS_LOG
    child.py dpll <file.cnf>              the `optimize` solver: logs the CNF
                                          size, then runs `cardnet dpll`

Run with src/ on PYTHONPATH; the parent sets it.
"""

from __future__ import annotations

import os
import resource
import sys

CNF_LOG_ENV = "PERFBENCH_CNF_LOG"
RSS_LOG_ENV = "PERFBENCH_RSS_LOG"


def _cli(args: list[str]) -> int:
    if os.environ.get("PERFBENCH_TRACE_DIR"):   # spans.TRACE_DIR_ENV
        import spans

        spans.start_from_env()
    from cardnet import cli
    return cli.run_cli(args)


def _dpll(args: list[str]) -> int:
    log = os.environ.get(CNF_LOG_ENV)
    if log:
        with open(args[0]) as fh:
            header = fh.readline().split()
        with open(log, "a") as fh:
            fh.write(f"{header[2]} {header[3]}\n")
    return _cli(["dpll", *args])


def main() -> int:
    kind, args = sys.argv[1], sys.argv[2:]
    status = {"cli": _cli, "dpll": _dpll}[kind](args)
    log = os.environ.get(RSS_LOG_ENV)
    if kind == "cli" and log:
        # this process's peak in KiB, without the solver processes it waited for
        with open(log, "w") as fh:
            fh.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
    return status


if __name__ == "__main__":
    sys.exit(main())
