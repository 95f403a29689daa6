"""cardnet benchmark: seeded workloads run as a closed loop by one client.

    python3 perfbench/run.py --workload card-encode --seed 1 --seconds 35 --trace 0

Workloads (see gen.py for their fixed shapes):
  card-encode  cold `cardnet encode` processes over CNFP files
  pb-encode    cold `cardnet pbencode` processes over OPB files
  optimize     `cardnet optimize` over knapsack OPB files, with the DPLL
               solver run through child.py
  all          every workload in turn

End-to-end metrics: setup_s (fastest of the run's timed set-ups, each input
generation plus reference computation, taken between operations), wall_s
(sum over operations of the median time of each), vars and clauses (the CNF
each operation produced; for optimize the first CNF sent to the solver) and
peak_rss_mb (median over operations of the cardnet process's own peak RSS,
which it reads from getrusage at exit; os.wait4 gives it for a child that
was killed).

Operations run one after another in passes until --seconds would be
exceeded (at least one pass).  An operation that fails (non-zero exit,
time-out, UNKNOWN) is not run again.  Outputs are checked after the last
pass by check.py, which shares no code with cardnet.  Every failure, wrong
outputs included, is charged OP_TIME_LIMIT_S in wall_s.  With --trace 1 the
run makes one untraced and one traced pass, every operation in a fresh
interpreter, and prints the per-layer metrics computed from the spans
(spans.py).

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  Without src/cardnet next to this directory
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shlex
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import check
import child
import gen
import procs
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("card-encode", "pb-encode", "optimize")

OP_TIME_LIMIT_S = 10.0
SETUP_WARMUPS = 3
SETUP_SAMPLES_PER_OP = 3   # timed set-ups after each operation
STARTUP_SAMPLES = 5

E2E_METRICS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("vars", "count"),
    ("clauses", "count"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Op:
    name: str
    source: Path                                 # input file ...
    text: str                                    # ... and its content
    argv: list[str]                              # cardnet CLI arguments
    check: Callable[["Op", str], list[str]]      # (op, stdout) -> errors
    output: Path | None = None                   # DIMACS written by the op
    cnf_log: Path | None = None                  # CNF sizes sent to the solver


@dataclass
class OpStats:
    samples: list[float] = field(default_factory=list)
    failure: str | None = None
    maxrss_mb: float = 0.0
    vars: int = 0
    clauses: int = 0
    sat_calls: int = 0


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 launcher: procs.Launcher):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.launcher = launcher
        self.work = ROOT / ".perfbench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        self.env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(ROOT / "src"),
                    "TMPDIR": str(self.work / "tmp"), "LC_ALL": "C"}
        self.wrong = 0

    # -- child processes -------------------------------------------------

    def spawn(self, argv: list[str], tag: str, env: dict | None = None,
              term_first: bool = False):
        return self.launcher.run_child(
            [sys.executable, *argv], env=env or self.env, cwd=str(ROOT),
            stdout_path=str(self.work / f"{tag}.out"), time_limit=OP_TIME_LIMIT_S,
            term_first=term_first)

    def startup_s(self) -> float:
        """Median time of a cold interpreter that imports cardnet.cli."""
        return statistics.median(
            self.spawn(["-c", "import cardnet.cli"], "startup").wall_s
            for _ in range(STARTUP_SAMPLES))

    # -- CLI workloads ---------------------------------------------------

    def setup(self, make_ops: Callable[[], list[Op]]) -> list[Op]:
        """Generate the inputs and references and write the input files.
        Untimed: one interpreter start first checks that cardnet imports
        (and warms the file cache for the first operation), SETUP_WARMUPS
        set-ups warm the allocator, and the files are written once, since
        small-file writes vary far more than the work does."""
        if self.spawn(["-c", "import cardnet.cli"], "warmup").returncode != 0:
            raise SystemExit("error: cannot import cardnet from src/")
        for _ in range(SETUP_WARMUPS):
            make_ops()
        self.make_ops, self.setup_samples = make_ops, []
        ops = self.sample_setup()
        for op in ops:
            op.source.write_text(op.text)
        return ops

    def sample_setup(self) -> list[Op]:
        """Time one set-up.  Samples are also taken between operations, so
        they span the whole run.  On a shared host pure-Python code runs in
        phases of a few hundred milliseconds that differ up to twofold in
        speed; a set-up takes a few milliseconds and falls in one phase, so
        the median of the samples jumps with the share of slow phases in a
        run, while the fastest sample is the set-up's own cost."""
        t0 = time.perf_counter()
        ops = self.make_ops()
        self.setup_samples.append(time.perf_counter() - t0)
        return ops

    def run_op(self, op: Op, stats: OpStats, traced: bool) -> float | None:
        """Run one operation; returns its wall time, or None when it failed."""
        rss_log = self.work / f"{op.name}.rss"
        rss_log.unlink(missing_ok=True)
        env = dict(self.env, **{child.RSS_LOG_ENV: str(rss_log)})
        if op.cnf_log:
            op.cnf_log.unlink(missing_ok=True)
            env[child.CNF_LOG_ENV] = str(op.cnf_log)
        if traced:
            env.update({spans.TRACE_DIR_ENV: str(self.work / "trace"), spans.OP_ENV: op.name})
        res = self.spawn([str(BENCH_DIR / "child.py"), "cli", *op.argv], op.name, env,
                         term_first=traced)
        # the cardnet process's own peak: its solver processes are not the
        # compiler's memory; a child that was killed wrote none
        rss_mb = int(rss_log.read_text()) / 1024.0 if rss_log.exists() else res.maxrss_mb
        stats.maxrss_mb = max(stats.maxrss_mb, rss_mb)
        if res.timed_out:
            stats.failure = f"time limit {OP_TIME_LIMIT_S:g} s"
        elif res.returncode != 0:
            err = (self.work / f"{op.name}.out.err").read_text(errors="replace").strip()
            stats.failure = f"exit {res.returncode}: {err.splitlines()[-1] if err else ''}"
        if op.cnf_log and op.cnf_log.exists():
            # the first CNF is the problem's encoding; later ones add bounds
            sizes = op.cnf_log.read_text().splitlines()
            stats.sat_calls = len(sizes)
            stats.vars, stats.clauses = map(int, sizes[0].split())
        elif op.output and not stats.failure:
            with open(op.output) as fh:
                header = fh.readline().split()
            stats.vars, stats.clauses = int(header[2]), int(header[3])
        return None if stats.failure else res.wall_s

    def check_op(self, op: Op, stats: OpStats) -> None:
        stdout = (self.work / f"{op.name}.out").read_text()
        try:
            errors = op.check(op, stdout)
        except (OSError, ValueError, IndexError) as exc:
            errors = [f"unreadable output: {exc}"]
        if errors:
            self.wrong += 1
            stats.failure = "wrong output: " + "; ".join(errors[:3])
            print(f"# {op.name}: {stats.failure}", file=sys.stderr)

    def measure(self, ops: list[Op]) -> dict[str, OpStats]:
        stats = {op.name: OpStats() for op in ops}
        start, last_pass = time.perf_counter(), None
        while last_pass is None or time.perf_counter() - start + last_pass <= self.seconds:
            pass_time = 0.0
            for op in ops:
                st = stats[op.name]
                if st.failure:
                    continue
                wall = self.run_op(op, st, traced=False)
                for _ in range(SETUP_SAMPLES_PER_OP):
                    self.sample_setup()
                if wall is not None:
                    pass_time += wall
                    st.samples.append(wall)
            last_pass = pass_time
            if self.trace:
                break
        for op in ops:
            if not stats[op.name].failure:
                self.check_op(op, stats[op.name])
        return stats

    @staticmethod
    def wall(stats: dict[str, OpStats]) -> float:
        """Sum of the median time of each operation; a failure costs the limit."""
        return sum(OP_TIME_LIMIT_S if st.failure else statistics.median(st.samples)
                   for st in stats.values())

    def traced_pass(self, ops: list[Op]) -> tuple[float, list[dict]]:
        trace_dir = self.work / "trace"
        trace_dir.mkdir()
        wall = 0.0
        for op in ops:
            took = self.run_op(op, OpStats(), traced=True)
            wall += OP_TIME_LIMIT_S if took is None else took
        dumps = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
        return wall, dumps

    def run_cli_workload(self, make_ops: Callable[[], list[Op]]) -> dict:
        ops = self.setup(make_ops)
        stats = self.measure(ops)
        summary = {
            "setup_s": min(self.setup_samples),
            "wall_s": self.wall(stats),
            "vars": sum(st.vars for st in stats.values()),
            "clauses": sum(st.clauses for st in stats.values()),
            "peak_rss_mb": statistics.median(st.maxrss_mb for st in stats.values()),
            "sat_calls": sum(st.sat_calls for st in stats.values()),
            "attempted": len(ops),
            "failed": sum(1 for st in stats.values() if st.failure),
            "failures": {name: st.failure for name, st in stats.items() if st.failure},
            "ops": {name: (len(st.samples), statistics.median(st.samples), st.maxrss_mb)
                    for name, st in stats.items() if not st.failure},
        }
        if self.trace:
            traced_wall, dumps = self.traced_pass(ops)
            summary["layers"] = self.layers(dumps, traced_wall, summary["wall_s"])
        return summary

    def layers(self, dumps: list[dict], traced_wall: float, untraced_wall: float) -> dict:
        layers = spans.layer_metrics(dumps)
        layers["cli.startup_s"] = self.startup_s()
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        return layers

    # -- workload definitions ---------------------------------------------

    def encode_ops(self, kind: str, instances, checker, suffix: str) -> list[Op]:
        ops = []
        for inst in instances:
            src = self.work / f"{inst.name}.{suffix}"
            out = self.work / f"{inst.name}.cnf"
            argv = [kind, str(src), "-o", str(out)]
            if getattr(inst, "method", "oe4") != "oe4":
                argv += ["--method", inst.method]
            ops.append(Op(inst.name, src, inst.text(), argv,
                          lambda op, stdout, inst=inst: checker(
                              check.Dimacs(op.output.read_text()), inst),
                          output=out))
        return ops

    def card_encode(self) -> dict:
        return self.run_cli_workload(lambda: self.encode_ops(
            "encode", gen.card_inputs(self.seed), check.check_card_output, "cnfp"))

    def pb_encode(self) -> dict:
        return self.run_cli_workload(lambda: self.encode_ops(
            "pbencode", gen.pb_inputs(self.seed), check.check_pb_output, "opb"))

    def optimize(self) -> dict:
        solver = " ".join(shlex.quote(p) for p in
                          (sys.executable, str(BENCH_DIR / "child.py"), "dpll")) + " {cnf}"

        def make_ops() -> list[Op]:
            ops = []
            for inst in gen.optimize_inputs(self.seed):
                src = self.work / f"{inst.name}.opb"
                expected = -check.knapsack_best(inst.values, inst.weights, inst.capacity)
                ops.append(Op(inst.name, src, inst.text(),
                              ["optimize", str(src), "--strategy", inst.strategy,
                               "--switch", str(gen.OPT_SWITCH_GAP), "--solver", solver],
                              lambda op, out, inst=inst, expected=expected:
                                  check.check_optimize_output(out, inst, expected),
                              cnf_log=self.work / f"{inst.name}.cnflog"))
            return ops

        return self.run_cli_workload(make_ops)

    def run(self) -> dict:
        return {"card-encode": self.card_encode, "pb-encode": self.pb_encode,
                "optimize": self.optimize}[self.workload]()


def report(workload: str, s: dict, trace: bool) -> dict:
    """Print the human-readable table; return the metrics object."""
    ratio = s["failed"] / s["attempted"]
    print(f"== {workload}")
    for name, unit in E2E_METRICS:
        print(f"  {name:<28} {s[name]:>14.4f} {unit}")
    print(f"  {'sat_calls':<28} {s['sat_calls']:>14d} count")
    print(f"  {'failed_ratio':<28} {ratio:>14.4f} ratio  ({s['failed']}/{s['attempted']})")
    for name, (runs, median, rss) in s.get("ops", {}).items():
        print(f"    {name:<26} {median:>14.4f} s  (median of {runs}, {rss:.1f} MB)")
    for name, why in sorted(s["failures"].items()):
        print(f"    {name:<26} failed: {why}")
    if trace:
        metrics = {name: {"value": s["layers"][name], "unit": unit}
                   for name, unit, _ in spans.LAYER_METRICS}
        for name, m in metrics.items():
            print(f"  {name:<28} {m['value']:>14.4f} {m['unit']}")
    else:
        metrics = {name: {"value": s[name], "unit": unit} for name, unit in E2E_METRICS}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cardnet" / "cli.py").is_file():
        print(f"error: no cardnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        with procs.Launcher() as launcher:
            bench = Bench(name, args.seed, args.seconds, bool(args.trace), launcher)
            summary = bench.run()
        shutil.rmtree(bench.work, ignore_errors=True)
        metrics = report(name, summary, bool(args.trace))
        result["correct"] = result["correct"] and bench.wrong == 0
        result["attempted"] += summary["attempted"]
        result["failed"] += summary["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
