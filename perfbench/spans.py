"""Span recorder that wraps cardnet's public functions from outside.

`install` replaces each wrapped function in every cardnet module that binds
it (and methods on their class), so calls through any import path are
recorded.  Spans stay in memory as [name, start, end, parent, attrs] and are
written once, when the process ends or receives SIGTERM.  `layer_metrics`
turns the spans of many processes into the per-layer metrics.

Untraced runs never import this module.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import sys
import time
import types

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
OP_ENV = "PERFBENCH_OP"


class Recorder:
    def __init__(self, op: str):
        self.op = op
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def wrap(self, name: str, fn, pre=None, post=None):
        """Wrap fn in a span.  pre(args) runs before the span starts and
        post(args, result, pre_state) after it ends; post returns attrs."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            state = pre(args) if pre else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post:
                rec[4] = post(args, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        now = time.perf_counter()
        for rec in self.spans:
            if rec[2] == 0.0:      # still open when the process was stopped
                rec[2] = now
        with open(path, "w") as fh:
            json.dump({"op": self.op, "pid": os.getpid(), "spans": self.spans,
                       "counts": self.counts}, fh)


def _rebind(old, new) -> None:
    """Point every cardnet module attribute bound to `old` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "cardnet" or mod_name.startswith("cardnet."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(rec: Recorder) -> None:
    import cardnet  # noqa: F401  (loads every module that binds the names)
    from cardnet import build, cli, cnf, cnfp, encode, pb, sat, solve

    def clause_count(args):
        return args[0].num_clauses

    def clause_delta(args, result, before):
        return {"clauses": args[0].num_clauses - before}

    def gates(args, result, state):
        net_gates = getattr(result, "gates", None)   # even_split4 returns sizes
        return None if net_gates is None else {"gates": len(net_gates)}

    def digit_sum(args, result, state):
        return {"digit_sum": base_cost(args[0], result)}

    def solver_result(args, result, state):
        return {"child_s": result.wall_time,
                "clauses": args[0].count("\n") - 1 + len(args[1])}

    def trail_len(args):
        return len(args[1].trail)

    def assigned(args, result, before):
        return {"assigned": len(result.assignment.trail) - before}

    base_cost = pb.base_cost
    functions = [
        (cli, "run_cli", None, None),
        (cnfp, "parse_cnfp", None, None),
        (cnfp, "encode_cnfp", None, None),
        (pb, "parse_opb", None, None),
        (pb, "find_base", None, digit_sum),
        (pb, "plan_digits", None, None),
        (pb, "encode_pb", None, None),
        (pb, "encode_goal_bound", None, None),
        (encode, "encode_card", None, None),
        (encode, "encode_atmost", None, None),
        (encode, "build_selection_network", None, gates),
        (encode, "emit_network", clause_count, clause_delta),
        (solve, "encode_problem", None, None),
        (solve, "minimize", None, None),
        (solve, "run_external_solver", None, solver_result),
        (sat, "dpll_sat", None, None),
    ]
    for name, obj in vars(build).items():
        if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                and obj.__module__ == build.__name__):
            functions.append((build, name, None, gates))
    for mod, name, pre, post in functions:
        old = getattr(mod, name)
        _rebind(old, rec.wrap(f"{mod.__name__.removeprefix('cardnet.')}.{name}",
                              old, pre, post))

    methods = [
        (encode.DirectMixer, "use_direct", "encode.use_direct", None,
         lambda args, result, state: {"direct": bool(result)}),
        (cnf.CnfFormula, "write_dimacs", "cnf.write_dimacs", None,
         lambda args, result, state: {"bytes": len(result)}),
        (sat.Propagator, "__init__", "sat.index", None, None),
        (sat.Propagator, "propagate", "sat.propagate", trail_len, assigned),
    ]
    for cls, attr, name, pre, post in methods:
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), pre, post))

    # clause counter without a span: add_clause runs once per clause
    add_clause = cnf.CnfFormula.add_clause
    counts = rec.counts
    counts["clauses_added"] = 0

    def counted_add_clause(self, lits):
        before = len(self.clauses)
        add_clause(self, lits)
        counts["clauses_added"] += len(self.clauses) - before

    cnf.CnfFormula.add_clause = counted_add_clause


def start_from_env() -> Recorder:
    """Install tracing for the operation the parent named; spans are
    written at exit or on SIGTERM."""
    trace_dir = os.environ[TRACE_DIR_ENV]
    rec = Recorder(os.environ.get(OP_ENV, "op"))
    install(rec)
    path = os.path.join(trace_dir, f"{rec.op}.{os.getpid()}.json")
    atexit.register(rec.dump, path)

    def on_term(signum, frame):
        sys.exit(143)      # runs the atexit hook

    signal.signal(signal.SIGTERM, on_term)
    return rec


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

LAYER_METRICS = (
    # name, unit, better
    ("cli.startup_s", "s", "lower"),
    ("cnfp.parse_s", "s", "lower"),
    ("pb.parse_s", "s", "lower"),
    ("encode.mixing_s", "s", "lower"),
    ("encode.mixing_decisions", "count", "lower"),
    ("encode.mixing_direct_chosen", "count", "higher"),
    ("encode.dry_run_clauses", "count", "lower"),
    ("encode.emit_useful_ratio", "ratio", "higher"),
    ("build.network_s", "s", "lower"),
    ("build.gates", "count", "lower"),
    ("encode.emit_s", "s", "lower"),
    ("cnf.clauses_added", "count", "lower"),
    ("cnf.write_s", "s", "lower"),
    ("cnf.dimacs_bytes", "bytes", "lower"),
    ("pb.find_base_s", "s", "lower"),
    ("pb.base_digit_sum", "count", "lower"),
    ("pb.plan_s", "s", "lower"),
    ("pb.encode_s", "s", "lower"),
    ("solve.encode_problem_s", "s", "lower"),
    ("solve.goal_bound_s", "s", "lower"),
    ("solve.solver_s", "s", "lower"),
    ("solve.driver_s", "s", "lower"),
    ("solve.roundtrip_s", "s", "lower"),
    ("solve.cnf_clauses_sent", "count", "lower"),
    ("solve.sat_calls", "count", "lower"),
    ("sat.index_s", "s", "lower"),
    ("sat.propagate_s", "s", "lower"),
    ("sat.propagate_calls", "count", "lower"),
    ("sat.assigned_per_call", "count", "higher"),
    ("sat.dpll_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

BUILD_PREFIXES = ("encode.build_selection_network", "build.")


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the span dumps of every traced process.

    Times are self times (span minus its child spans) unless named
    otherwise: mixing, parsing, base search, planning, DIMACS writing, the
    solve phases, propagation and DPLL are inclusive.  Work done inside a
    mixing decision (its dry-run builds and emissions) counts as mixing.
    """
    m = {name: 0.0 for name, _, _ in LAYER_METRICS}
    assigned = 0
    kept_clauses = 0
    for dump in dumps:
        spans = dump["spans"]
        m["cnf.clauses_added"] += dump["counts"].get("clauses_added", 0)
        child_time = [0.0] * len(spans)
        under_mixing = [False] * len(spans)
        under_build = [False] * len(spans)
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                pname = spans[parent][0]
                under_mixing[i] = under_mixing[parent] or pname == "encode.use_direct"
                under_build[i] = under_build[parent] or pname.startswith(BUILD_PREFIXES)
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            own = dur - child_time[i]
            attrs = attrs or {}
            if name == "encode.use_direct":
                m["encode.mixing_decisions"] += 1
                m["encode.mixing_direct_chosen"] += attrs.get("direct", 0)
                if not under_mixing[i]:
                    m["encode.mixing_s"] += dur
                continue
            if under_mixing[i]:
                if name == "encode.emit_network":
                    m["encode.dry_run_clauses"] += attrs.get("clauses", 0)
                continue
            if name.startswith(BUILD_PREFIXES):
                m["build.network_s"] += own
                if not under_build[i]:
                    m["build.gates"] += attrs.get("gates", 0)
            elif name == "encode.emit_network":
                m["encode.emit_s"] += own
                kept_clauses += attrs.get("clauses", 0)
            elif name == "cnfp.parse_cnfp":
                m["cnfp.parse_s"] += dur
            elif name == "pb.parse_opb":
                m["pb.parse_s"] += dur
            elif name == "cnf.write_dimacs":
                m["cnf.write_s"] += dur
                m["cnf.dimacs_bytes"] += attrs.get("bytes", 0)
            elif name == "pb.find_base":
                m["pb.find_base_s"] += dur
                m["pb.base_digit_sum"] += attrs.get("digit_sum", 0)
            elif name == "pb.plan_digits":
                m["pb.plan_s"] += dur
            elif name == "pb.encode_pb":
                m["pb.encode_s"] += own
            elif name == "solve.encode_problem":
                m["solve.encode_problem_s"] += dur
            elif name == "pb.encode_goal_bound":
                m["solve.goal_bound_s"] += dur
            elif name == "solve.minimize":
                m["solve.driver_s"] += dur
            elif name == "solve.run_external_solver":
                m["solve.sat_calls"] += 1
                m["solve.solver_s"] += attrs.get("child_s", 0.0)
                m["solve.roundtrip_s"] += dur - attrs.get("child_s", 0.0)
                m["solve.cnf_clauses_sent"] += attrs.get("clauses", 0)
            elif name == "sat.index":
                m["sat.index_s"] += dur
            elif name == "sat.propagate":
                m["sat.propagate_s"] += dur
                m["sat.propagate_calls"] += 1
                assigned += attrs.get("assigned", 0)
            elif name == "sat.dpll_sat":
                m["sat.dpll_s"] += dur
    m["solve.driver_s"] -= m["solve.solver_s"]
    if m["sat.propagate_calls"]:
        m["sat.assigned_per_call"] = assigned / m["sat.propagate_calls"]
    emitted = kept_clauses + m["encode.dry_run_clauses"]
    if emitted:
        m["encode.emit_useful_ratio"] = kept_clauses / emitted
    return m
