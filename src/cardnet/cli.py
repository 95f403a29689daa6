"""Command-line front end.

Subcommands: encode (CNFP -> DIMACS), pbencode (OPB -> DIMACS), solve,
optimize, stats (size CSV over a method/parameter grid), verify (property
suites), demo (instance generators), dpll (built-in reference solver with
SAT-competition output), ledger (regenerate the formula ledger).

Exit codes: 0 success, 1 usage, 2 parse error, 3 encoding error, 4 solver
failure, 5 output file not writable, 10 verification failure.

Each command imports the modules it needs when it runs, and `run_cli`
defines only the arguments of the command named on the command line, so a
`cardnet dpll` process loads `cnf` and `sat` alone: `optimize` starts one
such process per bound.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .encode import EncodeOptions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_ENCODE = 3
EXIT_SOLVER = 4
EXIT_WRITE = 5
EXIT_VERIFY = 10


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_output(path: str | None, chunks: Iterable[str]) -> int:
    """Write the text chunks, in order, to the file at path, or to stdout
    when path is None."""
    if path is None:
        sys.stdout.writelines(chunks)
        return EXIT_OK
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        return _fail(EXIT_WRITE, f"cannot write {path}: {exc}")
    return EXIT_OK


def _options(args) -> EncodeOptions:
    from .encode import EncodeOptions

    return EncodeOptions(method=args.method, lam=args.lam,
                         direct_mixing=not args.no_direct)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_encode_flags(parser):
    from .encode import METHODS

    parser.add_argument("--method", default="auto", choices=METHODS)
    parser.add_argument("--lambda", dest="lam", type=_positive_int, default=5,
                        help="weight of a variable against a clause when choosing "
                             "each sub-network's construction")
    parser.add_argument("--no-direct", action="store_true",
                        help="disable direct-network mixing")


def _cmd_encode(args) -> int:
    from .cnfp import CnfpSyntaxError, encode_cnfp, parse_cnfp

    try:
        problem = parse_cnfp(Path(args.input).read_text())
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot read {args.input}: {exc}")
    except CnfpSyntaxError as exc:
        return _fail(EXIT_PARSE, str(exc))
    try:
        formula = encode_cnfp(problem, _options(args))
    except ValueError as exc:
        return _fail(EXIT_ENCODE, str(exc))
    return _write_output(args.output, formula.dimacs_chunks())


def _cmd_pbencode(args) -> int:
    from .pb import PbSyntaxError, parse_opb
    from .solve import encode_problem

    try:
        problem = parse_opb(Path(args.input).read_text())
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot read {args.input}: {exc}")
    except PbSyntaxError as exc:
        return _fail(EXIT_PARSE, str(exc))
    try:
        enc = encode_problem(problem, _options(args))
    except ValueError as exc:
        return _fail(EXIT_ENCODE, str(exc))
    return _write_output(args.output, enc.formula.dimacs_chunks())


def _load_problem(path: str):
    from .cnfp import parse_cnfp
    from .pb import parse_opb

    text = Path(path).read_text()
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("p cnf+"):
            return parse_cnfp(text)
        if stripped.startswith(("c", "p")):
            continue
        break
    return parse_opb(text)


def _cmd_solve(args) -> int:
    from .cnfp import CnfpSyntaxError
    from .pb import PbSyntaxError
    from .solve import MinimizeConfig, solve_decision

    try:
        problem = _load_problem(args.input)
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot read {args.input}: {exc}")
    except (CnfpSyntaxError, PbSyntaxError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    try:
        cfg = MinimizeConfig(solver_cmd=args.solver, time_limit=args.time_limit)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        result = solve_decision(problem, _options(args), cfg)
    except ValueError as exc:
        return _fail(EXIT_ENCODE, str(exc))
    if result.status == "UNKNOWN":
        return _fail(EXIT_SOLVER, f"solver failed: {result.diagnostic}")
    print(f"s {'SATISFIABLE' if result.status == 'SAT' else 'UNSATISFIABLE'}")
    if result.model:
        lits = [v if result.model[v] else -v for v in sorted(result.model)]
        print("v " + " ".join(map(str, lits)) + " 0")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    from .cnfp import CnfpSyntaxError
    from .pb import PbSyntaxError
    from .solve import MinimizeConfig, minimize

    try:
        problem = _load_problem(args.input)
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot read {args.input}: {exc}")
    except (CnfpSyntaxError, PbSyntaxError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    if not hasattr(problem, "objective") or problem.objective is None:
        return _fail(EXIT_USAGE, "optimize needs an OPB problem with a min: line")
    try:
        cfg = MinimizeConfig(strategy="binary" if args.strategy == "bin" else "sequential",
                             q=args.q, switch_gap=args.switch,
                             solver_cmd=args.solver, time_limit=args.time_limit)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        result = minimize(problem, _options(args), cfg)
    except ValueError as exc:
        return _fail(EXIT_ENCODE, str(exc))
    if result.status == "INFEASIBLE":
        print("s UNSATISFIABLE")
        return EXIT_OK
    if result.status != "OPTIMAL":
        return _fail(EXIT_SOLVER, f"optimization aborted with bounds "
                                  f"[{result.lower_bound}, {result.upper_bound}]: "
                                  f"{result.diagnostic}")
    print(f"o {result.value}")
    print("s OPTIMUM FOUND")
    lits = [v if result.model[v] else -v for v in sorted(result.model)]
    print("v " + " ".join(map(str, lits)) + " 0")
    return EXIT_OK


def _parse_grid(spec: str) -> dict[str, list[int]]:
    grid: dict[str, list[int]] = {}
    for part in spec.split(","):
        usage = f"grid entries look like n=64..256 or k=4;8;16, got {part!r}"
        name, _, rng = part.partition("=")
        name = name.strip()
        lo, dots, hi = rng.partition("..")
        try:
            vals = [] if dots else [int(x) for x in rng.split(";")]
            lo, hi = (int(lo), int(hi)) if dots else (1, 0)
        except ValueError:
            raise ValueError(usage) from None
        if lo < 1:
            raise ValueError(f"a doubling range starts at 1 or more, got {part!r}")
        while lo <= hi:
            vals.append(lo)
            lo *= 2
        if name not in ("n", "k") or not vals:  # also a reversed range
            raise ValueError(usage)
        grid[name] = vals
    if "n" not in grid or "k" not in grid:
        raise ValueError("grid needs both n= and k= entries")
    return grid


def stats_report(methods: list[str], grid: dict[str, list[int]]) -> str:
    """CSV rows (method, n, k, vars, clauses, gates2, gates3, gates4,
    combines) over the network methods' own constructions with mixing
    disabled.  Combinations outside a construction's domain get NA data
    columns: k outside 0..n, and n or k not a power of two for the methods
    that are built for powers of two only."""
    from .encode import PADDED_METHODS, cnf_cost, method_network

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["method", "n", "k", "vars", "clauses",
                     "gates2", "gates3", "gates4", "combines"])
    for method in methods:
        for n in grid["n"]:
            for k in grid["k"]:
                if not 0 <= k <= n or method in PADDED_METHODS and (
                        k < 1 or k & (k - 1) or n & (n - 1)):
                    writer.writerow([method, n, k] + ["NA"] * 6)
                    continue
                net = method_network(method, n, k)
                v, c = cnf_cost(net)
                hist, combines = net.gate_histogram()
                g2 = sum(cnt for (order, _m), cnt in hist.items() if order == 2)
                g3 = sum(cnt for (order, _m), cnt in hist.items() if order == 3)
                g4 = sum(cnt for (order, _m), cnt in hist.items() if order == 4)
                writer.writerow([method, n, k, v, c, g2, g3, g4, combines])
    return out.getvalue()


def _cmd_stats(args) -> int:
    from .encode import NETWORK_METHODS

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    bad = [m for m in methods if m not in NETWORK_METHODS]
    if bad:
        return _fail(EXIT_USAGE, f"unknown network methods: {', '.join(bad)}")
    try:
        grid = _parse_grid(args.grid)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    return _write_output(args.csv, [stats_report(methods, grid)])


def _cmd_verify(args) -> int:
    from .verify import run_suite

    ok = run_suite(args.suite)
    if not ok:
        return _fail(EXIT_VERIFY, f"suite {args.suite} failed")
    return EXIT_OK


def _cmd_demo(args) -> int:
    from .cnfp import queens_cnfp, write_cnfp

    if args.kind != "queens":
        return _fail(EXIT_USAGE, f"unknown demo {args.kind!r}")
    return _write_output(args.output, [write_cnfp(queens_cnfp(args.n))])


def _cmd_dpll(args) -> int:
    from .cnf import parse_dimacs
    from .sat import dpll_sat

    try:
        num_vars, clauses = parse_dimacs(Path(args.input).read_text())
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot read {args.input}: {exc}")
    except ValueError as exc:
        return _fail(EXIT_PARSE, f"{args.input}: {exc}")
    # the solver core takes the parsed clauses as they are: it drops
    # duplicate literals and tautologies, and an empty clause is UNSAT
    status, model = dpll_sat((num_vars, clauses))
    if status == "UNSAT":
        print("s UNSATISFIABLE")
        return 20
    print("s SATISFIABLE")
    lits = [v if model[v] else -v for v in sorted(model)]
    print("v " + " ".join(map(str, lits)) + " 0")
    return 10


def _cmd_ledger(args) -> int:
    from .docs import formula_ledger

    return _write_output(args.output, [formula_ledger()])


def _encode_args(p) -> None:
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    _add_encode_flags(p)


TIME_LIMIT_HELP = ("seconds per solver call; a limit longer than the wait can take "
                   "(about 24.8 days) is no limit")


def _solve_args(p) -> None:
    p.add_argument("input")
    p.add_argument("--solver", required=True,
                   help="solver command with a {cnf} placeholder")
    p.add_argument("--time-limit", type=float, default=None, help=TIME_LIMIT_HELP)
    _add_encode_flags(p)


def _optimize_args(p) -> None:
    p.add_argument("input")
    p.add_argument("--solver", required=True)
    p.add_argument("--strategy", choices=("seq", "bin"), default="bin")
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--switch", type=int, default=96)
    p.add_argument("--time-limit", type=float, default=None, help=TIME_LIMIT_HELP)
    _add_encode_flags(p)


def _stats_args(p) -> None:
    p.add_argument("--methods", required=True, help="comma-separated network methods")
    p.add_argument("--grid", required=True, help="e.g. n=64..256,k=4..16")
    p.add_argument("--csv", help="output file (default: stdout)")


def _verify_args(p) -> None:
    p.add_argument("--suite", default="all",
                   choices=("zero-one", "ac", "equisat", "sizes", "all"))


def _demo_args(p) -> None:
    p.add_argument("kind", choices=("queens",))
    p.add_argument("n", type=_positive_int)
    p.add_argument("-o", "--output")


def _dpll_args(p) -> None:
    p.add_argument("input")


def _ledger_args(p) -> None:
    p.add_argument("-o", "--output")


# name -> (help, argument definitions, handler)
COMMANDS = {
    "encode": ("encode a CNFP file to DIMACS CNF", _encode_args, _cmd_encode),
    "pbencode": ("encode an OPB file to DIMACS CNF", _encode_args, _cmd_pbencode),
    "solve": ("solve a CNFP or OPB decision problem", _solve_args, _cmd_solve),
    "optimize": ("minimize an OPB objective", _optimize_args, _cmd_optimize),
    "stats": ("CSV size statistics over a parameter grid", _stats_args, _cmd_stats),
    "verify": ("run a verification suite", _verify_args, _cmd_verify),
    "demo": ("generate a demo instance", _demo_args, _cmd_demo),
    "dpll": ("reference CDCL solver (SAT-competition output)", _dpll_args, _cmd_dpll),
    "ledger": ("regenerate the formula ledger", _ledger_args, _cmd_ledger),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser.  Given a command name, only that subcommand's
    arguments are defined (the others are still listed), so building the
    parser imports nothing the command does not use."""
    parser = argparse.ArgumentParser(
        prog="cardnet",
        description="cardinality / pseudo-Boolean constraint compiler to CNF")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, define_args, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            define_args(p)
        p.set_defaults(fn=handler)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.fn(args)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
