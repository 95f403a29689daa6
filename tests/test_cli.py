"""CLI behaviour: formats, exit codes, determinism, stats, demo."""

import hashlib
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cardnet.cli import run_cli, stats_report, _parse_grid
from cardnet.cnf import CnfFormula
from cardnet.cnfp import encode_cnfp, parse_cnfp, queens_cnfp, write_cnfp, CnfpSyntaxError
from cardnet.docs import formula_ledger
from cardnet.encode import EncodeOptions, cnf_cost, method_network
from cardnet.sat import dpll_sat

from conftest import parse_dimacs, planted_binary_formula, solver_cmd


def test_parse_cnfp_examples():
    text = "p cnf+ 5 2\n1 -2 0\n1 2 3 4 5 <= 2\n"
    p = parse_cnfp(text)
    assert p.num_vars == 5
    assert p.clauses == [(1, -2)]
    assert len(p.card_lines) == 1
    assert p.card_lines[0].rel == "<=" and p.card_lines[0].k == 2

    p = parse_cnfp("p cnf+ 3 1\n1 2 3 >= 1\n")
    assert p.card_lines[0].rel == ">="


def test_parse_cnfp_errors():
    with pytest.raises(CnfpSyntaxError) as err:
        parse_cnfp("p cnf+ 3 1\n1 2 3\n")  # bad terminator
    assert err.value.line == 2
    with pytest.raises(CnfpSyntaxError):
        parse_cnfp("1 2 0\n")  # missing header
    with pytest.raises(CnfpSyntaxError):
        parse_cnfp("p cnf+ 2 1\n1 3 0\n")  # out of range


def test_cnfp_round_trip():
    q = queens_cnfp(4)
    assert parse_cnfp(write_cnfp(q)).card_lines == q.card_lines


def test_queens_4_binomial_has_84_clauses():
    formula = encode_cnfp(queens_cnfp(4), EncodeOptions(method="binomial"))
    assert formula.num_clauses == 84


def test_queens_4_has_two_models():
    formula = encode_cnfp(queens_cnfp(4), EncodeOptions(method="binomial"))
    blocked = CnfFormula()
    blocked.fresh_vars(formula.num_vars)
    for cl in formula.clauses:
        blocked.add_clause(cl)
    models = 0
    while models <= 4:
        status, model = dpll_sat(blocked)
        if status == "UNSAT":
            break
        models += 1
        blocked.add_clause([-v if model[v] else v for v in range(1, 17)])
    assert models == 2


def test_cli_encode_deterministic(tmp_path):
    src = tmp_path / "inst.cnfp"
    src.write_text(write_cnfp(queens_cnfp(5)))
    out1, out2 = tmp_path / "a.cnf", tmp_path / "b.cnf"
    assert run_cli(["encode", str(src), "-o", str(out1)]) == 0
    assert run_cli(["encode", str(src), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    parse_dimacs(out1.read_text())  # well-formed


def test_cli_binomial_too_large_fails_fast(tmp_path, capsys):
    # C(60, 11) is about 3.4e11 clauses; the guard refuses before emitting any
    src = tmp_path / "wide.cnfp"
    src.write_text("p cnf+ 60 1\n" + " ".join(map(str, range(1, 61))) + " <= 10\n")
    started = time.monotonic()
    code = run_cli(["encode", str(src), "--method", "binomial", "-o", str(tmp_path / "x.cnf")])
    assert code == 3 and time.monotonic() - started < 1.0
    assert "342700125300 clauses" in capsys.readouterr().err


def test_cli_pbencode_weighted_baseline_is_encoding_error(tmp_path, capsys):
    # a weighted line needs a selection network; a baseline method has none
    src = tmp_path / "w.opb"
    src.write_text("+3 x1 +5 x2 +7 x3 +2 x4 >= 6 ;\n")
    code = run_cli(["pbencode", str(src), "--method", "sequential", "-o", str(tmp_path / "x.cnf")])
    assert code == 3
    assert "'sequential' is not a network method" in capsys.readouterr().err


def test_cli_encode_parse_error_exit_code(tmp_path, capsys):
    src = tmp_path / "broken.cnfp"
    src.write_text("p cnf+ 2 1\n1 2\n")
    assert run_cli(["encode", str(src), "-o", str(tmp_path / "x.cnf")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cnfp_second_header_is_a_parse_error(tmp_path, capsys):
    # a second header used to restart the problem, dropping the lines before it
    text = "p cnf+ 3 2\n1 2 0\np cnf+ 3 1\n-1 0\n"
    with pytest.raises(CnfpSyntaxError, match="duplicate") as err:
        parse_cnfp(text)
    assert err.value.line == 3
    src = tmp_path / "twice.cnfp"
    src.write_text(text)
    out = tmp_path / "x.cnf"
    assert run_cli(["encode", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: line 3:")
    assert not out.exists()


@pytest.mark.parametrize("header", ("p cnf+ -2 1", "p cnf+ 2 -1"))
def test_cnfp_negative_header_count_is_a_parse_error(tmp_path, header):
    with pytest.raises(CnfpSyntaxError, match="negative") as err:
        parse_cnfp(header + "\n")
    assert err.value.line == 1
    src = tmp_path / "negative.cnfp"
    src.write_text(header + "\n")
    assert run_cli(["encode", str(src), "-o", str(tmp_path / "x.cnf")]) == 2


def test_cli_missing_file_exit_code(tmp_path):
    assert run_cli(["encode", str(tmp_path / "none.cnfp"),
                    "-o", str(tmp_path / "x.cnf")]) == 2


def test_cli_usage_error():
    assert run_cli(["encode"]) == 1
    assert run_cli(["stats", "--methods", "bogus", "--grid", "n=4..4,k=1..1"]) == 1


def test_cli_demo_queens(tmp_path):
    out = tmp_path / "queens.cnfp"
    assert run_cli(["demo", "queens", "4", "-o", str(out)]) == 0
    p = parse_cnfp(out.read_text())
    assert p.num_vars == 16
    assert len(p.clauses) == 8
    assert len(p.card_lines) == 18


def test_cli_pbencode_and_solve(tmp_path):
    opb = tmp_path / "inst.opb"
    opb.write_text("min: +1 x1 +1 x2 ;\n+2 x1 +3 x2 +5 x3 >= 6 ;\n")
    cnf = tmp_path / "inst.cnf"
    assert run_cli(["pbencode", str(opb), "-o", str(cnf)]) == 0
    parse_dimacs(cnf.read_text())
    assert run_cli(["optimize", str(opb), "--solver", solver_cmd()]) == 0


def test_cli_solve_cnfp(tmp_path, capsys):
    src = tmp_path / "inst.cnfp"
    src.write_text("p cnf+ 3 2\n1 2 3 0\n1 2 3 <= 1\n")
    assert run_cli(["solve", str(src), "--solver", solver_cmd()]) == 0
    out = capsys.readouterr().out
    assert "s SATISFIABLE" in out

    src2 = tmp_path / "unsat.cnfp"
    src2.write_text("p cnf+ 2 3\n1 0\n2 0\n1 2 <= 1\n")
    assert run_cli(["solve", str(src2), "--solver", solver_cmd()]) == 0
    assert "s UNSATISFIABLE" in capsys.readouterr().out


def test_cli_dpll_subcommand(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
    proc = subprocess.run([sys.executable, "-m", "cardnet.cli", "dpll", str(cnf)],
                          capture_output=True, text=True)
    assert proc.returncode == 10
    assert "s SATISFIABLE" in proc.stdout
    assert any(line.startswith("v ") for line in proc.stdout.splitlines())


def _run_dpll(tmp_path, text):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(text)
    return subprocess.run([sys.executable, "-m", "cardnet.cli", "dpll", str(cnf)],
                          capture_output=True, text=True)


def test_cli_dpll_empty_clause_line_is_unsat(tmp_path):
    proc = _run_dpll(tmp_path, "p cnf 2 2\n1 2 0\n0\n")
    assert proc.returncode == 20
    assert "s UNSATISFIABLE" in proc.stdout


def test_cli_dpll_model_covers_header_vars(tmp_path):
    proc = _run_dpll(tmp_path, "p cnf 4 1\n-2 0\n")
    assert proc.returncode == 10
    assert "v -1 -2 -3 -4 0" in proc.stdout.splitlines()


def test_cli_dpll_malformed_token_is_parse_error(tmp_path):
    proc = _run_dpll(tmp_path, "p cnf 2 1\n1 y 0\n")
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_dpll_sparse_3000_variables(tmp_path):
    # a recursive search exceeded the default recursion limit here
    f = planted_binary_formula(3000, 1500, seed=4)
    proc = _run_dpll(tmp_path, f.write_dimacs())
    assert proc.returncode == 10
    lines = proc.stdout.splitlines()
    assert lines[0] == "s SATISFIABLE"
    values = [int(tok) for tok in lines[1].split()[1:]]
    assert values[-1] == 0 and [abs(v) for v in values[:-1]] == list(range(1, 3001))
    true_lits = set(values[:-1])
    assert all(any(l in true_lits for l in c) for c in f.clauses)


def test_dpll_command_loads_only_cnf_and_sat(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
    script = ("import sys\n"
              "from cardnet import cli\n"
              "code = cli.run_cli(['dpll', sys.argv[1]])\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cardnet'))\n"
              "print('dataclasses' in sys.modules)\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(cnf)],
                          capture_output=True, text=True)
    assert proc.returncode == 10, proc.stderr
    loaded, dataclasses_loaded = proc.stdout.splitlines()[-2:]
    assert loaded == str(["cardnet", "cardnet.cli", "cardnet.cnf", "cardnet.sat"])
    assert dataclasses_loaded == "False"


def test_star_import_resolves_every_export():
    import cardnet

    names = {}
    exec("from cardnet import *", names)
    assert set(cardnet.__all__) == {
        "FALSE", "TRUE", "CnfFormula", "Lit", "neg",
        "CardConstraint", "EncodeOptions", "EncodedConstraint", "choose_direct",
        "encode_atmost", "encode_baseline", "encode_card", "normalize_card", "strengthen",
        "Network", "cnf_cost",
        "MixedRadixBase", "PbConstraint", "PbProblem", "encode_pb", "find_base",
        "normalize_pb", "parse_opb", "simplify_rhs", "to_digits", "value_of",
        "Assignment", "Propagator", "UpResult", "check_arc_consistency",
        "check_forward_prop", "dpll_sat", "unit_propagate",
        "MinimizeConfig", "MinimizeResult", "SolverResult", "minimize", "solve_decision",
    }
    for name in cardnet.__all__:
        assert names[name] is getattr(cardnet, name)
    assert cardnet.dpll_sat is dpll_sat and cardnet.CnfFormula is CnfFormula
    with pytest.raises(AttributeError):
        cardnet.no_such_name


def test_cli_method_choices_and_exit_codes(tmp_path, capsys):
    from cardnet import cli
    from cardnet.encode import METHODS

    assert (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_PARSE, cli.EXIT_ENCODE,
            cli.EXIT_SOLVER, cli.EXIT_VERIFY) == (0, 1, 2, 3, 4, 10)
    src = tmp_path / "inst.cnfp"
    src.write_text("p cnf+ 4 1\n1 2 3 4 <= 2\n")
    for method in METHODS:
        assert run_cli(["encode", str(src), "-o", str(tmp_path / "x.cnf"),
                        "--method", method]) == 0
    capsys.readouterr()
    choices = "{" + ",".join(METHODS) + "}"
    for command, required in (("encode", ["-o", "x"]), ("pbencode", ["-o", "x"]),
                              ("solve", ["--solver", "s"]), ("optimize", ["--solver", "s"])):
        assert run_cli([command, "--help"]) == 0
        assert choices in capsys.readouterr().out
        assert run_cli([command, str(src), *required, "--method", "bogus"]) == 1
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert run_cli(["--help"]) == 0
    listing = capsys.readouterr().out
    assert all(name in listing for name in cli.COMMANDS)
    assert run_cli([]) == 1 and run_cli(["bogus"]) == 1


def test_parse_grid():
    grid = _parse_grid("n=64..256,k=4..16")
    assert grid == {"n": [64, 128, 256], "k": [4, 8, 16]}
    assert _parse_grid("n=5;9,k=2;3")["n"] == [5, 9]
    with pytest.raises(ValueError):
        _parse_grid("n=4..8")


def test_stats_grid_range_from_zero_is_usage_error(capsys):
    # doubling from 0 never passed the upper end
    assert run_cli(["stats", "--methods", "oe4", "--grid", "n=0..8,k=1..2"]) == 1
    assert "starts at 1" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["n=8..4,k=1..2", "n=4;8,k=;", "n=4..x,k=1"])
def test_stats_grid_reversed_or_empty_is_usage_error(capsys, grid):
    # a reversed range gave an empty list, and stats printed only its header
    assert run_cli(["stats", "--methods", "oe4", "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "grid entries look like" in captured.err


def test_stats_grid_negative_range_is_usage_error(capsys):
    # doubling from -1 ran until memory was exhausted
    assert run_cli(["stats", "--methods", "oe4", "--grid", "n=4..8,k=-1..2"]) == 1
    assert "starts at 1" in capsys.readouterr().err


def test_cli_bad_numbers_are_usage_errors(tmp_path, capsys):
    opb = tmp_path / "inst.opb"
    opb.write_text("min: +1 x1 +1 x2 ;\n+2 x1 +3 x2 >= 2 ;\n")
    for argv in (["demo", "queens", "0"], ["demo", "queens", "-1"],
                 ["optimize", str(opb), "--solver", solver_cmd(), "--q", "1"],
                 ["optimize", str(opb), "--solver", solver_cmd(), "--switch", "0"]):
        assert run_cli(argv) == 1, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error:" in err, argv


def test_stats_report_columns_and_na():
    text = stats_report(["oe2", "oe4", "pairwise_classic"], {"n": [9, 16], "k": [8]})
    lines = text.strip().splitlines()
    assert lines[0] == "method,n,k,vars,clauses,gates2,gates3,gates4,combines"
    rows = {tuple(l.split(",")[:3]): l.split(",") for l in lines[1:]}
    assert rows[("pairwise_classic", "9", "8")][3] == "NA"  # not a power of two
    assert rows[("pairwise_classic", "16", "8")][3] != "NA"


def test_stats_oe2_vs_oe4_vars():
    text = stats_report(["oe2", "oe4"], {"n": [256], "k": [16]})
    rows = {l.split(",")[0]: l.split(",") for l in text.strip().splitlines()[1:]}
    assert int(rows["oe2"][3]) > int(rows["oe4"][3])


def test_stats_pairwise_gate_gap():
    text = stats_report(["pairwise_classic", "pairwise_half_bitonic"],
                        {"n": [16], "k": [8]})
    rows = {l.split(",")[0]: l.split(",") for l in text.strip().splitlines()[1:]}
    gates = {m: sum(int(x) for x in row[5:8])
             for m, row in rows.items()}
    assert gates["pairwise_classic"] - gates["pairwise_half_bitonic"] == 6


def test_stats_report_golden():
    # sha256 of the CSV recorded before the stats rows were built from the
    # method table, and again when oe4 began to split each level evenly
    # (only oe4 rows changed); any change to a row, an NA cell or the row
    # order fails.  The paper's methods only: auto's rows are checked below
    from cardnet.encode import NETWORK_METHODS

    methods = [m for m in NETWORK_METHODS if m != "auto"]
    text = stats_report(methods, {"n": [1, 5, 8, 13, 16, 37, 64],
                                  "k": [0, 1, 2, 3, 8, 16, 40]})
    rows = text.splitlines()[1:]
    assert (len(rows), sum(",NA," in row for row in rows)) == (343, 190)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "f720e43c8d92df7e652cd27894e40433448d23b8712ddeb160a63878d1750115"


def test_stats_auto_rows(capsys):
    # auto is defined on every (n, k) that oe4 is, and its whole network,
    # every output emitted, is what stats reports for it
    grid = "n=1;5;13;37,k=0;1;3;8;16"
    assert run_cli(["stats", "--methods", "auto,oe4", "--grid", grid]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    auto = [row for row in rows if row[0] == "auto"]
    assert [row[1:3] for row in auto] == [row[1:3] for row in rows if row[0] == "oe4"]
    assert len(auto) == 20
    for _, n, k, v, c, *_ in auto:
        if int(k) > int(n):
            assert (v, c) == ("NA", "NA")
        else:
            net = method_network("auto", int(n), int(k))
            assert (int(v), int(c)) == cnf_cost(net), (n, k)


def test_cli_verify_sizes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["verify", "--suite", "sizes"]) == 0
    assert list(tmp_path.iterdir()) == []  # verifying writes no files


def test_tracked_ledger_is_current():
    tracked = Path(__file__).resolve().parent.parent / "docs" / "formula-ledger.md"
    assert tracked.read_text() == formula_ledger()


def test_cli_ledger(tmp_path):
    out = tmp_path / "ledger.md"
    assert run_cli(["ledger", "-o", str(out)]) == 0
    text = out.read_text()
    assert "| name | kind |" in text
    assert "oe_sort_size" in text


def test_cli_solver_failure_exit_code(tmp_path):
    src = tmp_path / "inst.cnfp"
    src.write_text("p cnf+ 2 1\n1 2 0\n")
    code = run_cli(["solve", str(src), "--solver", "/nonexistent/solver {cnf}"])
    assert code == 4


def test_cli_malformed_solver_model_is_solver_failure(tmp_path, capsys):
    script = tmp_path / "fake_solver.py"
    script.write_text("print('s SATISFIABLE')\nprint('v 1 x2 0')\n")
    solver = f"{sys.executable} {script} {{cnf}}"
    opb = tmp_path / "inst.opb"
    opb.write_text("min: +1 x1 +1 x2 ;\n+1 x1 +1 x2 >= 1 ;\n")
    assert run_cli(["optimize", str(opb), "--solver", solver]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "optimization aborted with bounds [1, None]: unparseable solver output" in err
    src = tmp_path / "inst.cnfp"
    src.write_text("p cnf+ 2 1\n1 2 0\n")
    assert run_cli(["solve", str(src), "--solver", solver]) == 4
    assert "solver failed: unparseable solver output" in capsys.readouterr().err


@pytest.mark.parametrize("template", ["", "   ", "'x"])
def test_cli_bad_solver_template_is_usage_error(tmp_path, capsys, template):
    cnfp = tmp_path / "inst.cnfp"
    cnfp.write_text("p cnf+ 2 1\n1 2 0\n")
    opb = tmp_path / "inst.opb"
    opb.write_text("min: +1 x1 +1 x2 ;\n+1 x1 +1 x2 >= 1 ;\n")
    for argv in (["solve", str(cnfp), "--solver", template],
                 ["optimize", str(opb), "--solver", template]):
        assert run_cli(argv) == 1, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error:" in err and "solver command" in err, argv


@pytest.mark.parametrize("limit", ["-1", "0", "nan", "inf"])
def test_cli_bad_time_limit_is_usage_error(tmp_path, capsys, limit):
    cnfp = tmp_path / "inst.cnfp"
    cnfp.write_text("p cnf+ 2 1\n1 2 0\n")
    opb = tmp_path / "inst.opb"
    opb.write_text("min: +1 x1 +1 x2 ;\n+1 x1 +1 x2 >= 1 ;\n")
    for argv in (["solve", str(cnfp), "--solver", solver_cmd(), "--time-limit", limit],
                 ["optimize", str(opb), "--solver", solver_cmd(), "--time-limit", limit]):
        assert run_cli(argv) == 1, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err and "time limit" in err, argv


@pytest.mark.parametrize("limit", ["1e6", "1e10", "1e300"])
def test_cli_large_time_limit_runs(tmp_path, capsys, limit):
    cnfp = tmp_path / "inst.cnfp"
    cnfp.write_text("p cnf+ 2 1\n1 2 0\n")
    opb = tmp_path / "inst.opb"
    opb.write_text("min: +1 x1 +1 x2 ;\n+1 x1 +1 x2 >= 1 ;\n")
    assert run_cli(["solve", str(cnfp), "--solver", solver_cmd(), "--time-limit", limit]) == 0
    assert capsys.readouterr().out.startswith("s SATISFIABLE\n")
    assert run_cli(["optimize", str(opb), "--solver", solver_cmd(), "--time-limit", limit]) == 0
    assert "o 1" in capsys.readouterr().out


def test_cli_solver_does_not_read_cardnet_stdin(tmp_path):
    # the solver reads its stdin to the end while cardnet's own stdin stays
    # open, so a solver that inherited it would wait forever
    script = tmp_path / "stdin_solver.py"
    script.write_text("import sys\nsys.stdin.read()\nprint('s UNSATISFIABLE')\n")
    opb = tmp_path / "inst.opb"
    opb.write_text("min: +1 x1 +1 x2 ;\n+1 x1 +1 x2 >= 1 ;\n")
    proc = subprocess.Popen([sys.executable, "-m", "cardnet.cli", "optimize", str(opb),
                             "--solver", f"{sys.executable} {script} {{cnf}}"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        code = proc.wait(timeout=30)
    finally:
        proc.kill()
        out = proc.communicate()[0]
    assert code == 0 and out == "s UNSATISFIABLE\n"
