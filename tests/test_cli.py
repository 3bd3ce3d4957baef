"""End-to-end command-line behavior: parsing, reports, exit codes."""
import json
import math
import warnings
from pathlib import Path

import pytest

from cubebounds import cli, lp, sim
from cubebounds.bounds import BoundsRequest, InfeasibleBudgetError, solve_bounds
from cubebounds.core import ContingencyTable, MomentBudget, normalize

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def refuse_call(*args, **kwargs):
    """Stands in for a solver that a refused input must never reach."""
    raise AssertionError("an input error reached the solver")


# -- bounds ----------------------------------------------------------------------


def test_bounds_golf_fixture_text(capsys):
    code, out, err = run(capsys, "bounds", "--config",
                         str(FIXTURES / "golf.json"))
    assert code == 0
    assert "0.0455 <= psi <= 0.4341" in out
    assert "tau (K=0.0500)" in out
    assert "m=50" in out


def test_bounds_drug_fixture_range_k(capsys):
    code, out, err = run(capsys, "bounds", "--config",
                         str(FIXTURES / "drug.json"))
    assert code == 0
    assert "0.1465 <= psi <= 0.5180" in out
    assert "tau (K >= 0.1500): tau <= 0.3680 (no lower bound)" in out


def test_bounds_vaccine_fixture_documents_both_risk_differences(capsys):
    code, out, err = run(capsys, "bounds", "--config",
                         str(FIXTURES / "vaccine.json"))
    assert code == 0
    assert "-0.640%" in out and "-0.709%" in out
    assert "width 0.0000" in out


def test_bounds_json_round_trips(capsys):
    code, out, err = run(capsys, "bounds", "--config",
                         str(FIXTURES / "golf.json"), "--json")
    assert code == 0
    data = json.loads(out)
    again = json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert again == out
    assert data["interval"]["L"] == pytest.approx(1 / 22, abs=1e-9)
    assert data["tau"]["mode"] == "point"
    assert data["grid"]["converged"] is True


def test_bounds_flags_only(capsys):
    data = run_json(capsys, "bounds", "--table", str(FIXTURES / "drug.tbl"),
                    "--f", "0.03", "--g", "0.04", "--grid-m", "32", "--json")
    assert data["interval"]["L"] == pytest.approx(0.14933, abs=1e-4)
    assert data["budget"]["mode"] == "explicit"
    assert data["grid"]["m_final"] == 32


def test_bounds_discrimination_budget(capsys):
    data = run_json(capsys, "bounds", "--table", str(FIXTURES / "golf.tbl"),
                    "--dx", "0.5", "--dy", "0.5", "--grid-m", "50", "--json")
    assert data["budget"]["mode"] == "discrimination"
    assert data["budget"]["f"] == 0.125


def test_bounds_k_range_two_sided(capsys):
    data = run_json(capsys, "bounds", "--table", str(FIXTURES / "golf.tbl"),
                    "--f", "0.125", "--g", "0.03", "--grid-m", "50",
                    "--k-min", "0.0", "--k-max", "0.05", "--json")
    assert data["tau"]["mode"] == "range"
    assert data["tau"]["lower"] == pytest.approx(1 / 22 - 0.05)
    assert data["tau"]["upper"] == pytest.approx(0.43410929951690896, abs=1e-6)


def test_bounds_infeasible_budget_exits_2(capsys):
    code, out, err = run(capsys, "bounds", "--table",
                         str(FIXTURES / "golf.tbl"),
                         "--f", "0.125", "--g", "0.03", "--grid-m", "32")
    assert code == 2
    assert "least feasible" in err
    # the refusal writes its own diagnosis, so a library caller reads the
    # same text that the command prints
    golf = normalize(ContingencyTable(0.05, 0.45, 0.005, 0.495))
    request = BoundsRequest(golf, MomentBudget(0.125, 0.03), 32, refine=False)
    with pytest.raises(InfeasibleBudgetError) as info:
        solve_bounds(request)
    assert err == f"error: {info.value}\n"


def test_table_no_grid_represents_exits_2_without_diagnostics(capsys, tmp_path):
    table = tmp_path / "t.tbl"
    table.write_text("0 10 5 85\n")
    code, out, err = run(capsys, "bounds", "--table", str(table),
                         "--f", "0.05", "--g", "0.05")
    assert code == 2
    assert out == ""
    # the whole of stderr: no least feasible budget and no traceback
    assert err == ("error: no measure matches the table under f=0.05, "
                   "g=0.05 on grids up to m=64\n")


@pytest.mark.parametrize("g", ["1e-9", "1e-12"])
def test_golf_refusal_at_a_tiny_g_exits_2(capsys, g):
    # the f diagnosis LP of these refusals used to end with a basic value
    # below -10 * TOL_FEAS and exit 3
    code, out, err = run(capsys, "bounds", "--table", str(FIXTURES / "golf.tbl"),
                         "--f", "0.125", "--g", g)
    assert code == 2
    assert out == ""
    assert err.startswith("error: no measure matches")
    assert "negative basic variable" not in err


@pytest.mark.parametrize("failure", [lp.SingularBasisError, lp.IterationLimitError],
                         ids=["singular", "iteration-limit"])
def test_singular_diagnosis_lp_drops_only_its_line(capsys, monkeypatch, failure):
    solve = lp.solve

    def failing_f(program):
        if program.oracle.objective == "f":
            raise failure("the f diagnosis LP failed")
        return solve(program)

    monkeypatch.setattr(lp, "solve", failing_f)
    code, out, err = run(capsys, "bounds", "--table", str(FIXTURES / "golf.tbl"),
                         "--f", "0.125", "--g", "0.03", "--grid-m", "32")
    assert code == 2
    assert err.startswith("error: no measure matches")
    assert "least feasible f" not in err
    assert "least feasible g at the given f: " in err


@pytest.mark.parametrize("cells,arm", [("0 0 5 95", "x=1"), ("5 95 0 0", "x=0")])
@pytest.mark.parametrize("budget", [("--dx", "0.5", "--dy", "0.5"),
                                    ("--f", "0.03", "--g", "0.04")])
def test_empty_treatment_arm_is_refused_under_both_budget_modes(capsys, tmp_path,
                                                                cells, arm, budget):
    table = tmp_path / "t.tbl"
    table.write_text(cells + "\n")
    code, out, err = run(capsys, "bounds", "--table", str(table), *budget)
    assert code == 1
    assert f"Pr({arm}) is zero; conditional risk undefined" in err
    assert out == ""


def test_zero_baseline_risk_at_zero_f_reports_an_undefined_ratio(capsys, tmp_path):
    """n01 = 0 is refused on every interior grid, so only f = 0 reaches the
    report with a zero baseline risk; its one-atom certificate lies on the
    closed cube and reproduces every cell."""
    table = tmp_path / "t.tbl"
    table.write_text("10 90 0 100\n")
    argv = ["bounds", "--table", str(table), "--f", "0", "--g", "0.05"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert "difference=0.1000 ratio=undefined" in out
    data = run_json(capsys, *argv, "--json")
    assert data["risks"]["relative_risk"] is None
    for side in ("min", "max"):
        (pi, r0, r1, weight), = data["certificates"][side]
        assert weight == 1.0
        cells = {"p01": (1 - pi) * r0, "p11": pi * r1,
                 "p00": (1 - pi) * (1 - r0), "p10": pi * (1 - r1)}
        for cell, value in cells.items():
            assert value == pytest.approx(data["joint"][cell], abs=1e-15)


def test_iteration_limit_maps_to_exit_3(capsys, monkeypatch):
    # the first psi LP reaches the limit inside lp and its error reaches main
    monkeypatch.setattr(lp, "MAX_ITER", 1)
    code, out, err = run(capsys, "bounds", "--config", str(FIXTURES / "drug.json"))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ")
    assert "iteration limit" in err


def test_singular_basis_maps_to_exit_3(capsys, monkeypatch):
    def singular(program):
        raise lp.SingularBasisError("singular basis at refactorization")
    monkeypatch.setattr(lp, "solve", singular)
    code, out, err = run(capsys, "bounds", "--table",
                         str(FIXTURES / "golf.tbl"), "--f", "0.1",
                         "--g", "0.1")
    assert code == 3
    assert "error: singular basis" in err
    assert "Traceback" not in err


def test_unexpected_lp_status_maps_to_exit_3(capsys, monkeypatch):
    def unbounded(program):
        return lp.LpSolution(lp.UNBOUNDED, float("-inf"), (), (0.0,) * 7, 3)
    monkeypatch.setattr(lp, "solve", unbounded)
    code, out, err = run(capsys, "bounds", "--table",
                         str(FIXTURES / "golf.tbl"), "--f", "0.1",
                         "--g", "0.1")
    assert code == 3
    assert "error: unexpected LP status unbounded" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--k", "--k-min", "--k-max"])
def test_non_finite_k_flag_exits_1(capsys, flag):
    for value in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, "bounds", "--table",
                             str(FIXTURES / "drug.tbl"), "--f", "0.03",
                             "--g", "0.04", f"{flag}={value}")
        assert code == 1
        assert f"error: argument {flag}: expected a finite number" in err
        assert out == ""


@pytest.mark.parametrize("extra, name, expected", [
    ({"k": float("nan")}, "k", "expected a finite number"),
    ({"k": {"min": float("nan")}}, "k.min", "expected a finite number"),
    # the ladder's settle tolerance is a constant, not a setting
    ({"grid": {"refine": True, "refine_tol": float("nan")}}, "grid",
     "unknown keys ['refine_tol']"),
    # bool("false") is True: a string must not switch refinement on
    ({"grid": {"refine": "false"}}, "grid.refine",
     "expected true or false, got 'false'"),
    # int() would truncate 64.7 to 64 without a word
    ({"grid": {"m": 64.7}}, "grid.m", "expected an integer, got 64.7"),
    # a path joined with a number raises TypeError, not an input error
    ({"k": {"profiles": 5}}, "k.profiles", "expected a file path, got 5"),
], ids=["k", "k.min", "grid.refine_tol", "grid.refine", "grid.m", "k.profiles"])
def test_non_finite_config_number_exits_1(capsys, tmp_path, extra, name,
                                          expected):
    """Non-finite, non-boolean, non-integral and non-string config values
    exit 1 and name the field."""
    config = tmp_path / "config.json"
    # json.dumps writes NaN as the bare token NaN, which json.loads reads back
    config.write_text(json.dumps({"table": str(FIXTURES / "drug.tbl"),
                                  "budget": {"f": 0.03, "g": 0.04}, **extra}))
    code, out, err = run(capsys, "bounds", "--config", str(config))
    assert code == 1
    assert f"error: {config}: {name}: {expected}" in err
    assert out == ""


HUGE = int("1" + "0" * 400)  # a JSON integer that no float can hold


@pytest.mark.parametrize("command, extra, name", [
    ("bounds", {"k": HUGE}, "k"),
    ("bounds", {"budget": {"f": HUGE, "g": 0.04}}, "budget.f"),
    ("bounds", {"grid": {"m": HUGE}}, "grid.m"),
    ("bounds", {"published_risk_difference": HUGE}, "published_risk_difference"),
    ("bounds", {"table": [HUGE, 10, 5, 85]}, "table"),
    ("simulate", {"N": HUGE}, "N"),
    ("simulate", {"seed": HUGE}, "seed"),
    ("simulate", {"share": HUGE}, "types[0]: share"),
], ids=["k", "budget.f", "grid.m", "published_risk_difference", "table-cell",
        "N", "seed", "share"])
def test_integer_too_large_for_a_float_exits_1(capsys, tmp_path, monkeypatch,
                                               command, extra, name):
    """float() overflows on such an integer; the field is named, with no
    traceback."""
    monkeypatch.setattr(cli, "solve_bounds", refuse_call)
    monkeypatch.setattr(sim, "coverage_experiment", refuse_call)
    path = tmp_path / "input.json"
    if command == "bounds":
        data = {"table": str(FIXTURES / "drug.tbl"), "budget": {"f": 0.03, "g": 0.04}}
        data.update(extra)
        argv = ["bounds", "--config", str(path)]
    else:
        data = json.loads((FIXTURES / "golf_toy.json").read_text())
        (data["types"][0] if "share" in extra else data).update(extra)
        argv = ["simulate", str(path), "--runs", "1"]
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: {name}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_integer_past_the_digit_limit_names_the_file(capsys, tmp_path,
                                                     monkeypatch, command):
    """json.loads refuses an integer literal of more than 4 300 digits with
    advice meant for Python code; the report names the file instead."""
    monkeypatch.setattr(cli, "solve_bounds", refuse_call)
    monkeypatch.setattr(sim, "coverage_experiment", refuse_call)
    huge = "1" + "0" * 5000  # json.dumps itself refuses such an int
    path = tmp_path / "input.json"
    if command == "bounds":
        path.write_text(json.dumps({"table": str(FIXTURES / "drug.tbl"),
                                    "budget": {"f": 0.03, "g": 0.04}, "k": 0})
                        .replace('"k": 0', f'"k": {huge}'))
        argv = ["bounds", "--config", str(path)]
    else:
        path.write_text((FIXTURES / "golf_toy.json").read_text()
                        .replace('"N": 100000', f'"N": {huge}'))
        argv = ["simulate", str(path), "--runs", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: an integer has too many digits\n"


@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_json_nested_past_the_recursion_limit_names_the_file(capsys, tmp_path,
                                                             monkeypatch, command):
    """json.loads raises RecursionError on arrays nested deeper than the
    interpreter's recursion limit; the report is one line naming the file."""
    monkeypatch.setattr(cli, "solve_bounds", refuse_call)
    monkeypatch.setattr(sim, "coverage_experiment", refuse_call)
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "input.json"
    if command == "bounds":
        path.write_text('{"k": ' + deep + "}")
        argv = ["bounds", "--config", str(path)]
    else:
        path.write_text((FIXTURES / "golf_toy.json").read_text()
                        .replace('"N": 100000', f'"N": {deep}'))
        argv = ["simulate", str(path), "--runs", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: nested too deeply\n"


@pytest.mark.parametrize("module, name, argv, message, shown", [
    (cli, "solve_bounds", ("bounds", "--table", str(FIXTURES / "drug.tbl"),
                           "--f", "0.03", "--g", "0.04", "--grid-m", "20000"),
     "Unable to allocate 2.98 GiB", "Unable to allocate 2.98 GiB"),
    (sim, "coverage_experiment", ("simulate", str(FIXTURES / "golf_toy.json"),
                                  "--runs", "1"),
     "", "allocation failed"),
], ids=["bounds", "simulate"])
def test_out_of_memory_exits_1_with_one_line(capsys, monkeypatch, module, name,
                                             argv, message, shown):
    """A grid too large to allocate raises MemoryError (numpy's carries the
    size); it exits 1 with one error line, not a traceback.  The solver is
    replaced, so no large array is ever allocated."""
    def exhausted(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr(module, name, exhausted)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: out of memory: {shown}\n"


@pytest.mark.parametrize("grid, expected", [
    # the settle tolerance is the constant bounds.REFINE_TOL: the key is unknown
    ({"refine_tol": 0}, "error: {config}: grid: unknown keys ['refine_tol']\n"),
    ({"m": 64, "refine": True, "max_m": 32},
     "error: max_m must not be below the starting grid\n"),
], ids=["refine_tol", "max_m"])
def test_out_of_range_grid_config_exits_1(capsys, tmp_path, grid, expected):
    """A refine ceiling below the starting grid exits 1 with the message
    of BoundsRequest, which names the field; a refine tolerance, no longer
    a setting, exits 1 as an unknown key."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"table": str(FIXTURES / "drug.tbl"),
                                  "budget": {"f": 0.03, "g": 0.04}, "grid": grid}))
    code, out, err = run(capsys, "bounds", "--config", str(config))
    assert code == 1
    assert err == expected.format(config=config)
    assert out == ""


def test_fixed_grid_above_max_m_needs_no_refine(capsys):
    # max_m (default 256) bounds refinement only
    data = run_json(capsys, "bounds", "--table", str(FIXTURES / "drug.tbl"),
                    "--f", "0.03", "--g", "0.04", "--grid-m", "300", "--json")
    assert data["grid"]["m_final"] == 300
    assert data["grid"]["refine"] is False
    data = run_json(capsys, "simulate", str(FIXTURES / "golf_toy.json"),
                    "--runs", "1", "--grid-m", "300", "--json")
    assert data["grid_m"] == 300


def test_open_k_side_is_an_absent_flag(capsys):
    data = run_json(capsys, "bounds", "--table", str(FIXTURES / "golf.tbl"),
                    "--f", "0.125", "--g", "0.03", "--grid-m", "50",
                    "--k-min", "0.0", "--json")
    assert data["tau"]["k_max"] is None
    assert data["tau"]["lower"] is None


def test_non_finite_inputs_exit_1(capsys, tmp_path):
    bad = tmp_path / "nan.tbl"
    bad.write_text("978 nan 114 3649\n")
    code, out, err = run(capsys, "bounds", "--table", str(bad),
                         "--f", "0.1", "--g", "0.1")
    assert code == 1
    assert "table cells must be finite" in err
    code, out, err = run(capsys, "bounds", "--table",
                         str(FIXTURES / "drug.tbl"), "--f", "nan",
                         "--g", "0.1")
    assert code == 1
    assert "moment budgets must be finite" in err


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_overflowing_table_total_exits_1(capsys, tmp_path, json_flag):
    table = tmp_path / "t.tbl"
    table.write_text("1e308 1e308 1 1\n")
    code, out, err = run(capsys, "bounds", "--table", str(table),
                         "--f", "0.01", "--g", "0.01", *json_flag)
    assert code == 1
    assert out == ""
    assert err == f"error: {table}: table total overflows to infinity\n"


def test_bad_table_file_exits_1_with_line_number(capsys, tmp_path):
    bad = tmp_path / "bad.tbl"
    bad.write_text("1 2\nthree 4\n")
    code, out, err = run(capsys, "bounds", "--table", str(bad),
                         "--f", "0.1", "--g", "0.1")
    assert code == 1
    assert f"{bad}:2" in err


def test_malformed_config_exits_1_with_position(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{\n  "table": [1, 2, 3, 4\n}\n')
    code, out, err = run(capsys, "bounds", "--config", str(cfg))
    assert code == 1
    assert f"{cfg}:3" in err


def test_conflicting_budget_modes_exit_1(capsys):
    code, out, err = run(capsys, "bounds", "--table",
                         str(FIXTURES / "golf.tbl"), "--f", "0.1",
                         "--g", "0.1", "--dx", "0.5", "--dy", "0.5")
    assert code == 1
    assert "not both" in err


def test_conflicting_k_modes_exit_1(capsys):
    code, out, err = run(capsys, "bounds", "--config",
                         str(FIXTURES / "golf.json"), "--k", "0.1",
                         "--k-min", "0.0")
    assert code == 1
    assert "multiple K specifications" in err


def test_k_flag_beside_config_k_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_bounds", refuse_call)
    code, out, err = run(capsys, "bounds", "--config",
                         str(FIXTURES / "golf.json"), "--k", "0.1")
    assert code == 1
    assert out == ""
    assert err == "error: multiple K specifications: --k, config k\n"


def test_k_range_flags_out_of_order_exit_1_before_any_solve(capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_bounds", refuse_call)
    code, out, err = run(capsys, "bounds", "--table", str(FIXTURES / "drug.tbl"),
                         "--f", "0.03", "--g", "0.04",
                         "--k-min", "0.1", "--k-max", "0")
    assert code == 1
    assert out == ""
    assert err == "error: k min exceeds k max\n"


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
@pytest.mark.parametrize("cells", [[True, False, 5, 5],
                                   ["978", "1864", "114", "3649"]],
                         ids=["booleans", "strings"])
def test_inline_table_refuses_non_number_cells(capsys, tmp_path, monkeypatch,
                                               cells, json_flag):
    # float() would read True as 1 and "978" as 978
    monkeypatch.setattr(cli, "solve_bounds", refuse_call)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"table": cells,
                               "budget": {"f": 0.03, "g": 0.04}}))
    code, out, err = run(capsys, "bounds", "--config", str(cfg), *json_flag)
    assert code == 1
    assert out == ""
    assert err == f"error: {cfg}: table: expected a number, got {cells[0]!r}\n"


def test_unknown_config_key_exits_1(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"table": [1, 1, 1, 1], "budgets": {"f": 0.1}}')
    code, out, err = run(capsys, "bounds", "--config", str(cfg))
    assert code == 1
    assert "unknown keys" in err


def test_missing_table_exits_1(capsys):
    code, out, err = run(capsys, "bounds", "--f", "0.1", "--g", "0.1")
    assert code == 1
    assert "no table" in err


def test_usage_error_exits_1(capsys):
    assert cli.main(["bounds", "--nonsense"]) == 1
    capsys.readouterr()


def test_one_point_grid_is_refused_by_bounds_and_simulate(capsys):
    # a flag of 0 is a value given, not a missing flag
    for argv in (("bounds", "--table", str(FIXTURES / "golf.tbl"),
                  "--f", "0.125", "--g", "0.03"),
                 ("simulate", str(FIXTURES / "golf_toy.json"), "--runs", "1")):
        for m in ("1", "0", "-3"):
            code, out, err = run(capsys, *argv, "--grid-m", m)
            assert code == 1
            assert out == ""
            assert err == "error: grid needs at least 2 points per axis\n"


def test_non_integer_config_grid_m_is_refused_beside_the_flag(capsys, tmp_path):
    # --grid-m wins over the config's grid.m, which is still checked
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"table": str(FIXTURES / "drug.tbl"),
                                  "budget": {"f": 0.03, "g": 0.04},
                                  "grid": {"m": 64.7}}))
    code, out, err = run(capsys, "bounds", "--config", str(config), "--grid-m", "8")
    assert code == 1
    assert out == ""
    assert err == f"error: {config}: grid.m: expected an integer, got 64.7\n"


def test_config_inline_table_and_k_profiles(capsys, tmp_path):
    profiles = tmp_path / "p.csv"
    profiles.write_text(
        "pi,e11,e10,e01,e00,r_given_1,r_given_0\n"
        "0.5,0.10,0.02,0.03,0.01,0.10,0.01\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "table": [0.05, 0.45, 0.005, 0.495],
        "budget": {"f": 0.125, "g": 0.03},
        "k": {"profiles": "p.csv"},
        "grid": {"m": 50, "refine": False},
    }))
    data = run_json(capsys, "bounds", "--config", str(cfg), "--json")
    assert data["tau"]["K"] == pytest.approx(0.05, abs=1e-12)


# -- calibrate -------------------------------------------------------------------


def test_calibrate_text_and_json(capsys):
    code, out, err = run(capsys, "calibrate", "--table",
                         str(FIXTURES / "golf.tbl"), "--dx", "0.5",
                         "--dy", "0.5")
    assert code == 0
    assert "f=0.1250 g=0.0260" in out
    data = run_json(capsys, "calibrate", "--table",
                    str(FIXTURES / "golf.tbl"), "--dx", "0.5", "--dy", "0.5",
                    "--json")
    assert data["f"] == 0.125
    assert data["g"] == pytest.approx(0.0259875, abs=1e-12)


def test_calibrate_requires_discrimination_mode(capsys):
    code, out, err = run(capsys, "calibrate", "--table",
                         str(FIXTURES / "golf.tbl"), "--f", "0.1",
                         "--g", "0.1")
    assert code == 1
    assert "discrimination" in err


def test_calibrate_ignores_grid_settings(capsys, tmp_path):
    # calibrate solves nothing, so a grid it would refuse does not matter
    golden = (GOLDEN / "calibrate_golf.txt").read_bytes()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "table": str(FIXTURES / "golf.tbl"), "budget": {"d_x": 0.5, "d_y": 0.5},
        "grid": {"m": 16, "refine": True, "max_m": 8}}))
    for argv in (("--table", str(FIXTURES / "golf.tbl"), "--dx", "0.5", "--dy", "0.5"),
                 ("--config", str(cfg))):
        code, out, err = run(capsys, "calibrate", *argv)
        assert code == 0, err
        assert out.encode() == golden
    # and it takes no grid flag
    code, out, err = run(capsys, "calibrate", "--table", str(FIXTURES / "golf.tbl"),
                         "--dx", "0.5", "--dy", "0.5", "--grid-m", "64")
    assert code == 1
    assert "--grid-m" in err


@pytest.mark.parametrize("extra, bounds_error", [
    ({"k": {"min": 1, "max": 0}}, "k min exceeds k max"),
    ({"published_risk_difference": "x"},
     "published_risk_difference: expected a finite number"),
    ({"k": {"profiles": "missing.csv"}}, None),
])
def test_calibrate_ignores_k_and_published_fields(capsys, tmp_path, extra,
                                                  bounds_error):
    # calibrate reads neither K nor the published contrast, so fields that
    # bounds refuses do not matter to it
    golden = (GOLDEN / "calibrate_golf.txt").read_bytes()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "table": str(FIXTURES / "golf.tbl"), "budget": {"d_x": 0.5, "d_y": 0.5},
        **extra}))
    code, out, err = run(capsys, "calibrate", "--config", str(cfg))
    assert code == 0, err
    assert out.encode() == golden
    if bounds_error is not None:
        code, out, err = run(capsys, "bounds", "--config", str(cfg), "--grid-m", "8")
        assert code == 1
        assert bounds_error in err


# -- golden reports --------------------------------------------------------------

GOLF_DISC = ("bounds", "--table", FIXTURES / "golf.tbl", "--dx", "0.5",
             "--dy", "0.5", "--grid-m", "50")


@pytest.mark.parametrize("name, argv", [
    ("bounds_golf", ("bounds", "--config", FIXTURES / "golf.json")),
    ("bounds_drug", ("bounds", "--config", FIXTURES / "drug.json")),
    ("bounds_vaccine", ("bounds", "--config", FIXTURES / "vaccine.json")),
    ("bounds_drug_refine",
     ("bounds", "--config", FIXTURES / "drug.json", "--refine")),
    ("bounds_golf_refine",
     ("bounds", "--config", FIXTURES / "golf.json", "--refine")),
    ("simulate_golf_toy",
     ("simulate", FIXTURES / "golf_toy.json", "--runs", "10")),
    ("decompose_profiles", ("decompose", FIXTURES / "profiles.csv")),
    ("bounds_golf_disc_k_range", GOLF_DISC + ("--k-min", "0", "--k-max", "0.05")),
    ("bounds_golf_disc_k_max", GOLF_DISC + ("--k-max", "0.05")),
    ("calibrate_golf", ("calibrate", "--table", FIXTURES / "golf.tbl",
                        "--dx", "0.5", "--dy", "0.5")),
    # --json reports, compared after parsing (see _assert_same_report)
    ("bounds_golf", ("bounds", "--config", FIXTURES / "golf.json", "--json")),
    ("bounds_drug", ("bounds", "--config", FIXTURES / "drug.json", "--json")),
    ("bounds_vaccine",
     ("bounds", "--config", FIXTURES / "vaccine.json", "--json")),
    ("bounds_golf_disc_k_range",
     GOLF_DISC + ("--k-min", "0", "--k-max", "0.05", "--json")),
    ("bounds_golf_disc_k_max", GOLF_DISC + ("--k-max", "0.05", "--json")),
    ("calibrate_golf", ("calibrate", "--table", FIXTURES / "golf.tbl",
                        "--dx", "0.5", "--dy", "0.5", "--json")),
    ("simulate_golf_toy_runs3",
     ("simulate", FIXTURES / "golf_toy.json", "--runs", "3", "--json")),
    ("decompose_profiles",
     ("decompose", FIXTURES / "profiles.csv", "--json")),
])
def test_text_report_matches_golden(capsys, name, argv):
    # text: the whole stdout, byte for byte; --json: the parsed report
    code, out, err = run(capsys, *map(str, argv))
    assert code == 0, err
    if "--json" in argv:
        golden = json.loads((GOLDEN / f"{name}.json").read_text())
        _assert_same_report(json.loads(out), golden)
    else:
        assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


def _assert_same_report(got, want, path="report"):
    """Same keys, list lengths and types; exact strings, booleans, null and
    integers; floats to 1e-12, since the last bit may differ between BLAS
    builds (the byte form is test_bounds_json_round_trips's job)."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_same_report(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_report(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12), \
            f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, path


# -- simulate --------------------------------------------------------------------


def test_simulate_text_report(capsys):
    code, out, err = run(capsys, "simulate", str(FIXTURES / "golf_toy.json"),
                         "--runs", "2")
    assert code == 0
    assert "psi=0.0900 tau=0.0400 K=0.0500" in out
    assert "coverage: psi 100.0%, tau 100.0%" in out


def test_simulate_json_is_deterministic(capsys):
    args = ("simulate", str(FIXTURES / "golf_toy.json"), "--runs", "2",
            "--json")
    code1, out1, err1 = run(capsys, *args)
    code2, out2, err2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["coverage"] == {"psi": 1.0, "tau": 1.0}
    assert data["oracle"]["K"] == pytest.approx(0.05)


def test_simulate_seed_override_changes_draws(capsys):
    base = run_json(capsys, "simulate", str(FIXTURES / "golf_toy.json"),
                    "--runs", "1", "--json")
    other = run_json(capsys, "simulate", str(FIXTURES / "golf_toy.json"),
                     "--runs", "1", "--seed", "7", "--json")
    assert base["rows"] != other["rows"]
    assert other["seed"] == 7


def test_simulate_clamps_an_oracle_budget_over_a_quarter_silently(capsys,
                                                                  tmp_path):
    """Two types treated with probability 0.001 and 0.999 have f_true near
    0.249, so the default budget (oracle moments + 3 SE) exceeds 0.25; it is
    clamped to 0.25 with no warning and nothing on stderr."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"N": 100_000, "seed": 1, "types": [
        {"share": 0.5, "versions": ["a"], "dist": [1.0], "rule": [rule],
         "outcome": [[0.1, 0.2]]} for rule in (0.001, 0.999)]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "simulate", str(spec), "--runs", "1",
                             "--grid-m", "8", "--json")
    assert code == 0
    assert err == ""
    assert json.loads(out)["budget"]["f"] == 0.25


def test_simulate_rejects_zero_runs(capsys):
    code, out, err = run(capsys, "simulate", str(FIXTURES / "golf_toy.json"),
                         "--runs", "0")
    assert code == 1


@pytest.mark.parametrize("key", ["N", "seed"])
def test_simulate_refuses_fractional_integer_fields(capsys, tmp_path, key):
    spec = json.loads((FIXTURES / "golf_toy.json").read_text())
    spec[key] = {"N": 1000.7, "seed": 3.9}[key]
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(spec))
    code, out, err = run(capsys, "simulate", str(bad), "--runs", "1")
    assert code == 1
    assert out == ""
    assert f"error: {bad}: {key}: expected an integer, got {spec[key]}" in err


def test_simulate_invalid_spec_exits_1(capsys, tmp_path):
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps({"N": 10, "seed": 1, "types": [
        {"share": 1.0, "versions": ["a"], "dist": [0.8], "rule": [0.5],
         "outcome": [[0.1, 0.2]]}]}))
    code, out, err = run(capsys, "simulate", str(bad), "--runs", "1")
    assert code == 1
    assert "version_dist" in err


@pytest.mark.parametrize("fields, expected", [
    # a row of three must not lose its third entry
    ({"outcome": [[0.03, 0.1, 0.9], [0.01, 0.02, 0.7]]},
     "outcome_prob entries must be [0, 1] pairs"),
    ({"outcome": [[0.03, True], [0.01, 0.02]]},
     "outcome: expected a finite number, got True"),
    ({"rule": [True, False]}, "rule: expected a finite number, got True"),
    ({"dist": ["0.5", "0.5"]}, "dist: expected a finite number, got '0.5'"),
    # a string must not split into one version per character
    ({"versions": "oo"}, "versions: expected a list, got 'oo'"),
    ({"dist_under_0": [True, False], "dist_under_1": [0.5, 0.5]},
     "dist_under_0: expected a finite number, got True"),
    ({"dist_under_0": [0.5, 0.5], "dist_under_1": ["1", 0]},
     "dist_under_1: expected a finite number, got '1'"),
], ids=["outcome-row-length", "outcome-boolean", "rule-boolean",
        "dist-string", "versions-string", "dist_under_0-boolean",
        "dist_under_1-string"])
def test_simulate_refuses_malformed_type_entries(capsys, tmp_path, monkeypatch,
                                                 fields, expected):
    monkeypatch.setattr(sim, "coverage_experiment", refuse_call)
    spec = json.loads((FIXTURES / "golf_toy.json").read_text())
    spec["types"][0].update(fields)
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(spec))
    code, out, err = run(capsys, "simulate", str(bad), "--runs", "1")
    assert code == 1
    assert out == ""
    assert err == f"error: {bad}: types[0]: {expected}\n"


# -- decompose -------------------------------------------------------------------


def test_decompose_fixture(capsys):
    code, out, err = run(capsys, "decompose", str(FIXTURES / "profiles.csv"))
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == ["1", "0.0000", "0.0500", "0.0500"]
    assert lines[2].split() == ["2", "0.0000", "0.0000", "0.0000"]
    assert "population K:" in lines[-1]


def test_decompose_json_population_mean(capsys):
    data = run_json(capsys, "decompose", str(FIXTURES / "profiles.csv"),
                    "--json")
    ks = [row["k"] for row in data["profiles"]]
    assert data["population_K"] == pytest.approx(sum(ks) / len(ks), abs=1e-12)
    assert data["count"] == 3


def test_decompose_names_bad_row(capsys, tmp_path):
    bad = tmp_path / "p.csv"
    bad.write_text(
        "pi,e11,e10,e01,e00,r_given_1,r_given_0\n"
        "0.5,0.1,0.1,0.1,0.1,0.1,0.1\n"
        "0.5,0.1,0.1,0.1,1.4,0.1,0.1\n")
    code, out, err = run(capsys, "decompose", str(bad))
    assert code == 1
    assert f"{bad}:3" in err


def test_decompose_weight_column(capsys, tmp_path):
    weighted = tmp_path / "w.csv"
    weighted.write_text(
        "pi,e11,e10,e01,e00,r_given_1,r_given_0,weight\n"
        "0.5,0.10,0.02,0.03,0.01,0.10,0.01,3\n"
        "0.5,0.1,0.1,0.1,0.1,0.1,0.1,1\n")
    data = run_json(capsys, "decompose", str(weighted), "--json")
    assert data["weighted"] is True
    assert data["population_K"] == pytest.approx(0.75 * 0.05, abs=1e-12)


@pytest.mark.parametrize("first, second, expected", [
    ("3", "nan", ":3: weight must be a finite nonnegative number"),
    ("3", "inf", ":3: weight must be a finite nonnegative number"),
    ("3", "-1", ":3: weight must be a finite nonnegative number"),
    ("0", "0", ": weights must have a positive total"),
], ids=["nan", "inf", "-1", "zero-total"])
def test_decompose_refuses_bad_weight(capsys, tmp_path, first, second, expected):
    weighted = tmp_path / "w.csv"
    weighted.write_text(
        "pi,e11,e10,e01,e00,r_given_1,r_given_0,weight\n"
        f"0.5,0.10,0.02,0.03,0.01,0.10,0.01,{first}\n"
        f"0.5,0.1,0.1,0.1,0.1,0.1,0.1,{second}\n")
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, "decompose", str(weighted), *json_flag)
        assert code == 1
        assert out == ""
        assert f"error: {weighted}{expected}" in err


def test_config_k_profiles_refuses_bad_weight(capsys, tmp_path):
    (tmp_path / "p.csv").write_text(
        "pi,e11,e10,e01,e00,r_given_1,r_given_0,weight\n"
        "0.5,0.10,0.02,0.03,0.01,0.10,0.01,nan\n")
    # the profiles fixture with a weight column of zeros
    lines = (FIXTURES / "profiles.csv").read_text().splitlines()
    (tmp_path / "w0.csv").write_text(
        "\n".join([lines[0] + ",weight"] + [ln + ",0" for ln in lines[1:]]) + "\n")
    for name, expected in (
            ("p.csv", "p.csv:2: weight must be a finite nonnegative number"),
            ("w0.csv", f"{tmp_path / 'w0.csv'}: weights must have a positive total")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "table": [0.05, 0.45, 0.005, 0.495],
            "budget": {"f": 0.125, "g": 0.03},
            "k": {"profiles": name},
            "grid": {"m": 50, "refine": False},
        }))
        code, out, err = run(capsys, "bounds", "--config", str(cfg))
        assert code == 1
        assert "tau" not in out
        assert expected in err


def test_no_subcommand_exits_1(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()
