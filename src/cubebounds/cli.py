"""Command-line front end.

Subcommands: bounds (identified interval and optional tau shift),
calibrate (discrimination fractions to moment budgets), simulate
(coverage experiment against the simulator's oracle), decompose
(per-profile bias split).  Inputs come from flags, a JSON config file,
or both: flags win, except that a K flag beside a config k is refused.
Each subcommand returns one report dict; main writes it as canonical
JSON (full precision, sorted keys) with --json, and otherwise as text
(4 decimals) rendered from that dict alone.

Exit codes: 0 success, 1 input error, 2 infeasible budget, 3 solver
failure (iteration limit or singular basis).
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import lp, sim
from .bounds import (
    DEFAULT_GRID_M,
    BoundsRequest,
    InfeasibleBudgetError,
    solve_bounds,
)
from .core import (
    ContingencyTable,
    MomentBudget,
    ObservedJoint,
    normalize,
    risk_x0,
    risk_x1,
)
from .sensitivity import (
    IndividualProfile,
    calibrate_budget,
    decompose,
    population_k,
    shift_interval_range,
)

class CliError(Exception):
    """Input problem; rendered to stderr and mapped to exit code 1."""


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _pct(x: float) -> str:
    return f"{100.0 * x:.3f}%"


# -- input parsing ------------------------------------------------------------

def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}")


def _table_from_values(values, origin: str) -> ContingencyTable:
    if len(values) != 4:
        raise CliError(f"{origin}: expected 4 cell values "
                       f"(n11 n10 n01 n00), got {len(values)}")
    for value in values:  # float() would take True as 1 and "978" as 978
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CliError(f"{origin}: expected a number, got {value!r}")
    try:
        return ContingencyTable(*(float(v) for v in values))
    except (ValueError, OverflowError) as exc:  # an integer too large for a float
        raise CliError(f"{origin}: {exc}")


def _read_table_file(path: str) -> ContingencyTable:
    values = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        for token in line.split("#", 1)[0].split():
            try:
                values.append(float(token))
            except ValueError:
                raise CliError(f"{path}:{lineno}: expected a number, "
                               f"got {token!r}")
    return _table_from_values(values, path)


def _load_json(path: str) -> dict:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except ValueError:  # an integer literal past Python's digit limit
        raise CliError(f"{path}: an integer has too many digits")
    except RecursionError:  # arrays or objects nested past the recursion limit
        raise CliError(f"{path}: nested too deeply")
    if not isinstance(data, dict):
        raise CliError(f"{path}: top level must be a JSON object")
    return data


def _check_keys(mapping: dict, allowed: set, origin: str) -> None:
    extra = set(mapping) - allowed
    if extra:
        raise CliError(f"{origin}: unknown keys {sorted(extra)}")


def _number(value, origin: str) -> float:
    # an int compares exactly, where math.isfinite would overflow converting
    # one too large for a float; NaN fails the comparison
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise CliError(f"{origin}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, origin: str) -> int:
    number = _number(value, origin)
    if not number.is_integer():
        raise CliError(f"{origin}: expected an integer, got {value!r}")
    return int(number)


def _finite_float(text: str) -> float:
    """argparse type for the float flags: NaN and +-inf are refused; an
    open side of a K range is written by leaving its flag out."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _read_profiles(path: str):
    """Profiles CSV -> (profiles, weights-or-None); errors name the row."""
    fields = ("pi", "e11", "e10", "e01", "e00", "r_given_1", "r_given_0")
    reader = csv.reader(_read_text(path).splitlines())
    header = next(reader, [])
    missing = [f for f in fields if f not in header]
    if missing:
        raise CliError(f"{path}:1: missing columns {missing}")
    weighted = "weight" in header
    profiles, weights = [], []
    for lineno, values in enumerate((v for v in reader if v), start=2):
        if len(values) != len(header):  # a value past the header has no name
            raise CliError(f"{path}:{lineno}: expected {len(header)} fields, "
                           f"got {len(values)}")
        row = dict(zip(header, values))
        try:
            profiles.append(IndividualProfile(
                **{f: float(row[f]) for f in fields}))
            if weighted:
                weight = float(row["weight"])
                if not (math.isfinite(weight) and weight >= 0):
                    raise ValueError("weight must be a finite nonnegative "
                                     f"number, got {row['weight']!r}")
                weights.append(weight)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}")
    if not profiles:
        raise CliError(f"{path}: no profile rows")
    if weighted and not sum(weights) > 0:
        raise CliError(f"{path}: weights must have a positive total")
    return profiles, (weights if weighted else None)


# -- config/flag resolution: one helper per setting ---------------------------

def _config(args) -> tuple[dict, str, Path]:
    """(cfg, origin, cfg_dir) of --config; an empty config without one."""
    if not args.config:
        return {}, "config", Path(".")
    cfg = _load_json(args.config)
    _check_keys(cfg, {"table", "budget", "k", "grid",
                      "published_risk_difference"}, args.config)
    return cfg, args.config, Path(args.config).parent


def _table(args, cfg: dict, origin: str, cfg_dir: Path) -> ContingencyTable:
    """--table, else the config's table: a path or an inline 4-value list."""
    if args.table:
        return _read_table_file(args.table)
    if "table" not in cfg:
        raise CliError("no table given (use --table or a config with one)")
    spec = cfg["table"]
    if isinstance(spec, str):
        return _read_table_file(str(cfg_dir / spec))
    if isinstance(spec, list):
        return _table_from_values(spec, f"{origin}: table")
    raise CliError(f"{origin}: table must be a path or a 4-value list")


def _budget_spec(args, cfg: dict, origin: str, joint: ObservedJoint) -> tuple:
    """(mode, budget, d_x, d_y) from the flags, else the config; in
    "discrimination" mode the budget is calibrated on joint."""
    flag_fg = args.f is not None or args.g is not None
    flag_d = args.dx is not None or args.dy is not None
    if flag_fg and flag_d:
        raise CliError("give either --f/--g or --dx/--dy, not both")
    if flag_fg:
        if args.f is None or args.g is None:
            raise CliError("--f and --g must be given together")
        return "explicit", _budget(args.f, args.g, "flags"), None, None
    if flag_d:
        if args.dx is None or args.dy is None:
            raise CliError("--dx and --dy must be given together")
        return "discrimination", calibrate_budget(joint, args.dx, args.dy), args.dx, args.dy
    if "budget" not in cfg:
        return None, None, None, None
    spec = cfg["budget"]
    if not isinstance(spec, dict):
        raise CliError(f"{origin}: budget must be an object")
    if set(spec) == {"f", "g"}:
        return "explicit", _budget(_number(spec["f"], f"{origin}: budget.f"),
                                   _number(spec["g"], f"{origin}: budget.g"),
                                   origin), None, None
    if set(spec) == {"d_x", "d_y"}:
        d_x = _number(spec["d_x"], f"{origin}: budget.d_x")
        d_y = _number(spec["d_y"], f"{origin}: budget.d_y")
        return "discrimination", calibrate_budget(joint, d_x, d_y), d_x, d_y
    raise CliError(f"{origin}: budget needs exactly the keys "
                   f"{{f, g}} or {{d_x, d_y}}")


def _k_spec(args, cfg: dict, origin: str, cfg_dir: Path) -> tuple[str | None, float, float]:
    """(k_mode, k_min, k_max) from at most one K specification.  The flags
    are read as the config's forms, --k as a number and --k-min/--k-max as
    a {min, max} object, so one parser checks every source."""
    given = {}
    if args.k is not None:
        given["--k"] = args.k
    k_range = {side: value for side, value in zip(("min", "max"), (args.k_min, args.k_max))
               if value is not None}
    if k_range:
        given["--k-min/--k-max"] = k_range
    if "k" in cfg:
        given["config k"] = cfg["k"]
    if len(given) > 1:
        raise CliError(f"multiple K specifications: {', '.join(given)}")
    if not given:
        return None, -math.inf, math.inf
    spec, = given.values()
    k_min, k_max = -math.inf, math.inf
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        k_mode, k_min = "point", _number(spec, f"{origin}: k")
    elif isinstance(spec, dict) and "profiles" in spec:
        _check_keys(spec, {"profiles"}, f"{origin}: k")
        if not isinstance(spec["profiles"], str):
            raise CliError(f"{origin}: k.profiles: expected a file path, "
                           f"got {spec['profiles']!r}")
        profiles, weights = _read_profiles(str(cfg_dir / spec["profiles"]))
        k_mode, k_min = "point", population_k(profiles, weights)
    elif isinstance(spec, dict):
        _check_keys(spec, {"min", "max"}, f"{origin}: k")
        if not spec:
            raise CliError(f"{origin}: k range needs min and/or max")
        k_mode = "range"
        if "min" in spec:
            k_min = _number(spec["min"], f"{origin}: k.min")
        if "max" in spec:
            k_max = _number(spec["max"], f"{origin}: k.max")
    else:
        raise CliError(f"{origin}: k must be a number, a min/max object, "
                       f"or a profiles object")
    if k_mode == "point":
        k_max = k_min
    if k_min > k_max:
        raise CliError("k min exceeds k max")
    return k_mode, k_min, k_max


def _ladder_spec(args, cfg: dict, origin: str) -> dict:
    """BoundsRequest's grid arguments.  --refine only enables, and m and
    max_m are passed only when a flag or the config sets them, so their
    defaults live in BoundsRequest alone.  The config's grid.m is checked
    even where --grid-m wins, and a refined grid above max_m is refused
    with the source of the cap: no flag sets it."""
    gcfg = cfg.get("grid", {})
    if not isinstance(gcfg, dict):
        raise CliError(f"{origin}: grid must be an object")
    _check_keys(gcfg, {"m", "refine", "max_m"}, f"{origin}: grid")
    spec = {}
    if "m" in gcfg:
        spec["m"] = _integer(gcfg["m"], f"{origin}: grid.m")
    if args.grid_m is not None:
        spec["m"] = args.grid_m
    refine = gcfg.get("refine", False)
    if not isinstance(refine, bool):
        raise CliError(f"{origin}: grid.refine: expected true or false, "
                       f"got {refine!r}")
    spec["refine"] = args.refine or refine
    if "max_m" in gcfg:
        spec["max_m"] = _integer(gcfg["max_m"], f"{origin}: grid.max_m")
    m, max_m = spec.get("m", BoundsRequest.m), spec.get("max_m", BoundsRequest.max_m)
    if spec["refine"] and m > max_m:
        source = (f"grid.max_m in {origin}" if "max_m" in spec
                  else "the default; grid.max_m in a config sets it")
        raise CliError(f"grid m={m} is above the refinement cap max_m={max_m} ({source})")
    return spec


def _budget(f: float, g: float, origin: str) -> MomentBudget:
    try:
        return MomentBudget(f=f, g=g)
    except ValueError as exc:
        raise CliError(f"{origin}: {exc}")


# -- shared report pieces -----------------------------------------------------

def _table_dict(table: ContingencyTable) -> dict:
    return {**asdict(table), "total": table.total, "frequencies": table.is_frequencies}


def _risks(joint: ObservedJoint) -> dict:
    r1, r0 = risk_x1(joint), risk_x0(joint)
    return {"risk_x1": r1, "risk_x0": r0, "risk_difference": r1 - r0,
            "relative_risk": None if r0 == 0 else r1 / r0}


def _table_line(table: dict) -> str:
    kind = "frequencies" if table["frequencies"] else "counts"
    cells = " ".join(f"{name}={table[name]:g}"
                     for name in ("n11", "n10", "n01", "n00"))
    return f"table: {cells} ({kind}, total {table['total']:g})"


def _risk_lines(risks: dict, published: float | None) -> list[str]:
    rr = risks["relative_risk"]
    lines = [f"risks: Pr(y=1|x=1)={_fmt(risks['risk_x1'])} "
             f"Pr(y=1|x=0)={_fmt(risks['risk_x0'])} "
             f"difference={_fmt(risks['risk_difference'])} "
             f"ratio={'undefined' if rr is None else _fmt(rr)}"]
    if published is not None:
        lines.append(f"published risk difference: {_pct(published)} "
                     f"(table-derived: {_pct(risks['risk_difference'])})")
    return lines


# -- subcommands: each returns its report; a *_text function renders it ------

def cmd_bounds(args) -> dict:
    cfg, origin, cfg_dir = _config(args)
    table = _table(args, cfg, origin, cfg_dir)
    joint = normalize(table)
    mode, budget, d_x, d_y = _budget_spec(args, cfg, origin, joint)
    k_mode, k_min, k_max = _k_spec(args, cfg, origin, cfg_dir)
    ladder = _ladder_spec(args, cfg, origin)
    published = (_number(cfg["published_risk_difference"],
                         f"{origin}: published_risk_difference")
                 if "published_risk_difference" in cfg else None)
    if mode is None:
        raise CliError("no budget given (use --f/--g, --dx/--dy, or a config)")
    request = BoundsRequest(joint, budget, **ladder)
    iv = solve_bounds(request)
    report = {
        "table": _table_dict(table),
        "joint": asdict(joint),
        "risks": _risks(joint),
        "budget": {"f": budget.f, "g": budget.g, "mode": mode,
                   "d_x": d_x, "d_y": d_y},
        "grid": {"m_start": request.m, "m_final": iv.grid_resolution,
                 "refine": request.refine, "converged": iv.converged},
        "interval": {"L": iv.L, "U": iv.U, "width": iv.width},
        "certificates": {
            "min": [list(atom) for atom in iv.certificate_min.support()],
            "max": [list(atom) for atom in iv.certificate_max.support()],
        },
    }
    if published is not None:
        report["published_risk_difference"] = published
    if k_mode is not None:
        sr = shift_interval_range(iv, k_min, k_max)
        ends = ({"K": sr.k_min} if k_mode == "point"
                else {"k_min": sr.k_min, "k_max": sr.k_max})
        # an open side of a K range leaves a side of tau open: null in JSON
        report["tau"] = {"mode": k_mode, **{
            key: None if math.isinf(value) else value
            for key, value in dict(ends, lower=sr.lower, upper=sr.upper).items()}}
    return report


def _bounds_text(report: dict) -> list[str]:
    joint, budget, grid = report["joint"], report["budget"], report["grid"]
    iv, certs = report["interval"], report["certificates"]
    mode = (budget["mode"] if budget["mode"] == "explicit"
            else f"discrimination d_x={_fmt(budget['d_x'])} "
                 f"d_y={_fmt(budget['d_y'])}")
    n_min, n_max = len(certs["min"]), len(certs["max"])
    return [
        _table_line(report["table"]),
        f"joint: p11={_fmt(joint['p11'])} p10={_fmt(joint['p10'])} "
        f"p01={_fmt(joint['p01'])} p00={_fmt(joint['p00'])} "
        f"(px1={_fmt(joint['px1'])}, py1={_fmt(joint['py1'])})",
        *_risk_lines(report["risks"], report.get("published_risk_difference")),
        f"budget: f={_fmt(budget['f'])} g={_fmt(budget['g'])} ({mode})",
        f"grid: m={grid['m_final']} ({'refined' if grid['refine'] else 'fixed'}, "
        f"{'converged' if grid['converged'] else 'not converged'})",
        f"psi: {_fmt(iv['L'])} <= psi <= {_fmt(iv['U'])} "
        f"(width {_fmt(iv['width'])})",
        f"certificates: {n_min} atom{'s' * (n_min != 1)} (min), "
        f"{n_max} atom{'s' * (n_max != 1)} (max)",
        *([_tau_line(report["tau"])] if "tau" in report else []),
    ]


def _tau_line(tau: dict) -> str:
    if tau["mode"] == "point":
        k_label = f"K={_fmt(tau['K'])}"
    elif tau["k_max"] is None:
        return (f"tau (K >= {_fmt(tau['k_min'])}): "
                f"tau <= {_fmt(tau['upper'])} (no lower bound)")
    elif tau["k_min"] is None:
        return (f"tau (K <= {_fmt(tau['k_max'])}): "
                f"tau >= {_fmt(tau['lower'])} (no upper bound)")
    else:
        k_label = f"K in [{_fmt(tau['k_min'])}, {_fmt(tau['k_max'])}]"
    return (f"tau ({k_label}): "
            f"{_fmt(tau['lower'])} <= tau <= {_fmt(tau['upper'])}")


def cmd_calibrate(args) -> dict:
    cfg, origin, cfg_dir = _config(args)
    table = _table(args, cfg, origin, cfg_dir)
    joint = normalize(table)
    mode, budget, d_x, d_y = _budget_spec(args, cfg, origin, joint)
    if mode != "discrimination":
        raise CliError("calibrate needs discrimination fractions "
                       "(--dx/--dy or a config with budget.d_x/d_y)")
    return {"table": _table_dict(table), "joint": asdict(joint),
            "d_x": d_x, "d_y": d_y, "f": budget.f, "g": budget.g}


def _calibrate_text(report: dict) -> list[str]:
    joint = report["joint"]
    return [
        _table_line(report["table"]),
        f"joint: px1={_fmt(joint['px1'])} py1={_fmt(joint['py1'])}",
        f"discrimination: d_x={_fmt(report['d_x'])} d_y={_fmt(report['d_y'])}",
        f"budget: f={_fmt(report['f'])} g={_fmt(report['g'])}",
    ]


def _version_model(spec: dict, index: int, origin: str) -> tuple[sim.VersionModel, float]:
    name = f"{origin}: types[{index}]"
    if not isinstance(spec, dict):
        raise CliError(f"{name} must be an object")
    _check_keys(spec, {"share", "label", "versions", "dist", "rule",
                       "outcome", "dist_under_0", "dist_under_1"}, name)
    for key in ("share", "versions", "dist", "rule", "outcome"):
        if key not in spec:
            raise CliError(f"{name}: missing key {key!r}")

    def listed(values, key: str) -> list:
        if not isinstance(values, list):  # str() would split "oo" into versions
            raise CliError(f"{name}: {key}: expected a list, got {values!r}")
        return values

    def numbers(values, key: str) -> tuple[float, ...]:  # refuses True and "1"
        return tuple(_number(v, f"{name}: {key}") for v in listed(values, key))

    try:
        model = sim.VersionModel(
            versions=tuple(str(v) for v in listed(spec["versions"], "versions")),
            version_dist=numbers(spec["dist"], "dist"),
            natural_treatment=numbers(spec["rule"], "rule"),
            outcome_prob=tuple(numbers(p, "outcome")
                               for p in listed(spec["outcome"], "outcome")),
            dist_under_0=(numbers(spec["dist_under_0"], "dist_under_0")
                          if "dist_under_0" in spec else None),
            dist_under_1=(numbers(spec["dist_under_1"], "dist_under_1")
                          if "dist_under_1" in spec else None),
            label=str(spec.get("label", "")),
        )
    except ValueError as exc:
        raise CliError(f"{name}: {exc}")
    return model, _number(spec["share"], f"{name}: share")


def _population_spec(path: str, seed_override: int | None) -> sim.PopulationSpec:
    raw = _load_json(path)
    _check_keys(raw, {"N", "seed", "types"}, path)
    for key in ("N", "seed", "types"):
        if key not in raw:
            raise CliError(f"{path}: missing key {key!r}")
    if not isinstance(raw["types"], list) or not raw["types"]:
        raise CliError(f"{path}: types must be a non-empty list")
    types = tuple(_version_model(t, i, path) for i, t in enumerate(raw["types"]))
    try:
        return sim.PopulationSpec(
            types=types,
            N=_integer(raw["N"], f"{path}: N"),
            seed=(seed_override if seed_override is not None
                  else _integer(raw["seed"], f"{path}: seed")))
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def cmd_simulate(args) -> dict:
    if args.runs < 1:
        raise CliError("--runs must be at least 1")
    spec = _population_spec(args.spec, args.seed)
    report = sim.coverage_experiment(
        spec, args.runs, m=DEFAULT_GRID_M if args.grid_m is None else args.grid_m)
    s = report.oracle
    return {
        "N": spec.N,
        "seed": spec.seed,
        "runs": report.runs,
        "grid_m": report.grid_m,
        "budget": {"f": report.budget.f, "g": report.budget.g},
        "oracle": {
            "psi": s.psi, "tau": s.tau, "K": s.K,
            "f_true": s.f_true, "g_true": s.g_true,
            "per_type": [{**asdict(t), "share": share}
                         for t, share in zip(s.per_type, s.shares)],
        },
        "coverage": {"psi": report.psi_coverage, "tau": report.tau_coverage},
        "rows": [asdict(r) for r in report.rows],
    }


def _simulate_text(report: dict) -> list[str]:
    s, budget, coverage = report["oracle"], report["budget"], report["coverage"]
    lines = [
        f"population: N={report['N']} seed={report['seed']} "
        f"types={len(s['per_type'])}",
        f"oracle: psi={_fmt(s['psi'])} tau={_fmt(s['tau'])} K={_fmt(s['K'])} "
        f"f_true={_fmt(s['f_true'])} g_true={_fmt(s['g_true'])}",
        f"budget: f={_fmt(budget['f'])} g={_fmt(budget['g'])} "
        f"(oracle moments + 3 SE)",
        f"grid: m={report['grid_m']}",
        "run      L       U  psi  tau",
    ]
    for r in report["rows"]:
        lines.append(f"{r['run']:3d} {_fmt(r['L']):>7} {_fmt(r['U']):>7} "
                     f"{'yes' if r['psi_covered'] else 'NO ':>4} "
                     f"{'yes' if r['tau_covered'] else 'NO ':>4}")
    lines.append(f"coverage: psi {coverage['psi']:.1%}, "
                 f"tau {coverage['tau']:.1%} over {report['runs']} runs")
    return lines


def cmd_decompose(args) -> dict:
    profiles, weights = _read_profiles(args.profiles)
    splits = [decompose(profile) for profile in profiles]
    rows = [{"row": i, **asdict(d), "k": d.k} for i, d in enumerate(splits, start=1)]
    return {"count": len(profiles),
            "population_K": population_k(profiles, weights),
            "weighted": weights is not None, "profiles": rows}


def _decompose_text(report: dict) -> list[str]:
    lines = ["row   delta1   delta2        k"]
    for r in report["profiles"]:
        lines.append(f"{r['row']:3d} {_fmt(r['delta1']):>8} "
                     f"{_fmt(r['delta2']):>8} {_fmt(r['k']):>8}")
    suffix = "weighted" if report["weighted"] else "unweighted"
    lines.append(f"population K: {_fmt(report['population_K'])} "
                 f"({report['count']} profiles, {suffix})")
    return lines


# -- parser and entry point ----------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for
    infeasible budgets, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--table", help="table file: 4 values n11 n10 n01 n00")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--f", type=float, help="propensity moment budget")
    p.add_argument("--g", type=float, help="prognosis moment budget")
    p.add_argument("--dx", type=_finite_float, help="propensity discrimination in [0,1]")
    p.add_argument("--dy", type=_finite_float, help="prognosis discrimination in [0,1]")


def _add_grid_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-m", type=int,
                   help=f"grid points per axis (default {DEFAULT_GRID_M})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cubebounds",
                     description="Partial identification of causal effects "
                                 "from 2x2 treatment/outcome tables.")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)

    p = sub.add_parser("bounds", help="identified interval for psi, "
                                      "optionally shifted to tau")
    _add_analysis_flags(p)
    _add_grid_flag(p)
    p.add_argument("--k", type=_finite_float, help="known bias K")
    p.add_argument("--k-min", type=_finite_float, help="lower end of a K range")
    p.add_argument("--k-max", type=_finite_float, help="upper end of a K range")
    p.add_argument("--refine", action="store_true",
                   help="double the grid until the endpoints stabilize")
    p.set_defaults(func=cmd_bounds, render=_bounds_text)

    p = sub.add_parser("calibrate", help="moment budgets from "
                                         "discrimination fractions")
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_calibrate, render=_calibrate_text)

    p = sub.add_parser("simulate", help="coverage experiment against a "
                                        "population spec")
    p.add_argument("spec", help="population spec JSON file")
    p.add_argument("--runs", type=int, default=10, help="number of runs")
    p.add_argument("--seed", type=int, help="override the spec seed")
    _add_grid_flag(p)
    p.set_defaults(func=cmd_simulate, render=_simulate_text)

    p = sub.add_parser("decompose", help="per-profile bias split and "
                                         "population K")
    p.add_argument("profiles", help="profiles CSV file")
    p.set_defaults(func=cmd_decompose, render=_decompose_text)

    for p in sub.choices.values():  # main renders every report either way
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use: a build costs about ten
    times a parse, and parsing leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse raises even for --help; keep main() returning an int
        return int(exc.code or 0)
    try:
        report = args.func(args)
        out = (json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
               if args.json else "\n".join(args.render(report)))
    except (CliError, ValueError) as exc:  # DegenerateTableError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a grid too large to allocate
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1
    except InfeasibleBudgetError as exc:  # its message states the least budgets
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (lp.IterationLimitError, lp.SingularBasisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
