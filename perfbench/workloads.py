"""Seeded input generator for the four benchmark workloads.

`generate(name, seed, outdir)` writes every table, config and population
file a workload needs into `outdir` and returns the request list.  The
program under test reads only these files.  Requests are dicts:

    id      stable name, unique within the workload
    argv    arguments for `cubebounds.cli.main` (paths relative to the
            checkout root, which is the working directory of every run)
    kind    "bounds" | "coverage" | "diagnose", which selects the check
    expect  what the checker needs: the table cells, the budget and K as
            given, pinned fixture values, the coverage run count, ...
    runs    requests this entry counts for (coverage runs per simulate)

Stdlib only, so the generator gives the same inputs on any interpreter.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

WORKLOADS = ("sweep", "refine", "coverage", "diagnose")

# Fixed-grid values from the README and the acceptance suite (4 dp).
PINNED = {
    "golf": {"L": 0.0455, "U": 0.4341},
    "drug": {"L": 0.1465, "U": 0.5180},
    "vaccine": {"L": -0.0071, "U": -0.0071},
}
# `bounds --refine` on drug ends at m=256 with these endpoints (README).
PINNED_REFINED = {"drug": {"L": 0.1449, "U": 0.5221}}

SWEEP_RANDOM = 97          # plus the three fixture configs: 100 requests
COVERAGE_COMMANDS = 4      # simulate commands per pass
COVERAGE_RUNS = 6          # coverage runs per simulate command


def _read_table(path: Path) -> list[float]:
    values = []
    for line in path.read_text().splitlines():
        values += [float(tok) for tok in line.split("#", 1)[0].split()]
    return values


def _rel(path: Path) -> str:
    return str(path.resolve().relative_to(ROOT))


def _copy_fixture_config(name: str, outdir: Path) -> tuple[Path, dict]:
    """Copy fixtures/<name>.json and its table; return (config path, config)."""
    cfg = json.loads((FIXTURES / f"{name}.json").read_text())
    (outdir / cfg["table"]).write_text((FIXTURES / cfg["table"]).read_text())
    path = outdir / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path, cfg


def _fixture_expect(cfg: dict, outdir: Path) -> dict:
    k = cfg.get("k")
    return {
        "table": _read_table(outdir / cfg["table"]),
        "budget": {"f": cfg["budget"]["f"], "g": cfg["budget"]["g"]},
        "k": ({"point": k} if isinstance(k, (int, float))
              else {"min": k.get("min"), "max": k.get("max")}),
    }


def _dirichlet_table(rng: random.Random, total: float) -> list[int]:
    """Counts with Dirichlet(2,2,2,2) cell shares, every share >= 0.005."""
    while True:
        draws = [rng.gammavariate(2.0, 1.0) for _ in range(4)]
        shares = [d / sum(draws) for d in draws]
        if min(shares) >= 0.005:
            break
    return [max(1, round(s * total)) for s in shares]


def _latin_hypercube(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from [lo, hi], one in each of n equal strata, in random order.

    A request's cost depends mostly on how tight its budgets are (about
    0.2 s per request below d = 0.3 and 0.12 s above d = 0.6 at m=64), so
    stratified draws give every seed the same mix of tight and loose
    budgets, and seeds differ in their tables rather than in their work."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in strata]


def _sweep(rng: random.Random, outdir: Path) -> list[dict]:
    requests = []
    for name in ("golf", "drug", "vaccine"):
        path, cfg = _copy_fixture_config(name, outdir)
        expect = _fixture_expect(cfg, outdir)
        expect["pinned"] = PINNED[name]
        requests.append({"id": f"fixture-{name}", "kind": "bounds",
                         "argv": ["bounds", "--config", _rel(path), "--json"],
                         "expect": expect})
    d_xs = _latin_hypercube(rng, SWEEP_RANDOM, 0.05, 0.95)
    d_ys = _latin_hypercube(rng, SWEEP_RANDOM, 0.05, 0.95)
    log_totals = _latin_hypercube(rng, SWEEP_RANDOM, math.log(500), math.log(50_000))
    for i, (d_x, d_y, log_total) in enumerate(zip(d_xs, d_ys, log_totals)):
        cells = _dirichlet_table(rng, math.exp(log_total))
        total = sum(cells)
        px1 = (cells[0] + cells[1]) / total
        py1 = (cells[0] + cells[2]) / total
        # flags as `--flag=value`: argparse takes a separate "-4e-05" for
        # an option name
        if rng.random() < 0.5:
            budget = {"d_x": d_x, "d_y": d_y}
            flags = [f"--dx={d_x!r}", f"--dy={d_y!r}"]
        else:
            f = d_x * px1 * (1 - px1)
            g = d_y * py1 * (1 - py1)
            budget = {"f": f, "g": g}
            flags = [f"--f={f!r}", f"--g={g!r}"]
        if rng.random() < 0.5:
            k = {"point": rng.uniform(-0.1, 0.1)}
            flags += [f"--k={k['point']!r}"]
        else:
            lo = rng.uniform(-0.1, 0.05)
            k = {"min": lo, "max": lo + rng.uniform(0.0, 0.1)}
            flags += [f"--k-min={k['min']!r}", f"--k-max={k['max']!r}"]
        # half the tables arrive as a table file, half inline in a config
        if rng.random() < 0.5:
            path = outdir / f"t{i:03d}.tbl"
            path.write_text("# n11 n10 n01 n00\n" + " ".join(map(str, cells)) + "\n")
            argv = ["bounds", "--table", _rel(path)] + flags
        else:
            path = outdir / f"c{i:03d}.json"
            path.write_text(json.dumps({"table": cells}) + "\n")
            argv = ["bounds", "--config", _rel(path)] + flags
        requests.append({"id": f"random-{i:03d}", "kind": "bounds",
                         "argv": argv + ["--json"],
                         "expect": {"table": [float(c) for c in cells],
                                    "budget": budget, "k": k}})
    rng.shuffle(requests)
    return requests


def _refine(rng: random.Random, outdir: Path) -> list[dict]:
    requests = []
    for name in ("drug", "golf"):
        path, cfg = _copy_fixture_config(name, outdir)
        expect = _fixture_expect(cfg, outdir)
        if name in PINNED_REFINED:
            expect["pinned"] = PINNED_REFINED[name]
        requests.append({"id": f"refine-{name}", "kind": "bounds",
                         "argv": ["bounds", "--config", _rel(path),
                                  "--refine", "--json"],
                         "expect": expect})
    rng.shuffle(requests)
    return requests


def _coverage(rng: random.Random, outdir: Path) -> list[dict]:
    spec = outdir / "golf_toy.json"
    spec.write_text((FIXTURES / "golf_toy.json").read_text())
    requests = []
    for i in range(COVERAGE_COMMANDS):
        sim_seed = rng.randrange(2 ** 32)
        requests.append({
            "id": f"simulate-{i}", "kind": "coverage",
            "argv": ["simulate", _rel(spec), "--runs", str(COVERAGE_RUNS),
                     "--seed", str(sim_seed), "--json"],
            "expect": {"runs": COVERAGE_RUNS}, "runs": COVERAGE_RUNS})
    return requests


def _diagnose(rng: random.Random, outdir: Path) -> list[dict]:
    requests = []
    for name in ("drug", "golf"):
        path, cfg = _copy_fixture_config(name, outdir)
        requests.append({"id": f"diagnose-{name}-f", "kind": "diagnose",
                         "argv": ["bounds", "--config", _rel(path),
                                  "--f", "1e-06", "--g", "0.04", "--json"],
                         "expect": {"f": 1e-6, "g": 0.04}})
    # The same drug table at a tiny g on a grid capped at m=128: solved at
    # m=64 only, diagnosed over m=64 and 128 (least f 6.0e-4, least g
    # 6.7e-9, both above the request).  At f=0.03 the diagnosis would
    # contradict itself (least g 7.1e-10 < 1e-9, least f 6.0e-4 < 0.03),
    # a known program defect that check.check_diagnose rejects; every
    # workload request must pass, so f stays below the least feasible f.
    cfg = {"table": "drug.tbl", "budget": {"f": 3e-4, "g": 1e-9},
           "grid": {"m": 64, "max_m": 128}}
    path = outdir / "drug_g_tiny.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    requests.append({"id": "diagnose-drug-g", "kind": "diagnose",
                     "argv": ["bounds", "--config", _rel(path), "--json"],
                     "expect": {"f": 3e-4, "g": 1e-9}})
    rng.shuffle(requests)
    return requests


def warmup(name: str, outdir: Path) -> list[str]:
    """A small untimed request on the workload's code path; it succeeds."""
    if name == "coverage":
        return ["simulate", _rel(outdir / "golf_toy.json"), "--runs", "1", "--json"]
    path = outdir / "warmup.tbl"
    path.write_text((FIXTURES / "drug.tbl").read_text())
    return ["bounds", "--table", _rel(path), "--f", "0.03", "--g", "0.04",
            "--grid-m", "32", "--json"]


def generate(name: str, seed: int, outdir: Path) -> list[dict]:
    """Write the inputs of workload `name` for `seed`; return its requests."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    builder = {"sweep": _sweep, "refine": _refine, "coverage": _coverage,
               "diagnose": _diagnose}[name]
    requests = builder(rng, outdir)
    for req in requests:
        req.setdefault("runs", 1)
    return requests
