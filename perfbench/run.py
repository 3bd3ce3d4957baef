"""cubebounds benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 5 --trace 0

Run from anywhere; the checkout is the parent of this directory and is
used as the working directory.  The run

1. writes the workload's inputs for the seed (workloads.py) under
   perfbench/out/, untimed;
2. starts one worker process (worker.py) that sends every request to
   `cubebounds.cli.main` in a closed loop with one client, with
   OPENBLAS_NUM_THREADS=1 (steadier than the default two threads, by
   about 8 % versus 2 % between back-to-back sweeps) and reads its peak
   RSS from RUSAGE_CHILDREN;
3. untraced only: times `import cubebounds.cli` plus `build_parser()` in
   SETUP_SAMPLES fresh interpreters and takes the median (setup_s);
4. checks every output (check.py); a failed check counts in `failed`
   and never stops the run;
5. prints the environment stamp, one line per metric with its unit, the
   problems found, and last one JSON object: correct, attempted, failed
   and metrics (end-to-end ones untraced, per-layer ones traced).

Exits 2 without a result when the checkout has no cubebounds sources,
and 1 when the worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170
SETUP_SAMPLES = 15
_SETUP_SNIPPET = ("import time; t = time.perf_counter(); import cubebounds.cli as c; "
                  "c.build_parser(); print(time.perf_counter() - t)")


def _require_checkout() -> None:
    needed = [ROOT / "src" / "cubebounds" / "cli.py"]
    needed += [ROOT / "fixtures" / name for name in
               ("drug.json", "drug.tbl", "golf.json", "golf.tbl",
                "vaccine.json", "vaccine.tbl", "golf_toy.json")]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a cubebounds checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CUBEBOUNDS_GRID_M", None)
    env.update(PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return env


def _setup_s(env: dict, deadline: float) -> tuple[float, list[float]]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET], cwd=ROOT,
                             env=env, capture_output=True, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        samples.append(float(out.stdout))
    return statistics.median(samples), samples


def _latencies(requests: list[dict], passes: list[dict]) -> list[float]:
    """Per-request latency; a simulate command of R runs gives R samples."""
    runs = {req["id"]: req["runs"] for req in requests}
    out = []
    for p in passes:
        for rec in p["requests"]:
            out += [rec["s"] / runs[rec["id"]]] * runs[rec["id"]]
    return out


def _check_all(requests, result) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every timed request."""
    by_id = {req["id"]: req for req in requests}
    first = {rec["id"]: rec for rec in result["passes"][0]["requests"]}
    attempted = failed = 0
    problems = []
    for n, p in enumerate(result["passes"]):
        for rec in p["requests"]:
            req = by_id[rec["id"]]
            repeat = result.get("repeat") if rec["id"] == requests[0]["id"] else None
            found = check.check_request(req, rec, repeat)
            if rec["stdout"] != first[rec["id"]]["stdout"]:
                found.append(f"output differs from pass 1 in pass {n + 1}")
            attempted += req["runs"]
            if found:
                failed += req["runs"]
                problems += [f"pass {n + 1} {rec['id']}: {msg}" for msg in found]
    return attempted, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _require_checkout()
    deadline = time.monotonic() + RUN_LIMIT_S

    outdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    inputs = outdir / "inputs"
    requests = workloads.generate(args.workload, args.seed, inputs)
    job = {"root": str(ROOT), "requests": requests, "seconds": args.seconds,
           "trace": bool(args.trace), "warmup": workloads.warmup(args.workload, inputs),
           "repeat_first": args.workload == "coverage",
           "spans": str(outdir / "spans.jsonl")}
    (outdir / "job.json").write_text(json.dumps(job, indent=1))

    env = _child_env()
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(outdir / "job.json"),
         str(outdir / "result.json")], cwd=ROOT, env=env,
        timeout=deadline - time.monotonic())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads((outdir / "result.json").read_text())
    print("env: " + json.dumps(result["env"], sort_keys=True))
    if result["warmup"]["rc"] != 0:
        print(f"warning: the warm-up request exited with {result['warmup']['rc']}")

    attempted, failed, problems = _check_all(requests, result)
    passes = result["passes"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {e["name"]: e["unit"]
             for e in bench["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        traced, untraced = passes
        values = result["layers"]
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.untraced_wall_s"] = untraced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    else:
        setup_s, setup_samples = _setup_s(env, deadline)
        lat = _latencies(requests, passes)
        timed = sum(p["wall_s"] for p in passes)
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "requests_per_s": attempted / timed,
            "request_s.p50": statistics.median(lat),
            "request_s.p90": statistics.quantiles(lat, n=10, method="inclusive")[-1],
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"samples: {len(passes)} passes, {len(lat)} request latencies, "
              f"{len(setup_samples)} set-up interpreters")

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for msg in problems:
        print(f"FAILED {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
