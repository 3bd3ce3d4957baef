"""Runs one workload in one process: `python3 worker.py JOB RESULT`.

JOB is a JSON file written by run.py with the request list, the warm-up
request, the run length and the trace flag.  Every request goes through
`cubebounds.cli.main` in this process, one after another (a closed loop
with one client), with stdout and stderr captured.

Untraced: whole passes over the request list until `seconds` have
passed (at least one), then, if asked, one untimed repeat of the first
request for the determinism check.  Traced: exactly one traced pass
and then one untraced pass, whatever `seconds` says, so the traced counts
do not depend on speed and the two passes give the tracing overhead.
The traced pass goes first, so the per-layer times come from the
process's first pass, as the end-to-end times of a one-pass run do.

RESULT receives the per-pass wall and CPU times, every request's exit
code, output and latency, the environment stamp and, when traced, the
per-layer metrics; the spans go to a file of their own.
"""
from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path


def _call(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:  # a traceback is a failed request, not a failed run
        rc = None
        err.write(traceback.format_exc())
    return {"rc": rc, "s": time.perf_counter() - start,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cpu() -> float:
    t = os.times()
    return t.user + t.system


def _run_pass(cli, requests, tracer=None) -> dict:
    records = []
    wall0, cpu0 = time.perf_counter(), _cpu()
    for req in requests:
        if tracer is not None:
            tracer.request = req["id"]
        records.append(dict(_call(cli, req["argv"]), id=req["id"]))
    return {"wall_s": time.perf_counter() - wall0, "cpu_s": _cpu() - cpu0,
            "requests": records}


def _blas_threads(np) -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            sizes[f"L{level} {kind}"] = Path(index, "size").read_text().strip()
        except OSError:
            continue
    return sizes


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": _cache_sizes(),
        "machine": platform.machine(),
    }


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    root = Path(job["root"])
    import numpy as np
    from cubebounds import cli
    if root / "src" not in Path(cli.__file__).resolve().parents:
        print(f"cubebounds imported from {cli.__file__}, not from {root}/src",
              file=sys.stderr)
        return 1
    requests = job["requests"]
    result = {"env": environment(np), "warmup": _call(cli, job["warmup"])}

    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = _run_pass(cli, requests, tracer)
        finally:
            tracer.uninstall()
        result["passes"] = [traced, _run_pass(cli, requests)]
        result["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.write(Path(job["spans"]))
    else:
        passes, start = [], time.perf_counter()
        while not passes or time.perf_counter() - start < job["seconds"]:
            passes.append(_run_pass(cli, requests))
        result["passes"] = passes
        if job["repeat_first"]:
            result["repeat"] = _call(cli, requests[0]["argv"])

    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
