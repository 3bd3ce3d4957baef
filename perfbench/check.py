"""Output checker: each function returns a list of problems, empty if none.

The checks recompute everything from the generated inputs, never from
the joint or budget the program reports:

- bounds: exit 0 and a JSON report; L <= U; the interval lies within
  Manski's no-assumption bounds [p11-p01-px1, p11+px0-p01]; each
  certificate reproduces the joint, keeps f and g within budget and
  attains its endpoint; budget calibration and the tau shift follow
  from the request; pinned fixture values match to 4 dp.
- coverage: exit 0; psi and tau coverage are 100 %; a repeat of the
  same command prints byte-identical JSON.
- diagnose: exit 2, nothing on stdout, at least one "least feasible"
  value, and no least feasible value at or below the requested budget
  (that would say the request was feasible after all).

Stdlib only.
"""
from __future__ import annotations

import json
import math
import re

CERT_TOL = 1e-6      # as in the acceptance suite's certificate check
PIN_TOL = 5e-5       # half a unit in the 4th decimal
EXACT_TOL = 1e-12

_LEAST = re.compile(r"least feasible (f|g) at the given [fg]: (\S+)")


def joint_of(cells) -> dict:
    n11, n10, n01, n00 = cells
    total = n11 + n10 + n01 + n00
    p = {"p11": n11 / total, "p10": n10 / total, "p01": n01 / total,
         "p00": n00 / total}
    p["px1"] = p["p11"] + p["p10"]
    p["px0"] = p["p01"] + p["p00"]
    p["py1"] = p["p11"] + p["p01"]
    return p


def _close(a, b, tol=EXACT_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _certificate(atoms, joint, f, g, endpoint, label) -> list[str]:
    problems = []
    if not atoms:
        return [f"{label} certificate is empty"]
    moments = dict.fromkeys(("w", "p01", "p11", "p00", "p10", "f", "g", "psi"), 0.0)
    for pi, r0, r1, w in atoms:
        if w < 0 or not all(0.0 <= c <= 1.0 for c in (pi, r0, r1)):
            problems.append(f"{label} atom {(pi, r0, r1, w)} outside the cube")
        r = pi * r1 + (1 - pi) * r0
        moments["w"] += w
        moments["p01"] += w * (1 - pi) * r0
        moments["p11"] += w * pi * r1
        moments["p00"] += w * (1 - pi) * (1 - r0)
        moments["p10"] += w * pi * (1 - r1)
        moments["f"] += w * (pi - joint["px1"]) ** 2
        moments["g"] += w * (r - joint["py1"]) ** 2
        moments["psi"] += w * (r1 - r0)
    if abs(moments["w"] - 1.0) > CERT_TOL:
        problems.append(f"{label} weights sum to {moments['w']}")
    for cell in ("p01", "p11", "p00", "p10"):
        if abs(moments[cell] - joint[cell]) > CERT_TOL:
            problems.append(f"{label} certificate gives {cell}={moments[cell]}, "
                            f"table has {joint[cell]}")
    if moments["f"] > f + CERT_TOL:
        problems.append(f"{label} certificate f moment {moments['f']} > budget {f}")
    if moments["g"] > g + CERT_TOL:
        problems.append(f"{label} certificate g moment {moments['g']} > budget {g}")
    if abs(moments["psi"] - endpoint) > CERT_TOL:
        problems.append(f"{label} certificate attains {moments['psi']}, "
                        f"endpoint is {endpoint}")
    return problems


def _tau(report, k, L, U) -> list[str]:
    tau = report.get("tau")
    if "point" in k:
        want = {"mode": "point", "K": k["point"],
                "lower": L - k["point"], "upper": U - k["point"]}
    else:
        k_min, k_max = k.get("min"), k.get("max")
        want = {"mode": "range", "k_min": k_min, "k_max": k_max,
                "lower": None if k_max is None else L - k_max,
                "upper": None if k_min is None else U - k_min}
    if not isinstance(tau, dict) or set(tau) != set(want):
        return [f"tau block {tau!r} does not match K {k!r}"]
    for key, value in want.items():
        got = tau[key]
        same = (got == value if value is None or isinstance(value, str)
                else got is not None and _close(got, value))
        if not same:
            return [f"tau {key}={got!r}, expected {value!r}"]
    return []


def check_bounds(rec: dict, expect: dict) -> list[str]:
    if rec["rc"] != 0:
        return [f"exit code {rec['rc']}, expected 0: {rec['stderr'][-300:]}"]
    try:
        report = json.loads(rec["stdout"])
        L, U = report["interval"]["L"], report["interval"]["U"]
        cert_min = report["certificates"]["min"]
        cert_max = report["certificates"]["max"]
        budget = report["budget"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    joint = joint_of(expect["table"])
    problems = []
    for cell in ("p11", "p10", "p01", "p00"):
        if not _close(report["joint"][cell], joint[cell]):
            problems.append(f"joint {cell}={report['joint'][cell]}, table gives {joint[cell]}")

    want = expect["budget"]
    if "f" in want:
        f, g = want["f"], want["g"]
    else:
        f = want["d_x"] * joint["px1"] * (1 - joint["px1"])
        g = want["d_y"] * joint["py1"] * (1 - joint["py1"])
    if not (_close(budget["f"], f) and _close(budget["g"], g)):
        problems.append(f"budget f={budget['f']} g={budget['g']}, expected f={f} g={g}")

    if not L <= U:
        problems.append(f"L={L} > U={U}")
    lo = joint["p11"] - joint["p01"] - joint["px1"]
    hi = joint["p11"] + joint["px0"] - joint["p01"]
    if L < lo - EXACT_TOL or U > hi + EXACT_TOL:
        problems.append(f"[{L}, {U}] leaves the no-assumption bounds [{lo}, {hi}]")
    problems += _certificate(cert_min, joint, f, g, L, "min")
    problems += _certificate(cert_max, joint, f, g, U, "max")
    if expect.get("k") is not None:
        problems += _tau(report, expect["k"], L, U)
    pinned = expect.get("pinned")
    if pinned and (abs(L - pinned["L"]) > PIN_TOL or abs(U - pinned["U"]) > PIN_TOL):
        problems.append(f"[{L:.6f}, {U:.6f}] differs from the pinned "
                        f"[{pinned['L']}, {pinned['U']}]")
    return problems


def check_coverage(rec: dict, expect: dict, repeat: dict | None = None) -> list[str]:
    if rec["rc"] != 0:
        return [f"exit code {rec['rc']}, expected 0: {rec['stderr'][-300:]}"]
    try:
        report = json.loads(rec["stdout"])
        rows = report["rows"]
        coverage = report["coverage"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    if report.get("runs") != expect["runs"] or len(rows) != expect["runs"]:
        problems.append(f"{len(rows)} rows for {expect['runs']} runs")
    if coverage.get("psi") != 1.0 or coverage.get("tau") != 1.0:
        problems.append(f"coverage psi={coverage.get('psi')} tau={coverage.get('tau')}, "
                        f"expected 100 %")
    for row in rows:
        if not row["L"] <= row["U"]:
            problems.append(f"run {row['run']}: L={row['L']} > U={row['U']}")
    if repeat is not None and repeat["stdout"] != rec["stdout"]:
        problems.append("a repeat of the same command printed different JSON")
    return problems


def check_diagnose(rec: dict, expect: dict) -> list[str]:
    if rec["rc"] != 2:
        return [f"exit code {rec['rc']}, expected 2: {rec['stderr'][-300:]}"]
    problems = []
    if rec["stdout"]:
        problems.append("an infeasible request printed a report on stdout")
    least = {which: float(value) for which, value in _LEAST.findall(rec["stderr"])}
    if not least:
        problems.append("no least feasible value reported")
    for which, value in sorted(least.items()):
        if not math.isfinite(value) or value <= expect[which]:
            problems.append(f"least feasible {which}={value:g} is not above the "
                            f"requested {which}={expect[which]:g}, yet the request "
                            f"was reported infeasible")
    return problems


def check_request(req: dict, rec: dict, repeat: dict | None = None) -> list[str]:
    kind = req["kind"]
    if kind == "bounds":
        return check_bounds(rec, req["expect"])
    if kind == "coverage":
        return check_coverage(rec, req["expect"], repeat)
    return check_diagnose(rec, req["expect"])
