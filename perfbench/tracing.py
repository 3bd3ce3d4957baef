"""Spans around the public functions of each cubebounds layer.

The program is not changed: `Tracer.install()` rebinds the public
functions of `cli`, `sensitivity`, `bounds`, `lp` and `sim` (in every
cubebounds module that holds them) to timing wrappers, and replaces
`bounds.GridColumns` with a factory that returns `TracedOracle`, a proxy
that times the pricing protocol and delegates every other attribute.
`uninstall()` restores the originals.

A span is `[name, start, end, parent, request, attrs]`: parent is the
index of the enclosing span (-1 at the top) and request the id of the
benchmark request that caused it.  Spans stay in memory until the run
writes them out.  `layer_metrics` turns them into the per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

_MODULES = ("cubebounds", "cubebounds.core", "cubebounds.lp",
            "cubebounds.bounds", "cubebounds.sensitivity", "cubebounds.sim",
            "cubebounds.cli")

# (module, function, span name); the span name's prefix is the layer.
_FUNCTIONS = (
    ("cubebounds.cli", "main", "cli.main"),
    ("cubebounds.sensitivity", "calibrate_budget", "sensitivity.calibrate_budget"),
    ("cubebounds.sensitivity", "shift_interval", "sensitivity.shift_interval"),
    ("cubebounds.sensitivity", "shift_interval_range", "sensitivity.shift_interval_range"),
    ("cubebounds.sensitivity", "population_k", "sensitivity.population_k"),
    ("cubebounds.bounds", "solve_bounds", "bounds.solve_bounds"),
    ("cubebounds.bounds", "minimal_budget", "bounds.minimal_budget"),
    ("cubebounds.lp", "solve", "lp.solve"),
    ("cubebounds.sim", "coverage_experiment", "sim.coverage_experiment"),
    ("cubebounds.sim", "oracle", "sim.oracle"),
    ("cubebounds.sim", "sample", "sim.sample"),
    ("cubebounds.sim", "tabulate", "sim.tabulate"),
)

NAME, START, END, PARENT, REQUEST, ATTRS = range(6)

# Grid sizes are reported in buckets named after their upper end:
# m64 holds m <= 64, m128 holds 64 < m <= 128, m256 everything larger.
M_BUCKETS = (64, 128, 256)


def m_bucket(m: int) -> str:
    for top in M_BUCKETS:
        if m <= top:
            return f"m{top}"
    return f"m{M_BUCKETS[-1]}"


def _lp_attrs(args, kwargs, sol) -> dict:
    oracle = (args[0] if args else kwargs["lp"]).oracle
    return {"m": getattr(oracle, "m", 0),
            "objective": getattr(oracle, "objective", ""),
            "status": sol.status, "iterations": sol.iterations,
            "deleted_rows": len(sol.deleted_rows)}



class Tracer:
    """Records spans; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = ""
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def call(self, name: str, attrs, fn, *args, **kwargs):
        """Run fn inside a span; attrs is a dict or a function of the
        arguments and the result, evaluated after the call returns."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
        spans.append(span)
        stack.append(index)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            stack.pop()
        span[ATTRS] = attrs(args, kwargs, result) if callable(attrs) else attrs
        return result

    def event(self, name: str, attrs: dict) -> None:
        """A zero-length span, for things counted rather than timed."""
        now = time.perf_counter()
        self.spans.append([name, now, now, self._stack[-1] if self._stack else -1,
                           self.request, attrs])

    # -- installing the wrappers --------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for modname in _MODULES:
            module = sys.modules[modname]
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._restore.append((module, key, original))

    def _wrapper(self, name: str, fn):
        attrs = _lp_attrs if name == "lp.solve" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, attrs, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        for modname in _MODULES:
            importlib.import_module(modname)
        for modname, attr, name in _FUNCTIONS:
            fn = getattr(sys.modules[modname], attr)
            self._rebind(fn, self._wrapper(name, fn))
        grid_columns = sys.modules["cubebounds.bounds"].GridColumns

        def traced_grid_columns(*args, **kwargs):
            inner = grid_columns(*args, **kwargs)
            self.event("oracle.new", {"m": inner.m, "objective": inner.objective})
            return TracedOracle(self, inner)
        self._rebind(grid_columns, traced_grid_columns)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent, request, attrs."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class TracedOracle:
    """Times the pricing protocol of a column oracle.

    Only the five protocol methods are wrapped; every other attribute
    (`n`, `m`, `atom`, ...) comes from the wrapped oracle, so a change to
    the protocol that adds methods passes through untimed.
    """

    def __init__(self, tracer: Tracer, inner) -> None:
        self._tracer = tracer
        self._inner = inner
        self._base = {"m": inner.m, "objective": inner.objective}

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def price_min(self, y, rows, cost_sign):
        attrs = dict(self._base, phase=1 if cost_sign == 0 else 2)
        return self._tracer.call("oracle.price_min", attrs,
                                 self._inner.price_min, y, rows, cost_sign)

    def price_first(self, y, rows, cost_sign, tol):
        return self._tracer.call("oracle.price_first", self._base,
                                 self._inner.price_first, y, rows, cost_sign, tol)

    def price_max_abs(self, v, rows):
        return self._tracer.call("oracle.price_max_abs", self._base,
                                 self._inner.price_max_abs, v, rows)

    def columns(self, js, rows):
        return self._tracer.call("oracle.columns", self._base,
                                 self._inner.columns, js, rows)

    def cost(self, j):
        return self._tracer.call("oracle.cost", self._base, self._inner.cost, j)


# -- metrics from spans ---------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so the
    part of the interval they cover is the sum of their durations."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    own = self_times(spans)
    out: dict[str, float] = {}

    def total(pred, use_self=False) -> tuple[int, float]:
        calls, secs = 0, 0.0
        for i, s in enumerate(spans):
            if pred(s):
                calls += 1
                secs += own[i] if use_self else s[END] - s[START]
        return calls, secs

    def named(name):
        return lambda s: s[NAME] == name

    out["cli.requests"], out["cli.self_s"] = total(named("cli.main"), True)
    out["sensitivity.calls"], out["sensitivity.s"] = total(
        lambda s: s[NAME].startswith("sensitivity."), True)
    out["bounds.solve_bounds.calls"], out["bounds.solve_bounds.self_s"] = total(
        named("bounds.solve_bounds"), True)
    out["bounds.levels"], _ = total(
        lambda s: s[NAME] == "oracle.new" and s[ATTRS]["objective"] == "psi")
    for top in M_BUCKETS:
        _, out[f"bounds.level_s.m{top}"] = total(
            lambda s: (s[NAME] == "lp.solve" and s[ATTRS]["objective"] == "psi"
                       and m_bucket(s[ATTRS]["m"]) == f"m{top}"))
    out["bounds.minimal_budget.calls"], out["bounds.minimal_budget.s"] = total(
        named("bounds.minimal_budget"))

    solves = [s for s in spans if s[NAME] == "lp.solve"]
    out["lp.solves"] = len(solves)
    out["lp.iterations"] = sum(s[ATTRS]["iterations"] for s in solves)
    out["lp.iterations_per_solve"] = (out["lp.iterations"] / len(solves)
                                      if solves else 0.0)
    out["lp.infeasible"] = sum(s[ATTRS]["status"] == "infeasible" for s in solves)
    out["lp.deleted_rows"] = sum(s[ATTRS]["deleted_rows"] for s in solves)
    _, out["lp.solve_s"] = total(named("lp.solve"))
    _, out["lp.self_s"] = total(named("lp.solve"), True)

    for phase in (1, 2):
        key = f"oracle.price_min.phase{phase}"
        out[f"{key}.calls"], out[f"{key}.s"] = total(
            lambda s: s[NAME] == "oracle.price_min" and s[ATTRS]["phase"] == phase)
    for top in M_BUCKETS:
        calls, secs = total(lambda s: (s[NAME] == "oracle.price_min"
                                       and m_bucket(s[ATTRS]["m"]) == f"m{top}"))
        out[f"oracle.price_min.s_per_call.m{top}"] = secs / calls if calls else 0.0
    out["oracle.price_max_abs.calls"], out["oracle.price_max_abs.s"] = total(
        named("oracle.price_max_abs"))
    out["oracle.price_first.calls"], price_first_s = total(named("oracle.price_first"))
    out["oracle.columns.calls"], out["oracle.columns.s"] = total(named("oracle.columns"))
    out["oracle.cost.calls"], _ = total(named("oracle.cost"))
    pricing_s = (out["oracle.price_min.phase1.s"] + out["oracle.price_min.phase2.s"]
                 + out["oracle.price_max_abs.s"] + price_first_s)
    out["oracle.pricing_share"] = (pricing_s / out["lp.solve_s"]
                                   if out["lp.solve_s"] else 0.0)
    price_calls = (out["oracle.price_min.phase1.calls"]
                   + out["oracle.price_min.phase2.calls"])
    out["lp.phase1_share"] = (out["oracle.price_min.phase1.calls"] / price_calls
                              if price_calls else 0.0)

    out["sim.sample.calls"], out["sim.sample.s"] = total(named("sim.sample"))
    _, out["sim.tabulate.s"] = total(named("sim.tabulate"))
    _, out["sim.oracle.s"] = total(named("sim.oracle"))
    coverage = {i for i, s in enumerate(spans) if s[NAME] == "sim.coverage_experiment"}
    _, out["sim.solve_s"] = total(
        lambda s: s[NAME] == "bounds.solve_bounds" and s[PARENT] in coverage)
    out["trace.spans"] = len(spans)
    return out
