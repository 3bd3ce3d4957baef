"""Stochastic potential-outcomes simulator with exhaustive oracles.

A population is a share-weighted mixture of discrete types.  Each type
draws a treatment version (stage 1), takes treatment per a possibly
probabilistic rule attached to the version, and draws a binary outcome
whose probability depends on the version and the realized treatment
(stage 2).  Everything is finite, so the observational contrast psi,
the interventional contrast tau, the bias K = psi - tau, and the
population moments f and g are computable exactly by enumeration.

Sampling uses the counter-based Philox generator with a fixed block of
four uniforms per individual (type, version, treatment, outcome), so
draws are independent of iteration order and bit-identical across
platforms for a given (seed, run_key).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import DEFAULT_GRID_M, BoundsRequest, solve_bounds
from .core import ContingencyTable, MomentBudget, ObservedJoint, normalize


def _prob_vector(name: str, values, n: int) -> None:
    if len(values) != n:
        raise ValueError(f"{name} must have one entry per version")
    if any(not 0 <= v <= 1 for v in values):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    if abs(sum(values) - 1.0) > 1e-12:
        raise ValueError(f"{name} must sum to 1")


@dataclass(frozen=True)
class VersionModel:
    """One type's version space, treatment rule, and outcome law.

    natural_treatment gives each version's probability of treatment 1
    (a deterministic rule is the 0/1 special case).  outcome_prob holds
    per version the pair (Pr(y=1 | x=0), Pr(y=1 | x=1)).  By default
    the version distribution is invariant under intervention; supplying
    dist_under_0 and dist_under_1 overrides the version law under each
    assigned arm and models interventions that change how the treatment
    is taken.
    """

    versions: tuple[str, ...]
    version_dist: tuple[float, ...]
    natural_treatment: tuple[float, ...]
    outcome_prob: tuple[tuple[float, float], ...]
    dist_under_0: tuple[float, ...] | None = None
    dist_under_1: tuple[float, ...] | None = None
    label: str = ""

    def __post_init__(self) -> None:
        n = len(self.versions)
        if n == 0:
            raise ValueError("a type needs at least one version")
        _prob_vector("version_dist", self.version_dist, n)
        if len(self.natural_treatment) != n or len(self.outcome_prob) != n:
            raise ValueError("rule and outcome maps must cover every version")
        for p in self.natural_treatment:
            if not 0 <= p <= 1:
                raise ValueError("treatment rule entries must lie in [0, 1]")
        for pair in self.outcome_prob:
            if len(pair) != 2 or any(not 0 <= p <= 1 for p in pair):
                raise ValueError("outcome_prob entries must be [0, 1] pairs")
        if (self.dist_under_0 is None) != (self.dist_under_1 is None):
            raise ValueError("interventional distributions come in pairs")
        if self.dist_under_0 is not None:
            _prob_vector("dist_under_0", self.dist_under_0, n)
            _prob_vector("dist_under_1", self.dist_under_1, n)


@dataclass(frozen=True)
class PopulationSpec:
    types: tuple[tuple[VersionModel, float], ...]
    N: int
    seed: int

    def __post_init__(self) -> None:
        if not self.types:
            raise ValueError("population needs at least one type")
        shares = [s for _, s in self.types]
        if any(s < 0 for s in shares) or abs(sum(shares) - 1.0) > 1e-9:
            raise ValueError("type shares must be nonnegative and sum to 1")
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class TypeOracle:
    pi: float
    r_given_0: float
    r_given_1: float
    r_int_0: float
    r_int_1: float

    @property
    def r_natural(self) -> float:
        """Unconditional natural prognosis pi*r_given_1 + (1-pi)*r_given_0."""
        return self.pi * self.r_given_1 + (1 - self.pi) * self.r_given_0


@dataclass(frozen=True)
class OracleSummary:
    psi: float
    tau: float
    K: float
    f_true: float
    g_true: float
    px1: float
    py1: float
    per_type: tuple[TypeOracle, ...]
    shares: tuple[float, ...]

    def __post_init__(self) -> None:
        if abs(self.K - (self.psi - self.tau)) > 1e-12:
            raise ValueError("K must equal psi - tau")

    @property
    def joint(self) -> ObservedJoint:
        """Observational cell probabilities implied by the population."""
        p11 = sum(s * t.pi * t.r_given_1
                  for s, t in zip(self.shares, self.per_type))
        p01 = sum(s * (1 - t.pi) * t.r_given_0
                  for s, t in zip(self.shares, self.per_type))
        return ObservedJoint(p11=p11, p10=self.px1 - p11, p01=p01,
                             p00=1 - self.px1 - p01)


def _type_oracle(model: VersionModel, index: int) -> TypeOracle:
    dist = np.asarray(model.version_dist)
    rule = np.asarray(model.natural_treatment)
    out = np.asarray(model.outcome_prob)
    pi = float(dist @ rule)
    name = model.label or f"type {index}"
    if pi <= 0.0 or pi >= 1.0:
        raise ValueError(
            f"{name} has a degenerate treatment rule (Pr(x=1) = {pi}); "
            f"conditional prognoses are undefined")
    r_given_1 = float(dist @ (rule * out[:, 1])) / pi
    r_given_0 = float(dist @ ((1 - rule) * out[:, 0])) / (1 - pi)
    d0 = np.asarray(model.dist_under_0) if model.dist_under_0 is not None else dist
    d1 = np.asarray(model.dist_under_1) if model.dist_under_1 is not None else dist
    return TypeOracle(pi=pi, r_given_0=r_given_0, r_given_1=r_given_1,
                      r_int_0=float(d0 @ out[:, 0]),
                      r_int_1=float(d1 @ out[:, 1]))


def oracle(spec: PopulationSpec) -> OracleSummary:
    """Exact population summaries by enumeration over types and versions."""
    per_type = tuple(_type_oracle(m, i) for i, (m, _) in enumerate(spec.types))
    shares = tuple(s for _, s in spec.types)
    psi = sum(s * (t.r_given_1 - t.r_given_0) for s, t in zip(shares, per_type))
    tau = sum(s * (t.r_int_1 - t.r_int_0) for s, t in zip(shares, per_type))
    px1 = sum(s * t.pi for s, t in zip(shares, per_type))
    py1 = sum(s * t.r_natural for s, t in zip(shares, per_type))
    f_true = sum(s * (t.pi - px1) ** 2 for s, t in zip(shares, per_type))
    g_true = sum(s * (t.r_natural - py1) ** 2 for s, t in zip(shares, per_type))
    return OracleSummary(psi=psi, tau=tau, K=psi - tau, f_true=f_true,
                         g_true=g_true, px1=px1, py1=py1,
                         per_type=per_type, shares=shares)


def sample(spec: PopulationSpec, run_key: int = 0) -> np.ndarray:
    """Draw (x, y) for N individuals; shape (N, 2), dtype uint8.

    Individual i consumes exactly the four uniforms at stream positions
    4i..4i+3 (type, version, treatment, outcome), so the draw for any
    individual is independent of how the others are processed.
    """
    ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(run_key,))
    gen = np.random.Generator(np.random.Philox(ss))
    u = gen.random((spec.N, 4))

    share_cum = np.cumsum([s for _, s in spec.types])
    share_cum[-1] = 1.0
    type_id = np.searchsorted(share_cum, u[:, 0], side="right")

    xy = np.empty((spec.N, 2), dtype=np.uint8)
    for t, (model, _) in enumerate(spec.types):
        idx = np.nonzero(type_id == t)[0]
        if idx.size == 0:
            continue
        vcum = np.cumsum(model.version_dist)
        vcum[-1] = 1.0
        v = np.searchsorted(vcum, u[idx, 1], side="right")
        rule = np.asarray(model.natural_treatment)[v]
        x = u[idx, 2] < rule
        out = np.asarray(model.outcome_prob)[v]
        p_y = np.where(x, out[:, 1], out[:, 0])
        xy[idx, 0] = x
        xy[idx, 1] = u[idx, 3] < p_y
    return xy


def tabulate(xy: np.ndarray) -> ContingencyTable:
    """Count the four (x, y) cells of a sample."""
    n00, n01, n10, n11 = (int(c) for c in
                          np.bincount(2 * xy[:, 0] + xy[:, 1], minlength=4))
    return ContingencyTable(n11=n11, n10=n10, n01=n01, n00=n00)


@dataclass(frozen=True)
class RunRecord:
    run: int
    L: float
    U: float
    psi_covered: bool
    tau_covered: bool


@dataclass(frozen=True)
class CoverageReport:
    runs: int
    psi_coverage: float
    tau_coverage: float
    grid_m: int
    budget: MomentBudget
    budget_violation: bool
    oracle: OracleSummary
    rows: tuple[RunRecord, ...]


def default_budget(summary: OracleSummary, n: int) -> MomentBudget:
    """Oracle moments inflated by three standard errors of the marginals.

    The bounds are computed from a sampled table, so the true measure's
    moments around the sampled marginals exceed f_true/g_true by a term
    of order the marginals' sampling noise; three standard errors keeps
    the true measure feasible in essentially every run.
    """
    slack_f = 3.0 * math.sqrt(summary.px1 * (1 - summary.px1) / n)
    slack_g = 3.0 * math.sqrt(summary.py1 * (1 - summary.py1) / n)
    return MomentBudget(f=summary.f_true + slack_f, g=summary.g_true + slack_g)


def coverage_experiment(spec: PopulationSpec, runs: int,
                        m: int = DEFAULT_GRID_M,
                        budget: MomentBudget | None = None) -> CoverageReport:
    """Check that computed intervals cover the oracle psi and tau.

    Each run draws a fresh sample (run_key = run index), computes the
    interval [L, U] on a fixed grid, and counts psi as covered when
    L <= psi <= U and tau when L - K <= tau <= U - K.  A grid LP
    restricts the continuum LP, so the grid interval lies inside the
    sharp one and a covered run is covered by the sharp interval too;
    on a coarse grid a miss may be grid error rather than a sharp-bound
    failure.  A given budget below the oracle moments is flagged in the
    report, and its runs are still counted.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    summary = oracle(spec)
    violation = False
    if budget is None:
        budget = default_budget(summary, spec.N)
    else:
        violation = (budget.f < summary.f_true - 1e-12
                     or budget.g < summary.g_true - 1e-12)

    rows = []
    psi_hits = tau_hits = 0
    for r in range(runs):
        joint = normalize(tabulate(sample(spec, run_key=r)))
        iv = solve_bounds(BoundsRequest(joint, budget, m, refine=False))
        psi_ok = iv.L <= summary.psi <= iv.U
        tau_ok = iv.L - summary.K <= summary.tau <= iv.U - summary.K
        psi_hits += psi_ok
        tau_hits += tau_ok
        rows.append(RunRecord(run=r, L=iv.L, U=iv.U,
                              psi_covered=psi_ok, tau_covered=tau_ok))
    return CoverageReport(runs=runs, psi_coverage=psi_hits / runs,
                          tau_coverage=tau_hits / runs, grid_m=m,
                          budget=budget, budget_violation=violation,
                          oracle=summary, rows=tuple(rows))
