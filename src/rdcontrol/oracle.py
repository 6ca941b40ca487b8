"""Brute-force verification of solver output.

:func:`grid_search_num` exhaustively scans per-source (alpha, c) grids
(with beta = c - alpha, the equality that strictly increasing utilities
force at the optimum) against every candidate scheduled-rate vector, and
returns the best feasible point.  It never calls the closed-form layer
solvers or the dual iteration, so it is an independent check of both.

:func:`kkt_residuals` reports complementary-slackness products and
per-layer optimality margins of a (primal, dual) pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, GridTooLargeError, UnsupportedCombinationError
from .orchestrator import (
    DualState,
    PrimalAllocation,
    Scenario,
    _check_domain,
    _Kernel,
    _subproblem_primal,
    primal_violation,
)
from .regions import BoxRegion, GaussianMacRegion, capacity_C

MAX_GRID_POINTS = 10**8
_SIMPLEX_POINTS = 100  # time-sharing resolution between vertex pairs
_FEAS_SLACK = 1e-12


@dataclass(frozen=True)
class Axis:
    """One variable's scan range: ``steps`` equispaced points on [lo, hi]."""

    lo: float
    hi: float
    steps: int

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise DomainError(f"Axis needs >= 2 steps, got {self.steps}")
        if not self.lo < self.hi:
            raise DomainError(f"Axis needs lo < hi, got [{self.lo}, {self.hi}]")

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)

    def refined(self) -> "Axis":
        # dyadic refinement: keeps every existing point, halves the spacing
        return Axis(self.lo, self.hi, 2 * self.steps - 1)


@dataclass(frozen=True)
class GridSpec:
    """Per-source alpha and c axes for the exhaustive scan."""

    alpha: tuple[Axis, ...]
    c: tuple[Axis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "c", tuple(self.c))
        if len(self.alpha) != len(self.c):
            raise DomainError("GridSpec: alpha and c axis lists must match in length")

    def total_points(self) -> int:
        return sum(a.steps * c.steps for a, c in zip(self.alpha, self.c))

    def refined(self) -> "GridSpec":
        return GridSpec(
            tuple(a.refined() for a in self.alpha),
            tuple(c.refined() for c in self.c),
        )


@dataclass(eq=False)
class GridSearchResult:
    """Best feasible grid point, or an explicit no-feasible-point marker."""

    found: bool
    allocation: Optional[PrimalAllocation]
    objective: float


def default_grid(scn: Scenario, steps: int = 400) -> GridSpec:
    """Axes sized from the scenario: c up to the per-source rate ceiling,
    alpha up to the larger of that ceiling and the rule's 1/K optimum."""
    region = scn.region
    if isinstance(region, BoxRegion):
        r_max = list(region.caps)
    elif isinstance(region, GaussianMacRegion):
        r_max = [capacity_C(p, region.noise) for p in region.powers]
    else:
        raise UnsupportedCombinationError(
            f"default_grid supports Box and MAC regions, got {type(region).__name__}"
        )
    alpha_axes = []
    c_axes = []
    for spec, rm in zip(scn.sources, r_max):
        c_hi = min(scn.caps.c_max, rm)
        c_lo = max(scn.caps.c_min, c_hi / (10.0 * steps))
        if not c_lo < c_hi:
            c_lo, c_hi = 0.0, max(c_hi, 1.0)  # degenerate link; scan still valid
        a_hi = min(scn.caps.alpha_max, max(1.0 / spec.V.K, c_hi))
        a_lo = min(c_lo, a_hi / (10.0 * steps))
        if a_lo <= 0:
            a_lo = a_hi / (10.0 * steps)
        alpha_axes.append(Axis(a_lo, a_hi, steps))
        c_axes.append(Axis(max(c_lo, 1e-12), c_hi, steps))
    return GridSpec(tuple(alpha_axes), tuple(c_axes))


def _rate_candidates(scn: Scenario) -> list[np.ndarray]:
    region = scn.region
    if isinstance(region, BoxRegion):
        return [np.asarray(region.caps, dtype=float)]
    if isinstance(region, GaussianMacRegion):
        vertices = [
            region.vertex(list(order))
            for order in itertools.permutations(range(region.dim))
        ]
        candidates = list(vertices)
        thetas = np.linspace(0.0, 1.0, _SIMPLEX_POINTS)
        for va, vb in itertools.combinations(vertices, 2):
            candidates.extend(th * va + (1.0 - th) * vb for th in thetas)
        return candidates
    raise UnsupportedCombinationError(
        f"grid_search_num supports Box and 2-user MAC regions, got {type(region).__name__}"
    )


def grid_search_num(scn: Scenario, grid: GridSpec) -> GridSearchResult:
    """Exhaustive feasible-point scan; the independent optimum estimate.

    Dyadic grid refinement (``grid.refined()``) never loses points, so the
    best objective is nondecreasing under refinement.
    """
    if scn.n > 2:
        raise UnsupportedCombinationError(
            f"grid_search_num handles at most 2 sources, got {scn.n}"
        )
    if len(grid.alpha) != scn.n:
        raise DomainError(f"GridSpec covers {len(grid.alpha)} sources, scenario has {scn.n}")
    if grid.total_points() > MAX_GRID_POINTS:
        raise GridTooLargeError(
            f"grid has {grid.total_points()} points, cap is {MAX_GRID_POINTS}"
        )

    caps = scn.caps
    per_source = []
    for i, spec in enumerate(scn.sources):
        a_pts = grid.alpha[i].points()
        c_pts = grid.c[i].points()
        K, w = spec.V.K, spec.U.w
        with np.errstate(divide="ignore", invalid="ignore"):
            va = np.where(a_pts > 0, np.log(a_pts), -np.inf)
            # U = w*ln(c): -inf at c <= 0 where w > 0, 0 at every c where w = 0
            uc = np.where(c_pts > 0, w * np.log(c_pts), -np.inf) if w > 0 else np.zeros_like(c_pts)
        # objective[a, c] = ln(alpha) + K*(c - alpha) + U(c)
        obj = (va - K * a_pts)[:, None] + (K * c_pts + uc)[None, :]
        feasible = (
            (a_pts[:, None] >= c_pts[None, :])  # beta = c - alpha <= 0
            & (a_pts[:, None] > 0)
            & (a_pts[:, None] <= caps.alpha_max + _FEAS_SLACK)
            & (c_pts[None, :] >= caps.c_min - _FEAS_SLACK)
            & (c_pts[None, :] <= caps.c_max + _FEAS_SLACK)
        )
        obj = np.where(feasible, obj, -np.inf)
        best_per_c = obj.max(axis=0)
        arg_per_c = obj.argmax(axis=0)  # first maximizer on ties
        # prefix maxima over c and where each was last raised, which keeps
        # the smallest c on ties
        prefix_best = np.maximum.accumulate(best_per_c)
        new = np.concatenate(([True], best_per_c[1:] > prefix_best[:-1]))
        prefix_arg = np.maximum.accumulate(np.where(new, np.arange(len(c_pts)), 0))
        per_source.append((a_pts, c_pts, prefix_best, prefix_arg, arg_per_c))

    best_total = -math.inf
    best_alloc = None
    for r in _rate_candidates(scn):
        total = 0.0
        picks = []
        ok = True
        for i in range(scn.n):
            a_pts, c_pts, prefix_best, prefix_arg, arg_per_c = per_source[i]
            j = int(np.searchsorted(c_pts, r[i] + _FEAS_SLACK, side="right")) - 1
            if j < 0 or not math.isfinite(prefix_best[j]):
                ok = False
                break
            jj = int(prefix_arg[j])
            total += float(prefix_best[j])
            picks.append((float(a_pts[arg_per_c[jj]]), float(c_pts[jj])))
        if ok and total > best_total:
            alpha = np.array([p[0] for p in picks])
            c = np.array([p[1] for p in picks])
            best_total = total
            best_alloc = PrimalAllocation(alpha, c - alpha, c, np.asarray(r, dtype=float))

    if best_alloc is None:
        return GridSearchResult(False, None, -math.inf)
    if primal_violation(best_alloc, scn) > 1e-12:
        raise DomainError("grid_search_num produced an infeasible point")
    return GridSearchResult(True, best_alloc, best_total)


@dataclass(frozen=True)
class KktReport:
    """Complementary-slackness products and per-layer optimality margins."""

    comp_slack_mu: float
    comp_slack_lam: float
    compression_margin: float
    congestion_margin: float
    scheduling_margin: float

    @property
    def max_residual(self) -> float:
        return max(
            self.comp_slack_mu,
            self.comp_slack_lam,
            self.compression_margin,
            self.congestion_margin,
            self.scheduling_margin,
        )


def kkt_residuals(primal: PrimalAllocation, dual: DualState, scn: Scenario) -> KktReport:
    """How far a feasible (primal, dual) pair is from the optimality conditions."""
    viol = primal_violation(primal, scn)
    if viol > 1e-6:
        raise DomainError(f"kkt_residuals needs a feasible primal, violation {viol}")
    kernel = _Kernel(scn)
    _check_domain(primal, kernel)
    slack_mu = float(np.max(np.abs(dual.mu * (primal.alpha + primal.beta - primal.c))))
    slack_lam = float(np.max(np.abs(dual.lam * (primal.c - primal.r))))

    opt = _subproblem_primal(dual, scn)
    K, w, mu, lam = kernel.K, kernel.w, dual.mu, dual.lam

    def layer_values(p: PrimalAllocation) -> tuple[np.ndarray, np.ndarray]:
        """Per source, V - mu*(alpha + beta) and U - (lam - mu)*c, with
        U = w*ln(c) read as 0 where w = 0."""
        u = w * np.log(p.c, out=np.zeros_like(p.c), where=w > 0)
        return np.log(p.alpha) + K * p.beta - mu * (p.alpha + p.beta), u - (lam - mu) * p.c

    (best, best_c), (got, got_c) = layer_values(opt), layer_values(primal)
    comp_margin = max(0.0, float(np.max(best - got)))
    cong_margin = max(0.0, float(np.max(best_c - got_c)))
    sched_margin = float(np.dot(dual.lam, opt.r) - np.dot(dual.lam, primal.r))
    return KktReport(slack_mu, slack_lam, comp_margin, cong_margin, max(0.0, sched_margin))
