"""Brute-force verification of solver output.

:func:`grid_search_num` exhaustively scans per-source (alpha, c) grids
(with beta = c - alpha, the equality that strictly increasing utilities
force at the optimum) against every candidate scheduled-rate vector, and
returns the best feasible point.  The scan is exhaustive and takes
linear time per source: the objective ln(alpha) + K*(c - alpha) + U(c)
separates into f(alpha) + g(c), so a suffix maximum of f gives every c
column's best alpha with no steps x steps matrix.  It never calls the
closed-form layer solvers or the dual iteration, so it is an independent
check of both.  It reads a region only through ``max_weight`` (each
source's rate ceiling, for the axes) and :func:`_rate_candidates`, the
one place that decides which regions it supports: a box of any width and
a MAC of at most 2 users.

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
from .layers import SolverCaps
from .orchestrator import (
    DualState,
    PrimalAllocation,
    Scenario,
    _check_domain,
    _check_lengths,
    _QUIET,
    _Kernel,
    primal_violation,
)
from .regions import BoxRegion, GaussianMacRegion

# cap on GridSpec.total_points(), the alpha and c points the scan builds,
# summed over sources.  At the cap the worst shape, one source with a
# 2-point alpha axis and a 5e6-point c axis, took 0.18 s and 234 MB of
# peak RSS, five c-length arrays over a 33 MB interpreter (numpy 2.4,
# 2-CPU Xeon); a 64-link box at 39,062 steps per axis took 0.24 s and
# 130 MB
MAX_GRID_POINTS = 5 * 10**6
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
        """The points the scan builds: each source's alpha and c axes."""
        return sum(a.steps + c.steps for a, c in zip(self.alpha, self.c))

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
    if steps < 2:
        raise DomainError(f"default_grid needs >= 2 steps, got {steps}", field="steps")
    alpha_axes = []
    c_axes = []
    for i, spec in enumerate(scn.sources):
        # source i's rate ceiling: its rate under the unit weight on i
        ceiling = scn.region.max_weight(np.eye(1, scn.n, i)[0])[i]
        c_hi = min(scn.caps.c_max, float(ceiling))
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
    """The scheduled-rate vectors the scan tries, and the one place that
    decides which regions the oracle supports: a box (its caps) and a MAC
    of at most 2 users (its n! vertices and their pairwise mixes)."""
    region = scn.region
    if isinstance(region, BoxRegion):
        return [np.asarray(region.caps, dtype=float)]
    if isinstance(region, GaussianMacRegion):
        if region.dim > 2:  # refused before any of the n! orders is built
            raise UnsupportedCombinationError(
                f"grid_search_num handles a MAC of at most 2 users, got {region.dim}"
            )
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


def _source_scan(a_pts: np.ndarray, c_pts: np.ndarray, K: float, w: float, caps: SolverCaps):
    """One source's scan of the objective ln(alpha) + K*(c - alpha) + U(c),
    split as f(alpha) + g(c), on ascending alpha and c points.

    Column c's feasible alphas are the index range [lo[c], hi): alpha >= c
    (beta <= 0) and alpha <= alpha_max.  Rounding x + g is nondecreasing
    in x, so the column maximum is the suffix maximum of f at lo[c], plus
    g(c), bit for bit.  Returns the prefix maxima of the column maxima,
    the column where each was reached, and ``pick(column)``: its
    (alpha, c) point.
    """
    # Each c-length array is built in its own buffer and dropped once dead,
    # so at most five are alive, c_pts included.  IEEE + and * commute, so
    # U + K*c is K*c + U bit for bit.  w*ln(c) overflows to -inf for a huge
    # w at c < 1, which is its float value.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = np.where(a_pts > 0, np.log(a_pts), -np.inf) - K * a_pts  # -inf: alpha <= 0
        # U = w*ln(c): -inf at c <= 0 where w > 0, 0 at every c where w = 0
        if w > 0:
            g = np.log(c_pts)
            g *= w
            g[~(c_pts > 0)] = -np.inf
        else:
            g = np.zeros_like(c_pts)
    g += K * c_pts
    hi = int(np.searchsorted(a_pts, caps.alpha_max + _FEAS_SLACK, side="right"))
    # lo >= hi leaves a column no alpha; pick reads only columns with one
    lo = np.searchsorted(a_pts, c_pts, side="left")
    np.minimum(lo, hi, out=lo)
    # suffix maxima of f[:hi], with -inf at hi for a column with no alpha
    suffix = np.full(hi + 1, -np.inf)
    suffix[:hi] = np.maximum.accumulate(f[:hi][::-1])[::-1]
    best_per_c = suffix[lo]
    best_per_c += g
    in_range = (c_pts >= caps.c_min - _FEAS_SLACK) & (c_pts <= caps.c_max + _FEAS_SLACK)
    best_per_c[~in_range] = -np.inf
    del in_range
    # prefix maxima over c and where each was last raised, which keeps
    # the smallest c on ties
    prefix_best = np.maximum.accumulate(best_per_c)
    new = best_per_c[1:] > prefix_best[:-1]
    del best_per_c
    prefix_arg = np.arange(len(c_pts))
    prefix_arg[1:][~new] = 0
    np.maximum.accumulate(prefix_arg, out=prefix_arg)

    def pick(jj: int) -> tuple[float, float]:
        """(alpha, c) at column jj: the first maximizing alpha, as argmax
        picks it over the whole column."""
        a0 = int(lo[jj])
        return float(a_pts[a0 + int(np.argmax(f[a0:hi] + g[jj]))]), float(c_pts[jj])

    return prefix_best, prefix_arg, pick


def grid_search_num(scn: Scenario, grid: GridSpec) -> GridSearchResult:
    """Exhaustive feasible-point scan; the independent optimum estimate.

    Every grid point counts, through the separable suffix maximum of
    :func:`_source_scan`; each rate candidate takes, per source, the best
    c at or below its rate.  No layer or solver code is called.  Dyadic
    grid refinement (``grid.refined()``) never loses points, so the best
    objective is nondecreasing under refinement.  An unsupported region, or
    a grid of more than ``MAX_GRID_POINTS`` axis points, is refused before
    any axis is built.
    """
    candidates = _rate_candidates(scn)
    if len(grid.alpha) != scn.n:
        raise DomainError(f"GridSpec covers {len(grid.alpha)} sources, scenario has {scn.n}")
    if grid.total_points() > MAX_GRID_POINTS:
        raise GridTooLargeError(
            f"grid has {grid.total_points()} points, cap is {MAX_GRID_POINTS}"
        )

    rates = np.array(candidates)  # (candidates, n)
    totals = np.zeros(len(candidates))
    ok = np.ones(len(candidates), dtype=bool)
    columns = []
    picks = []
    for i, spec in enumerate(scn.sources):
        c_pts = grid.c[i].points()
        prefix_best, prefix_arg, pick = _source_scan(
            grid.alpha[i].points(), c_pts, spec.V.K, spec.U.w, scn.caps
        )
        # the last c at or below each candidate's rate
        j = np.searchsorted(c_pts, rates[:, i] + _FEAS_SLACK, side="right") - 1
        best = np.where(j >= 0, prefix_best[j], -np.inf)
        ok &= np.isfinite(best)
        totals = totals + best  # summed source by source, from 0.0
        columns.append(prefix_arg[j])
        picks.append(pick)

    # the first maximal total, as a strict > scan from -inf keeps it
    totals = np.where(ok & (totals > -np.inf), totals, -np.inf)
    k = int(np.argmax(totals))
    if totals[k] == -np.inf:
        return GridSearchResult(False, None, -math.inf)
    points = [pick(int(col[k])) for pick, col in zip(picks, columns)]
    alpha = np.array([p[0] for p in points])
    c = np.array([p[1] for p in points])
    best_alloc = PrimalAllocation(alpha, c - alpha, c, np.asarray(candidates[k], dtype=float))
    if primal_violation(best_alloc, scn) > 1e-12:
        raise DomainError("grid_search_num produced an infeasible point")
    return GridSearchResult(True, best_alloc, float(totals[k]))


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
    _check_lengths(scn, primal, dual)
    viol = primal_violation(primal, scn)
    if viol > 1e-6:
        raise DomainError(f"kkt_residuals needs a feasible primal, violation {viol}")
    kernel = _Kernel(scn)
    _check_domain(primal, kernel)
    slack_mu = float(np.max(np.abs(dual.mu * (primal.alpha + primal.beta - primal.c))))
    slack_lam = float(np.max(np.abs(dual.lam * (primal.c - primal.r))))

    K, w, mu, lam = kernel.K, kernel.w, dual.mu, dual.lam
    with np.errstate(**_QUIET):
        opt = PrimalAllocation(*kernel.primal(mu, lam), scn.region.max_weight(lam))

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
