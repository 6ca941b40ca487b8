"""Dual subgradient coupling of the compression, congestion and scheduling layers.

The coupled utility maximization

    max  sum_i V_i(alpha_i, beta_i) + U_i(c_i)
    s.t. alpha_i + beta_i <= c_i,   a_i*alpha_i >= 0,  b_i*beta_i <= 0,
         alpha_i + beta_i >= 0,     c_i <= r_i,        r in region

is relaxed with prices mu (rate-distortion constraint) and lambda
(capacity constraint).  Each iteration solves the three per-layer
subproblems at the current prices (Jacobi style: all three see the same
pre-update duals), then takes a projected subgradient step on (mu, lambda).
The subproblems carry the :class:`SolverCaps` box, so every dual value
bounds the *capped* problem from above.

A primal point is recovered by ergodic averaging of the subproblem
iterates followed by a two-step repair: clip c to the scheduled rate, then
recompute (alpha, beta) by the closed-form compression rule clipped to
``alpha_max``.  The repaired point is feasible for the capped problem by
construction (c <= r with r a convex mix of region points, alpha + beta =
min(c, alpha_max) <= c, alpha <= alpha_max), so by weak duality the
relative gap between the best dual value and the best repaired objective
is a complete optimality certificate, and it is the only stopping test.
The average window restarts at power-of-two iteration counts, so at any
time it spans at least the most recent half of the run; a from-start
average would carry the early transient at O(1/t) and stall well above
the gap tolerance.  The trace records, per iteration, the raw subproblem
primal, the dual objective at the current prices, the best repaired
objective seen so far and the coupling residual of the raw window average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, UnsupportedCombinationError
from .layers import (
    LogLinear,
    LogRate,
    SolverCaps,
    UtilityU,
    UtilityV,
    Zero,
    compression_subproblem,
    congestion_subproblem,
)
from .regions import RateRegion
from .sources import SignFlags, SourceModel, sign_flags


@dataclass(frozen=True)
class Constant:
    """Fixed step size gamma_t = gamma."""

    gamma: float

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise DomainError(f"Constant step: gamma must be > 0, got {self.gamma}")

    def step_size(self, t: int) -> float:
        return self.gamma


@dataclass(frozen=True)
class Diminishing:
    """Diminishing step size gamma_t = gamma0 / sqrt(t), t >= 1."""

    gamma0: float

    def __post_init__(self) -> None:
        if not self.gamma0 > 0:
            raise DomainError(f"Diminishing step: gamma0 must be > 0, got {self.gamma0}")

    def step_size(self, t: int) -> float:
        return self.gamma0 / math.sqrt(t)


StepRule = Union[Constant, Diminishing]


@dataclass(frozen=True)
class SourceSpec:
    """One source's model and utilities, bundled for a scenario."""

    model: SourceModel
    V: UtilityV
    U: UtilityU = Zero()

    @property
    def flags(self) -> SignFlags:
        return sign_flags(self.model)


@dataclass(frozen=True)
class Scenario:
    """Problem data plus solver options for one coupled control instance."""

    sources: tuple[SourceSpec, ...]
    region: RateRegion
    caps: SolverCaps = SolverCaps()
    step: StepRule = Diminishing(1.0)
    max_iters: int = 50_000
    tol_gap: float = 1e-3
    dual_init: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        if len(self.sources) == 0:
            raise DomainError("Scenario needs at least one source")
        if self.region.dim != len(self.sources):
            raise DomainError(
                f"region dimension {self.region.dim} != number of sources {len(self.sources)}"
            )
        for i, spec in enumerate(self.sources):
            if not isinstance(spec.V, LogLinear):
                raise UnsupportedCombinationError(
                    f"sources[{i}]: the dual solver needs a LogLinear compression "
                    f"utility, got {type(spec.V).__name__}"
                )
            if (spec.flags.a, spec.flags.b) != (1, 1):
                raise UnsupportedCombinationError(
                    f"sources[{i}]: the closed-form compression control supports "
                    f"sign flags (1,1) (binary sources) only"
                )
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.dual_init < 0:
            raise DomainError(f"dual_init must be >= 0, got {self.dual_init}")

    @property
    def n(self) -> int:
        return len(self.sources)


@dataclass(frozen=True, eq=False)
class DualState:
    """Nonnegative prices: mu for rate-distortion slack, lam for capacity slack."""

    mu: np.ndarray
    lam: np.ndarray

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)
        if mu.shape != lam.shape:
            raise DomainError(f"dual shapes differ: {mu.shape} vs {lam.shape}")
        if np.any(mu < 0) or np.any(lam < 0):
            raise DomainError("dual variables must be componentwise nonnegative")


@dataclass(frozen=True, eq=False)
class PrimalAllocation:
    """One (alpha, beta, c, r) tuple of per-source vectors, bits/sec."""

    alpha: np.ndarray
    beta: np.ndarray
    c: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "c", "r"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass(eq=False)
class Trace:
    """Column-major per-iteration history of a solve.

    ``max_violation`` is the O(n) coupling residual of the raw window
    average, max(0, alpha+beta-c, c-r, -(alpha+beta), -alpha, beta).  It
    is a diagnostic only: the region constraint is not evaluated, and the
    stopping test does not read it (the solver never returns the raw
    average; see :func:`primal_violation` for the full check).
    """

    t: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    c: np.ndarray
    r: np.ndarray
    primal_obj: np.ndarray
    dual_obj: np.ndarray
    max_violation: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(eq=False)
class SolveReport:
    """Outcome of :func:`solve`.

    ``recovered`` is the incumbent: the repaired window average with the
    best finite objective seen anywhere in the run.  It is feasible for
    the capped problem the duals bound, so ``gap``, the relative distance
    ``(best_dual - recovered_objective) / (1 + |recovered_objective|)``,
    is >= 0 up to rounding.  ``converged`` means ``gap < tol_gap``.  When
    no repaired point had a finite objective (e.g. a ``LogRate`` source
    on a zero-capacity link), ``recovered`` is None,
    ``recovered_objective`` is -inf, ``gap`` is inf and ``converged`` is
    False.
    """

    trace: Trace
    recovered: PrimalAllocation | None
    recovered_objective: float
    best_dual: float
    gap: float
    converged: bool
    iterations: int


def primal_objective(primal: PrimalAllocation, scn: Scenario) -> float:
    """sum_i V_i(alpha_i, beta_i) + U_i(c_i), evaluated literally."""
    total = 0.0
    for i, spec in enumerate(scn.sources):
        total += spec.V.value(float(primal.alpha[i]), float(primal.beta[i]))
        total += spec.U.value(float(primal.c[i]))
    return total


def lagrangian_value(primal: PrimalAllocation, dual: DualState, scn: Scenario) -> float:
    """Objective minus price-weighted constraint residuals."""
    penalty_mu = float(np.dot(dual.mu, primal.alpha + primal.beta - primal.c))
    penalty_lam = float(np.dot(dual.lam, primal.c - primal.r))
    return primal_objective(primal, scn) - penalty_mu - penalty_lam


def _subproblem_primal(dual: DualState, scn: Scenario) -> PrimalAllocation:
    n = scn.n
    alpha = np.empty(n)
    beta = np.empty(n)
    c = np.empty(n)
    for i, spec in enumerate(scn.sources):
        alpha[i], beta[i] = compression_subproblem(
            spec.V, float(dual.mu[i]), spec.flags, scn.caps
        )
        c[i] = congestion_subproblem(spec.U, float(dual.lam[i]), float(dual.mu[i]), scn.caps)
    r = scn.region.max_weight(dual.lam)
    return PrimalAllocation(alpha, beta, c, r)


def dual_objective(dual: DualState, scn: Scenario) -> float:
    """g(mu, lambda): the Lagrangian maximized layer by layer at the prices."""
    return lagrangian_value(_subproblem_primal(dual, scn), dual, scn)


def dual_iterate(
    state: DualState, scn: Scenario, gamma: float
) -> tuple[DualState, PrimalAllocation]:
    """One Jacobi iteration: solve the three subproblems at ``state``, then
    take a projected subgradient step on both price vectors."""
    if not gamma > 0:
        raise DomainError(f"dual_iterate: step must be > 0, got {gamma}")
    primal = _subproblem_primal(state, scn)
    mu = np.maximum(0.0, state.mu + gamma * (primal.alpha + primal.beta - primal.c))
    lam = np.maximum(0.0, state.lam + gamma * (primal.c - primal.r))
    return DualState(mu, lam), primal


def primal_violation(primal: PrimalAllocation, scn: Scenario) -> float:
    """Worst additive violation across all coupling and region constraints."""
    a = primal.alpha
    b = primal.beta
    c = primal.c
    worst = float(np.max(a + b - c))
    worst = max(worst, float(np.max(c - primal.r)))
    worst = max(worst, float(np.max(-(a + b))))
    for i, spec in enumerate(scn.sources):
        if spec.flags.a:
            worst = max(worst, -float(a[i]))
        if spec.flags.b:
            worst = max(worst, float(b[i]))
    worst = max(worst, scn.region.violation(primal.r))
    return max(0.0, worst)


def _repair(avg: PrimalAllocation, scn: Scenario) -> PrimalAllocation:
    """Make the averaged point feasible for the capped problem: clip c to r,
    then re-derive (alpha, beta) by the compression rule under alpha_max."""
    K = np.fromiter((spec.V.K for spec in scn.sources), float, scn.n)
    alpha_max = scn.caps.alpha_max
    c = np.minimum(avg.c, avg.r)
    alpha = np.minimum(np.maximum(1.0 / K, c), alpha_max)
    beta = np.minimum(c, alpha_max) - alpha
    return PrimalAllocation(alpha, beta, c, avg.r.copy())


def _coupling_residual(avg: PrimalAllocation) -> float:
    """max(0, alpha+beta-c, c-r, -(alpha+beta), -alpha, beta), no region term."""
    s = avg.alpha + avg.beta
    parts = np.concatenate((s - avg.c, avg.c - avg.r, -s, -avg.alpha, avg.beta))
    return max(0.0, float(parts.max()))


def _objective_or_neginf(primal: PrimalAllocation, scn: Scenario) -> float:
    for i, spec in enumerate(scn.sources):
        if primal.alpha[i] <= 0:
            return -math.inf
        if isinstance(spec.U, LogRate) and primal.c[i] <= 0:
            return -math.inf
    return primal_objective(primal, scn)


def solve(scn: Scenario) -> SolveReport:
    """Run the dual iteration until the gap certificate holds.

    The run stops as soon as the relative gap
    ``(best_dual - best_obj) / (1 + |best_obj|)`` drops below ``tol_gap``,
    where ``best_obj`` is the best objective of a repaired (hence capped-
    feasible) window average.  By weak duality that point is then within
    ``tol_gap`` of the capped optimum.  Hitting ``max_iters`` first returns
    ``converged=False`` rather than raising.
    """
    n = scn.n
    state = DualState(np.full(n, float(scn.dual_init)), np.full(n, float(scn.dual_init)))
    sums = {k: np.zeros(n) for k in ("alpha", "beta", "c", "r")}
    count = 0
    next_restart = 2

    cols_t: list[int] = []
    cols_mu: list[np.ndarray] = []
    cols_lam: list[np.ndarray] = []
    cols_primal: dict[str, list[np.ndarray]] = {k: [] for k in sums}
    cols_pobj: list[float] = []
    cols_dobj: list[float] = []
    cols_viol: list[float] = []

    best_dual = math.inf
    best_point = None
    best_obj = -math.inf
    gap = math.inf
    converged = False
    t = 0

    for t in range(1, scn.max_iters + 1):
        gamma = scn.step.step_size(t)
        new_state, primal = dual_iterate(state, scn, gamma)
        g = lagrangian_value(primal, state, scn)
        best_dual = min(best_dual, g)

        if t == next_restart:
            for v in sums.values():
                v[:] = 0.0
            count = 0
            next_restart *= 2
        sums["alpha"] += primal.alpha
        sums["beta"] += primal.beta
        sums["c"] += primal.c
        sums["r"] += primal.r
        count += 1
        avg = PrimalAllocation(
            sums["alpha"] / count, sums["beta"] / count, sums["c"] / count, sums["r"] / count
        )
        repaired = _repair(avg, scn)
        repaired_obj = _objective_or_neginf(repaired, scn)
        if repaired_obj > best_obj:
            best_obj = repaired_obj
            best_point = repaired
        viol = _coupling_residual(avg)
        if math.isfinite(best_obj):
            gap = (best_dual - best_obj) / (1.0 + abs(best_obj))
        else:
            gap = math.inf

        cols_t.append(t)
        cols_mu.append(state.mu.copy())
        cols_lam.append(state.lam.copy())
        cols_primal["alpha"].append(primal.alpha)
        cols_primal["beta"].append(primal.beta)
        cols_primal["c"].append(primal.c)
        cols_primal["r"].append(primal.r)
        cols_pobj.append(best_obj)
        cols_dobj.append(g)
        cols_viol.append(viol)

        state = new_state
        if gap < scn.tol_gap:
            converged = True
            break

    trace = Trace(
        t=np.asarray(cols_t, dtype=int),
        mu=np.vstack(cols_mu),
        lam=np.vstack(cols_lam),
        alpha=np.vstack(cols_primal["alpha"]),
        beta=np.vstack(cols_primal["beta"]),
        c=np.vstack(cols_primal["c"]),
        r=np.vstack(cols_primal["r"]),
        primal_obj=np.asarray(cols_pobj),
        dual_obj=np.asarray(cols_dobj),
        max_violation=np.asarray(cols_viol),
    )
    return SolveReport(
        trace=trace,
        recovered=best_point,
        recovered_objective=best_obj,
        best_dual=best_dual,
        gap=gap,
        converged=converged,
        iterations=t,
    )
