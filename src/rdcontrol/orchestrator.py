"""Dual subgradient coupling of the compression, congestion and scheduling layers.

The coupled utility maximization

    max  sum_i V_i(alpha_i, beta_i) + U_i(c_i)
    s.t. alpha_i + beta_i <= c_i,   alpha_i >= 0,  beta_i <= 0,
         alpha_i + beta_i >= 0,     c_i <= r_i,    r in region

is relaxed with prices mu (rate-distortion constraint) and lambda
(capacity constraint).  Each iteration solves the three per-layer
subproblems at the current prices (Jacobi style: all three see the same
pre-update duals), then takes a projected subgradient step on (mu, lambda).
The subproblems carry the :class:`SolverCaps` box, so every dual value
bounds the *capped* problem from above.

Every layer is a closed form applied to each source independently, so an
iteration is a handful of array operations.  :class:`SourceSpec` is the
one place that tests a utility's type; past it a source is its
parameters.  :func:`solve` compiles the scenario once into plain float
arrays -- K, 1/K, the rate weights w (``U.w``, 0 for ``Zero``), the
sources with w > 0, the caps -- and binds the region's ``_schedule``
(see :mod:`rdcontrol.regions`) and ``step.step_size``.  The
price step reads only alpha + beta, c and r, so the loop computes only
those, in two stages.  Per iteration it is a fixed run of eleven
in-place numpy calls on one preallocated (8, n) working array, each on
one row or on two adjacent rows: max(lam - mu, 0), the mask mu <= K,
then both layers as one stacked (2, n) pass -- (min(w/max(lam - mu, 0),
c_max), min(mask/mu, alpha_max)) -- whose second row is alpha + beta bit
for bit (+0.0 where mu > K), and c = max(first row, c_min); one copy of
the rows the run keeps into the current block; and the four calls of one
projected step on the stacked (mu, lam).  Nothing is allocated.  The
scheduled point is copied into the two r rows, a twelfth call, on
every region alike.  No price that reaches a layer is -0.0, so lam - mu
is never -0.0 and the congestion layer needs no ``+ 0.0``: ``DualState``
and ``Scenario.dual_init`` store +0.0 in place of -0.0, max(0, price +
step) of a price that is not -0.0 is never -0.0, and implied prices are
> 0.  The prices are nonnegative by projection, so ``_schedule`` skips
the weight check of ``max_weight``;
once per block one vectorized test refuses prices that a too-large step
overflowed to inf or NaN.  Once per block of up to 64 rows the solver
evaluates the window sums of r, the repair, the incumbent objectives and
the running best incumbent as row-wise array expressions.  Then it
stacks the (mu, lam, r) rows at the prices of each new incumbent (see
below) under the block's own rows and makes one call of the kernel's
``dual``, the one evaluation of the dual function g.  ``dual`` derives
alpha, beta and c from the prices with the kernel's ``primal``, the
layers' closed forms applied elementwise, so the bits are those of the
loop.  The first rows of its result are the block's dual values, the
rest the bounds at the implied prices.  The running best dual and the
gap follow, and the solver stops at the first row that meets the gap;
the block's later price steps are discarded.  The public
:func:`dual_objective`, :func:`primal_objective` and
:func:`lagrangian_value` call the same kernel methods on 1-D vectors, so
they give the same bits as the trace; :func:`dual_objective` and
:func:`dual_iterate` take r from the public, checked ``max_weight``, and
:class:`Trace` derives its columns with the same ``primal``.  Each
public function first checks that every vector it is given holds one
entry per source.  :class:`PrimalAllocation` and :class:`DualState` are
built only at the API boundary.  The scalar ``compression_subproblem``
and ``congestion_subproblem`` in :mod:`rdcontrol.layers` are the
per-source reference.

A primal point is recovered from the ergodic average of the scheduled
rates alone: saturate c at the averaged scheduled rate, c = min(avg_r,
c_max), then set (alpha, beta) by the closed-form compression rule
clipped to ``alpha_max``.  The repaired point has c <= r with r a convex
mix of region points, c <= c_max, alpha + beta = min(c, alpha_max) <= c
and alpha <= alpha_max; it counts as an incumbent only when also every
c_i >= c_min, the last constraint of the capped problem.  Under that
rule the capped objective is nondecreasing in every c_i (slope K + w/c
on the distortion branch, (1 + w)/c on the lossless one, w/c above
``alpha_max``, 0 for a ``Zero`` source), so the largest feasible c
given r is the best one, and the averages of the subproblem alpha, beta
and c are not needed.  An incumbent is feasible for the problem the
duals bound, so by weak duality the relative gap between the best dual
value and the best incumbent objective is a complete optimality
certificate, and it is the only stopping test.  The average window
restarts at power-of-two iteration counts, so at any time it spans at
least the most recent half of the run; a from-start average would carry
the early transient at O(1/t) and stall well above the gap tolerance.
A block never spans a restart.

Weak duality holds at any nonnegative prices, not only at those the loop
visits.  So at each row where the incumbent improves, the certificate
also takes the dual value at the prices that incumbent implies, its
marginal utilities (``_Kernel.implied_prices``), with r from the
region's ``_schedule`` at those prices.  Where a lam overflows to inf
the value is NaN, which the running minimum passes over.  At an optimal
incumbent these are KKT prices and the gap closes at once: a box stops
at iteration 1.  The best dual at a row is the running minimum of
the loop's dual values and these values up to that row, so it may come
from prices that are no trace row, and the stopping row does not depend
on the block size.  The loop's prices never see these values.

The trace records, per iteration, the raw subproblem primal, the dual
objective at the current prices and the best incumbent objective seen so
far.  It stores only what the prices do not fix: (mu, lam, r) and the
two objectives, 3n + 2 floats a row on every region.  A block holds no
more: (rows, 3, n) of (mu, lam, r), which the solver keeps as they are
until the run ends and then joins with one concatenation.  alpha, beta
and c are closed forms of the prices, so the certificate and
:class:`Trace` derive them with ``primal``, with the loop's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Union

import numpy as np

from .errors import DomainError, UnsupportedCombinationError
from .layers import LogLinear, LogRate, SolverCaps, UtilityU, Zero
from .regions import RateRegion
from .sources import BinarySource


@dataclass(frozen=True)
class _StepScale:
    """The scale gamma0 of a step rule, finite and > 0."""

    gamma0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma0) and self.gamma0 > 0):
            raise DomainError(
                f"{type(self).__name__} step: gamma0 must be finite and > 0, got {self.gamma0}",
                field="gamma0",
            )


class Constant(_StepScale):
    """Fixed step size gamma_t = gamma0."""

    def step_size(self, t: int) -> float:
        return self.gamma0


class Diminishing(_StepScale):
    """Diminishing step size gamma_t = gamma0 / sqrt(t), t >= 1."""

    def step_size(self, t: int) -> float:
        return self.gamma0 / math.sqrt(t)


StepRule = Union[Constant, Diminishing]

MAX_ITERS = 10**6
# max_iters * (6n + 2) trace floats at most: 800 MB of float64.  A trace
# and the solver's blocks store fewer (3n + 2 a row), but reading
# the derived columns builds the other 3n.  `rdcontrol solve` writes each
# of the 6n + 2 as a CSV cell, formatting one chunk of rows at a time, so
# the text is never held whole
MAX_TRACE_CELLS = 10**8


@dataclass(frozen=True)
class SourceSpec:
    """One source of a scenario: a binary source with a ``LogLinear``
    compression utility V and a ``LogRate`` or ``Zero`` rate utility U.

    These are the combinations the closed-form layers solve, and this
    constructor is the one place that says so: a field of any other type
    raises :class:`UnsupportedCombinationError`, whose message names it.
    """

    model: BinarySource
    V: LogLinear
    U: UtilityU = Zero()

    def __post_init__(self) -> None:
        for name, allowed in (("model", BinarySource), ("V", LogLinear), ("U", (LogRate, Zero))):
            value = getattr(self, name)
            if not isinstance(value, allowed):
                raise UnsupportedCombinationError(
                    f"SourceSpec.{name}: the dual solver has no closed form for "
                    f"{type(value).__name__}"
                )


@dataclass(frozen=True)
class Scenario:
    """Problem data plus solver options for one coupled control instance."""

    sources: tuple[SourceSpec, ...]
    region: RateRegion
    caps: SolverCaps = SolverCaps()
    step: StepRule = Diminishing(1.0)
    # None: 50,000, or fewer where the trace of n sources would pass MAX_TRACE_CELLS
    max_iters: int | None = None
    tol_gap: float = 1e-3
    dual_init: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        if len(self.sources) == 0:
            raise DomainError("Scenario needs at least one source", field="sources")
        if self.max_iters is None:
            default = min(50_000, MAX_TRACE_CELLS // (6 * len(self.sources) + 2))
            object.__setattr__(self, "max_iters", default)
        if self.region.dim != len(self.sources):
            raise DomainError(
                f"region dimension {self.region.dim} != number of sources {len(self.sources)}",
                field="region",
            )
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, int):
            raise DomainError(
                f"max_iters must be an integer, got {self.max_iters!r}", field="max_iters"
            )
        if not 1 <= self.max_iters <= MAX_ITERS:
            msg = f"max_iters must be in [1, {MAX_ITERS}], got {self.max_iters}"
            raise DomainError(msg, field="max_iters")
        cells = self.max_iters * (6 * len(self.sources) + 2)
        if cells > MAX_TRACE_CELLS:
            msg = (
                f"max_iters {self.max_iters} with {len(self.sources)} sources keeps "
                f"{cells} trace floats, cap is {MAX_TRACE_CELLS}"
            )
            raise DomainError(msg, field="max_iters")
        if not (math.isfinite(self.dual_init) and self.dual_init >= 0):
            raise DomainError(
                f"dual_init must be finite and >= 0, got {self.dual_init}", field="dual_init"
            )
        # -0.0 passes the check, and the compression layer reads 1/-0.0 as -inf
        object.__setattr__(self, "dual_init", self.dual_init + 0.0)
        if not (math.isfinite(self.tol_gap) and self.tol_gap > 0):
            raise DomainError(f"tol_gap must be finite and > 0, got {self.tol_gap}", field="tol_gap")

    @property
    def n(self) -> int:
        return len(self.sources)


@dataclass(frozen=True, eq=False)
class DualState:
    """Nonnegative prices: mu for rate-distortion slack, lam for capacity slack."""

    mu: np.ndarray
    lam: np.ndarray

    def __post_init__(self) -> None:
        # + 0.0 turns a -0.0 price into +0.0, which the layers read as 0
        mu = np.asarray(self.mu, dtype=float) + 0.0
        lam = np.asarray(self.lam, dtype=float) + 0.0
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)
        if mu.shape != lam.shape:
            raise DomainError(f"dual shapes differ: {mu.shape} vs {lam.shape}")
        if not (np.isfinite(mu).all() and np.isfinite(lam).all()):
            raise DomainError(f"dual variables must be finite, got mu={mu}, lam={lam}")
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

    Row k holds iteration ``t[k]``: the prices the subproblems saw, the
    raw subproblem primal, the best incumbent objective so far
    (``primal_obj``, -inf before the first) and the dual value
    (``dual_obj``).  The trace is as long as the run, never ``max_iters``.

    The fields are what is stored: ``mu``, ``lam`` and ``r`` are views of
    one (rows, 3, n) array, for every region.  The prices fix the rest of
    the subproblem primal: :meth:`primal` derives alpha, beta and c of any
    rows with the solve's ``_Kernel.primal`` -- the closed forms the loop
    runs, so the bits are the loop's.  ``alpha``, ``beta`` and ``c`` are
    read-only attributes that the first read of any of them derives
    together for the whole trace, and later reads return the same arrays.
    The kernel sits outside the fields, so the fields are all arrays.
    """

    t: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    r: np.ndarray
    primal_obj: np.ndarray
    dual_obj: np.ndarray

    # the compiled scenario the derived columns read; :func:`solve` binds it
    _kernel = None

    def __len__(self) -> int:
        return len(self.t)

    def primal(self, rows: slice = slice(None)) -> tuple[np.ndarray, ...]:
        """The subproblem (alpha, beta, c) of ``rows``, derived from their prices."""
        with np.errstate(**_QUIET):
            return self._kernel.primal(self.mu[rows], self.lam[rows])

    @cached_property
    def _primal(self) -> tuple[np.ndarray, ...]:
        return self.primal()

    @property
    def alpha(self) -> np.ndarray:
        return self._primal[0]

    @property
    def beta(self) -> np.ndarray:
        return self._primal[1]

    @property
    def c(self) -> np.ndarray:
        return self._primal[2]


@dataclass(eq=False)
class SolveReport:
    """Outcome of :func:`solve`.

    ``recovered`` is the incumbent: of the points repaired from the window
    average of r with every c_i >= c_min, the one with the best finite
    objective seen anywhere in the run.  It is feasible for the capped
    problem the duals bound, so ``gap``, the relative distance
    ``(best_dual - recovered_objective) / (1 + |recovered_objective|)``,
    is >= 0 up to rounding.  ``best_dual`` is the least dual value of the
    run: at the loop's prices (``trace.dual_obj``) or at the prices an
    incumbent implies, which are no trace row.  ``converged`` means ``gap
    < tol_gap``.  When no repaired point qualified (e.g. a ``LogRate``
    source on a zero-capacity link, or a link whose capacity is below
    c_min, where the capped problem is infeasible), ``recovered`` is None,
    ``recovered_objective`` is -inf, ``gap`` is inf and ``converged`` is
    False.  ``stop_reason`` says why the loop ended: ``"gap"`` (the
    certificate holds), ``"max_iters"`` (the budget ran out with an
    incumbent) or ``"no_incumbent"`` (it ran out with none).
    """

    trace: Trace
    recovered: PrimalAllocation | None
    recovered_objective: float
    best_dual: float
    gap: float
    converged: bool
    iterations: int
    stop_reason: str



# the branch np.where discards may divide by zero, 1/mu overflows to inf
# at subnormal mu (then capped), and log(0) is -inf
_QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}

# most iterations :func:`solve` runs before it certifies them together
_BLOCK = 64


class _Kernel:
    """A :class:`Scenario` compiled to float arrays over sources.

    :meth:`primal` is the one derivation of the subproblem primal from the
    prices, for the public functions, the certificate and the trace;
    :func:`solve`'s loop runs the same closed forms as one stacked in-place
    pass.  :meth:`dual` is the one evaluation of the dual function g, for
    :func:`dual_objective` and the certificate.  The layers, the objective,
    the Lagrangian, g and the repair act row-wise on (rows, n) arrays, so
    one call covers a block of iterates, and a call on 1-D vectors gives
    the bits of one such row.  Evaluate them under
    ``np.errstate(**_QUIET)``.
    """

    def __init__(self, scn: Scenario) -> None:
        sources = scn.sources
        self.K = np.array([spec.V.K for spec in sources])
        self.inv_K = 1.0 / self.K
        self.w = np.array([spec.U.w for spec in sources])
        rate = self.w > 0
        self.rate = slice(None) if rate.all() else np.flatnonzero(rate)
        self.w_rate = self.w[self.rate]
        self.alpha_max = scn.caps.alpha_max
        self.c_min = scn.caps.c_min
        self.c_max = scn.caps.c_max
        self.step_size = scn.step.step_size

    def primal(self, mu: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, ...]:
        """The compression and congestion layers at the prices: the
        subproblem (alpha, beta, c) for one row of prices or a (rows, n)
        block, with the bits of ``compression_subproblem`` and
        ``congestion_subproblem`` source by source.  alpha = min(1/min(mu,
        K), alpha_max), beta = -alpha where mu > K else 0, and c =
        clip(w/(lam - mu), c_min, c_max) where lam > mu else c_max.  The
        scheduled rate r is the region's ``max_weight(lam)``."""
        alpha = np.minimum(1.0 / np.minimum(mu, self.K), self.alpha_max)
        beta = np.where(mu <= self.K, 0.0, -alpha)
        # no price is -0.0, so the difference is floored at +0.0: where
        # lam <= mu the quotient is w/+0.0, inf or NaN for w = 0, and fmin
        # takes both to c_max
        diff = np.maximum(lam - mu, 0.0)
        return alpha, beta, np.maximum(np.fmin(self.w / diff, self.c_max), self.c_min)

    def dual(self, mu: np.ndarray, lam: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Per row, the dual value g(mu, lam): the Lagrangian at the
        layers' maximizers, with r the region's ``max_weight(lam)``."""
        return self.lagrangian(*self.primal(mu, lam), r, mu, lam)

    def objective(self, alpha: np.ndarray, beta: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Per row, sum ln(alpha) + K.beta + w.ln(c), the last over the
        sources with w > 0 (w.ln(c) reads as 0 where w = 0)."""
        obj = np.log(alpha).sum(axis=-1) + (self.K * beta).sum(axis=-1)
        return obj + (self.w_rate * np.log(c[..., self.rate])).sum(axis=-1)

    def lagrangian(
        self, alpha: np.ndarray, beta: np.ndarray, c: np.ndarray, r: np.ndarray,
        mu: np.ndarray, lam: np.ndarray,
    ) -> np.ndarray:
        """Per row, objective - mu.(alpha + beta - c) - lam.(c - r).
        The c terms are collected as (mu - lam).c, so they cancel exactly
        where the congestion layer puts c at c_max with lam = mu."""
        penalty = -mu * (alpha + beta) + (mu - lam) * c + lam * r
        return self.objective(alpha, beta, c) + penalty.sum(axis=-1)

    def implied_prices(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the prices a repaired point with compressed rate c
        implies, its marginal utilities: mu = K where c < min(1/K,
        alpha_max), else 1/min(c, alpha_max), and lam = mu + w/c, with lam
        = mu where w = 0.  At an optimal point these are KKT prices."""
        mu = np.where(
            c < np.minimum(self.inv_K, self.alpha_max), self.K, 1.0 / np.minimum(c, self.alpha_max)
        )
        lam = mu.copy()
        lam[..., self.rate] += self.w_rate / c[..., self.rate]
        return mu, lam

    def repair(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Saturate c at the scheduled rate, c = min(r, c_max), then
        (alpha, beta) by the compression rule under alpha_max: alpha =
        min(max(1/K, c), alpha_max), beta = min(c, alpha_max) - alpha."""
        c = np.minimum(r, self.c_max)
        alpha = np.minimum(np.maximum(self.inv_K, c), self.alpha_max)
        return alpha, np.minimum(c, self.alpha_max) - alpha, c


def _check_lengths(scn: Scenario, *args: PrimalAllocation | DualState) -> None:
    """Every vector of ``args`` holds one entry per source of ``scn``."""
    for arg in args:
        for f in fields(arg):
            shape = getattr(arg, f.name).shape
            if shape != (scn.n,):
                raise DomainError(
                    f"{type(arg).__name__}.{f.name} must have shape ({scn.n},), one entry "
                    f"per source of the scenario, got {shape}",
                    field=f.name,
                )


def _check_domain(primal: PrimalAllocation, kernel: _Kernel) -> None:
    """The objective's domain: alpha > 0, and c > 0 where w > 0."""
    alpha = primal.alpha
    if not np.all(alpha > 0):
        bad = alpha[~(alpha > 0)][0]
        raise DomainError(f"LogLinear undefined at alpha={bad} (needs alpha > 0)")
    c_rate = primal.c[kernel.rate]
    if not np.all(c_rate > 0):
        bad = c_rate[~(c_rate > 0)][0]
        raise DomainError(f"LogRate undefined at c={bad} (needs c > 0)")


def primal_objective(primal: PrimalAllocation, scn: Scenario) -> float:
    """sum_i V_i(alpha_i, beta_i) + U_i(c_i); DomainError where a utility
    is undefined (alpha <= 0, or c <= 0 where w > 0)."""
    _check_lengths(scn, primal)
    kernel = _Kernel(scn)
    _check_domain(primal, kernel)
    return float(kernel.objective(primal.alpha, primal.beta, primal.c))


def lagrangian_value(primal: PrimalAllocation, dual: DualState, scn: Scenario) -> float:
    """Objective minus price-weighted constraint residuals."""
    _check_lengths(scn, primal, dual)
    kernel = _Kernel(scn)
    _check_domain(primal, kernel)
    return float(
        kernel.lagrangian(primal.alpha, primal.beta, primal.c, primal.r, dual.mu, dual.lam)
    )


def dual_objective(dual: DualState, scn: Scenario) -> float:
    """g(mu, lambda): the Lagrangian maximized layer by layer at the prices."""
    _check_lengths(scn, dual)
    with np.errstate(**_QUIET):
        return float(_Kernel(scn).dual(dual.mu, dual.lam, scn.region.max_weight(dual.lam)))


def dual_iterate(
    state: DualState, scn: Scenario, gamma: float
) -> tuple[DualState, PrimalAllocation]:
    """One Jacobi iteration: solve the three subproblems at ``state``, then
    take a projected subgradient step on both price vectors."""
    if not gamma > 0:
        raise DomainError(f"dual_iterate: step must be > 0, got {gamma}")
    _check_lengths(scn, state)
    with np.errstate(**_QUIET):
        alpha, beta, c = _Kernel(scn).primal(state.mu, state.lam)
        r = scn.region.max_weight(state.lam)
        mu = np.maximum(0.0, state.mu + gamma * (alpha + beta - c))
        lam = np.maximum(0.0, state.lam + gamma * (c - r))
    return DualState(mu, lam), PrimalAllocation(alpha, beta, c, r)


def primal_violation(primal: PrimalAllocation, scn: Scenario) -> float:
    """Worst additive violation across all coupling and region constraints."""
    _check_lengths(scn, primal)
    a = primal.alpha
    b = primal.beta
    c = primal.c
    worst = max(
        float(np.max(a + b - c)),
        float(np.max(c - primal.r)),
        float(np.max(-(a + b))),
        float(np.max(-a)),
        float(np.max(b)),
        scn.region.violation(primal.r),
    )
    return max(0.0, worst)


def solve(scn: Scenario) -> SolveReport:
    """Run the dual iteration until the gap certificate holds.

    The scenario is compiled once into arrays (see the module docstring).
    Iterations run in blocks of at most ``_BLOCK`` that never span a
    window restart.  Inside a block each iteration only evaluates what the
    price step reads (alpha + beta, c and r), records (mu, lam, r) and
    takes the step.  Then the window averages of r, their repaired points
    and objectives are evaluated for the whole block as row-wise array
    expressions, and one ``_Kernel.dual`` call gives the dual values at
    the block's prices and at the prices each new incumbent implies.  The
    relative gap ``(best_dual - best_obj) / (1 + |best_obj|)`` follows
    row by row.  ``best_obj`` is the best objective of an incumbent: the
    point repaired from the window average of r, when every c_i >= c_min,
    hence feasible for the capped problem; ``best_dual`` is the least of
    those dual values so far.  The run stops at the first iteration whose
    gap is below ``tol_gap``, and the trace and report end there; the
    block's later price steps are discarded.  By weak duality that point
    is within ``tol_gap`` of the capped optimum.  Hitting ``max_iters``
    first returns ``converged=False`` rather than raising.
    """
    kernel = _Kernel(scn)
    K, step_size = kernel.K, kernel.step_size
    # 0-d operands: a Python float costs every ufunc call a scalar conversion
    zero, c_min = np.array(0.0), np.array(kernel.c_min)
    schedule = scn.region._schedule
    n, max_iters, tol_gap = scn.n, scn.max_iters, scn.tol_gap
    # the working rows (dpos, mu, lam, r, q, s, c, r): dpos = max(lam - mu, 0),
    # q = min(w/dpos, c_max) and s = alpha + beta.  r is held twice: beside
    # the prices, so the rows a block keeps are adjacent, and after c, where
    # the step reads it.  Every two-row operand below is two adjacent rows,
    # which numpy runs as one flat loop.
    x = np.empty((8, n))
    dpos, mu, lam, _, q, s, c, _ = x
    den, prices, q_s, s_c, c_r = x[0:2], x[1:3], x[4:6], x[5:7], x[6:8]
    kept, both_r = x[1:4], x[3::4]  # each iteration keeps (mu, lam, r)
    prices[:] = float(scn.dual_init)
    # both layers in one stacked pass: (q, s) = fmin((w, mask)/(dpos, mu),
    # (c_max, alpha_max)), then c = max(q, c_min).  The mask mu <= K makes
    # s = min(1/mu, alpha_max) where mu <= K and +0.0 beyond, the bits of
    # alpha + beta.
    num = np.vstack((kernel.w, np.empty(n)))
    mask = num[1]
    hi = np.vstack((np.full(n, kernel.c_max), np.full(n, kernel.alpha_max)))
    diff = np.empty(n)
    # quot: the quotients; g: the subgradient (s - c, c - r), then the
    # unprojected prices; h: the scaled step.  No call writes over its own
    # input, which numpy runs slower on one-element arrays.
    quot, g, h = np.empty((3, 2, n))
    sum_r = np.zeros(n)  # window sum of the scheduled rates
    count = 0
    next_restart = 2

    # per block, the kept rows with their primal and dual objectives
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    best_dual = math.inf
    best_point = None
    best_obj = -math.inf
    gap = math.inf
    stop_reason = "max_iters"
    t = 0

    with np.errstate(**_QUIET):
        while t < max_iters:
            if t + 1 == next_restart:
                sum_r = np.zeros(n)
                count = 0
                next_restart *= 2
            m = min(_BLOCK, next_restart - 1 - t, max_iters - t)
            blk = np.empty((m, 3, n))
            for j in range(m):
                np.subtract(lam, mu, out=diff)
                np.maximum(diff, zero, out=dpos)
                np.less_equal(mu, K, out=mask)
                np.divide(num, den, out=quot)
                np.fmin(quot, hi, out=q_s)
                np.maximum(q, c_min, out=c)
                both_r[:] = schedule(lam)
                blk[j] = kept
                np.subtract(s_c, c_r, out=g)
                np.multiply(g, step_size(t + j + 1), out=h)
                np.add(prices, h, out=g)
                np.maximum(zero, g, out=prices)

            # the prices are nonnegative by projection, but a step too large
            # for the scale of the problem overflows them
            finite = np.isfinite(blk[:, :2])
            if not finite.all():
                bad = t + int(np.argmin(finite.all(axis=(1, 2)))) + 1
                raise DomainError(
                    f"solve: the prices of iteration {bad} are not finite; "
                    f"the step (gamma0 = {scn.step.gamma0}) is too large",
                    field="gamma0",
                )
            # accumulate adds row by row, the same sums as a running +=
            sums = np.add.accumulate(np.vstack((sum_r, blk[:, 2])))[1:]
            avg_r = sums / np.arange(count + 1, count + m + 1)[:, None]
            point = kernel.repair(avg_r)
            # only c >= c_min makes a point of the capped problem
            feasible = point[2].min(axis=-1) >= kernel.c_min
            obj = np.where(feasible, kernel.objective(*point), -math.inf)
            # running best incumbent and dual, carried in from earlier blocks
            prev_obj = np.fmax.accumulate(np.concatenate(([best_obj], obj)))
            run_obj = prev_obj[1:]
            better = np.flatnonzero(run_obj > prev_obj[:-1])
            # the (mu, lam, r) rows at the prices each new incumbent implies,
            # stacked under the block's own: one pass evaluates g on both
            implied = np.empty((better.size, 3, n))
            implied[:, 0], implied[:, 1] = kernel.implied_prices(point[2][better])
            for row in implied:
                row[2] = schedule(row[1])
            values = kernel.dual(*np.concatenate((blk, implied)).transpose(1, 0, 2))
            dual = values[:m]
            # each new incumbent's row also takes the value at its implied
            # prices.  Where lam overflows to inf, that value is NaN (inf * 0
            # or inf - inf in the price terms), and fmin passes over it.
            bounds = dual.copy()
            bounds[better] = np.fmin(dual[better], values[m:])
            run_dual = np.fmin.accumulate(np.concatenate(([best_dual], bounds)))[1:]
            gaps = np.where(
                run_obj > -math.inf, (run_dual - run_obj) / (1.0 + np.abs(run_obj)), math.inf
            )

            hits = np.flatnonzero(gaps < tol_gap)
            k = int(hits[0]) + 1 if hits.size else m  # rows kept
            better = better[better < k]
            if better.size:
                j = better[-1]
                best_point = (point[0][j], point[1][j], point[2][j], avg_r[j])
            best_dual, best_obj = float(run_dual[k - 1]), float(run_obj[k - 1])
            gap = float(gaps[k - 1])
            sum_r, count = sums[-1], count + m
            blocks.append((blk[:k], run_obj[:k], dual[:k]))
            t += k
            if hits.size:
                stop_reason = "gap"
                break

    kept_rows, primal_obj, dual_obj = zip(*blocks)
    mu_t, lam_t, r_t = np.concatenate(kept_rows).transpose(1, 0, 2)
    trace = Trace(
        t=np.arange(1, t + 1),
        mu=mu_t,
        lam=lam_t,
        r=r_t,
        primal_obj=np.concatenate(primal_obj),
        dual_obj=np.concatenate(dual_obj),
    )
    trace._kernel = kernel
    if best_point is None:
        stop_reason = "no_incumbent"
    return SolveReport(
        trace=trace,
        recovered=None if best_point is None else PrimalAllocation(*best_point),
        recovered_objective=best_obj,
        best_dual=best_dual,
        gap=gap,
        converged=stop_reason == "gap",
        iterations=t,
        stop_reason=stop_reason,
    )
