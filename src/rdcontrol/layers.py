"""Closed-form solvers for the three decomposed control subproblems.

The compression layer picks (alpha, beta) against the rate-distortion
price mu, the congestion layer picks the compressed rate c against the
price difference lambda - mu, and the scheduling layer is handled by the
region's ``max_weight``.  The utility catalog is closed so every
subproblem has a checkable closed form, and ``SourceSpec`` admits no
other: a binary source's compression utility V is

* ``LogLinear(K)``:  V(alpha, beta) = ln(alpha) + K * beta

and its rate utility U is one of

* ``LogRate(w)``:  U(c) = w * ln(c)
* ``Zero``:  U(c) = 0, whose class constant ``w`` is 0

The layers read nothing of a utility but its parameter, K or w, and a
``Zero`` source is the ``LogRate`` formula at w = 0, where w * ln(c)
reads as 0 at every c.  Subproblems that are unbounded at degenerate
prices (mu = 0, or lambda <= mu) are regularized by :class:`SolverCaps`.

The scalar subproblems (``compression_subproblem``,
``congestion_subproblem``) are the per-source reference.  The solver's
kernel evaluates the same closed forms for every source at once, with
the same bits (see :mod:`rdcontrol.orchestrator`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

from .errors import DomainError, InfeasibleOffsetError
from .sources import binary_entropy, inverse_binary_entropy


@dataclass(frozen=True)
class LogLinear:
    """V(alpha, beta) = ln(alpha) + K*beta: proportional fairness in the
    entropy rate with a linear penalty on the distortion offset."""

    K: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.K) and self.K > 0):
            raise DomainError(f"LogLinear: K must be finite and > 0, got {self.K}", field="K")
        # a subnormal K passes K > 0, but 1/K overflows to inf
        if not math.isfinite(1.0 / float(self.K)):
            raise DomainError(f"LogLinear: 1/K must be finite, got K={self.K}", field="K")


@dataclass(frozen=True)
class LogRate:
    """U(c) = w * ln(c)."""

    w: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w) and self.w > 0):
            raise DomainError(f"LogRate: w must be finite and > 0, got {self.w}", field="w")


@dataclass(frozen=True)
class Zero:
    """U(c) = 0: the rate utility absorbed into V; w * ln(c) at w = 0."""

    w: ClassVar[float] = 0.0


UtilityU = Union[LogRate, Zero]


@dataclass(frozen=True)
class SolverCaps:
    """Box regularizers keeping price-driven subproblems bounded."""

    alpha_max: float = 1e6
    c_max: float = 1e6
    c_min: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("alpha_max", "c_max", "c_min"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (math.isfinite(self.alpha_max) and self.alpha_max > 0):
            raise DomainError(
                f"alpha_max must be finite and > 0, got {self.alpha_max}", field="alpha_max"
            )
        if not self.c_min >= 0:
            raise DomainError(f"c_min must be >= 0, got {self.c_min}", field="c_min")
        if not self.c_min < self.c_max:
            raise DomainError(
                f"need c_min < c_max, got [{self.c_min}, {self.c_max}]", field="c_max"
            )
        if not math.isfinite(self.c_max):
            raise DomainError(f"c_max must be finite, got {self.c_max}", field="c_max")


def compression_subproblem(V: LogLinear, mu: float, caps: SolverCaps) -> tuple[float, float]:
    """Maximize V(alpha, beta) - mu*(alpha + beta) for a binary source.

    Constraints: alpha >= 0, beta <= 0, alpha + beta >= 0, plus the
    alpha <= alpha_max regularizer.  Closed form:

    * mu = 0:      (alpha_max, 0) — the cap binds.
    * 0 < mu <= K: beta = 0, alpha = min(1/mu, alpha_max).
    * mu > K:      the beta coefficient turns negative, the constraint
      alpha + beta >= 0 activates, and the point is (1/K, -1/K) (capped).
    """
    if not mu >= 0:  # NaN fails too
        raise DomainError(f"compression_subproblem: mu must be >= 0, got {mu}")
    if mu == 0.0:
        return caps.alpha_max, 0.0
    if mu <= V.K:
        return min(1.0 / mu, caps.alpha_max), 0.0
    a = min(1.0 / V.K, caps.alpha_max)
    return a, -a


def congestion_subproblem(U: UtilityU, lam: float, mu: float, caps: SolverCaps) -> float:
    """Maximize w*ln(c) - (lambda - mu)*c over [c_min, c_max], with w = 0
    for ``Zero``: the clip takes w/(lam - mu) = 0 to c_min."""
    if not (lam >= 0 and mu >= 0):  # NaN fails too
        raise DomainError(f"congestion_subproblem: duals must be >= 0, got ({lam}, {mu})")
    if lam > mu:
        return min(max(U.w / (lam - mu), caps.c_min), caps.c_max)
    return caps.c_max


def compression_given_rate(K: float, c: float) -> float:
    """Optimal entropy rate for max ln(alpha) + K*(c - alpha) s.t. alpha >= c.

    The unconstrained maximizer is 1/K; the constraint alpha >= c (i.e.
    beta = c - alpha <= 0) clips it to c when the compressed rate is high.
    """
    LogLinear(K)  # the one rule for K: finite and > 0, with 1/K finite
    if not c > 0:
        raise DomainError(f"compression_given_rate: c must be > 0, got {c}")
    inv_k = 1.0 / K
    return inv_k if inv_k >= c else float(c)


def operating_point(p: float, K: float, c: float) -> tuple[float, float]:
    """Decode the compression rule into (symbol rate, Hamming distortion).

    At low compressed rates (c <= 1/K) the source runs at the free symbol
    rate 1/(K*H(p)) and accepts distortion with H(D) = H(p)*(1 - c*K);
    at high rates it codes losslessly at symbol rate c/H(p).
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"operating_point: p must be in (0,1), got {p}")
    LogLinear(K)  # the one rule for K
    if not c > 0:
        raise DomainError(f"operating_point: c must be > 0, got {c}")
    hp = binary_entropy(p)
    if 1.0 / K >= c:
        y = hp * (1.0 - c * K)
        if not 0.0 <= y <= 1.0:
            raise InfeasibleOffsetError(
                f"operating_point: H(D) = {y} falls outside [0,1]"
            )
        # K * H(p) can underflow to 0 for a tiny K and p
        s_eff, D = (1.0 / (K * hp) if K * hp > 0 else math.inf), inverse_binary_entropy(y)
    else:
        s_eff, D = c / hp, 0.0
    if not math.isfinite(s_eff):
        raise DomainError(
            f"operating_point: the symbol rate overflows at p={p}, K={K}, c={c}"
        )
    return s_eff, D
