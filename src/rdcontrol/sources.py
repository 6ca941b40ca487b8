"""Rate-distortion model of a binary memoryless source.

A Bernoulli(p) source emitting ``s`` symbols/sec under Hamming distortion
``D`` is described by two bits/sec quantities: its *entropy rate*
``alpha = s * H(p)`` (the lossless part) and a nonpositive *distortion
offset* ``beta = -s * H(D)`` (the rate saved by tolerating ``D``), with
``H`` the binary entropy function, so that ``alpha + beta`` is the
minimum compressed rate achieving ``D``.  Both signs are fixed
(alpha >= 0, beta <= 0), which the compression layer's closed form
relies on.

All rates are in bits (base-2 logs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InfeasibleOffsetError

# Bisection settings for the entropy inverse: the monotone branch
# [0, 1/2] makes plain bisection unconditionally convergent.  The
# relative tolerance is the smallest one scipy.optimize.bisect accepts.
_INV_ENTROPY_XTOL = 1e-12
_INV_ENTROPY_RTOL = 4.0 * 2.0**-52
_INV_ENTROPY_MAXITER = 200


@dataclass(frozen=True)
class BinarySource:
    """Bernoulli(p) source emitting ``s`` symbols/sec, Hamming distortion."""

    s: float
    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s) and self.s > 0):
            raise DomainError(f"uncompressed rate s must be finite and > 0, got {self.s}", field="s")
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"Bernoulli parameter p must be in (0,1), got {self.p}", field="p")


def binary_entropy(p: float) -> float:
    """Binary entropy H(p) = -p*log2(p) - (1-p)*log2(1-p), in bits/symbol.

    Uses the convention 0*log2(0) = 0, so H(0) = H(1) = 0.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binary_entropy: p must be in [0,1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def inverse_binary_entropy(y: float) -> float:
    """The unique D in [0, 1/2] with binary_entropy(D) = y.

    Bisection on the increasing branch, the recurrence of
    ``scipy.optimize.bisect`` (same iterates, same result): halve the step
    ``dm``, probe ``xm = xa + dm``, move ``xa`` to ``xm`` while
    H(xm) - y has the sign of H(xa) - y, and stop at an exact root or when
    ``|dm| < xtol + rtol*|xm|`` (xtol 1e-12, rtol 4 machine epsilons).
    """
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"inverse_binary_entropy: y must be in [0,1], got {y}")
    if y == 0.0:  # an endpoint is the root
        return 0.0
    if y == 1.0:
        return 0.5
    # f(d) = H(d) - y is -y < 0 at xa = 0 and at every later xa, so "f(xm)
    # has the sign of f(xa)" is f(xm) < 0; a product fm*fa would underflow
    # to -0.0 for y near 5e-324
    xa, dm = 0.0, 0.5
    for _ in range(_INV_ENTROPY_MAXITER):
        dm *= 0.5
        xm = xa + dm
        fm = binary_entropy(xm) - y
        if fm < 0.0:
            xa = xm
        if fm == 0.0 or dm < _INV_ENTROPY_XTOL + _INV_ENTROPY_RTOL * xm:
            return xm
    raise DomainError(
        f"inverse_binary_entropy: no convergence in {_INV_ENTROPY_MAXITER} steps at y={y}"
    )


def rd_binary(src: BinarySource, D: float) -> float:
    """Rate-distortion function s*(H(p) - H(D)) for Hamming distortion.

    Clipped at zero where the formula goes negative (D beyond min(p, 1-p)).
    """
    if not 0.0 <= D <= 0.5:
        raise DomainError(f"rd_binary: Hamming distortion must be in [0,1/2], got {D}")
    return max(0.0, src.s * (binary_entropy(src.p) - binary_entropy(D)))


def alpha_beta(src: BinarySource, D: float) -> tuple[float, float]:
    """Split the rate-distortion function at distortion D into (alpha, beta).

    ``alpha + beta`` equals the un-clipped rate-distortion value, so the sum
    may be negative where the clipped RD function is zero.
    """
    if not 0.0 <= D <= 0.5:
        raise DomainError(f"alpha_beta: Hamming distortion must be in [0,1/2], got {D}")
    return src.s * binary_entropy(src.p), -src.s * binary_entropy(D)


def distortion_from_beta(src: BinarySource, beta: float, s_eff: float) -> float:
    """Recover the distortion encoded by offset ``beta`` at symbol rate ``s_eff``.

    Inverse of the beta half of :func:`alpha_beta`; the offset must satisfy
    ``0 <= -beta/s_eff <= 1``.
    """
    if not s_eff > 0:
        raise DomainError(f"distortion_from_beta: s_eff must be > 0, got {s_eff}")
    y = -beta / s_eff
    if y > 1.0:
        raise InfeasibleOffsetError(
            f"offset beta={beta} at s_eff={s_eff} needs H(D)={y} > 1"
        )
    return inverse_binary_entropy(y)


def source_entropy(src: BinarySource) -> float:
    """The alpha half alone: s*H(p)."""
    return src.s * binary_entropy(src.p)
