"""Rate-distortion source models.

A source is described by two bits/sec quantities: its *entropy rate*
``alpha`` (the lossless part) and a nonpositive *distortion offset*
``beta`` (the rate saved by tolerating distortion ``D``), so that
``alpha + beta`` is the minimum compressed rate achieving ``D``.

Two families are supported:

* binary memoryless sources under Hamming distortion, where
  ``alpha = s * H(p)`` and ``beta = -s * H(D)`` with ``H`` the binary
  entropy function, and
* zero-mean Gaussian sources under squared error, where
  ``alpha = (s/2) * log2(2*pi*e*sigma2)`` and
  ``beta = -(s/2) * log2(2*pi*e*D)``.  Both may be negative
  (differential entropies).

All rates are in bits (base-2 logs) except where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import DomainError, InfeasibleOffsetError

_TWO_PI_E = 2.0 * math.pi * math.e

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


@dataclass(frozen=True)
class GaussianSource:
    """Zero-mean Gaussian source emitting ``s`` symbols/sec, squared error."""

    s: float
    sigma2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s) and self.s > 0):
            raise DomainError(f"uncompressed rate s must be finite and > 0, got {self.s}", field="s")
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise DomainError(
                f"variance sigma2 must be finite and > 0, got {self.sigma2}", field="sigma2"
            )


SourceModel = Union[BinarySource, GaussianSource]


@dataclass(frozen=True)
class SignFlags:
    """Per-source sign constraints ``a*alpha >= 0`` and ``b*beta <= 0``.

    Binary sources constrain both signs (a=b=1); Gaussian sources leave
    both free (a=b=0) because differential entropies may be negative.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a not in (0, 1) or self.b not in (0, 1):
            raise DomainError(f"sign flags must be 0 or 1, got ({self.a}, {self.b})")


def sign_flags(src: SourceModel) -> SignFlags:
    """Sign flags implied by the source family."""
    if isinstance(src, BinarySource):
        return SignFlags(1, 1)
    if isinstance(src, GaussianSource):
        return SignFlags(0, 0)
    raise DomainError(f"unknown source model {type(src).__name__}")


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


def rd_gaussian(src: GaussianSource, D: float) -> float:
    """Rate-distortion function (s/2)*log2(sigma2/D) for squared error.

    Zero for D >= sigma2 (no rate needed beyond the source variance).
    """
    if not D > 0.0:
        raise DomainError(f"rd_gaussian: distortion must be > 0, got {D}")
    if D >= src.sigma2:
        return 0.0
    return 0.5 * src.s * math.log2(src.sigma2 / D)


def alpha_beta(src: SourceModel, D: float) -> tuple[float, float]:
    """Split the rate-distortion function at distortion D into (alpha, beta).

    ``alpha + beta`` equals the un-clipped rate-distortion value, so the sum
    may be negative where the clipped RD function is zero.
    """
    if isinstance(src, BinarySource):
        if not 0.0 <= D <= 0.5:
            raise DomainError(f"alpha_beta: Hamming distortion must be in [0,1/2], got {D}")
        return src.s * binary_entropy(src.p), -src.s * binary_entropy(D)
    if isinstance(src, GaussianSource):
        if not D > 0.0:
            raise DomainError(f"alpha_beta: squared-error distortion must be > 0, got {D}")
        a = 0.5 * src.s * math.log2(_TWO_PI_E * src.sigma2)
        b = -0.5 * src.s * math.log2(_TWO_PI_E * D)
        return a, b
    raise DomainError(f"unknown source model {type(src).__name__}")


def distortion_from_beta(src: SourceModel, beta: float, s_eff: float) -> float:
    """Recover the distortion encoded by offset ``beta`` at symbol rate ``s_eff``.

    Inverse of the beta half of :func:`alpha_beta`.  For binary sources the
    offset must satisfy ``0 <= -beta/s_eff <= 1``; Gaussian offsets are
    unrestricted.
    """
    if not s_eff > 0:
        raise DomainError(f"distortion_from_beta: s_eff must be > 0, got {s_eff}")
    if isinstance(src, BinarySource):
        y = -beta / s_eff
        if y > 1.0:
            raise InfeasibleOffsetError(
                f"offset beta={beta} at s_eff={s_eff} needs H(D)={y} > 1"
            )
        return inverse_binary_entropy(y)
    if isinstance(src, GaussianSource):
        return 2.0 ** (-2.0 * beta / s_eff) / _TWO_PI_E
    raise DomainError(f"unknown source model {type(src).__name__}")


def source_entropy(src: SourceModel) -> float:
    """The alpha half alone: s*H(p), or the Gaussian differential analogue."""
    if isinstance(src, BinarySource):
        return src.s * binary_entropy(src.p)
    if isinstance(src, GaussianSource):
        return 0.5 * src.s * math.log2(_TWO_PI_E * src.sigma2)
    raise DomainError(f"unknown source model {type(src).__name__}")
