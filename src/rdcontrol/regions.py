"""Convex link-rate regions with membership tests and max-weight optimization.

Three concrete families:

* :class:`BoxRegion` — decoupled per-link capacity caps.
* :class:`GaussianMacRegion` — the Gaussian multiple-access polymatroid:
  every user subset S must satisfy ``sum_{i in S} r_i <= C(sum_{i in S} P_i)``
  with ``C(P) = (1/2)*log2(1 + P/N)``, for any number of users.
* :class:`VertexRegion` — the convex hull of an explicit vertex list
  (time sharing between operating points).

``max_weight(lam)`` maximizes ``lam . r`` over the region with a
deterministic tie-break (descending weight, then ascending user index),
so repeated solves of the same instance are bit-identical.  It checks the
weights and returns a fresh array.  Every region answers that question
once, in its unchecked ``_schedule(lam)``: ``max_weight`` is
``_schedule`` of the checked weights, copied.  The dual solver binds
``_schedule`` itself, because its prices are nonnegative vectors of the
right length by construction.  Its Frank-Wolfe polish uses the same
``_schedule`` as its linear oracle: the region point that maximizes the
gradient given by the polished point's implied prices.  ``_schedule``
returns a read-only array
the region keeps, which a caller copies: a :class:`BoxRegion`'s caps
maximize every weight vector, so it returns its one caps array; a
:class:`GaussianMacRegion` remembers the greedy vertex of each serving
order, up to ``_VERTEX_MEMO`` orders at a time, for the life of the
region (the vertex of an order is a pure function of the frozen region,
so sharing it across solves changes no output); and a
:class:`VertexRegion` returns a row of its vertex matrix.
``contains`` and ``violation`` raise :class:`DomainError` on a non-finite
rate: a NaN coordinate would otherwise drop out of the max and hide a
real violation elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import DomainError


# serving orders a MAC region remembers.  A solve meets one order per
# iteration and per polish step at most: without the polish, 522 in 2,534
# iterations on a 6-user MAC and 12,000 in 12,000 on a 40-user one, where
# an order costs about 0.8 kB; with it, 12 and 51
_VERTEX_MEMO = 1024


def capacity_C(P: float, N: float) -> float:
    """AWGN capacity (1/2)*log2(1 + P/N) in bits per channel use."""
    if not N > 0:
        raise DomainError(f"capacity_C: noise must be > 0, got {N}")
    if P < 0:
        raise DomainError(f"capacity_C: power must be >= 0, got {P}")
    return 0.5 * math.log2(1.0 + P / N)


def _as_rate_vector(r: Sequence[float], dim: int, what: str) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if arr.shape != (dim,):
        raise DomainError(f"{what}: expected a vector of length {dim}, got shape {arr.shape}")
    return arr


def _finite_rates(r: Sequence[float], dim: int, what: str) -> np.ndarray:
    """The rate vector of a membership test; NaN and +-inf are refused."""
    arr = _as_rate_vector(r, dim, what)
    if not np.isfinite(arr).all():
        raise DomainError(f"{what}: rates must be finite, got {arr}")
    return arr


def _linprog(**lp):
    """``scipy.optimize.linprog`` with HiGHS, imported on first use so that
    importing the package loads no scipy."""
    from scipy.optimize import linprog

    return linprog(method="highs", **lp)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only: an array ``_schedule`` hands out and keeps."""
    arr.flags.writeable = False
    return arr


def _check_weights(lam: Sequence[float], dim: int) -> np.ndarray:
    """The weight rule of ``max_weight``.  A NaN weight compares false with
    every weight, so the greedy would sort it anywhere and the vertex scan
    would warn and pick row 0."""
    arr = _as_rate_vector(lam, dim, "max_weight")
    if not (np.isfinite(arr).all() and (arr >= 0).all()):
        raise DomainError(f"max_weight: weights must be finite and nonnegative, got {arr}")
    return arr


@dataclass(frozen=True)
class BoxRegion:
    """Independent links: feasible iff 0 <= r_i <= caps_i for all i."""

    caps: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "caps", tuple(float(c) for c in self.caps))
        if len(self.caps) == 0:
            raise DomainError("BoxRegion needs at least one link", field="caps")
        for i, c in enumerate(self.caps):
            if not (math.isfinite(c) and c >= 0):
                msg = f"BoxRegion caps must be finite and >= 0, got {self.caps}"
                raise DomainError(msg, field=f"caps[{i}]")

    @property
    def dim(self) -> int:
        return len(self.caps)

    def contains(self, r: Sequence[float], tol: float = 1e-9) -> bool:
        return self.violation(r) <= tol

    def violation(self, r: Sequence[float]) -> float:
        """Largest additive constraint violation (0 when feasible)."""
        arr = _finite_rates(r, self.dim, "violation")
        return float(max(0.0, np.max(arr - self._caps), np.max(-arr)))

    @cached_property
    def _caps(self) -> np.ndarray:
        return _read_only(np.array(self.caps))

    def _schedule(self, lam: np.ndarray) -> np.ndarray:
        # every cap is a maximizer coordinate; zero weights tie-break to the cap
        return self._caps

    def max_weight(self, lam: Sequence[float]) -> np.ndarray:
        return self._schedule(_check_weights(lam, self.dim)).copy()


@dataclass(frozen=True)
class GaussianMacRegion:
    """Gaussian multiple-access capacity region (a polymatroid), any size.

    The rank C(P(S)) is concave in the modular power sum P(S), so a vertex,
    ``max_weight`` (Edmonds' greedy) and membership all read the capacities
    of the prefixes of one serving order.  Membership: C is the minimum of
    its tangents a*x + b, so max_S r(S) - C(P(S)) = max_a sum_i
    max(0, r_i - a*P_i) - b_a is attained by a prefix in r_i/P_i order.
    """

    powers: tuple[float, ...]
    noise: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "powers", tuple(float(p) for p in self.powers))
        if len(self.powers) == 0:
            raise DomainError("GaussianMacRegion needs at least one user", field="powers")
        for i, p in enumerate(self.powers):
            if not (math.isfinite(p) and p >= 0):
                msg = f"powers must be finite and >= 0, got {self.powers}"
                raise DomainError(msg, field=f"powers[{i}]")
        if not (math.isfinite(self.noise) and self.noise > 0):
            raise DomainError(f"noise must be finite and > 0, got {self.noise}", field="noise")

    @property
    def dim(self) -> int:
        return len(self.powers)

    def _prefix_capacities(self, order: Sequence[int]) -> list[float]:
        """C(P_o1 + ... + P_ok) for each prefix of ``order``, as :func:`capacity_C`."""
        out = []
        total = 0.0
        for i in order:
            total += self.powers[i]
            out.append(0.5 * math.log2(1.0 + total / self.noise))
        return out

    def _vertex(self, order: Sequence[int]) -> np.ndarray:
        r = [0.0] * self.dim
        prev = 0.0
        for i, cur in zip(order, self._prefix_capacities(order)):
            r[i] = cur - prev
            prev = cur
        return np.array(r)

    def contains(self, r: Sequence[float], tol: float = 1e-9) -> bool:
        return self.violation(r) <= tol

    def violation(self, r: Sequence[float]) -> float:
        """Largest additive violation over all subset constraints and r >= 0,
        read off the prefixes of the users in r_i/P_i order."""
        arr = _finite_rates(r, self.dim, "violation")
        P = np.asarray(self.powers)
        # P_i = 0 goes first if r_i > 0, else last; a subnormal P_i may give inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = np.where(P > 0, arr / P, np.where(arr > 0, np.inf, -np.inf))
        order = np.argsort(-ratio, kind="stable").tolist()
        excess = np.cumsum(arr[order]) - self._prefix_capacities(order)
        return float(max(0.0, np.max(-arr), np.max(excess)))

    def vertex(self, order: Sequence[int]) -> np.ndarray:
        """Greedy polymatroid vertex for a serving order.

        The first user in ``order`` gets its full single-user capacity, each
        later user the marginal capacity on top of those already served.
        """
        if sorted(order) != list(range(self.dim)):
            raise DomainError(f"vertex: order must permute 0..{self.dim - 1}, got {order}")
        return self._vertex(order)

    def _order(self, lam: np.ndarray) -> tuple[int, ...]:
        """The serving order of weights ``lam``: descending weight, ties to
        the lower index (the sort is stable even reversed)."""
        w = lam.tolist()
        return tuple(sorted(range(self.dim), key=w.__getitem__, reverse=True))

    @cached_property
    def _memo(self) -> dict[tuple[int, ...], np.ndarray]:
        return {}

    def _schedule(self, lam: np.ndarray) -> np.ndarray:
        """The greedy vertex of the serving order of ``lam``, remembered in
        ``_memo``.  The memo is emptied when it holds ``_VERTEX_MEMO``
        orders, so it keeps up with the orders of the later iterations."""
        order = self._order(lam)
        r = self._memo.get(order)
        if r is None:
            if len(self._memo) == _VERTEX_MEMO:
                self._memo.clear()
            # a permutation by construction, so no check
            r = self._memo[order] = _read_only(self._vertex(order))
        return r

    def max_weight(self, lam: Sequence[float]) -> np.ndarray:
        return self._schedule(_check_weights(lam, self.dim)).copy()


@dataclass(frozen=True)
class VertexRegion:
    """Convex hull of a finite set of nonnegative rate vectors (time sharing).

    ``violation`` (and ``contains``, which reads it) solves one small LP with
    scipy's HiGHS ``linprog``, imported on first use; ``max_weight`` needs no LP.
    """

    vertices: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        verts = tuple(tuple(float(x) for x in v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) == 0:
            raise DomainError("VertexRegion needs at least one vertex", field="vertices")
        for i, v in enumerate(verts):
            if len(v) == 0 or len(v) != len(verts[0]):
                msg = "VertexRegion vertices must share a positive dimension"
                raise DomainError(msg, field=f"vertices[{i}]")
            for j, x in enumerate(v):
                if not (math.isfinite(x) and x >= 0):
                    msg = "VertexRegion vertices must be finite and nonnegative"
                    raise DomainError(msg, field=f"vertices[{i}][{j}]")

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def contains(self, r: Sequence[float], tol: float = 1e-9) -> bool:
        return self.violation(r) <= tol

    def violation(self, r: Sequence[float]) -> float:
        """Smallest t with r within sup-norm t of the hull."""
        arr = _finite_rates(r, self.dim, "violation")
        V = self._V
        m = V.shape[0]
        # variables (theta_1..theta_m, t): minimize t
        A_ub = np.vstack(
            [
                np.hstack([V.T, -np.ones((self.dim, 1))]),
                np.hstack([-V.T, -np.ones((self.dim, 1))]),
            ]
        )
        b_ub = np.concatenate([arr, -arr])
        res = _linprog(
            c=np.concatenate([np.zeros(m), [1.0]]),
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=np.concatenate([np.ones((1, m)), [[0.0]]], axis=1),
            b_eq=np.array([1.0]),
            bounds=[(0, None)] * m + [(0, None)],
        )
        if res.status != 0:
            raise DomainError("violation: hull distance LP failed")
        return float(res.fun)

    @cached_property
    def _V(self) -> np.ndarray:
        return _read_only(np.array(self.vertices))

    def _schedule(self, lam: np.ndarray) -> np.ndarray:
        V = self._V
        return V[np.argmax(V @ lam)]  # first index on exact ties; a read-only view

    def max_weight(self, lam: Sequence[float]) -> np.ndarray:
        return self._schedule(_check_weights(lam, self.dim)).copy()


RateRegion = Union[BoxRegion, GaussianMacRegion, VertexRegion]
