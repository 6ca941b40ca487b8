"""Two-user binary-source distortion control over a Gaussian MAC.

Minimizing the entropy-weighted distortion penalty sum_i delta_i * H(D_i)
subject to the MAC capacity constraints is, after the change of variables
x_i = s_i * H(D_i), the linear program

    min  (delta_1/s_1) x_1 + (delta_2/s_2) x_2
    s.t. x_i >= s_i H(p_i) - C(P_i),
         x_1 + x_2 >= s_1 H(p_1) + s_2 H(p_2) - C(P_1 + P_2),
         0 <= x_i <= s_i.

:func:`solve_corner` evaluates the optimal vertex in closed form;
:func:`lp_oracle` independently enumerates every pairwise intersection of
the constraint lines and picks the feasible minimizer, so the two can be
cross-checked on random instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, InconsistencyError, InfeasibleError
from .regions import GaussianMacRegion, capacity_C
from .sources import BinarySource, binary_entropy, inverse_binary_entropy

_FEAS_TOL = 1e-9
_ROUND_TOL = 1e-13
_TIE_TOL = 1e-12
_MEMBERSHIP_TOL = 1e-12


@dataclass(frozen=True)
class MacScenario:
    """Two binary sources, their MAC powers/noise, and distortion weights."""

    sources: tuple[BinarySource, BinarySource]
    powers: tuple[float, float]
    noise: float
    deltas: tuple[float, float]
    # built once from powers and noise; its constructor validates both
    region: GaussianMacRegion = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.sources) != 2 or len(self.powers) != 2 or len(self.deltas) != 2:
            raise DomainError("MacScenario is a two-user construction")
        region = GaussianMacRegion(self.powers, self.noise)
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "powers", region.powers)
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        for i, d in enumerate(self.deltas):
            if not (math.isfinite(d) and d > 0):
                raise DomainError(
                    f"deltas[{i}] must be finite and > 0, got {d}", field=f"deltas[{i}]"
                )


@dataclass(frozen=True)
class CornerSolution:
    """Optimal corner of the distortion LP.

    ``case`` is "A" when lossless coding of both sources fits the channel
    (D = (0,0)) and "B" otherwise; ``x`` holds s_i * H(D_i) and
    ``objective`` the LP value sum_i (delta_i/s_i) * x_i.
    """

    case: str
    D: tuple[float, float]
    x: tuple[float, float]
    objective: float


def entropy_point(scn: MacScenario) -> tuple[float, float]:
    """The source entropy vector (s_1 H(p_1), s_2 H(p_2)) in bits/sec."""
    s1, s2 = scn.sources
    return s1.s * binary_entropy(s1.p), s2.s * binary_entropy(s2.p)


def _lp_data(scn: MacScenario):
    """(h1, h2, C1, C2, C12, s1, s2, w1, w2) for the distortion LP."""
    h1, h2 = entropy_point(scn)
    P1, P2 = scn.powers
    C1 = capacity_C(P1, scn.noise)
    C2 = capacity_C(P2, scn.noise)
    C12 = capacity_C(P1 + P2, scn.noise)
    s1 = scn.sources[0].s
    s2 = scn.sources[1].s
    return h1, h2, C1, C2, C12, s1, s2, scn.deltas[0] / s1, scn.deltas[1] / s2


def _lp_feasible(x1, x2, h1, h2, C1, C2, C12, s1, s2, tol=_FEAS_TOL) -> bool:
    return (
        x1 >= h1 - C1 - tol
        and x2 >= h2 - C2 - tol
        and x1 + x2 >= h1 + h2 - C12 - tol
        and -tol <= x1 <= s1 + tol
        and -tol <= x2 <= s2 + tol
    )


def solve_corner(scn: MacScenario) -> CornerSolution:
    """Closed-form optimum of the distortion LP.

    Case A: the entropy point fits the MAC region, so lossless coding is
    optimal.  Case B: the user with the larger per-entropy weight
    delta_i/s_i (ties to user 1) is pinned to its individual lower bound
    and the other user absorbs whatever the sum-capacity constraint still
    requires.  Whenever the preferred user's bound is active this is
    exactly the sum-capacity corner point of the region; when that bound
    clips at zero the residual sum requirement shrinks accordingly.
    """
    h1, h2, C1, C2, C12, s1, s2, w1, w2 = _lp_data(scn)
    if scn.region.contains([h1, h2], tol=_MEMBERSHIP_TOL):
        return CornerSolution("A", (0.0, 0.0), (0.0, 0.0), 0.0)
    S = h1 + h2 - C12
    if w1 >= w2:
        x1 = max(h1 - C1, 0.0)
        x2 = max(h2 - C2, S - x1, 0.0)
    else:
        x2 = max(h2 - C2, 0.0)
        x1 = max(h1 - C1, S - x2, 0.0)
    if not _lp_feasible(x1, x2, h1, h2, C1, C2, C12, s1, s2):
        raise InconsistencyError(
            f"corner point ({x1}, {x2}) violates the distortion LP constraints"
        )
    D1 = inverse_binary_entropy(min(x1 / s1, 1.0))
    D2 = inverse_binary_entropy(min(x2 / s2, 1.0))
    return CornerSolution("B", (D1, D2), (x1, x2), w1 * x1 + w2 * x2)


def lp_oracle(scn: MacScenario) -> tuple[float, float, float]:
    """Independent LP solve by exhaustive vertex enumeration.

    Intersects every nonparallel pair of the seven constraint lines (two
    individual bounds, the sum bound, and the four box edges), filters the
    feasible intersections, and returns the objective minimizer, breaking
    ties toward the lexicographically smallest (x1, x2).  The feasibility
    filter allows rounding error only: with the looser ``_FEAS_TOL`` a
    vertex just outside a near-degenerate constraint could beat the true
    optimum by up to (w1 + w2) * _FEAS_TOL.
    """
    h1, h2, C1, C2, C12, s1, s2, w1, w2 = _lp_data(scn)
    tol = _ROUND_TOL * (1.0 + s1 + s2 + C12)
    S = h1 + h2 - C12
    vertical = [h1 - C1, 0.0, s1]  # lines x1 = const
    horizontal = [h2 - C2, 0.0, s2]  # lines x2 = const
    candidates = [(v, h) for v in vertical for h in horizontal]
    candidates += [(v, S - v) for v in vertical]  # vertical x sum line
    candidates += [(S - h, h) for h in horizontal]  # horizontal x sum line

    best = None
    for x1, x2 in candidates:
        if not _lp_feasible(x1, x2, h1, h2, C1, C2, C12, s1, s2, tol):
            continue
        obj = w1 * x1 + w2 * x2
        if (
            best is None
            or obj < best[2] - _TIE_TOL
            or (abs(obj - best[2]) <= _TIE_TOL and (x1, x2) < (best[0], best[1]))
        ):
            best = (x1, x2, obj)
    if best is None:
        raise InfeasibleError("distortion LP has no feasible vertex")
    return best
