"""Independent references and correctness checks for the benchmark.

Nothing here imports ``rdcontrol``: the optimum of every generated scenario
is computed from its JSON document alone, either in closed form (box) or
by a general-purpose ``scipy.optimize`` solve of the same concave program
with the constraints written out here (MAC subsets, vertex hull).

The program, per source i, with beta_i = c_i - alpha_i eliminated (the
utility is increasing in beta, so alpha + beta <= c binds):

    max  sum_i ln(alpha_i) + K_i (c_i - alpha_i) + w_i ln(c_i)
    s.t. alpha_i >= c_i            (beta_i <= 0)
         alpha_i <= alpha_max,  c_min <= c_i <= c_max
         c <= r,  r in region
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog, minimize

DEFAULT_CAPS = {"alpha_max": 1e6, "c_max": 1e6, "c_min": 1e-9}
DEFAULT_TOL_GAP = 1e-3
FEAS_TOL = 1e-9


class CheckFailed(Exception):
    """A program output disagreed with an independent computation."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check
        self.detail = detail


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def capacity(P: float, N: float) -> float:
    return 0.5 * math.log2(1.0 + P / N)


def _params(doc: dict):
    K = np.array([s["V"]["K"] for s in doc["sources"]], dtype=float)
    w = np.array([s.get("U", {}).get("w", 0.0) for s in doc["sources"]], dtype=float)
    caps = dict(DEFAULT_CAPS)
    caps.update(doc.get("solver", {}).get("caps", {}))
    return K, w, caps


def tol_gap(doc: dict) -> float:
    return float(doc.get("solver", {}).get("tol_gap", DEFAULT_TOL_GAP))


def objective(doc: dict, alpha, beta, c) -> float:
    """sum_i ln(alpha_i) + K_i beta_i + w_i ln(c_i)."""
    K, w, _ = _params(doc)
    alpha = np.asarray(alpha, dtype=float)
    c = np.asarray(c, dtype=float)
    return float(np.sum(np.log(alpha) + K * np.asarray(beta, dtype=float) + w * np.log(c)))


def box_optimum(doc: dict) -> float:
    """Closed form: each link separates; c* = cap and alpha* = max(1/K, cap).

    For c <= 1/K the best alpha is 1/K and the objective ln(1/K) + K c - 1
    + w ln c rises with c; above 1/K, alpha = c and (1 + w) ln c rises too,
    so the cap binds.  Needs 1/K and cap inside the solver caps.
    """
    K, w, caps = _params(doc)
    cap = np.asarray(doc["region"]["caps"], dtype=float)
    if np.any(cap < caps["c_min"]) or np.any(cap > caps["c_max"]) or np.any(
        np.maximum(1.0 / K, cap) > caps["alpha_max"]
    ):
        raise ValueError("box_optimum: a cap or 1/K lies outside the solver caps")
    alpha = np.maximum(1.0 / K, cap)
    return objective(doc, alpha, cap - alpha, cap)


def _mac_subsets(doc: dict):
    powers = doc["region"]["powers"]
    noise = doc["region"]["noise"]
    n = len(powers)
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            yield list(subset), capacity(sum(powers[i] for i in subset), noise)


def numeric_optimum(doc: dict) -> float:
    """SLSQP solve of the program above for MAC and vertex regions.

    Variables x = (alpha, c, theta); theta (time-sharing weights) exists
    for vertex regions only.  Every inequality is written as G x + h >= 0.
    """
    K, w, caps = _params(doc)
    n = len(K)
    region = doc["region"]
    rows = []
    h = []
    eqs = []
    if region["kind"] == "mac":
        m = 0
        for subset, cap in _mac_subsets(doc):
            row = np.zeros(2 * n)
            row[n + np.asarray(subset)] = -1.0
            rows.append(row)
            h.append(cap)
        c0 = 0.5 * min(h) / n
        x0 = np.full(2 * n, c0)
    elif region["kind"] == "vertices":
        V = np.asarray(region["vertices"], dtype=float)  # (m, n)
        m = V.shape[0]
        for i in range(n):  # c_i <= sum_j theta_j V[j, i]
            row = np.zeros(2 * n + m)
            row[n + i] = -1.0
            row[2 * n :] = V[:, i]
            rows.append(row)
            h.append(0.0)
        eq = np.zeros(2 * n + m)
        eq[2 * n :] = 1.0
        eqs.append({"type": "eq", "fun": lambda x: eq @ x - 1.0, "jac": lambda x: eq})
        theta0 = np.full(m, 1.0 / m)
        x0 = np.concatenate([np.full(2 * n, 0.5 * np.min(V.T @ theta0)), theta0])
    else:
        raise ValueError(f"numeric_optimum: no program for region kind {region['kind']!r}")
    width = 2 * n + m
    for i in range(n):  # beta_i = c_i - alpha_i <= 0
        row = np.zeros(width)
        row[i] = 1.0
        row[n + i] = -1.0
        rows.append(row)
        h.append(0.0)
    G = np.asarray(rows)
    h = np.asarray(h)
    x0[:n] = np.maximum(1.0 / K, x0[n : 2 * n])

    def f(x):
        a = x[:n]
        c = x[n : 2 * n]
        return -float(np.sum(np.log(a) + K * (c - a) + w * np.log(c)))

    def grad(x):
        g = np.zeros(width)
        g[:n] = K - 1.0 / x[:n]
        g[n : 2 * n] = -(K + w / x[n : 2 * n])
        return g

    lo = max(caps["c_min"], 1e-12)
    bounds = [(lo, caps["alpha_max"])] * n + [(lo, caps["c_max"])] * n + [(0.0, 1.0)] * m
    res = minimize(
        f,
        x0,
        jac=grad,
        bounds=bounds,
        constraints=[{"type": "ineq", "fun": lambda x: G @ x + h, "jac": lambda x: G}] + eqs,
        method="SLSQP",
        options={"ftol": 1e-12, "maxiter": 1000},
    )
    if not res.success:
        raise CheckFailed("reference_solve", f"SLSQP did not converge: {res.message}")
    if np.min(G @ res.x + h) < -1e-9:
        raise CheckFailed("reference_solve", "SLSQP point violates its constraints")
    return -float(res.fun)


def reference_optimum(doc: dict) -> float:
    if doc["region"]["kind"] == "box":
        return box_optimum(doc)
    return numeric_optimum(doc)


def region_violation(doc: dict, r) -> float:
    """Largest additive violation of r in the document's region."""
    r = np.asarray(r, dtype=float)
    region = doc["region"]
    worst = float(np.max(-r))
    if region["kind"] == "box":
        worst = max(worst, float(np.max(r - np.asarray(region["caps"], dtype=float))))
    elif region["kind"] == "mac":
        for subset, cap in _mac_subsets(doc):
            worst = max(worst, float(np.sum(r[subset])) - cap)
    elif region["kind"] == "vertices":
        V = np.asarray(region["vertices"], dtype=float)
        m = V.shape[0]
        # minimize t with |V^T theta - r|_inf <= t, theta in the simplex
        n = len(r)
        A_ub = np.vstack(
            [np.hstack([V.T, -np.ones((n, 1))]), np.hstack([-V.T, -np.ones((n, 1))])]
        )
        res = linprog(
            np.concatenate([np.zeros(m), [1.0]]),
            A_ub=A_ub,
            b_ub=np.concatenate([r, -r]),
            A_eq=np.concatenate([np.ones((1, m)), [[0.0]]], axis=1),
            b_eq=[1.0],
            bounds=[(0, None)] * (m + 1),
            method="highs",
        )
        if res.status != 0:
            raise CheckFailed("feasible", "hull-distance LP failed")
        worst = max(worst, float(res.fun))
    else:
        raise ValueError(f"unknown region kind {region['kind']!r}")
    return max(0.0, worst)


def check_solution(doc: dict, ref: float, alpha, beta, c, r, recovered_objective: float,
                   best_dual: float, dual_trace) -> None:
    """The properties every solve must have, converged or not; raises CheckFailed."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    c = np.asarray(c, dtype=float)
    r = np.asarray(r, dtype=float)
    scale = 1.0 + abs(ref)
    viol = max(
        float(np.max(alpha + beta - c)),
        float(np.max(c - r)),
        float(np.max(-alpha)),
        float(np.max(beta)),
        float(np.max(-(alpha + beta))),
        region_violation(doc, r),
    )
    if viol > FEAS_TOL * scale:
        raise CheckFailed("feasible", f"recovered point violates a constraint by {viol:.3e}")
    obj = objective(doc, alpha, beta, c)
    if abs(obj - recovered_objective) > 1e-9 * scale:
        raise CheckFailed(
            "objective_value", f"reported {recovered_objective!r}, point evaluates to {obj!r}"
        )
    eps = 1e-7 * scale
    if not best_dual >= ref - eps:
        raise CheckFailed("weak_duality", f"best_dual {best_dual!r} < reference {ref!r}")
    dual_min = float(np.min(dual_trace))
    if not dual_min >= ref - eps:
        raise CheckFailed("trace_duality", f"a trace dual value {dual_min!r} < reference {ref!r}")
    if obj > ref + eps:
        raise CheckFailed("optimality", f"objective {obj!r} beats the optimum {ref!r}")
    if (ref - obj) / scale > tol_gap(doc):
        raise CheckFailed(
            "optimality", f"objective {obj!r} is {(ref - obj) / scale:.3e} below optimum {ref!r}"
        )


def distortion_lp(doc: dict) -> float:
    """linprog of the two-user distortion LP stated in rdcontrol.mac."""
    s = [src["s"] for src in doc["sources"]]
    h = [src["s"] * binary_entropy(src["p"]) for src in doc["sources"]]
    delta = [src["V"]["delta"] for src in doc["sources"]]
    P = doc["region"]["powers"]
    N = doc["region"]["noise"]
    res = linprog(
        [delta[0] / s[0], delta[1] / s[1]],
        A_ub=[[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]],
        b_ub=[
            -(h[0] - capacity(P[0], N)),
            -(h[1] - capacity(P[1], N)),
            -(h[0] + h[1] - capacity(P[0] + P[1], N)),
        ],
        bounds=[(0.0, s[0]), (0.0, s[1])],
        method="highs",
    )
    if res.status != 0:
        raise CheckFailed("mac_objective", f"reference LP failed: {res.message}")
    return float(res.fun)


def check_fig1_rows(params: dict, rows) -> None:
    """H(D) = H(p)(1 - cK) for c <= 1/K, and D = 0 above the breakpoint.

    The CSV prints c to 12 significant digits, so the breakpoint row c = 1/K
    may read just above it; there both rules give H(D) = 0 within 1e-8.
    """
    K = params["K"]
    hp = binary_entropy(params["p"])
    if len(rows) < params["steps"]:
        raise CheckFailed("fig1_rows", f"{len(rows)} rows for {params['steps']} steps")
    for c, _alpha, D, _s in rows:
        if c * K <= 1.0 + 1e-9:
            want = hp * max(0.0, 1.0 - c * K)
            if abs(binary_entropy(D) - want) > 1e-8:
                raise CheckFailed("fig1_rows", f"c={c}: H(D)={binary_entropy(D)} != {want}")
        elif D != 0.0:
            raise CheckFailed("fig1_rows", f"c={c} > 1/K but D={D}")
