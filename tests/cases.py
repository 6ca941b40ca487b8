"""Fixed scenarios shared by the solver tests and the acceptance suite.

Solver caps and step scales are sized to each instance (caps a couple of
orders above the optimum, gamma0 tuned once); oracle grids end exactly at
the binding rate ceilings so boundary optima land on grid points.
"""

import random
import runpy
from pathlib import Path

import rdcontrol as rc
from rdcontrol import (
    BinarySource,
    BoxRegion,
    Diminishing,
    GaussianMacRegion,
    LogLinear,
    LogRate,
    Scenario,
    SolverCaps,
    SourceSpec,
)

CAPS_50 = SolverCaps(alpha_max=50.0, c_max=50.0, c_min=1e-9)
CAPS_20 = SolverCaps(alpha_max=20.0, c_max=20.0, c_min=1e-9)


def box_single_wide() -> Scenario:
    """One source, roomy cap: lossless branch, optimum at the link cap."""
    return Scenario(
        sources=(SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0)),),
        region=BoxRegion((10.0,)),
        caps=CAPS_50,
        step=Diminishing(0.3),
    )


def box_single_tight() -> Scenario:
    """One source, tight cap: the distortion branch (alpha = 1/K > c)."""
    return Scenario(
        sources=(SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0)),),
        region=BoxRegion((0.5,)),
        caps=CAPS_20,
        step=Diminishing(0.3),
    )


def box_two_mixed() -> Scenario:
    """Two sources on separate links, one per branch of the rule."""
    return Scenario(
        sources=(
            SourceSpec(BinarySource(2.0, 0.25), LogLinear(1.0), LogRate(1.0)),
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(2.0), LogRate(0.5)),
        ),
        region=BoxRegion((2.0, 0.6)),
        caps=CAPS_20,
        step=Diminishing(0.3),
    )


def mac_symmetric() -> Scenario:
    """Two identical sources sharing a symmetric MAC."""
    return Scenario(
        sources=(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0)),
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0)),
        ),
        region=GaussianMacRegion((3.0, 3.0), 1.0),
        caps=CAPS_20,
        step=Diminishing(0.3),
    )


def mac_asymmetric() -> Scenario:
    """Unequal powers, prices and rate weights on a MAC."""
    return Scenario(
        sources=(
            SourceSpec(BinarySource(1.0, 0.3), LogLinear(0.5), LogRate(2.0)),
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(2.0), LogRate(1.0)),
        ),
        region=GaussianMacRegion((5.0, 1.0), 0.5),
        caps=CAPS_20,
        step=Diminishing(0.3),
    )


def box16() -> Scenario:
    """16 links, so every row sum takes numpy's unrolled pairwise form (n >= 8)."""
    Ks = (1.0, 2.0, 3.0)
    return Scenario(
        sources=tuple(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(Ks[j % 3]), LogRate(0.5 + 0.09 * j))
            for j in range(16)
        ),
        region=BoxRegion(tuple((1.2 + 0.08 * ((5 * j) % 16)) / Ks[j % 3] for j in range(16))),
        caps=CAPS_20,
        step=Diminishing(0.3),
    )


def _benchgen() -> dict:
    """The globals of the benchmark's generator, ``perfbench/benchgen.py``."""
    return runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "benchgen.py"))


def workload_doc(workload: str, name: str) -> dict:
    """The document ``name`` of ``workload_inputs(workload, 1)`` of the
    benchmark's generator."""
    return _benchgen()["workload_inputs"](workload, 1)["docs"][name]


def box64_doc() -> dict:
    """The 64-link box document ``box_doc(random.Random("matrix:1"), 64)``
    of the benchmark's generator."""
    return _benchgen()["box_doc"](random.Random("matrix:1"), 64)


def matrix_mac_doc(n: int) -> dict:
    """The n-user MAC document ``mac_doc(random.Random("matrix:1"), n)`` of
    the benchmark's generator: powers 1..n, noise 1, tol_gap 1e-2.  The
    seed draws only each source's p, which the solver does not read."""
    return _benchgen()["mac_doc"](random.Random("matrix:1"), n)


# (name, scenario factory, oracle grid steps)
SOLVER_CASES = [
    ("box_single_wide", box_single_wide, 500),
    ("box_single_tight", box_single_tight, 500),
    ("box_two_mixed", box_two_mixed, 700),
    ("mac_symmetric", mac_symmetric, 1200),
    ("mac_asymmetric", mac_asymmetric, 1200),
]


def implied_prices(scn: Scenario, r) -> tuple[list[float], list[float]]:
    """The prices the repair of the scheduled rate r implies, source by
    source.  The repair puts c = min(r, c_max) and alpha + beta = min(c,
    alpha_max), so the repaired objective phi(r) = ln(alpha) + K.beta +
    w.ln(c) has the slope
      K + w/c      on the distortion branch, c <= min(1/K, alpha_max)
                   (alpha = min(1/K, alpha_max), beta = c - alpha),
      (1 + w)/c    on the lossless branch up to alpha_max (alpha = c),
      w/c          above alpha_max (alpha = alpha_max, beta = 0),
      0            from c_max on, where c no longer follows r.
    lam is that slope, the one at c = alpha_max taken from the left and
    the one at r = c_max from the right, and mu is its part from the
    distortion term ln(alpha) + K.beta: K, 1/c or 0 by branch, the last
    where alpha + beta <= c is slack."""
    caps = scn.caps
    mu, lam = [], []
    for spec, ri in zip(scn.sources, map(float, r)):
        K, w = spec.V.K, spec.U.w
        c = min(ri, caps.c_max)
        if c <= min(1.0 / K, caps.alpha_max):
            m = K
        elif c <= caps.alpha_max:
            m = 1.0 / c
        else:
            m = 0.0
        mu.append(m)
        if ri >= caps.c_max:
            lam.append(0.0)
        else:
            lam.append(m + w / c if w > 0 else m)
    return mu, lam


def oracle_objective(scn: Scenario, steps: int) -> float:
    result = rc.grid_search_num(scn, rc.default_grid(scn, steps=steps))
    assert result.found
    return result.objective
