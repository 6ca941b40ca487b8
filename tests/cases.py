"""Fixed scenarios shared by the solver tests and the acceptance suite.

Solver caps and step scales are sized to each instance (caps a couple of
orders above the optimum, gamma0 tuned once); oracle grids end exactly at
the binding rate ceilings so boundary optima land on grid points.
"""

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


# (name, scenario factory, oracle grid steps)
SOLVER_CASES = [
    ("box_single_wide", box_single_wide, 500),
    ("box_single_tight", box_single_tight, 500),
    ("box_two_mixed", box_two_mixed, 700),
    ("mac_symmetric", mac_symmetric, 1200),
    ("mac_asymmetric", mac_asymmetric, 1200),
]


def oracle_objective(scn: Scenario, steps: int) -> float:
    result = rc.grid_search_num(scn, rc.default_grid(scn, steps=steps))
    assert result.found
    return result.objective
