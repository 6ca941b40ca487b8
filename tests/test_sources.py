import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from rdcontrol import (
    BinarySource,
    DomainError,
    InfeasibleOffsetError,
    alpha_beta,
    binary_entropy,
    distortion_from_beta,
    inverse_binary_entropy,
    rd_binary,
    source_entropy,
)

H_QUARTER = 0.8112781244591328  # -0.25*log2(0.25) - 0.75*log2(0.75)
HINV_HALF = 0.11002786443835788  # H(D) = 0.5 on the [0, 1/2] branch


# ---------------------------------------------------------------- entropy

def test_binary_entropy_known_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)


@pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
def test_binary_entropy_domain(p):
    with pytest.raises(DomainError):
        binary_entropy(p)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetry_and_bounds(p):
    h = binary_entropy(p)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6), st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_binary_entropy_concavity(x, y):
    mid = binary_entropy((x + y) / 2.0)
    assert mid >= (binary_entropy(x) + binary_entropy(y)) / 2.0 - 1e-12


def test_inverse_binary_entropy_endpoints():
    assert inverse_binary_entropy(1.0) == 0.5
    assert inverse_binary_entropy(0.0) == 0.0
    assert inverse_binary_entropy(H_QUARTER) == pytest.approx(0.25, abs=1e-10)


@pytest.mark.parametrize("y", [-1e-9, 1.0 + 1e-9])
def test_inverse_binary_entropy_domain(y):
    with pytest.raises(DomainError):
        inverse_binary_entropy(y)


def test_inverse_binary_entropy_is_scipy_bisect_bit_for_bit():
    from scipy.optimize import bisect

    from rdcontrol.sources import (
        _INV_ENTROPY_MAXITER,
        _INV_ENTROPY_RTOL,
        _INV_ENTROPY_XTOL,
    )

    # the named settings are those of the reference call; rtol is scipy's default
    assert (_INV_ENTROPY_XTOL, _INV_ENTROPY_MAXITER) == (1e-12, 200)
    assert _INV_ENTROPY_RTOL == 4 * np.finfo(float).eps
    rng = np.random.default_rng(20100801)
    draws = np.concatenate([rng.uniform(0.0, 1.0, 10_000), 10.0 ** rng.uniform(-323.0, 0.0, 10_000)])
    edges = [5e-324, 1e-300, 1e-16, 0.5, 1.0 - 1e-16]
    for y in [*draws.tolist(), *edges]:
        want = bisect(lambda d: binary_entropy(d) - y, 0.0, 0.5, xtol=1e-12, maxiter=200)
        assert inverse_binary_entropy(y) == want, y


def test_inverse_binary_entropy_out_of_steps_is_domain_error(monkeypatch):
    import rdcontrol.sources

    monkeypatch.setattr(rdcontrol.sources, "_INV_ENTROPY_MAXITER", 3)
    with pytest.raises(DomainError, match="no convergence"):
        inverse_binary_entropy(0.3)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_entropy_round_trip(y):
    d = inverse_binary_entropy(y)
    assert 0.0 <= d <= 0.5
    assert binary_entropy(d) == pytest.approx(y, abs=1e-10)


# ---------------------------------------------------- rate-distortion maps

def test_rd_binary_examples():
    src = BinarySource(100.0, 0.5)
    assert rd_binary(src, 0.0) == 100.0
    assert rd_binary(src, 0.5) == 0.0
    assert rd_binary(src, 0.25) == pytest.approx(18.872187554086718, abs=1e-9)


def test_rd_binary_clips_at_zero():
    # distortion beyond min(p, 1-p) would go negative without the clip
    src = BinarySource(10.0, 0.1)
    assert rd_binary(src, 0.4) == 0.0


def test_rd_binary_domain():
    src = BinarySource(1.0, 0.5)
    with pytest.raises(DomainError):
        rd_binary(src, 0.6)
    with pytest.raises(DomainError):
        rd_binary(src, -0.01)


@pytest.mark.parametrize(
    "src, ds",
    [
        (BinarySource(3.0, 0.3), np.linspace(0.0, 0.5, 101)),
        (BinarySource(2.0, 0.05), np.linspace(0.0, 0.5, 101)),  # clipped past D = 0.05
    ],
)
def test_rd_nonincreasing(src, ds):
    vals = [rd_binary(src, float(d)) for d in ds]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------- alpha/beta splitting

def test_alpha_beta_binary_examples():
    src = BinarySource(100.0, 0.5)
    assert alpha_beta(src, 0.0) == (100.0, -0.0)
    a, b = alpha_beta(src, 0.25)
    assert a == 100.0
    assert b == pytest.approx(-81.12781244591328, abs=1e-9)


@given(st.floats(min_value=1e-4, max_value=0.5))
def test_alpha_beta_consistency_binary(d):
    src = BinarySource(7.0, 0.5)  # H(p)=1 keeps the formula positive on (0, 1/2)
    a, b = alpha_beta(src, d)
    assert a + b == pytest.approx(rd_binary(src, d), abs=1e-12)


# ---------------------------------------------------- offset -> distortion

def test_distortion_from_beta_binary_examples():
    src = BinarySource(1.0, 0.5)
    assert distortion_from_beta(src, 0.0, 10.0) == 0.0
    assert distortion_from_beta(src, -1.0, 2.0) == pytest.approx(HINV_HALF, abs=1e-9)


def test_distortion_from_beta_binary_infeasible():
    with pytest.raises(InfeasibleOffsetError):
        distortion_from_beta(BinarySource(1.0, 0.5), -3.0, 2.0)


@given(st.floats(min_value=1e-4, max_value=0.5), st.floats(min_value=0.1, max_value=20.0))
def test_round_trip_binary(d, s):
    src = BinarySource(s, 0.37)
    _, b = alpha_beta(src, d)
    assert distortion_from_beta(src, b, s) == pytest.approx(d, abs=1e-9)


# ----------------------------------------------------------- model plumbing

def test_source_validation():
    with pytest.raises(DomainError):
        BinarySource(0.0, 0.5)
    with pytest.raises(DomainError):
        BinarySource(1.0, 0.0)


def test_source_entropy():
    assert source_entropy(BinarySource(100.0, 0.5)) == 100.0
    src = BinarySource(2.0, 0.25)
    assert source_entropy(src) == alpha_beta(src, 0.1)[0]
