import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdcontrol import (
    BinarySource,
    BoxRegion,
    DomainError,
    LogLinear,
    LogRate,
    Scenario,
    SolverCaps,
    SourceSpec,
    Zero,
    binary_entropy,
    compression_given_rate,
    compression_subproblem,
    congestion_subproblem,
    inverse_binary_entropy,
    operating_point,
)
from rdcontrol.orchestrator import _Kernel

CAPS = SolverCaps()


def lagrangian_term(K, mu, a, b):
    return math.log(a) + K * b - mu * (a + b)


# ----------------------------------------------------- compression layer

def test_compression_subproblem_examples():
    assert compression_subproblem(LogLinear(2.0), 1.0, CAPS) == (1.0, 0.0)
    assert compression_subproblem(LogLinear(1.0), 2.0, CAPS) == (1.0, -1.0)
    assert compression_subproblem(LogLinear(1.0), 0.0, SolverCaps(alpha_max=10.0)) == (
        10.0,
        0.0,
    )
    # an infinite price is the limit mu > K
    assert compression_subproblem(LogLinear(1.0), math.inf, CAPS) == (1.0, -1.0)


def test_compression_subproblem_rejects_bad_input():
    # NaN passes a test written mu < 0
    for mu in (-0.1, math.nan):
        with pytest.raises(DomainError):
            compression_subproblem(LogLinear(1.0), mu, CAPS)


def test_compression_subproblem_grid_oracle():
    # dense grid over the feasible triangle confirms the KKT cases
    caps = SolverCaps(alpha_max=5.0)
    for K, mu in [(2.0, 1.0), (1.0, 2.0), (0.7, 0.7), (3.0, 0.2)]:
        a_star, b_star = compression_subproblem(LogLinear(K), mu, caps)
        best = -math.inf
        for a in np.linspace(1e-4, caps.alpha_max, 801):
            for b in np.linspace(-a, 0.0, 81):
                best = max(best, lagrangian_term(K, mu, a, b))
        assert lagrangian_term(K, mu, a_star, b_star) >= best - 1e-6


@settings(max_examples=60)
@given(
    st.floats(min_value=0.05, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_compression_subproblem_beats_samples(K, mu, seed):
    a_star, b_star = compression_subproblem(LogLinear(K), mu, CAPS)
    rng = np.random.default_rng(seed)
    a = rng.uniform(1e-6, CAPS.alpha_max, 2000)
    b = rng.uniform(-1.0, 0.0, 2000) * a
    vals = np.log(a) + K * b - mu * (a + b)
    assert lagrangian_term(K, mu, a_star, b_star) >= float(vals.max()) - 1e-9


def test_compression_subproblem_million_samples():
    rng = np.random.default_rng(123)
    for K, mu in [(2.0, 0.5), (0.5, 2.0), (1.0, 1.0)]:
        a_star, b_star = compression_subproblem(LogLinear(K), mu, CAPS)
        a = rng.uniform(1e-6, CAPS.alpha_max, 1_000_000)
        b = rng.uniform(-1.0, 0.0, 1_000_000) * a
        vals = np.log(a) + K * b - mu * (a + b)
        assert lagrangian_term(K, mu, a_star, b_star) >= float(vals.max()) - 1e-9


# ------------------------------------------------------ congestion layer

def test_congestion_subproblem_examples():
    assert congestion_subproblem(LogRate(1.0), 2.0, 0.0, CAPS) == 0.5
    assert congestion_subproblem(LogRate(1.0), 1.0, 1.0, SolverCaps(c_max=100.0)) == 100.0
    assert congestion_subproblem(LogRate(2.0), 1.5, 0.5, CAPS) == 2.0


def test_congestion_subproblem_zero_utility():
    caps = SolverCaps(c_min=0.25, c_max=8.0)
    assert congestion_subproblem(Zero(), 2.0, 1.0, caps) == 0.25
    assert congestion_subproblem(Zero(), 1.0, 1.0, caps) == 8.0
    assert congestion_subproblem(Zero(), math.inf, 1.0, caps) == 0.25
    # Zero is the LogRate formula at w = 0, with w a class constant
    assert Zero().w == 0.0 and not dataclasses.fields(Zero)


def test_congestion_subproblem_domain():
    # NaN passes a test written lam < 0 or mu < 0
    for lam, mu in [(-1.0, 0.0), (math.nan, 0.0), (1.0, math.nan)]:
        with pytest.raises(DomainError):
            congestion_subproblem(LogRate(1.0), lam, mu, CAPS)
    assert congestion_subproblem(LogRate(1.0), math.inf, 0.0, CAPS) == CAPS.c_min


@settings(max_examples=60)
@given(
    st.floats(min_value=0.05, max_value=8.0),
    st.floats(min_value=0.0, max_value=6.0),
    st.floats(min_value=0.0, max_value=6.0),
)
def test_congestion_subproblem_grid(w, lam, mu):
    caps = SolverCaps(c_min=1e-3, c_max=50.0)
    c_star = congestion_subproblem(LogRate(w), lam, mu, caps)
    grid = np.linspace(caps.c_min, caps.c_max, 50_001)
    vals = w * np.log(grid) - (lam - mu) * grid
    best = float(vals.max())
    got = w * math.log(c_star) - (lam - mu) * c_star
    assert got >= best - 1e-6


# ------------------------------------------------- vector layer forms

def kernel_of(Ks, Us, caps):
    """The solver's kernel for sources with these K and U under ``caps``."""
    return _Kernel(Scenario(
        sources=tuple(SourceSpec(BinarySource(1.0, 0.5), LogLinear(K), U) for K, U in zip(Ks, Us)),
        region=BoxRegion((1.0,) * len(Ks)),
        caps=caps,
    ))


@st.composite
def layer_batches(draw):
    """Per-source (K, U, mu, lam) with the branch points drawn on purpose:
    mu = 0, mu == K, lam == mu, and caps tight enough to bind."""
    n = draw(st.integers(min_value=1, max_value=6))
    c_min = draw(st.sampled_from([0.0, 1e-9, 0.05, 0.5]))
    caps = SolverCaps(
        alpha_max=draw(st.sampled_from([0.3, 2.0, 1e6])),
        c_min=c_min,
        c_max=c_min + draw(st.sampled_from([0.25, 3.0, 1e6])),
    )
    price = st.floats(min_value=0.0, max_value=20.0)
    sources = []
    for _ in range(n):
        K = draw(st.floats(min_value=0.05, max_value=10.0))
        U = draw(st.one_of(st.just(Zero()), st.floats(0.01, 10.0).map(LogRate)))
        mu = draw(st.one_of(st.just(0.0), st.just(K), price))
        lam = draw(st.one_of(st.just(mu), st.just(0.0), price))
        sources.append((K, U, mu, lam))
    return caps, sources


@settings(max_examples=300, deadline=None)
@given(layer_batches())
def test_vector_layers_equal_scalar_reference(batch):
    # the kernel's layers, which solve and every public function evaluate
    caps, sources = batch
    kernel = kernel_of([s[0] for s in sources], [s[1] for s in sources], caps)
    mu = np.array([s[2] for s in sources])
    lam = np.array([s[3] for s in sources])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha, beta, c = kernel.primal(mu, lam)
    for i, (K_i, U_i, mu_i, lam_i) in enumerate(sources):
        ref = compression_subproblem(LogLinear(K_i), mu_i, caps)
        assert (alpha[i], beta[i]) == ref
        assert c[i] == congestion_subproblem(U_i, lam_i, mu_i, caps)
    # beta's zero is always +0.0 (the trace CSV would print -0.0 as -0)
    assert not np.signbit(beta[beta == 0.0]).any()


# ------------------------------------------------- rule given the rate

def test_compression_given_rate_branches():
    assert compression_given_rate(0.5, 1.0) == 2.0  # unconstrained optimum 1/K
    assert compression_given_rate(2.0, 1.0) == 1.0  # clipped to c
    assert compression_given_rate(1.0, 1.0) == 1.0  # boundary, branches agree


def test_compression_given_rate_domain():
    with pytest.raises(DomainError):
        compression_given_rate(0.0, 1.0)
    with pytest.raises(DomainError):
        compression_given_rate(1.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.1, max_value=10.0))
def test_compression_given_rate_matches_grid(K, c):
    a_star = compression_given_rate(K, c)
    grid = np.arange(c, c + 10.0 / K, 1e-4)
    vals = np.log(grid) + K * (c - grid)
    a_grid = float(grid[np.argmax(vals)])
    assert abs(a_star - a_grid) <= 1e-3
    got = math.log(a_star) + K * (c - a_star)
    assert got >= float(vals.max()) - 1e-9


# -------------------------------------------------------- operating point

def test_operating_point_examples():
    # lossless branch: alpha = c, so s_eff = c / H(p)
    assert operating_point(0.5, 2.0, 1.0) == (1.0, 0.0)
    s_eff, d = operating_point(0.5, 0.5, 1.0)
    assert s_eff == 2.0
    assert d == pytest.approx(0.11002786443835788, abs=1e-9)
    assert operating_point(0.5, 1.0, 1.0) == (1.0, 0.0)


def test_operating_point_of_an_array_is_that_of_each_rate():
    # an array of rates and each rate alone give, bit for bit, the rule
    # decoded one rate at a time with the scalar entropy inverse
    K, p = 1.7, 0.3
    hp = binary_entropy(p)
    rates = np.concatenate([np.linspace(0.01, 2.0, 301), [1.0 / K]]).reshape(2, 151)
    s_eff, D = operating_point(p, K, rates)
    alpha = compression_given_rate(K, rates)
    assert s_eff.shape == D.shape == alpha.shape == rates.shape
    for c, s, d, a in zip(rates.ravel().tolist(), s_eff.ravel().tolist(), D.ravel().tolist(), alpha.ravel().tolist()):
        if 1.0 / K >= c:
            want = (1.0 / (K * hp), inverse_binary_entropy(hp * (1.0 - c * K)))
        else:
            want = (c / hp, 0.0)
        assert (s, d) == want
        assert a == max(1.0 / K, c)
        one = operating_point(p, K, c)
        assert one == want and all(type(v) is float for v in one)
        assert compression_given_rate(K, c) == a


def test_operating_point_domain():
    with pytest.raises(DomainError):
        operating_point(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        operating_point(0.5, 1.0, 0.0)
    # K * H(p) underflows to 0, and c / H(p) overflows
    for p, K, c in [(1e-300, 1e-300, 1e-300), (1e-300, 1.0, 1e300)]:
        with pytest.raises(DomainError, match="symbol rate overflows"):
            operating_point(p, K, c)


@pytest.mark.parametrize("K, p", [(1.0, 0.5), (2.5, 0.3), (0.4, 0.12)])
def test_operating_point_distortion_monotone(K, p):
    cs = np.linspace(0.01, 2.5 / K, 200)
    ds = [operating_point(p, K, float(c))[1] for c in cs]
    assert all(a >= b - 1e-12 for a, b in zip(ds, ds[1:]))
    for c, d in zip(cs, ds):
        if c >= 1.0 / K:
            assert d == 0.0


@pytest.mark.parametrize("K, p", [(1.0, 0.5), (2.0, 0.25)])
def test_operating_point_entropy_is_affine_below_breakpoint(K, p):
    hp = binary_entropy(p)
    for c in np.linspace(0.05 / K, 0.95 / K, 50):
        _, d = operating_point(p, K, float(c))
        assert binary_entropy(d) == pytest.approx(hp * (1.0 - c * K), abs=1e-9)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LogLinear(math.inf),
        lambda: LogLinear(math.nan),
        lambda: LogRate(math.inf),
        lambda: LogRate(math.nan),
        lambda: SolverCaps(c_max=math.inf),
        lambda: SolverCaps(c_min=math.nan),
        lambda: SolverCaps(alpha_max=math.inf),
        lambda: BinarySource(math.inf, 0.5),
    ],
    ids=[
        "LogLinear-inf", "LogLinear-nan", "LogRate-inf", "LogRate-nan",
        "c_max-inf", "c_min-nan", "alpha_max-inf", "BinarySource-s-inf",
    ],
)
def test_constructor_rejects_non_finite_field(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("K", [5e-324, 5e-309, np.float64(5e-324)], ids=["min", "5e-309", "np"])
def test_log_linear_refuses_a_k_whose_inverse_overflows(K):
    # a subnormal K is finite and > 0, but the layers' 1/K would be inf;
    # the refusal names K and warns of nothing
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="1/K must be finite") as info:
            LogLinear(K)
    assert info.value.field == "K"
    assert math.isfinite(1.0 / LogLinear(5.6e-309).K)


def test_utility_validation():
    with pytest.raises(DomainError):
        LogLinear(0.0)
    with pytest.raises(DomainError):
        LogRate(-1.0)
    with pytest.raises(DomainError):
        SolverCaps(c_min=2.0, c_max=1.0)
