import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pulsefront.errors import ConfigurationError
from pulsefront.model import (
    BevertonHoltGrowth,
    IdentityImpulse,
    InitialData,
    LinearGrowth,
    LinearImpulse,
    ModelParams,
    SaturatingImpulse,
    density_bounds,
    validate_assumptions,
)
from pulsefront.solver import SolverConfig


def test_growth_evals():
    bh = BevertonHoltGrowth(m=1.0, a=10.0)
    assert bh(0.0) == 0.0
    assert bh.slope_at_zero == pytest.approx(0.1)
    assert LinearGrowth(p=0.05)(2.0) == pytest.approx(0.1)


def test_impulse_evals():
    assert SaturatingImpulse(c=0.5, b=10.0).slope_at_zero == pytest.approx(0.05)
    assert IdentityImpulse()(3.7) == 3.7
    assert LinearImpulse(rho=0.5)(2.0) == pytest.approx(1.0)


def test_variant_invariants_enforced():
    with pytest.raises(ConfigurationError):
        LinearGrowth(p=0.0)
    with pytest.raises(ConfigurationError):
        LinearImpulse(rho=1.5)
    with pytest.raises(ConfigurationError):
        SaturatingImpulse(c=10.0, b=0.5)
    # H = m/a^2 and c/b^2 must be finite floats, also where a^2 and b^2 underflow to 0
    with pytest.raises(ConfigurationError, match="m/a"):
        BevertonHoltGrowth(m=1.0, a=1e-170)
    with pytest.raises(ConfigurationError, match="c/b"):
        SaturatingImpulse(c=5e-311, b=1e-310)
    # f'(0) = m/a and G'(0) = c/b must not round to 0: the eigenvalue routines need them positive
    with pytest.raises(ConfigurationError, match="m/a"):
        BevertonHoltGrowth(m=5e-324, a=2.0)
    with pytest.raises(ConfigurationError, match="c/b"):
        SaturatingImpulse(c=5e-324, b=2.0)
    with pytest.raises(ConfigurationError, match="finite"):
        LinearGrowth(p=np.inf)
    assert BevertonHoltGrowth(m=1e-300, a=1e-163).lower_bound_constants()[0] == pytest.approx(1e26)
    assert SaturatingImpulse(c=5e-171, b=1e-170).lower_bound_constants()[0] == pytest.approx(5e169)


def test_params_structural_checks(params_benchmark):
    with pytest.raises(ConfigurationError, match="d1"):
        params_benchmark.with_(d1=-0.1)
    with pytest.raises(ConfigurationError, match="mu1"):
        params_benchmark.with_(mu1=0.0, mu2=0.0)
    # a12 and f'(0) are each a positive float, but their product underflows to 0
    small = params_benchmark.with_(a12=1e-300)
    small.with_(growth=LinearGrowth(p=1.0))
    params_benchmark.with_(growth=LinearGrowth(p=1e-30))
    with pytest.raises(ConfigurationError, match=r"a12\*f'\(0\) rounds to 0: a12=1e-300, f'\(0\)=1e-30"):
        small.with_(growth=LinearGrowth(p=1e-30))


MODEL_FIELDS = ("d1", "d2", "a11", "a12", "a22", "mu1", "mu2", "h0", "tau")
SOLVER_FIELDS = ("n", "steps_per_period")


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize(
    "field", [("model", f) for f in MODEL_FIELDS] + [("solver", f) for f in SOLVER_FIELDS]
)
def test_non_finite_fields_rejected(params_benchmark, field, bad):
    # through the library API, not only the config parser: d1 = inf used to
    # pass construction and fail later as a numerical error
    kind, name = field
    with pytest.raises(ConfigurationError, match=name):
        if kind == "model":
            params_benchmark.with_(**{name: bad})
        else:
            SolverConfig(**{name: bad})


# rounding slack: a few ulps relative to the magnitudes of the compared terms
TOL = 4 * np.finfo(float).eps
LOG10 = st.floats(-8.0, 14.0)
U_VALUES = LOG10.map(lambda e: 10.0**e)
GROWTHS = st.one_of(
    st.builds(lambda m, a: BevertonHoltGrowth(m=10.0**m, a=10.0**a), LOG10, LOG10),
    st.builds(lambda p: LinearGrowth(p=10.0**p), LOG10),
)
IMPULSES = st.one_of(
    st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
    .map(lambda e: (10.0 ** e[0], 10.0 ** e[1]))
    .filter(lambda cb: cb[0] < cb[1])
    .map(lambda cb: SaturatingImpulse(c=cb[0], b=cb[1])),
    st.builds(LinearImpulse, rho=st.floats(1e-8, 1.0)),
    st.just(IdentityImpulse()),
)


@given(GROWTHS, U_VALUES, U_VALUES, st.floats(0.01, 50.0), st.floats(0.01, 50.0))
@example(BevertonHoltGrowth(m=1e14, a=1e8), 1e-8, 1e14, 0.01, 50.0)
@example(BevertonHoltGrowth(m=2.0, a=3.0), 1.0, 2.0, 31.851714749199502, 31.851714749199505)
@settings(max_examples=200, deadline=None)
def test_growth_ratio_nonincreasing(f, u1, u2, w1, w2):
    # A2 holds by construction: f(u)/u never increases, for members across the
    # families' range
    lo, hi = sorted((u1, u2))
    assert f(lo) / lo >= f(hi) / hi * (1 - TOL)
    # strictly decreasing for the saturating family: every pair on [0.01, 50]
    # at least a relative 1e-9 apart (adjacent floats can round to equal
    # ratios), and pairs a factor 2 apart across the whole range
    bh = BevertonHoltGrowth(m=2.0, a=3.0)
    w_lo, w_hi = sorted((w1, w2))
    if w_hi >= w_lo * (1 + 1e-9):
        assert bh(w_lo) / w_lo > bh(w_hi) / w_hi
    if hi > 2 * lo:
        assert bh(lo) / lo > bh(hi) / hi


@given(IMPULSES, U_VALUES)
@settings(max_examples=200, deadline=None)
def test_impulse_bounded_by_identity(G, u):
    # A3 holds by construction: 0 < G(u) <= u, G non-decreasing, G(u)/u non-increasing
    assert 0.0 < G(u) <= u * (1 + TOL)
    assert G(u) <= G(2 * u) * (1 + TOL)
    assert G(u) / u >= G(2 * u) / (2 * u) * (1 - TOL)
    for strict in (LinearImpulse(rho=0.4), SaturatingImpulse(c=0.5, b=10.0)):
        assert strict(u) / u < 1.0
    s = SaturatingImpulse(c=0.5, b=10.0)
    assert s(u) / u > s(2 * u) / (2 * u)


@given(st.one_of(GROWTHS, IMPULSES))
@example(BevertonHoltGrowth(m=1e14, a=1e8))
@settings(max_examples=200, deadline=None)
def test_quadratic_lower_bound_on_grid(fn):
    # A4 holds by construction: rho(u) >= rho'(0)u - H u^kappa with the closed-form H
    us = np.logspace(-8.0, 14.0, 221)
    H, kappa = fn.lower_bound_constants()
    assert 0 < H < np.inf
    values, linear, quadratic = fn(us), fn.slope_at_zero * us, H * us**kappa
    assert np.all(values - (linear - quadratic) >= -TOL * (values + linear + quadratic))
    # no slack on the fixed members over [0.1, 100]
    grid = np.linspace(0.1, 100.0, 1000)
    for member in (BevertonHoltGrowth(m=1.0, a=10.0), SaturatingImpulse(c=0.5, b=10.0)):
        H, kappa = member.lower_bound_constants()
        assert np.all(member(grid) - (member.slope_at_zero * grid - H * grid**kappa) >= 0)


def test_validate_benchmark_passes(params_benchmark, params_disinfected, init_cos):
    report = validate_assumptions(params_disinfected, init_cos)
    assert report.all_pass
    assert not report.failures()
    labels = [c.label for c in report.checks]
    assert any("A1" in l for l in labels) and any("A4" in l for l in labels)
    # the impulse shape is a fact of its family, not of samples
    a3 = [c for c in report.checks if c.label.startswith("A3")][0]
    assert a3.passed and a3.detail == "0 < G(u) < u and G non-decreasing"


def test_validate_flags_bad_asymptotic_slope(init_cos):
    # slope 0.2 exceeds a11*a22/a12 = 0.06
    p = ModelParams(
        d1=0.1, d2=0.4, a11=0.3, a12=0.5, a22=0.1, mu1=1.0, mu2=1.0, h0=2.0, tau=5.0,
        growth=LinearGrowth(p=0.2), impulse=IdentityImpulse(),
    )
    report = validate_assumptions(p, init_cos)
    bad = [c for c in report.checks if not c.passed and not c.informational]
    assert len(bad) == 1 and "A2" in bad[0].label


def test_validate_identity_impulse_informational(params_benchmark, init_cos):
    report = validate_assumptions(params_benchmark, init_cos)
    a3 = [c for c in report.checks if c.label.startswith("A3")][0]
    assert not a3.passed and a3.informational
    assert "no-intervention" in a3.detail
    assert report.all_pass


def _ulp_below(b):
    """A saturating impulse with c one ulp below b."""
    return SaturatingImpulse(c=math.nextafter(b, 0.0), b=b)


@pytest.mark.parametrize(
    ("impulse", "flagged"),
    [
        pytest.param(IdentityImpulse(), True, id="identity"),
        pytest.param(LinearImpulse(rho=1.0), True, id="linear-1"),
        pytest.param(LinearImpulse(rho=math.nextafter(1.0, 0.0)), False, id="linear-below-1"),
        pytest.param(SaturatingImpulse(c=0.5, b=10.0), False, id="saturating"),
        # c one ulp below b: G'(0) = c/b still rounds below 1
        pytest.param(_ulp_below(10.0), False, id="saturating-ulp-b10"),
        pytest.param(_ulp_below(1.0), False, id="saturating-ulp-b1"),
        pytest.param(_ulp_below(math.nextafter(2.0, 0.0)), False, id="saturating-ulp-b-below-2"),
    ],
)
def test_validate_flags_only_the_identity_response(params_benchmark, init_cos, impulse, flagged):
    report = validate_assumptions(params_benchmark.with_(impulse=impulse), init_cos)
    a3 = [c for c in report.checks if c.label.startswith("A3")][0]
    assert a3.passed is not flagged and a3.informational is flagged
    assert report.all_pass


def test_validate_is_pure(params_disinfected, init_cos):
    r1 = validate_assumptions(params_disinfected, init_cos)
    r2 = validate_assumptions(params_disinfected, init_cos)
    assert r1 == r2


def test_initial_data_families():
    init = InitialData.cos_quarter(2.0, 0.3, 0.1)
    u, v = init.sample(np.array([-2.0, 0.0, 2.0]))
    assert u[0] == pytest.approx(0.0, abs=1e-15) and u[1] == pytest.approx(0.3)
    assert v[1] == pytest.approx(0.1)

    xs = np.linspace(-2, 2, 11)
    tab = InitialData.from_table(xs, 0.3 * np.cos(np.pi * xs / 4), 0.1 * np.cos(np.pi * xs / 4))
    ut, _ = tab.sample(np.array([0.0]))
    assert ut[0] == pytest.approx(0.3)

    scaled = init.scaled(1.5, 1.5)
    us, vs = scaled.sample(np.array([0.0]))
    assert us[0] == pytest.approx(0.45) and vs[0] == pytest.approx(0.15)


@pytest.mark.parametrize("amps", [(np.nan, 0.1), (0.3, np.inf), (0.0, 0.1), (0.3, -1.0)])
def test_cos_quarter_rejects_bad_amplitudes(amps):
    # amplitudes that are not finite and positive are refused at construction
    with pytest.raises(ConfigurationError, match="finite and positive"):
        InitialData.cos_quarter(2.0, *amps)


@pytest.mark.parametrize("column", ["x", "u", "v"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_table_rejects_nonfinite(column, bad):
    # a trailing inf keeps x increasing and NaN fails no ordering check, so
    # only an explicit finiteness check catches these
    table = {"x": np.linspace(-2.0, 2.0, 5), "u": np.full(5, 0.1), "v": np.full(5, 0.1)}
    table[column][-1] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        InitialData.from_table(table["x"], table["u"], table["v"])


def test_density_bounds_dominate(params_benchmark, init_cos):
    densities = np.array(init_cos.sample(np.linspace(-2.0, 2.0, 129)))
    c2, c3 = density_bounds(params_benchmark, densities)
    assert c2 > 20.0 / 3.0 and c3 > 4.0  # above the homogeneous fixed point
    assert c2 >= densities[0].max() and c3 >= densities[1].max()
    # balance margin: f(C2) < a11*a22/(a12) * C2 certainly
    f = params_benchmark.growth
    assert f(c2) < params_benchmark.a11 * params_benchmark.a22 / params_benchmark.a12 * c2


def test_density_bounds_need_slope_condition():
    p = ModelParams(
        d1=0.1, d2=0.4, a11=0.3, a12=0.5, a22=0.1, mu1=1.0, mu2=1.0, h0=2.0, tau=5.0,
        growth=LinearGrowth(p=0.2), impulse=IdentityImpulse(),
    )
    with pytest.raises(ConfigurationError):
        density_bounds(p)
