import numpy as np
import pytest
from hypothesis import given, settings
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
    assert BevertonHoltGrowth(m=1e-300, a=1e-163).lower_bound_constants()[0] == pytest.approx(1e26)
    assert SaturatingImpulse(c=5e-171, b=1e-170).lower_bound_constants()[0] == pytest.approx(5e169)


def test_params_structural_checks(params_benchmark):
    with pytest.raises(ConfigurationError, match="d1"):
        params_benchmark.with_(d1=-0.1)
    with pytest.raises(ConfigurationError, match="mu1"):
        params_benchmark.with_(mu1=0.0, mu2=0.0)


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


@given(st.floats(0.01, 50.0), st.floats(0.01, 50.0))
@settings(max_examples=200, deadline=None)
def test_growth_ratio_nonincreasing(u1, u2):
    # f(u)/u never increases; strictly decreasing for the saturating family
    lo, hi = sorted((u1, u2))
    for f in (BevertonHoltGrowth(m=2.0, a=3.0), LinearGrowth(p=0.7)):
        assert f(lo) / lo >= f(hi) / hi - 1e-15
    if hi > lo:
        bh = BevertonHoltGrowth(m=2.0, a=3.0)
        assert bh(lo) / lo > bh(hi) / hi


@given(st.floats(1e-6, 100.0))
@settings(max_examples=200, deadline=None)
def test_impulse_bounded_by_identity(u):
    for G in (LinearImpulse(rho=0.4), SaturatingImpulse(c=0.5, b=10.0)):
        assert 0.0 < G(u) / u < 1.0
    s = SaturatingImpulse(c=0.5, b=10.0)
    assert s(u) / u > s(2 * u) / (2 * u)


def test_quadratic_lower_bound_on_grid():
    us = np.linspace(0.1, 100.0, 1000)
    bh = BevertonHoltGrowth(m=1.0, a=10.0)
    H, kappa = bh.lower_bound_constants()
    assert np.all(bh(us) - (bh.slope_at_zero * us - H * us**kappa) >= 0)
    sat = SaturatingImpulse(c=0.5, b=10.0)
    H2, kappa2 = sat.lower_bound_constants()
    assert np.all(sat(us) - (sat.slope_at_zero * us - H2 * us**kappa2) >= 0)


def test_validate_benchmark_passes(params_benchmark, params_disinfected, init_cos):
    report = validate_assumptions(params_disinfected, init_cos)
    assert report.all_pass
    assert not report.failures()
    labels = [c.label for c in report.checks]
    assert any("A1" in l for l in labels) and any("A4" in l for l in labels)


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

    scaled = init.scaled(1.5)
    us, vs = scaled.sample(np.array([0.0]))
    assert us[0] == pytest.approx(0.45) and vs[0] == pytest.approx(0.15)


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
    c2, c3 = density_bounds(params_benchmark, init_cos)
    assert c2 > 20.0 / 3.0 and c3 > 4.0  # above the homogeneous fixed point
    # balance margin: f(C2) < a11*a22/(a12) * C2 certainly
    f = params_benchmark.growth
    assert f(c2) < params_benchmark.a11 * params_benchmark.a22 / params_benchmark.a12 * c2


def test_density_bounds_need_slope_condition(init_cos):
    p = ModelParams(
        d1=0.1, d2=0.4, a11=0.3, a12=0.5, a22=0.1, mu1=1.0, mu2=1.0, h0=2.0, tau=5.0,
        growth=LinearGrowth(p=0.2), impulse=IdentityImpulse(),
    )
    with pytest.raises(ConfigurationError):
        density_bounds(p, init_cos)
