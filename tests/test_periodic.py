import warnings

import numpy as np
import pytest
import scipy.integrate
from scipy.linalg import expm

from pulsefront import periodic
from pulsefront.eigen import lambda_infinity
from pulsefront.errors import NumericalError, PreconditionError
from pulsefront.model import (
    BevertonHoltGrowth,
    LinearGrowth,
    LinearImpulse,
    ModelParams,
    SaturatingImpulse,
    density_bounds,
)
from pulsefront.periodic import (
    _imex_period,
    fixed_domain_periodic,
    ode_period_map,
    ode_periodic_orbit,
)

U_STAR, V_STAR = 20.0 / 3.0, 4.0  # nullcline fixed point of the benchmark set


def test_homogeneous_orbit_identity(params_benchmark):
    orbit = ode_periodic_orbit(params_benchmark)
    assert orbit.is_positive
    # no disinfection: the orbit is the constant nullcline state
    assert orbit.U[0] == pytest.approx(U_STAR, abs=1e-3)
    assert orbit.V[0] == pytest.approx(V_STAR, abs=1e-3)
    assert np.max(orbit.U) - np.min(orbit.U) < 1e-6
    assert orbit.residual < 1e-9


def test_homogeneous_orbit_disinfected_collapses(params_disinfected):
    orbit = ode_periodic_orbit(params_disinfected)
    assert not orbit.is_positive
    assert np.all(orbit.U == 0.0) and np.all(orbit.V == 0.0)


def test_orbit_is_period_map_fixed_point(params_benchmark):
    orbit = ode_periodic_orbit(params_benchmark, tol=1e-10)
    s = tuple(orbit.start_pre_reset)
    s2 = ode_period_map(params_benchmark, s)
    assert abs(s2[0] - s[0]) < 1e-10 and abs(s2[1] - s[1]) < 1e-10


def test_uniqueness_probe(params_benchmark):
    c2, c3 = density_bounds(params_benchmark)
    top = ode_periodic_orbit(params_benchmark, tol=1e-9)
    low = ode_periodic_orbit(params_benchmark, tol=1e-9, start=(0.1 * c2, 0.1 * c3))
    assert np.max(np.abs(top.start_pre_reset - low.start_pre_reset)) < 1e-8


def test_monotone_from_supersolution(params_benchmark):
    state = density_bounds(params_benchmark)
    sups = [max(state)]
    for _ in range(40):
        state = ode_period_map(params_benchmark, state)
        sups.append(max(state))
    assert all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))


def test_linear_impulse_reset_ratio_exact(params_benchmark):
    p = params_benchmark.with_(impulse=LinearImpulse(rho=0.9))
    orbit = ode_periodic_orbit(p)
    assert orbit.is_positive
    # first sample is the post-reset state of the converged pre-reset start
    assert orbit.U[0] == 0.9 * orbit.start_pre_reset[0]


@pytest.mark.parametrize("size", [1e-8, 1.0, 50.0])
def test_linear_period_map_matches_expm(params_benchmark, size):
    # linear f and G: the period map is exactly expm(A tau) (rho u, v)
    p = params_benchmark.with_(growth=LinearGrowth(p=0.03), impulse=LinearImpulse(rho=0.8))
    A = np.array([[-p.a11, p.a12], [0.03, -p.a22]])
    state = (size, 0.7 * size)
    exact = expm(A * p.tau) @ np.array([0.8 * state[0], state[1]])
    image = np.array(ode_period_map(p, state))
    assert np.max(np.abs(image - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_positive_orbit_resample_grid(params_benchmark):
    p = params_benchmark.with_(impulse=SaturatingImpulse(c=19.0, b=20.0))
    tol = 1e-9
    orbit = ode_periodic_orbit(p, tol=tol)
    assert orbit.is_positive
    assert np.array_equal(orbit.t, np.linspace(0.0, p.tau, 201))
    u, v = orbit.start_pre_reset
    assert orbit.U[0] == p.impulse(u) and orbit.V[0] == v
    # one period on from the fixed point lands back on it within the defect
    assert abs(orbit.U[-1] - u) < tol and abs(orbit.V[-1] - v) < tol


@pytest.mark.parametrize("start", [(float("nan"), 1.0), (1.0, float("inf")),
                                   (-float("inf"), 1.0), (-1e-3, 1.0)])
def test_bad_start_rejected(params_benchmark, start):
    with pytest.raises(PreconditionError, match="start"):
        ode_periodic_orbit(params_benchmark, start=start, max_periods=30)


@pytest.mark.parametrize("value, message", [
    (1.0, "Excess work done on this call (perhaps wrong Dfun type)."),
    (np.nan, "Integration successful."),
])
def test_integrator_failure_is_numerical_error(params_benchmark, monkeypatch, value, message):
    def failing(func, y0, t, **kwargs):
        if value == 1.0:  # odeint warns on every failure it reports
            warnings.warn(message, scipy.integrate.ODEintWarning)
        return np.full((len(t), 2), value), {"message": message}

    monkeypatch.setattr(scipy.integrate, "odeint", failing)
    with pytest.raises(NumericalError, match="integration failed"):
        ode_period_map(params_benchmark, (1.0, 1.0))


def test_fixed_domain_subcritical_zero_orbit(params_benchmark):
    # initial interval: eigenvalue positive, the orbit collapses
    orbit = fixed_domain_periodic(params_benchmark, 4.0, n=64, tol=1e-7,
                                  max_periods=3000, steps_per_period=200)
    assert not orbit.is_positive
    assert np.all(orbit.U == 0.0)


def test_fixed_domain_supercritical_positive_orbit(params_benchmark):
    # width 300: eigenvalue negative, interior approaches the nullcline state
    orbit = fixed_domain_periodic(params_benchmark, 300.0, n=128, tol=1e-6,
                                  max_periods=3000, steps_per_period=150)
    assert orbit.is_positive
    center = orbit.U[0, orbit.U.shape[1] // 2]
    assert center == pytest.approx(U_STAR, rel=0.01)
    vcenter = orbit.V[0, orbit.V.shape[1] // 2]
    assert vcenter == pytest.approx(V_STAR, rel=0.01)


def test_fixed_domain_disinfected_zero(params_disinfected):
    orbit = fixed_domain_periodic(params_disinfected, 300.0, n=64, tol=1e-7,
                                  max_periods=3000, steps_per_period=150)
    assert not orbit.is_positive


def test_tolerance_controls_defect(params_benchmark):
    loose = ode_periodic_orbit(params_benchmark, tol=1e-6)
    tight = ode_periodic_orbit(params_benchmark, tol=5e-7)
    assert tight.residual <= loose.residual
    assert tight.residual < 5e-7


def test_bad_tolerance_rejected(params_benchmark):
    with pytest.raises(PreconditionError):
        ode_periodic_orbit(params_benchmark, tol=0.0)
    with pytest.raises(PreconditionError):
        fixed_domain_periodic(params_benchmark, 4.0, n=8)
    for bad in (dict(tol=0.0), dict(tol=float("nan")), dict(steps_per_period=0)):
        with pytest.raises(PreconditionError):
            fixed_domain_periodic(params_benchmark, 4.0, n=64, **bad)


def _picard(period_map, w, defect=1e-12, max_maps=5000):
    """Reference fixed point: plain period-map iteration until the defect is below ``defect``."""
    for _ in range(max_maps):
        image = period_map(w)
        if np.max(np.abs(image - w)) < defect:
            return image
        w = image
    raise AssertionError("reference Picard iteration did not converge")


ODE_CASES = {
    "beverton-holt/saturating": dict(impulse=SaturatingImpulse(c=19.0, b=20.0)),
    "beverton-holt/identity": {},
    "linear/linear (zero)": dict(growth=LinearGrowth(p=0.03), impulse=LinearImpulse(rho=0.8)),
}


@pytest.mark.parametrize("case", sorted(ODE_CASES))
def test_ode_orbit_matches_picard_reference(params_benchmark, case):
    p = params_benchmark.with_(**ODE_CASES[case])
    orbit = ode_periodic_orbit(p, tol=1e-10)
    reference = _picard(lambda w: np.array(ode_period_map(p, tuple(w))),
                        np.array(density_bounds(p)))
    assert orbit.is_positive == (np.max(reference) > 1e-6)
    assert np.max(np.abs(orbit.start_pre_reset - reference)) < 1e-8


PDE_CASES = {
    # (coefficient changes, interval length)
    "beverton-holt/saturating": (dict(impulse=SaturatingImpulse(c=19.0, b=20.0)), 40.0),
    "beverton-holt/identity": ({}, 30.0),
    "linear/linear (zero)": (dict(growth=LinearGrowth(p=0.03), impulse=LinearImpulse(rho=0.8)),
                             30.0),
}


@pytest.mark.parametrize("case", sorted(PDE_CASES))
def test_fixed_domain_orbit_matches_picard_reference(params_benchmark, case):
    changes, length = PDE_CASES[case]
    p = params_benchmark.with_(**changes)
    n, steps = 32, 100
    orbit = fixed_domain_periodic(p, length, n=n, tol=1e-10, steps_per_period=steps)
    c2, c3 = density_bounds(p)
    start = np.zeros((2, n + 1))
    start[0, 1:-1], start[1, 1:-1] = c2, c3

    def period_map(w):
        image, _ = _imex_period(p, w, length, steps)
        return image

    reference = _picard(period_map, start)
    assert orbit.is_positive == (np.max(reference) > 1e-6)
    assert np.max(np.abs(orbit.start_pre_reset - reference)) < 1e-8


def test_near_threshold_ode_orbit_is_cheap():
    # whole-line eigenvalue barely positive (lambda*tau ~ 0.03): the period map
    # contracts toward zero at ~exp(-0.03) per period, ~600 Picard periods
    p = ModelParams(d1=0.1, d2=0.4, a11=0.3, a12=0.5, a22=0.1, mu1=1.0, mu2=1.0, h0=1.0,
                    tau=5.0, growth=BevertonHoltGrowth(m=1.12, a=10.0),
                    impulse=SaturatingImpulse(c=0.5, b=10.0))
    assert 0.02 < lambda_infinity(p).lam * p.tau < 0.04
    orbit = ode_periodic_orbit(p)
    assert not orbit.is_positive
    assert orbit.periods <= 40


def test_periods_count_every_ode_map_evaluation(params_benchmark, monkeypatch):
    calls = []

    def counted(params, state):
        calls.append(state)
        return ode_period_map(params, state)

    monkeypatch.setattr(periodic, "ode_period_map", counted)
    orbit = ode_periodic_orbit(params_benchmark)
    assert orbit.periods == len(calls) > 2


def test_max_periods_caps_map_evaluations(params_benchmark):
    with pytest.raises(NumericalError, match="did not converge in 5 periods"):
        fixed_domain_periodic(params_benchmark, 30.0, n=32, max_periods=5, steps_per_period=50)
