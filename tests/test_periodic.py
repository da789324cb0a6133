import itertools
import warnings

import numpy as np
import pytest
import scipy.integrate
from scipy.linalg import expm
from scipy.sparse.linalg import LinearOperator, gmres

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
from pulsefront.presets import base_params_a, base_params_cd
from pulsefront.solver import imex_density_step

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


@pytest.mark.parametrize("steps", [50, 150, 200])
def test_positive_orbit_samples_end_at_the_pre_reset_state(steps):
    # a step count that is no multiple of 8 still ends its samples on tau
    p = base_params_a()
    orbit = fixed_domain_periodic(p, 30.0, n=32, steps_per_period=steps)
    assert orbit.is_positive and orbit.t[-1] == p.tau
    image, _ = _imex_period(p, orbit.start_pre_reset, 30.0, steps)
    assert np.array_equal(np.stack([orbit.U[-1], orbit.V[-1]]), image)


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
    # NumPy integers count as integers
    with pytest.raises(NumericalError, match="did not converge in 5 periods"):
        fixed_domain_periodic(params_benchmark, 30.0, n=np.int64(32), max_periods=np.int32(5),
                              steps_per_period=np.int64(50))


@pytest.mark.parametrize("bad", [dict(n=32.0), dict(steps_per_period=50.5), dict(max_periods=5.5),
                                 dict(n="32"), dict(steps_per_period=np.float64(50.0))])
def test_non_integral_counts_rejected(params_benchmark, bad):
    kwargs = {**dict(n=32, max_periods=5, steps_per_period=50), **bad}
    with pytest.raises(PreconditionError, match=f"need an integer {next(iter(bad))} >= "):
        fixed_domain_periodic(params_benchmark, 30.0, **kwargs)


def test_ode_orbit_rejects_non_integral_max_periods(params_benchmark):
    with pytest.raises(PreconditionError, match="need an integer max_periods >= 1, got 5.5"):
        ode_periodic_orbit(params_benchmark, max_periods=5.5)


def _period_by_imex_steps(p, w, length, steps):
    """The frozen-interval period map as a loop of moving-front IMEX steps with zero velocities."""
    w = w.copy()
    w[0] = p.impulse(w[0])
    for _ in range(steps):
        w = imex_density_step(w, p, p.tau / steps, 1.0 / (w.shape[1] - 1), length)
    return w


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("case", ["beverton-holt/identity", "linear/linear (zero)"])
def test_factored_period_map_equals_imex_steps(params_benchmark, case):
    # the frozen map factors its matrix once and drops the zero advection
    # term; the moving-front kernel with zero velocities must give the same bits
    changes, length = PDE_CASES[case]
    p = params_benchmark.with_(**changes)
    n, steps = 32, 100
    c2, c3 = density_bounds(p)
    w = np.zeros((2, n + 1))
    w[0, 1:-1], w[1, 1:-1] = c2, c3
    for _ in range(3):  # the supersolution start and two images along the search
        image, _ = _imex_period(p, w, length, steps)
        assert np.array_equal(_bits(image), _bits(_period_by_imex_steps(p, w, length, steps)))
        w = image


def test_factored_period_map_equals_imex_steps_through_a_clip(params_benchmark):
    # dt * a11 just above 1 and v = 0: the first stage leaves u a roundoff-size
    # negative multiple of itself, which the undershoot guard clips to zero;
    # v is zeroed again before each of 3 chained maps, so each map clips
    n, steps, length = 32, 100, 30.0
    p = params_benchmark.with_(a11=(1.0 + 1e-13) * steps / params_benchmark.tau)
    xi = np.linspace(0.0, 1.0, n + 1)
    w = np.array([np.sin(np.pi * xi), np.zeros(n + 1)])
    first = imex_density_step(w, p, p.tau / steps, 1.0 / n, length)
    assert np.all(first[0] == 0.0) and first[1].max() > 0.0
    for _ in range(3):
        assert w[0].max() > 0.0 and not w[1].any()
        image, _ = _imex_period(p, w, length, steps)
        assert np.array_equal(_bits(image), _bits(_period_by_imex_steps(p, w, length, steps)))
        w = image.copy()
        w[1] = 0.0


def _supersolution_start(p, n):
    c2, c3 = density_bounds(p)
    w = np.zeros((2, n + 1))
    w[0, 1:-1], w[1, 1:-1] = c2, c3
    return w


@pytest.mark.parametrize("steps", [1, 2, 7])
def test_factored_period_map_alternates_its_buffers(params_disinfected, steps):
    # the map's steps read one buffer and write the other: an odd and an even
    # step count, and a single step, all equal the moving-front kernel's bits
    p = params_disinfected
    w = _supersolution_start(p, 32)
    before = w.copy()
    first, _ = _imex_period(p, w, 30.0, steps)
    assert np.array_equal(_bits(w), _bits(before))  # the input is left as it is
    assert np.array_equal(_bits(first), _bits(_period_by_imex_steps(p, w, 30.0, steps)))
    second, _ = _imex_period(p, w, 30.0, steps)
    assert np.array_equal(_bits(first), _bits(second)) and not np.shares_memory(first, second)


def test_factored_period_map_samples_its_steps(params_disinfected):
    # samples every 3 of 10 steps from the post-reset state, and the last
    # step: each one is the state the step loop reaches there, and the image
    # is the unsampled one
    p, n, steps, length = params_disinfected, 32, 10, 30.0
    w = _supersolution_start(p, n)
    image, samples = _imex_period(p, w, length, steps, sample_every=3)
    dt = p.tau / steps
    state = w.copy()
    state[0] = p.impulse(state[0])
    expected = [(0.0, state)]
    for i in range(1, steps + 1):
        state = imex_density_step(state, p, dt, 1.0 / n, length)
        if i % 3 == 0 or i == steps:
            expected.append((i * dt, state))
    times = [0.0, 3 * dt, 6 * dt, 9 * dt, 10 * dt]
    assert [t for t, _ in samples] == [t for t, _ in expected] == times
    for (_, got), (_, want) in zip(samples, expected):
        assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(image), _bits(state))
    assert np.array_equal(_bits(image), _bits(_imex_period(p, w, length, steps)[0]))
    assert not any(np.shares_memory(a, b) for (_, a), (_, b) in itertools.combinations(samples, 2))


def test_factored_period_map_nonfinite_is_numerical_error():
    # r overflows on an interval of 2e-153: the factored matrix holds NaN, and
    # the finite guard of the factored path reports it instead of a traceback
    with pytest.raises(NumericalError, match="no longer finite"):
        fixed_domain_periodic(base_params_cd(1.3), 2e-153, 64, steps_per_period=10)


def _counted(matvec):
    calls = []

    def counted(x):
        calls.append(1)
        return matvec(x)

    return counted, calls


def _assert_gmres_matches_scipy(matvec, b, rtol, atol):
    """periodic._gmres against scipy's single-cycle GMRES; returns our matvec count."""
    ours, our_calls = _counted(matvec)
    theirs, their_calls = _counted(matvec)
    x = periodic._gmres(ours, b, rtol, atol)
    A = LinearOperator((b.size, b.size), matvec=theirs, dtype=float)
    expected, _ = gmres(A, b, rtol=rtol, atol=atol, restart=b.size, maxiter=1)
    assert np.array_equal(_bits(x), _bits(expected))  # the sign of zero included
    # scipy's one extra product is the closing b - A x of its info flag
    assert len(their_calls) == len(our_calls) + (len(our_calls) > 0)
    return len(our_calls)


@pytest.mark.parametrize("n, rtol", [(5, 1e-14), (20, 1e-14), (40, 1e-5), (40, 1e-2)])
def test_gmres_matches_scipy_on_random_systems(n, rtol):
    rng = np.random.default_rng(n)
    for _ in range(5):
        A = np.eye(n) + rng.normal(0.0, 1.0 / np.sqrt(n), (n, n))
        b = rng.normal(size=n)
        calls = _assert_gmres_matches_scipy(lambda x: A @ x, b, rtol, 0.0)
        assert calls == n if rtol == 1e-14 else calls < n  # the looser tolerances exit early


def test_gmres_matches_scipy_on_breakdown_and_trivial_cases():
    rng = np.random.default_rng(3)
    n = 12
    # identity plus rank one: the Krylov space holds the solution after two
    # directions; with zero tolerances only the breakdown exit ends the cycle
    a, c = rng.normal(size=n), rng.normal(size=n)
    b = rng.normal(size=n)
    assert _assert_gmres_matches_scipy(lambda x: x + a * (c @ x), b, 0.0, 0.0) == 2
    # b = 0, and |b| below atol: both return 0 without a product
    assert _assert_gmres_matches_scipy(lambda x: 2.0 * x, np.zeros(n), 1e-5, 0.0) == 0
    assert _assert_gmres_matches_scipy(lambda x: 2.0 * x, b, 1e-5, 2.0 * np.linalg.norm(b)) == 0


@pytest.mark.parametrize("kind", ["fixed-domain", "ode"])
def test_gmres_matches_scipy_on_defect_operators(params_benchmark, monkeypatch, kind):
    # the Newton systems of an actual search, solved again by scipy's GMRES
    systems = []
    real = periodic._gmres

    def recording(matvec, b, rtol, atol):
        systems.append((matvec, b.copy(), rtol, atol))
        return real(matvec, b, rtol, atol)

    monkeypatch.setattr(periodic, "_gmres", recording)
    p = params_benchmark.with_(impulse=SaturatingImpulse(c=19.0, b=20.0))
    if kind == "ode":
        ode_periodic_orbit(p)
    else:
        fixed_domain_periodic(p, 40.0, n=32, tol=1e-10, steps_per_period=100)
    assert systems
    for matvec, b, rtol, atol in systems[:2]:
        assert _assert_gmres_matches_scipy(matvec, b, rtol, atol) >= 1
