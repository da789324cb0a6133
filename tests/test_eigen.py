import math
import warnings

import numpy as np
import pytest

from pulsefront.eigen import (
    dirichlet_lambda0,
    lambda_at_h0,
    lambda_infinity,
    principal_eigenvalue_monodromy,
)
from pulsefront.errors import NumericalError, PreconditionError
from pulsefront.model import BevertonHoltGrowth, IdentityImpulse, LinearImpulse, SaturatingImpulse

from conftest import random_valid_params
from oracles import (
    eigenfunction_envelope_bounds,
    lambda_front,
    principal_eigenvalue_closed_form,
    robin_eigen,
)

# larger eigenvalue of [[-0.3, 0.5], [0.1, -0.1]] is (-0.4 + sqrt(0.24))/2
LAM_INF_BENCHMARK = -(-0.4 + math.sqrt(0.24)) / 2.0


def test_dirichlet_lambda0_closed_form():
    assert dirichlet_lambda0(4.0) == pytest.approx((math.pi / 4) ** 2)
    assert dirichlet_lambda0(300.0) == pytest.approx(1.09662e-4, rel=1e-4)
    assert dirichlet_lambda0(math.pi) == pytest.approx(1.0)
    with pytest.raises(PreconditionError):
        dirichlet_lambda0(0.0)
    with pytest.raises(PreconditionError):
        dirichlet_lambda0(math.inf)


def test_short_interval_monodromy_in_range():
    # on the fig-c/d set exp(B*tau) has entries ~1e-215 at L = 0.1 and
    # underflows to zero at L = 0.05; on the whole line at tau = 20000 it
    # overflows.  The factored Perron root never forms e^(c1*tau).  At
    # L = 1e-100 the shift discriminant s^2 alone would overflow
    from pulsefront.presets import base_params_cd

    p = base_params_cd(1.0)
    for length in (0.1, 0.12, 0.05, 1e-100):
        lam = principal_eigenvalue_monodromy(p, length).lam
        assert math.isfinite(lam)
        assert lam == pytest.approx(principal_eigenvalue_closed_form(p, length).lam, rel=1e-13)
    assert principal_eigenvalue_monodromy(p, 0.1).lam == 98.99587502820711
    assert principal_eigenvalue_monodromy(p, 0.05).lam == pytest.approx(395.0841338192855, rel=1e-12)
    whole = principal_eigenvalue_monodromy(p.with_(tau=20000.0), math.inf)
    assert whole.lam == -whole.c1  # identity reset: r(K) = 1
    assert whole.lam == pytest.approx(lambda_infinity(p).lam, rel=1e-14)
    with pytest.raises(PreconditionError, match="too short"):
        principal_eigenvalue_monodromy(p, 1e-200)
    # (pi/L)^2 is in range, but (d1 + d2) * (pi/L)^2 overflows
    with pytest.raises(NumericalError, match="float range"):
        principal_eigenvalue_monodromy(p.with_(d1=1.0, d2=4.0), 3.2e-154)


def test_monodromy_report_stays_finite_on_tiny_intervals():
    # with d1 = d2 = d, B = B(whole line) - d*lambda0*I: K and its eigenpair
    # do not depend on L, and lambda(L) = d*lambda0 + lambda(inf), although
    # c1 - c2 is lost in c1 and c2 at these widths
    from pulsefront.presets import base_params_cd

    p = base_params_cd(1.0).with_(impulse=LinearImpulse(rho=0.5))
    equal = p.with_(d1=0.2, d2=0.2)
    whole = lambda_infinity(equal)
    for length in (1e-3, 1e-20, 1e-150):
        rep = principal_eigenvalue_monodromy(equal, length)
        assert np.array_equal(rep.phi_psi_profile[:, 1:], whole.phi_psi_profile[:, 1:])
        assert rep.lam == pytest.approx(0.2 * rep.lambda0 + whole.lam, rel=1e-15)
        rep = principal_eigenvalue_monodromy(p, length)
        report = [rep.lam, rep.k0, rep.y0, *rep.phi_psi_profile.ravel()]
        assert all(math.isfinite(v) for v in report) and np.all(rep.phi_psi_profile[:, 1:] > 0)
    # (c1 - c2) * tau overflows in the profile's exponent
    rep = principal_eigenvalue_monodromy(p.with_(tau=20000.0), 3.2e-154)
    assert np.all(np.isfinite(rep.phi_psi_profile))


@pytest.mark.parametrize("coupling", ["benchmark", "unit"])
@pytest.mark.parametrize("a11", [1e6, 1e14, 1e300])
def test_whole_line_eigenvalue_with_a_dominant_decay_rate(params_benchmark, a11, coupling):
    # identity reset: lambda = -c1 exactly, and c1 = -a22 + a12 f'(0)/(a11 - a22 + ...)
    # sits next to the smaller decay rate; (trace + root)/2 cancelled it away,
    # to 0.09375 at 1e14 and -0.0 at 1e300
    from decimal import Decimal, localcontext

    p = params_benchmark.with_(a11=a11)
    if coupling == "unit":  # a12 f'(0) = 1 as a11 grows
        p = p.with_(a12=1.0 / a11, growth=BevertonHoltGrowth(m=a11, a=1.0))
    with localcontext() as ctx:
        ctx.prec = 400  # the trace and the root agree to 300 digits at 1e300
        b00, b11 = -Decimal(p.a11), -Decimal(p.a22)
        coupling = Decimal(p.a12) * Decimal(p.growth.slope_at_zero)
        c1 = (b00 + b11 + ((b00 - b11) ** 2 + 4 * coupling).sqrt()) / 2
        expected = float(-c1)
    assert lambda_infinity(p).lam == pytest.approx(expected, rel=1e-14)


def test_profile_stays_positive_when_the_mode_determinant_overflows():
    # d1 > d2 makes n12 ~ (d1 - d2) * lambda0, and a12*f'(0) + n12^2 passes
    # 1e308 once n12 passes 1e154; lambda never used it
    from pulsefront.presets import base_params_cd

    p = base_params_cd(1.0).with_(d1=0.4, d2=0.1)
    rep = principal_eigenvalue_monodromy(p, 1e-80)
    assert rep.lam == 9.869604401089358e159  # -c1 correctly rounded, from 40 digits
    prof = rep.phi_psi_profile[:, 1:]
    assert np.all(np.isfinite(prof)) and np.all(prof > 0)
    # identity reset: k0 = 0 and (Phi, Psi) = (a12, n12) / (a12 f'(0) + n12^2),
    # which is still in range at 1e-70
    rep = principal_eigenvalue_monodromy(p, 1e-70)
    n12 = 0.5 * (rep.c1 - rep.c2) + 0.5 * abs(p.a22 + (p.d2 - p.d1) * rep.lambda0 - p.a11)
    det = p.a12 * p.growth.slope_at_zero + n12 * n12
    assert rep.k0 == 0.0 and math.isfinite(det)
    np.testing.assert_allclose(rep.phi_psi_profile[:, 1], p.a12 / det, rtol=1e-14, atol=0)
    np.testing.assert_allclose(rep.phi_psi_profile[:, 2], n12 / det, rtol=1e-14, atol=0)


def test_closed_form_agrees_on_very_short_intervals():
    # with G'(0) < 1 the root k0 of the closed form sits ~1e-25 (L = 1e-12)
    # down to ~1e-201 (L = 1e-100) above the window end 0; only bisecting
    # to adjacent floats resolves it, and y0 = 1/rho = 2 on both routes
    from pulsefront.presets import base_params_cd

    p = base_params_cd(1.0).with_(impulse=LinearImpulse(rho=0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for length in (1e-12, 1e-20, 1e-100):
            mono = principal_eigenvalue_monodromy(p, length)
            closed = principal_eigenvalue_closed_form(p, length)
            assert closed.y0 == pytest.approx(mono.y0, rel=1e-14)
            np.testing.assert_allclose(closed.phi_psi_profile, mono.phi_psi_profile, rtol=1e-14, atol=0)


def test_oracle_scan_across_float_range():
    # lengths down to ~0.003 drive c1*tau below -745, where e^(c1*tau)
    # underflows to zero
    rng = np.random.default_rng(20240)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2000):
            p, length = random_valid_params(rng)
            length *= 10 ** rng.uniform(-2.5, 0.5)
            mono = principal_eigenvalue_monodromy(p, length)
            closed = principal_eigenvalue_closed_form(p, length)
            assert abs(mono.lam - closed.lam) <= 1e-10 * abs(closed.lam)
            prof = mono.phi_psi_profile[:, 1:]
            assert np.all(np.isfinite(prof)) and np.all(prof > 0)


def test_identity_impulse_reduces_to_matrix_eigenvalue(params_benchmark):
    rep = lambda_infinity(params_benchmark)
    assert rep.lam == pytest.approx(LAM_INF_BENCHMARK, abs=1e-14)
    assert rep.lambda0 == 0.0


def test_benchmark_interval_signs(params_benchmark):
    # trace of B is negative and det positive on the initial interval, so the
    # matrix's top eigenvalue is negative and lambda is positive
    assert lambda_at_h0(params_benchmark).lam > 0
    assert principal_eigenvalue_monodromy(params_benchmark, 300.0).lam < 0
    assert principal_eigenvalue_monodromy(params_benchmark, 18.0).lam < 0


def test_lambda_at_h0_approaches_infinity_limit(params_benchmark):
    wide = params_benchmark.with_(h0=1e6)
    assert lambda_at_h0(wide).lam == pytest.approx(lambda_infinity(wide).lam, abs=1e-10)


def test_disinfected_whole_line_sign(params_disinfected):
    # monodromy with the reset slope 0.05 flips the whole-line value positive
    assert lambda_infinity(params_disinfected).lam > 0


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    st.floats(0.05, 5.0), st.floats(0.05, 5.0), st.floats(0.05, 5.0),
    st.floats(0.05, 5.0), st.floats(0.05, 5.0), st.floats(0.05, 5.0),
    st.floats(0.05, 0.999), st.floats(0.5, 8.0), st.floats(1.0, 60.0),
)
@settings(max_examples=150, deadline=None)
def test_oracle_equivalence_hypothesis(d1, d2, a11, a12, a22, fp0, gp0, tau, length):
    from pulsefront.model import LinearGrowth, ModelParams

    p = ModelParams(d1=d1, d2=d2, a11=a11, a12=a12, a22=a22, mu1=1.0, mu2=1.0,
                    h0=1.0, tau=tau, growth=LinearGrowth(p=fp0),
                    impulse=LinearImpulse(rho=gp0))
    la = principal_eigenvalue_monodromy(p, length).lam
    lb = principal_eigenvalue_closed_form(p, length).lam
    assert abs(la - lb) < 1e-10 * max(1.0, abs(la))


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(20260810)
    for _ in range(200):
        p, length = random_valid_params(rng)
        la = principal_eigenvalue_monodromy(p, length).lam
        lb = principal_eigenvalue_closed_form(p, length).lam
        assert abs(la - lb) < 1e-10 * max(1.0, abs(la))


def test_closed_form_identity_consistency(params_benchmark):
    rep = principal_eigenvalue_closed_form(params_benchmark, 4.0)
    assert rep.k0 == 0.0 and rep.y0 == 1.0
    assert math.log(rep.y0) / params_benchmark.tau - rep.c1 == rep.lam
    mono = principal_eigenvalue_monodromy(params_benchmark, 4.0)
    assert rep.lam == pytest.approx(mono.lam, abs=1e-14)


def test_positivity_window(params_disinfected):
    rep = principal_eigenvalue_closed_form(params_disinfected, 10.0)
    n11_over_n12 = params_disinfected.a12 / (
        params_disinfected.a11 + params_disinfected.d1 * rep.lambda0 + rep.c1
    )
    assert 0.0 < rep.k0 < n11_over_n12
    assert rep.y0 > 1.0


def test_profile_positive(params_disinfected):
    for length in (4.0, 40.0):
        rep = principal_eigenvalue_closed_form(params_disinfected, length)
        assert np.all(rep.phi_psi_profile[:, 1] > 0)
        assert np.all(rep.phi_psi_profile[:, 2] > 0)


def test_profile_reset_and_periodicity(params_disinfected):
    # row 0 is the post-reset state: Phi(0+) = G'(0) * Phi(tau), Psi continuous
    rep = principal_eigenvalue_closed_form(params_disinfected, 10.0)
    prof = rep.phi_psi_profile
    gp0 = params_disinfected.impulse.slope_at_zero
    assert prof[0, 1] == pytest.approx(gp0 * prof[-1, 1], rel=1e-12)
    assert prof[0, 2] == pytest.approx(prof[-1, 2], rel=1e-12)


def test_perron_eigenvector_positive(params_disinfected):
    # the pre-reset row of the profile is the Perron vector of the monodromy
    # M = exp(B*tau) @ diag(G'(0), 1), formed here independently with expm
    from scipy.linalg import expm

    p = params_disinfected
    rep = principal_eigenvalue_monodromy(p, 7.0)
    B = np.array([[-p.d1 * rep.lambda0 - p.a11, p.a12],
                  [p.growth.slope_at_zero, -p.d2 * rep.lambda0 - p.a22]])
    M = expm(B * p.tau) @ np.diag([p.impulse.slope_at_zero, 1.0])
    vec = rep.phi_psi_profile[-1, 1:] / rep.phi_psi_profile[-1, 1:].max()
    assert np.all(vec > 0) and np.all(M > 0)
    resid = M @ vec - math.exp(-rep.lam * p.tau) * vec
    assert np.max(np.abs(resid)) < 1e-12


def test_perron_eigenvector_when_the_monodromy_rounds_to_identity(params_benchmark):
    # at tau = 5e-324 with no reset, K is exactly I and singles out no vector;
    # the profile is B's Perron vector [a12, c1 + a11], B = [[-0.3, 0.5], [0.1, -0.1]]
    rep = principal_eigenvalue_monodromy(params_benchmark.with_(tau=5e-324), math.inf)
    c1 = -LAM_INF_BENCHMARK
    vec = rep.phi_psi_profile[-1, 1:]
    np.testing.assert_allclose(vec / vec[0], [1.0, (c1 + 0.3) / 0.5], rtol=1e-14)
    assert rep.lam == pytest.approx(LAM_INF_BENCHMARK, abs=1e-14)


def test_translation_invariance_exact(params_benchmark):
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = float(rng.uniform(-50, 0))
        h = g + float(rng.uniform(1, 60))
        a = lambda_front(params_benchmark, g, h).lam
        b = principal_eigenvalue_monodromy(params_benchmark, h - g).lam
        assert a == b  # depends on the width float only
    assert (
        lambda_front(params_benchmark, -2.0, 2.0).lam
        == lambda_front(params_benchmark, -1.0, 3.0).lam
        == lambda_at_h0(params_benchmark).lam
    )


def test_lambda_front_rejects_empty_interval(params_benchmark):
    with pytest.raises(PreconditionError):
        lambda_front(params_benchmark, 2.0, 2.0)


def test_strict_monotonicity_in_width():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p, w1 = random_valid_params(rng)
        w2 = w1 + float(rng.uniform(0.5, 50.0))
        l1 = principal_eigenvalue_monodromy(p, w1).lam
        l2 = principal_eigenvalue_monodromy(p, w2).lam
        assert l2 < l1 - 1e-12


def test_strict_monotonicity_in_impulse_slope():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p, length = random_valid_params(rng)
        g1 = float(rng.uniform(0.05, 0.9))
        g2 = min(1.0, g1 + float(rng.uniform(0.05, 0.5)))
        imp2 = IdentityImpulse() if g2 == 1.0 else LinearImpulse(rho=g2)
        l1 = principal_eigenvalue_monodromy(p.with_(impulse=LinearImpulse(rho=g1)), length).lam
        l2 = principal_eigenvalue_monodromy(p.with_(impulse=imp2), length).lam
        assert l2 < l1 - 1e-12


def test_width_limit_consistency(params_benchmark):
    lam_inf = lambda_infinity(params_benchmark).lam
    lams = [principal_eigenvalue_monodromy(params_benchmark, w).lam for w in (10.0, 1e2, 1e3, 1e4)]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    assert all(l > lam_inf for l in lams)
    assert abs(lams[-1] - lam_inf) < 1e-4


def test_envelope_bounds_definition(params_benchmark):
    a1, a2, b1, b2 = eigenfunction_envelope_bounds(params_benchmark)
    assert 0 < a1 < a2 and 0 < b1 < b2
    # explicit formulas in the coefficients
    fp0 = params_benchmark.growth.slope_at_zero
    root = math.sqrt(params_benchmark.a12 * fp0)
    lam0 = dirichlet_lambda0(4.0)
    spread = 2 * root + 0.4 + 0.5 * lam0
    assert a2 == pytest.approx(math.exp(spread * 5.0) / fp0)
    assert b2 == pytest.approx(fp0 * a2 / 0.3)
    with pytest.raises(NumericalError, match="envelope bounds overflow"):
        eigenfunction_envelope_bounds(params_benchmark.with_(tau=20000.0))  # e^(spread*tau)


def test_envelope_bounds_hold_across_widths_and_slopes(params_benchmark):
    impulses = (SaturatingImpulse(c=0.5, b=10.0), LinearImpulse(rho=0.5), IdentityImpulse())
    for imp in impulses:
        p = params_benchmark.with_(impulse=imp)
        a1, a2, b1, b2 = eigenfunction_envelope_bounds(p)
        for mult in (1.0, 2.0, 10.0, 100.0):
            prof = principal_eigenvalue_closed_form(p, 4.0 * mult).phi_psi_profile
            assert a1 <= prof[0, 1] and np.max(prof[:, 1]) <= a2
            assert b1 <= prof[0, 2] and np.max(prof[:, 2]) <= b2


# ---------------------------------------------------------------------------
# Robin eigenproblem


def _fd_residual(rep, d: float) -> float:
    x, phi = rep.x, rep.phi0
    h = x[1] - x[0]
    i = np.arange(2, x.size - 2)
    d2 = (-phi[i - 2] + 16 * phi[i - 1] - 30 * phi[i] + 16 * phi[i + 1] - phi[i + 2]) / (12 * h * h)
    d1 = (phi[i - 2] - 8 * phi[i - 1] + 8 * phi[i + 1] - phi[i + 2]) / (12 * h)
    return float(np.max(np.abs(d * d2 + 0.5 * d1 + rep.mu0 * phi[i])))


@pytest.mark.parametrize("d", [0.1, 0.4, 1.0])
def test_robin_residual_oracle(d):
    rep = robin_eigen(d)
    assert _fd_residual(rep, d) < 1e-6


@pytest.mark.parametrize("d", [0.1, 0.4, 1.0])
def test_robin_shape_and_boundaries(d):
    rep = robin_eigen(d)
    assert math.pi / 2 < rep.beta0 < math.pi
    phi, x = rep.phi0, rep.x
    assert np.all(phi[:-1] > 0)  # positive on [0, 1)
    assert np.all(np.diff(phi) < 0)  # strictly decreasing
    assert abs(phi[-1]) < 1e-8
    h = x[1] - x[0]
    dphi0 = (-25 * phi[0] + 48 * phi[1] - 36 * phi[2] + 16 * phi[3] - 3 * phi[4]) / (12 * h)
    assert abs(dphi0) < 1e-8
    assert np.max(phi) == pytest.approx(1.0)


def test_robin_rejects_bad_diffusion():
    with pytest.raises(PreconditionError):
        robin_eigen(-1.0)


@pytest.mark.parametrize(
    "d, error", [(math.inf, PreconditionError), (1e-310, NumericalError), (1e12, None), (1e-20, None)]
)
def test_robin_edge_diffusion(d, error):
    # at d = 1e-310, mu0 ~ 1/(16 d) = 6.25e308 overflows
    if error is not None:
        with pytest.raises(error):
            robin_eigen(d)
        return
    # the roots lie 1.6e-13 above pi/2 (d = 1e12) and 1.3e-19 below pi
    # (d = 1e-20), which rounds to math.pi, itself below pi
    rep = robin_eigen(d)
    assert math.pi / 2 < rep.beta0 <= math.pi
    assert np.all(np.isfinite(rep.phi0)) and rep.phi0[0] == 1.0 and np.all(np.diff(rep.phi0) <= 0)
    limit = d * (math.pi / 2) ** 2 if d > 1 else 1.0 / (16.0 * d)
    assert rep.mu0 == pytest.approx(limit, rel=1e-12)
