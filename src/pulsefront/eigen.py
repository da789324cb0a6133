"""Principal eigenvalues of the impulsive time-periodic linearization.

On a frozen interval of length L the linearized pair separates into
X(x) * (Phi(t), Psi(t)) with X the Dirichlet ground mode, lambda0 = (pi/L)^2,
and the temporal pair obeying

    (Phi, Psi)' = (lambda*I + B) (Phi, Psi),        B = [[-d1*lambda0 - a11, a12 ],
                                                         [f'(0), -d2*lambda0 - a22]]

on one period, with the reset (Phi, Psi)(0+) = (G'(0)*Phi(0), Psi(0)) and
periodicity.  Two independent routes compute the principal eigenvalue:

monodromy
    Periodicity forces exp(-lambda*tau) to be the Perron root of
    M = exp(B*tau) @ diag(G'(0), 1); B is cooperative, so M is entrywise
    positive and the root is simple with a positive eigenvector.  The root
    is taken of the bounded K = e^{-c1 tau} M, so the route covers every
    interval.  This is the production path.

closed form
    Expanding in the eigenmodes of B (eigenvalues c1 > c2, both independent
    of lambda after the shift kappa_i = lambda + c_i) turns the period and
    reset conditions into the intersection of two rational curves in the
    mode-mixing unknown k; the admissible intersection (k0, y0) with
    0 < k0 < n11/n12 and 1 <= y0 gives lambda = ln(y0)/tau - c1.  Kept as an
    exercised cross-check of the reduction machinery.

Both routes report the same normalized temporal profile, so the uniform
envelope constants of ``eigenfunction_envelope_bounds`` apply to either.
``ModelParams`` admits only a12*f'(0) > 0 and 0 < G'(0) <= 1, so the
routines here check the interval length alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError
from .model import ModelParams

__all__ = [
    "EigenReport",
    "RobinEigenReport",
    "dirichlet_lambda0",
    "principal_eigenvalue_monodromy",
    "principal_eigenvalue_closed_form",
    "lambda_at_h0",
    "lambda_infinity",
    "lambda_front",
    "eigenfunction_envelope_bounds",
    "robin_eigen",
]

PROFILE_SAMPLES = 201
ROBIN_NODES = 1001


@dataclass(frozen=True)
class EigenReport:
    """Principal eigenvalue with the reduction intermediates.

    lam             the eigenvalue (1/time); negative means supercritical
    method          "monodromy" or "closed-form"
    lambda0         Dirichlet spatial eigenvalue (pi/L)^2, 0 for the whole line
    c1, c2          lambda-independent shifts, the eigenvalues of B
    k0, y0          mode mixing and period multiplier e^{(lam+c1)tau}
    phi_psi_profile samples (t, Phi(t), Psi(t)) on [0, tau]; the t = 0 row is
                    the post-reset state, the t = tau row the pre-reset
                    periodic one, a positive Perron vector of
                    exp(B*tau) @ diag(G'(0), 1)
    """

    lam: float
    method: str
    lambda0: float
    c1: float
    c2: float
    k0: float
    y0: float
    phi_psi_profile: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "method": self.method,
            "lambda0": self.lambda0,
            "c1": self.c1,
            "c2": self.c2,
            "k0": self.k0,
            "y0": self.y0,
        }


@dataclass(frozen=True)
class RobinEigenReport:
    """Principal eigenpair of d*phi'' + phi'/2 + mu*phi = 0, phi'(0)=phi(1)=0."""

    mu0: float
    beta0: float
    x: np.ndarray
    phi0: np.ndarray


def dirichlet_lambda0(interval_length: float) -> float:
    """Ground Dirichlet eigenvalue (pi/L)^2 of -d^2/dx^2 on an interval of length L."""
    if not (math.isfinite(interval_length) and interval_length > 0):
        raise PreconditionError(f"interval length must be finite and positive, got {interval_length}")
    ratio = math.pi / interval_length
    if ratio > 1e154:
        raise PreconditionError(
            f"interval length {interval_length:g} is too short: (pi/L)^2 > 1e308"
        )
    return ratio**2


def _bisect(above, lo: float, hi: float) -> float:
    """Root in [lo, hi], where ``above(x)`` says it lies above x, to adjacent floats."""
    mid = 0.5 * lo + 0.5 * hi
    while lo < mid < hi:
        if above(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * lo + 0.5 * hi
    return mid


def _shifts(params: ModelParams, lambda0: float) -> tuple[float, float, float, float]:
    """Eigenvalues c1 > c2 of the cooperative matrix B, always real and
    distinct, and the gaps gap = B[0, 0] - c2 and n12 = c1 - B[0, 0].

    The gaps are positive, gap + n12 = c1 - c2 and gap * n12 = a12 * f'(0);
    they are formed without the cancellation that c1 - c2 or a11 + d1*lambda0
    + c1 suffer once d*lambda0 dwarfs the other coefficients.
    """
    fp0 = params.growth.slope_at_zero
    s = params.a22 + (params.d2 - params.d1) * lambda0 - params.a11  # B[0, 0] - B[1, 1]
    root = math.hypot(s, 2.0 * math.sqrt(params.a12 * fp0))
    base = -(params.d1 + params.d2) * lambda0 - params.a11 - params.a22
    c1, c2 = (base + root) / 2.0, (base - root) / 2.0
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise NumericalError(f"eigenvalues of B leave the float range (lambda0 = {lambda0:.6g})")
    # the gaps are (root + s)/2 and (root - s)/2: form the larger, divide for the other
    big = 0.5 * root + 0.5 * abs(s)
    small = params.a12 * fp0 / big
    return (c1, c2, big, small) if s > 0 else (c1, c2, small, big)


def _profile(params: ModelParams, lambda0: float, y0: float, k0: float,
             gap: float, n12: float) -> np.ndarray:
    """Sampled (t, Phi, Psi) on [0, tau] in the standard normalization.

    Phi(t) = [a12 e^{k1 t} - n12 k0 e^{k2 t}] / (a12 f'(0) + n12^2), with
    k1 = lam + c1 = ln(y0)/tau, k2 = k1 - (c1 - c2) and Psi the matching
    second component; gap and n12 are the gaps of ``_shifts``.  a12 f'(0) +
    n12^2 overflows once n12 passes 1e154, so every term is divided by the
    larger of n12 and sqrt(a12 f'(0)) first.  Raises NumericalError when a
    sample is not finite.
    """
    fp0 = params.growth.slope_at_zero
    s = max(n12, math.sqrt(params.a12 * fp0))
    a, f, n = params.a12 / s, fp0 / s, n12 / s
    det = a * f + n * n  # (a12 f'(0) + n12^2) / s^2, in [1, 2]
    k1 = math.log(y0) / params.tau
    t = np.linspace(0.0, params.tau, PROFILE_SAMPLES)
    # k2*t may overflow to -inf, where e^{k2 t} is 0; anything else that
    # leaves the float range is reported below
    with np.errstate(all="ignore"):
        e1, e2 = np.exp(k1 * t), np.exp((k1 - (gap + n12)) * t)
        phi = (a * e1 - n * k0 * e2) / det / s
        psi = (f * k0 * e2 + n * e1) / det / s
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))):
        raise NumericalError(f"eigenfunction profile leaves the float range (lambda0 = {lambda0:.6g})")
    return np.column_stack([t, phi, psi])


def principal_eigenvalue_monodromy(params: ModelParams, interval_length: float) -> EigenReport:
    """Perron-root route: lambda = -ln r(exp(B*tau) @ diag(G'(0), 1)) / tau.

    exp(B*tau) = e^{c1 tau} K0 with K0 = [(B - c2 I) - E (B - c1 I)]/(c1 - c2)
    and E = e^{(c2 - c1) tau} in [0, 1), so lambda = -c1 - ln r(K)/tau for
    K = K0 @ diag(G'(0), 1), whose Perron root lies between G'(0) and 1.
    e^{c1 tau} is never formed, so lambda is in float range on every interval.
    The diagonals of B - c2 I and B - c1 I are the gaps (gap, n12) and
    (-n12, -gap) of ``_shifts``, so K0 has no cancellation either.
    ``interval_length`` may be ``math.inf``, in which case lambda0 = 0 exactly.
    """
    if interval_length != math.inf and not interval_length > 0:
        raise PreconditionError(f"interval length must be positive or inf, got {interval_length}")
    lambda0 = 0.0 if interval_length == math.inf else dirichlet_lambda0(interval_length)

    fp0, gp0 = params.growth.slope_at_zero, params.impulse.slope_at_zero
    c1, c2, gap, n12 = _shifts(params, lambda0)
    root = gap + n12  # c1 - c2
    E, one_minus_E = math.exp(-root * params.tau), -math.expm1(-root * params.tau)
    k00, k01 = (gap + E * n12) / root * gp0, params.a12 * one_minus_E / root
    k10, k11 = fp0 * one_minus_E / root * gp0, (n12 + E * gap) / root
    r = (k00 + k11 + math.hypot(k00 - k11, 2.0 * math.sqrt(k01 * k10))) / 2.0
    lam = -c1 - math.log(r) / params.tau

    # express the eigenpair in the closed-form parameterization for the report
    y0 = 1.0 / r
    if abs(1.0 - y0) < 1e-14:  # identity-slope reset: constant-in-time mode
        k0, y0 = 0.0, 1.0
    else:
        k0 = n12 * (y0 - 1.0) / (fp0 - fp0 * E * y0)
    return EigenReport(
        lam=lam,
        method="monodromy",
        lambda0=lambda0,
        c1=c1,
        c2=c2,
        k0=k0,
        y0=y0,
        phi_psi_profile=_profile(params, lambda0, y0, k0, gap, n12),
    )


def principal_eigenvalue_closed_form(params: ModelParams, interval_length: float) -> EigenReport:
    """Rational-curve intersection route on a finite interval.

    Bisects F(k) = (n11 - n12 k)/(n13 - n23 k) - (n12 + n21 k)/(n12 + n22 k)
    on the positivity window (0, (n11 - eps0)/n12), where a sign change is
    guaranteed; the bracket is shrunk to floating-point exhaustion so the
    cross-route agreement is limited only by conditioning, not by a stopping
    tolerance.
    """
    fp0, gp0 = params.growth.slope_at_zero, params.impulse.slope_at_zero
    lambda0 = dirichlet_lambda0(interval_length)
    c1, c2, gap, n12 = _shifts(params, lambda0)
    tau = params.tau
    E = math.exp((c2 - c1) * tau)

    n11 = params.a12
    n13 = gp0 * params.a12
    n21 = fp0
    n22 = fp0 * E
    n23 = gp0 * n12 * E

    if gp0 == 1.0:
        # the curves intersect at the window corner: constant-in-time mode
        k0, y0 = 0.0, 1.0
    else:

        def F(k: float) -> float:
            return (n11 - n12 * k) / (n13 - n23 * k) - (n12 + n21 * k) / (n12 + n22 * k)

        eps0 = min(n11 / 2.0, n11 * gp0 * (1.0 - math.exp(-2.0 * math.sqrt(params.a12 * fp0) * tau)))
        lo, hi = 0.0, (n11 - eps0) / n12
        flo, fhi = F(lo), F(hi)
        if not (flo > 0.0 and fhi < 0.0):
            raise NumericalError(
                "no admissible intersection in the positivity window "
                f"(F({lo:.3g})={flo:.3g}, F({hi:.3g})={fhi:.3g}); "
                "parameters outside the reduction's regime"
            )
        k0 = _bisect(lambda k: F(k) > 0.0, lo, hi)
        y0 = (n12 + n21 * k0) / (n12 + n22 * k0)
        if not math.isfinite(y0):
            raise NumericalError(
                f"period multiplier y0 leaves the float range (lambda0 = {lambda0:.6g})"
            )

    lam = math.log(y0) / tau - c1
    return EigenReport(
        lam=lam,
        method="closed-form",
        lambda0=lambda0,
        c1=c1,
        c2=c2,
        k0=k0,
        y0=y0,
        phi_psi_profile=_profile(params, lambda0, y0, k0, gap, n12),
    )


def lambda_at_h0(params: ModelParams) -> EigenReport:
    """Eigenvalue on the initial interval (-h0, h0)."""
    return principal_eigenvalue_monodromy(params, 2.0 * params.h0)


def lambda_infinity(params: ModelParams) -> EigenReport:
    """Whole-line eigenvalue, lambda0 = 0 exactly."""
    return principal_eigenvalue_monodromy(params, math.inf)


def lambda_front(params: ModelParams, g: float, h: float) -> EigenReport:
    """Eigenvalue on the current front interval (g, h); depends on h - g only."""
    if not g < h:
        raise PreconditionError(f"front interval needs g < h, got g={g}, h={h}")
    return principal_eigenvalue_monodromy(params, h - g)


def eigenfunction_envelope_bounds(params: ModelParams) -> tuple[float, float, float, float]:
    """Width-uniform envelope constants (alpha1, alpha2, beta1, beta2).

    For every interval at least as wide as the initial one, the normalized
    temporal profile satisfies alpha1 <= Phi(0), Phi(t) <= alpha2,
    beta1 <= Psi(0), Psi(t) <= beta2 on [0, tau].  All four are explicit in
    the coefficients and the initial-width spatial eigenvalue.  Raises
    NumericalError when one of them leaves the float range.
    """
    fp0, gp0 = params.growth.slope_at_zero, params.impulse.slope_at_zero
    lam0_h0 = dirichlet_lambda0(2.0 * params.h0)
    root = math.sqrt(params.a12 * fp0)
    spread = 2.0 * root + params.a11 + params.a22 + (params.d1 + params.d2) * lam0_h0
    with np.errstate(over="ignore"):  # an infinite bound is reported below
        alpha2 = float(np.exp(spread * params.tau)) / fp0
    beta2 = fp0 * alpha2 / params.a11
    q = params.a11 + params.a22 + (params.d1 + params.d2) * lam0_h0 + root
    denom = params.a12 * fp0 + q * q
    eps0 = min(params.a12 / 2.0, params.a12 * gp0 * (1.0 - math.exp(-2.0 * root * params.tau)))
    bounds = (eps0 / denom, alpha2, params.a11 / denom, beta2)  # alpha1, alpha2, beta1, beta2
    if not all(math.isfinite(b) for b in bounds):
        raise NumericalError(f"envelope bounds overflow (spread*tau = {spread * params.tau:.6g})")
    return bounds


def robin_eigen(d: float) -> RobinEigenReport:
    """Principal eigenpair of d*phi'' + phi'/2 + mu*phi = 0 with phi'(0)=phi(1)=0.

    With alpha = -1/(4d), the eigenvalue condition is tan(beta) = beta/alpha;
    the minimal positive root sits in (pi/2, pi) and yields the positive,
    strictly decreasing eigenfunction
    phi(x) = -e^{alpha x} sin(beta0 (x - 1)), returned sup-normalized on
    ROBIN_NODES points.  mu0 follows from beta0 = sqrt(4 d mu0 - 1/4)/(2d).
    """
    if not (math.isfinite(d) and d > 0):
        raise PreconditionError(f"diffusion coefficient must be finite and positive, got d={d}")
    alpha = -1.0 / (4.0 * d)

    def crossing(beta: float) -> float:
        # tan(beta) = beta/alpha without the tangent pole; increasing from alpha to pi
        return alpha * math.sin(beta) - beta * math.cos(beta)

    beta0 = _bisect(lambda beta: crossing(beta) < 0.0, math.pi / 2, math.pi)
    mu0 = d * beta0 * beta0 + 1.0 / (16.0 * d)
    if not math.isfinite(mu0):
        raise NumericalError(f"Robin eigenvalue leaves the float range for d={d}")

    x = np.linspace(0.0, 1.0, ROBIN_NODES)
    phi = -np.exp(alpha * x) * np.sin(beta0 * (x - 1.0))
    # phi is strictly decreasing, so the sup-norm is attained at x = 0
    phi0 = phi / phi[0]
    return RobinEigenReport(mu0=mu0, beta0=beta0, x=x, phi0=phi0)
