"""Principal eigenvalue of the impulsive time-periodic linearization.

On a frozen interval of length L the linearized pair separates into
X(x) * (Phi(t), Psi(t)) with X the Dirichlet ground mode, lambda0 = (pi/L)^2,
and the temporal pair obeying

    (Phi, Psi)' = (lambda*I + B) (Phi, Psi),        B = [[-d1*lambda0 - a11, a12 ],
                                                         [f'(0), -d2*lambda0 - a22]]

on one period, with the reset (Phi, Psi)(0+) = (G'(0)*Phi(0), Psi(0)) and
periodicity.  Periodicity forces exp(-lambda*tau) to be the Perron root of
M = exp(B*tau) @ diag(G'(0), 1); B is cooperative, so M is entrywise
positive and the root is simple with a positive eigenvector.  The root is
taken of the bounded K = e^{-c1 tau} M, so this monodromy route covers
every interval.

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
    "dirichlet_lambda0",
    "principal_eigenvalue_monodromy",
    "lambda_at_h0",
    "lambda_infinity",
]

PROFILE_SAMPLES = 201


@dataclass(frozen=True)
class EigenReport:
    """Principal eigenvalue with the reduction intermediates.

    lam             the eigenvalue (1/time); negative means supercritical
    method          "monodromy" in every production report ("closed-form"
                    from the test-side reference route)
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


def _shifts(params: ModelParams, lambda0: float) -> tuple[float, float, float, float]:
    """Eigenvalues c1 > c2 of the cooperative matrix B, always real and
    distinct, and the gaps gap = B[0, 0] - c2 and n12 = c1 - B[0, 0].

    The gaps are positive, gap + n12 = c1 - c2 and gap * n12 = a12 * f'(0);
    they are formed without the cancellation that c1 - c2 or a11 + d1*lambda0
    + c1 suffer once d*lambda0 dwarfs the other coefficients.  So is c1, the
    larger diagonal entry of B plus the smaller gap: (trace + root)/2 cancels
    once one decay rate dwarfs the other.
    """
    fp0 = params.growth.slope_at_zero
    s = params.a22 + (params.d2 - params.d1) * lambda0 - params.a11  # B[0, 0] - B[1, 1]
    root = math.hypot(s, 2.0 * math.sqrt(params.a12 * fp0))
    base = -(params.d1 + params.d2) * lambda0 - params.a11 - params.a22
    # the gaps are (root + s)/2 and (root - s)/2: form the larger, divide for the other
    big = 0.5 * root + 0.5 * abs(s)
    small = params.a12 * fp0 / big
    top = -params.d1 * lambda0 - params.a11 if s > 0 else -params.d2 * lambda0 - params.a22
    c1, c2 = top + small, (base - root) / 2.0
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise NumericalError(f"eigenvalues of B leave the float range (lambda0 = {lambda0:.6g})")
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

    # express the eigenpair as the mode mixing k0 and multiplier y0 for the report
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


def lambda_at_h0(params: ModelParams) -> EigenReport:
    """Eigenvalue on the initial interval (-h0, h0)."""
    return principal_eigenvalue_monodromy(params, 2.0 * params.h0)


def lambda_infinity(params: ModelParams) -> EigenReport:
    """Whole-line eigenvalue, lambda0 = 0 exactly."""
    return principal_eigenvalue_monodromy(params, math.inf)
