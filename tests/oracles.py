"""Test-side oracles: a second route to the principal eigenvalue, checks of
the paper's lemmas, and step references on a workspace of their own.

No command runs these; the tests hold ``pulsefront.eigen``'s monodromy
route, the solver's shared-workspace steps and the package's other results
against them.

closed form
    Expanding in the eigenmodes of B (eigenvalues c1 > c2, both independent
    of lambda after the shift kappa_i = lambda + c_i) turns the period and
    reset conditions into the intersection of two rational curves in the
    mode-mixing unknown k; the admissible intersection (k0, y0) with
    0 < k0 < n11/n12 and 1 <= y0 gives lambda = ln(y0)/tau - c1.

Both routes report the same normalized temporal profile, so the uniform
envelope constants of ``eigenfunction_envelope_bounds`` apply to either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pulsefront.classify import _bisect
from pulsefront.eigen import (
    EigenReport,
    _profile,
    _shifts,
    dirichlet_lambda0,
    principal_eigenvalue_monodromy,
)
from pulsefront.errors import NumericalError, PreconditionError
from pulsefront.model import ModelParams
from pulsefront.solver import _padded, _Workspace, imex_density_step, transform_step

ROBIN_NODES = 1001


@dataclass(frozen=True)
class RobinEigenReport:
    """Principal eigenpair of d*phi'' + phi'/2 + mu*phi = 0, phi'(0)=phi(1)=0."""

    mu0: float
    beta0: float
    x: np.ndarray
    phi0: np.ndarray


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


def imex_step(w, params, dt, width_new, vel_g=0.0, vel_h=0.0):
    """One IMEX update of the (2, n+1) densities w on a workspace of its own: the new densities."""
    work = _Workspace(params, dt, w.shape[1] - 1).start(w)
    return _padded(imex_density_step(work, width_new, vel_g, vel_h))


def heun_step(g, h, w, params, dt):
    """One ``transform_step`` of the fronts and the (2, n+1) densities w on a workspace of its own."""
    return transform_step(g, h, w, _Workspace(params, dt, w.shape[1] - 1))
