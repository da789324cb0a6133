"""Periodic attractors of the frozen-geometry problems.

Two period maps are iterated to their fixed points, both started from the
uniform supersolution constants so the iterates decrease monotonically:

* the spatially homogeneous pair U' = a12 V - a11 U, V' = f(U) - a22 V with
  the reset U <- G(U) once per period (the whole-line limit dynamics), and
* the fixed-interval Dirichlet problem, advanced with the same IMEX core as
  the moving-front solver but with frozen fronts.

The limit is either the zero state or the unique positive periodic orbit;
which one occurs is dictated by the sign of the interval's principal
eigenvalue, and the fixed-domain routine verifies that agreement itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import principal_eigenvalue_monodromy
from .errors import NumericalError, PreconditionError
from .model import ModelParams, density_bounds
from .solver import imex_density_step

__all__ = ["PeriodicOrbit", "ode_periodic_orbit", "fixed_domain_periodic", "ode_period_map"]

ODE_SUBSTEPS = 10_000

# a converged state counts as the positive orbit only if the defect is also
# small relative to the state: slow geometric decay toward zero can reach an
# absolute defect below tol while the state is still tens of tol in size
RELATIVE_DEFECT_CAP = 1e-2


@dataclass(frozen=True)
class PeriodicOrbit:
    """One period of the attractor.

    ``t`` holds sample times in [0, tau]; the first row is the post-reset
    state, the last the periodic pre-reset state.  ``x`` is None for the
    homogeneous orbit, else the interval nodes (then U, V have one row per
    sample time).  ``start_pre_reset`` is the fixed point of the period map.
    """

    t: np.ndarray
    U: np.ndarray
    V: np.ndarray
    residual: float
    is_positive: bool
    periods: int
    x: np.ndarray | None = None
    start_pre_reset: np.ndarray | None = None


def _rk4_period(params: ModelParams, u: float, v: float, substeps: int, sample_every: int = 0):
    """Classical fourth-order sweep over (0, tau]; optionally samples the path."""
    a11, a12, a22 = params.a11, params.a12, params.a22
    f = params.growth
    dt = params.tau / substeps
    samples = [] if sample_every else None
    for i in range(substeps):
        k1u = a12 * v - a11 * u
        k1v = f(u) - a22 * v
        u2, v2 = u + 0.5 * dt * k1u, v + 0.5 * dt * k1v
        k2u = a12 * v2 - a11 * u2
        k2v = f(u2) - a22 * v2
        u3, v3 = u + 0.5 * dt * k2u, v + 0.5 * dt * k2v
        k3u = a12 * v3 - a11 * u3
        k3v = f(u3) - a22 * v3
        u4, v4 = u + dt * k3u, v + dt * k3v
        k4u = a12 * v4 - a11 * u4
        k4v = f(u4) - a22 * v4
        u = u + dt * (k1u + 2 * k2u + 2 * k3u + k4u) / 6.0
        v = v + dt * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
        if samples is not None and (i + 1) % sample_every == 0:
            samples.append((u, v))
    return u, v, samples


def ode_period_map(params: ModelParams, state: tuple[float, float]) -> tuple[float, float]:
    """Apply the reset, integrate one period; pre-reset state in, pre-reset out."""
    u0 = float(params.impulse(state[0]))
    u, v, _ = _rk4_period(params, u0, float(state[1]), ODE_SUBSTEPS)
    return u, v


def ode_periodic_orbit(
    params: ModelParams,
    tol: float = 1e-9,
    max_periods: int = 100_000,
    start: tuple[float, float] | None = None,
) -> PeriodicOrbit:
    """Homogeneous periodic attractor by period-map fixed-point iteration.

    Starts at the supersolution constants (C2, C3) unless ``start`` is given,
    so the sweep is monotone from above.  Collapse below ``tol`` in norm is
    classified as the zero orbit.
    """
    if not tol > 0:
        raise PreconditionError("tol must be positive")
    u, v = density_bounds(params) if start is None else (float(start[0]), float(start[1]))

    converged = False
    periods = 0
    residual = math.inf
    for periods in range(1, max_periods + 1):
        un, vn = ode_period_map(params, (u, v))
        residual = max(abs(un - u), abs(vn - v))
        sup = max(un, vn)
        u, v = un, vn
        if sup < tol:
            return _zero_orbit_homog(params, residual, periods)
        if residual < tol and residual <= RELATIVE_DEFECT_CAP * sup:
            converged = True
            break
    if not converged:
        raise NumericalError(
            f"homogeneous period map did not converge in {max_periods} periods "
            f"(last defect {residual:.3e})"
        )

    # polish past the stopping defect: with a contraction factor near one the
    # state still sits several defects away from the fixed point, and two
    # independently converged runs must agree to a small multiple of tol
    for _ in range(3):
        un, vn = ode_period_map(params, (u, v))
        residual = max(abs(un - u), abs(vn - v))
        u, v = un, vn

    # resample one period of the converged orbit for the report
    sample_every = ODE_SUBSTEPS // 200
    u_plus = float(params.impulse(u))
    _, _, path = _rk4_period(params, u_plus, v, ODE_SUBSTEPS, sample_every=sample_every)
    t = np.concatenate([[0.0], (np.arange(1, len(path) + 1)) * (params.tau / 200)])
    U = np.concatenate([[u_plus], [p[0] for p in path]])
    V = np.concatenate([[v], [p[1] for p in path]])
    return PeriodicOrbit(
        t=t,
        U=U,
        V=V,
        residual=residual,
        is_positive=True,
        periods=periods,
        start_pre_reset=np.array([u, v]),
    )


def _zero_orbit_homog(params: ModelParams, residual: float, periods: int) -> PeriodicOrbit:
    t = np.linspace(0.0, params.tau, 201)
    z = np.zeros_like(t)
    return PeriodicOrbit(
        t=t,
        U=z,
        V=z.copy(),
        residual=residual,
        is_positive=False,
        periods=periods,
        start_pre_reset=np.zeros(2),
    )


def _imex_period(
    params: ModelParams, u, v, length: float, n: int, steps: int, sample_every: int = 0
):
    """Frozen-interval period map: reset, then IMEX over (0, tau]; optionally samples from 0+."""
    u = params.impulse(u)
    dt = params.tau / steps
    samples = [(0.0, u, v)] if sample_every else None
    for i in range(steps):
        u, v = imex_density_step(u, v, params, dt, 1.0 / n, length)
        if samples is not None and (i + 1) % sample_every == 0:
            samples.append(((i + 1) * dt, u, v))
    return u, v, samples


def fixed_domain_periodic(
    params: ModelParams,
    interval_length: float,
    n: int,
    tol: float = 1e-9,
    max_periods: int = 10_000,
    steps_per_period: int = 200,
) -> PeriodicOrbit:
    """Periodic attractor of the frozen-interval Dirichlet problem.

    Iterates the PDE period map from the constant supersolution and classifies
    the limit as the zero orbit or the positive orbit.  The classification is
    cross-checked against the sign of the principal eigenvalue for the same
    interval; a mismatch is an internal consistency failure, not a result.
    """
    if n < 16:
        raise PreconditionError(f"need n >= 16, got {n}")
    if not (math.isfinite(interval_length) and interval_length > 0):
        raise PreconditionError("interval length must be finite and positive")
    lam = principal_eigenvalue_monodromy(params, interval_length).lam
    c2, c3 = density_bounds(params)

    u = np.full(n + 1, c2)
    v = np.full(n + 1, c3)
    u[0] = u[-1] = 0.0
    v[0] = v[-1] = 0.0

    is_positive = None
    residual = math.inf
    periods = 0
    for periods in range(1, max_periods + 1):
        un, vn, _ = _imex_period(params, u, v, interval_length, n, steps_per_period)
        residual = max(float(np.max(np.abs(un - u))), float(np.max(np.abs(vn - v))))
        sup = max(float(np.max(un)), float(np.max(vn)))
        u, v = un, vn
        if sup < tol:
            is_positive = False
            break
        if residual < tol and residual <= RELATIVE_DEFECT_CAP * sup:
            is_positive = True
            break
    if is_positive is None:
        raise NumericalError(
            f"fixed-domain period map did not converge in {max_periods} periods "
            f"(last defect {residual:.3e})"
        )

    if is_positive != (lam < 0):
        raise NumericalError(
            "dichotomy violation: principal eigenvalue "
            f"{lam:.6g} but orbit classified {'positive' if is_positive else 'zero'} "
            f"on length {interval_length}"
        )

    x = np.linspace(-interval_length / 2.0, interval_length / 2.0, n + 1)
    start = np.stack([u, v])
    if not is_positive:
        t = np.linspace(0.0, params.tau, 9)
        zeros = np.zeros((t.size, n + 1))
        return PeriodicOrbit(
            t=t, U=zeros, V=zeros.copy(), residual=residual, is_positive=False,
            periods=periods, x=x, start_pre_reset=start,
        )

    # sample the converged orbit over one period
    _, _, path = _imex_period(
        params, u, v, interval_length, n, steps_per_period, max(1, steps_per_period // 8)
    )
    ts, us, vs = zip(*path)
    return PeriodicOrbit(
        t=np.array(ts), U=np.stack(us), V=np.stack(vs), residual=residual,
        is_positive=True, periods=periods, x=x, start_pre_reset=start,
    )
