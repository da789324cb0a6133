"""Periodic attractors of the frozen-geometry problems.

Two period maps P are solved for their fixed points, both started from the
uniform supersolution constants:

* the spatially homogeneous pair U' = a12 V - a11 U, V' = f(U) - a22 V with
  the reset U <- G(U) once per period (the whole-line limit dynamics), and
* the fixed-interval Dirichlet problem, advanced with the same IMEX core as
  the moving-front solver but with frozen fronts.

Both go through one solver, ``_fixed_point``: a few monotone Picard sweeps
w <- P(w) from above, then Newton steps on F(w) = P(w) - w whose linear
systems (I - P'(w)) delta = F(w) are solved by GMRES with finite-difference
Jacobian-vector products (Newton-Krylov; Knoll & Keyes, J. Comput. Phys.
193, 2004).  For a monotone concave map the Newton iterate from above lies
in the order interval [w*, P(w)], so each iterate is projected onto
[0, P(w)]: the projection only absorbs roundoff and difference error, and
the search stays above the largest fixed point instead of landing on the
zero orbit when a positive one exists.  A start below the orbit (a
subsolution, P(w) >= w) is held at or above P(w) instead, for the same
reason.

The limit is either the zero state or the unique positive periodic orbit;
which one occurs is dictated by the sign of the interval's principal
eigenvalue, and the fixed-domain routine verifies that agreement itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

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

# Newton-Krylov constants, chosen by measurement on the benchmark orbits,
# criterion 09's 50 cases and a near-threshold ODE case (README "Numerical
# notes"): monotone sweeps before the first Newton step; GMRES stops at a
# residual of GMRES_RTOL * |F| or GMRES_ATOL * tol, whichever is larger
# (3e-4 and looser stall some cases); the difference step is FD_STEP times
# the state's sup-norm (1e-6 to 1e-8 give the same iterations)
PICARD_SWEEPS = 3
GMRES_RTOL = 1e-5
GMRES_ATOL = 0.1
FD_STEP = 1e-7


@dataclass(frozen=True)
class PeriodicOrbit:
    """One period of the attractor.

    ``t`` holds sample times in [0, tau]; the first row is the post-reset
    state, the last the periodic pre-reset state.  ``x`` is None for the
    homogeneous orbit, else the interval nodes (then U, V have one row per
    sample time).  ``start_pre_reset`` is the fixed point of the period map.
    ``periods`` counts the period-map evaluations of the search, Jacobian
    directions included.
    """

    t: np.ndarray
    U: np.ndarray
    V: np.ndarray
    residual: float
    is_positive: bool
    periods: int
    x: np.ndarray | None = None
    start_pre_reset: np.ndarray | None = None


def _check_search(tol: float, max_periods: int) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise PreconditionError(f"tol must be finite and positive, got {tol}")
    if max_periods < 1:
        raise PreconditionError(f"need max_periods >= 1, got {max_periods}")


def _fixed_point(period_map, w: np.ndarray, tol: float, max_periods: int, what: str):
    """Fixed point of a monotone period map, searched from the start ``w``.

    Returns (state, defect, is_positive, evaluations): ``state`` is the last
    image P(w), ``defect`` is max|P(w) - w| at the stop.  Stops on the zero
    orbit once sup P(w) < tol, on the positive orbit once the defect is below
    tol and below RELATIVE_DEFECT_CAP * sup.  Every map evaluation counts
    against ``max_periods``, Jacobian directions included.
    """
    evaluations = 0
    residual = math.inf

    def P(x: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        if evaluations >= max_periods:
            raise NumericalError(
                f"{what} period map did not converge in {max_periods} periods "
                f"(last defect {residual:.3e})"
            )
        evaluations += 1
        return period_map(x)

    pw = P(w)
    for sweep in itertools.count(1):
        f = pw - w
        residual = float(np.abs(f).max())
        sup = float(pw.max())
        if sup < tol:
            return pw, residual, False, evaluations
        if residual < tol and residual <= RELATIVE_DEFECT_CAP * sup:
            return pw, residual, True, evaluations
        w = pw if sweep <= PICARD_SWEEPS else _newton_iterate(P, w, pw, tol)
        pw = P(w)


def _newton_iterate(P, w: np.ndarray, pw: np.ndarray, tol: float) -> np.ndarray:
    """Newton iterate for P(w) - w = 0, projected onto the order interval beyond P(w)."""
    f = pw - w
    h = FD_STEP * float(np.abs(w).max())

    def defect_jvp(x: np.ndarray) -> np.ndarray:
        # (I - P'(w)) x by a forward difference of relative size FD_STEP; the
        # maps are defined on non-negative states only, so a step that would
        # leave them differences the positive and negative parts of x apart
        xmax = float(np.abs(x).max())
        if xmax == 0.0:
            return np.zeros_like(x)
        eps = h / xmax
        probe = w + eps * x
        if probe.min() >= 0.0:
            return x - (P(probe) - pw) / eps
        up, down = np.maximum(x, 0.0), np.maximum(-x, 0.0)
        return x - (P(w + eps * up) - P(w + eps * down)) / eps

    A = LinearOperator((w.size, w.size), matvec=defect_jvp, dtype=float)
    delta, _ = gmres(A, f, rtol=GMRES_RTOL, atol=GMRES_ATOL * tol, restart=w.size, maxiter=1)
    if f.min() >= 0.0:  # a start below the orbit: at least as far up as P(w)
        return np.maximum(w + delta, pw)
    return np.clip(w + delta, 0.0, pw)


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
    """Homogeneous periodic attractor as the fixed point of the period map.

    Starts at the supersolution constants (C2, C3) unless ``start`` is given,
    so the search approaches from above.  Collapse below ``tol`` in norm is
    classified as the zero orbit.  ``max_periods`` caps the evaluations of
    ``ode_period_map``.
    """
    _check_search(tol, max_periods)
    w0 = density_bounds(params) if start is None else (float(start[0]), float(start[1]))

    def period_map(w: np.ndarray) -> np.ndarray:
        return np.array(ode_period_map(params, (w[0], w[1])))

    state, residual, is_positive, periods = _fixed_point(
        period_map, np.array(w0, dtype=float), tol, max_periods, "homogeneous"
    )
    if not is_positive:
        return _zero_orbit_homog(params, residual, periods)

    # resample one period of the converged orbit for the report
    u, v = float(state[0]), float(state[1])
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

    Solves for the fixed point of the PDE period map from the constant
    supersolution and classifies it as the zero orbit or the positive orbit.
    ``max_periods`` caps the period-map evaluations.  The classification is
    cross-checked against the sign of the principal eigenvalue for the same
    interval; a mismatch is an internal consistency failure, not a result.
    """
    if n < 16:
        raise PreconditionError(f"need n >= 16, got {n}")
    if not (math.isfinite(interval_length) and interval_length > 0):
        raise PreconditionError("interval length must be finite and positive")
    if steps_per_period < 1:
        raise PreconditionError(f"need steps_per_period >= 1, got {steps_per_period}")
    _check_search(tol, max_periods)
    lam = principal_eigenvalue_monodromy(params, interval_length).lam
    c2, c3 = density_bounds(params)

    w0 = np.empty(2 * (n + 1))
    w0[: n + 1], w0[n + 1 :] = c2, c3
    w0[[0, n, n + 1, -1]] = 0.0

    def period_map(w: np.ndarray) -> np.ndarray:
        un, vn, _ = _imex_period(
            params, w[: n + 1], w[n + 1 :], interval_length, n, steps_per_period
        )
        return np.concatenate([un, vn])

    state, residual, is_positive, periods = _fixed_point(
        period_map, w0, tol, max_periods, "fixed-domain"
    )
    if is_positive != (lam < 0):
        raise NumericalError(
            "dichotomy violation: principal eigenvalue "
            f"{lam:.6g} but orbit classified {'positive' if is_positive else 'zero'} "
            f"on length {interval_length}"
        )

    x = np.linspace(-interval_length / 2.0, interval_length / 2.0, n + 1)
    u, v = state[: n + 1], state[n + 1 :]
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
