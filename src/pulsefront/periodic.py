"""Periodic attractors of the frozen-geometry problems.

Two period maps P are solved for their fixed points, both started from the
uniform supersolution constants:

* the spatially homogeneous pair U' = a12 V - a11 U, V' = f(U) - a22 V with
  the reset U <- G(U) once per period (the whole-line limit dynamics),
  integrated by LSODA (``scipy.integrate.odeint``, imported on first use),
  where a failed or non-finite integration raises NumericalError, and
* the fixed-interval Dirichlet problem, advanced by the moving-front IMEX
  step with frozen fronts (``solver.frozen_step``, factored once per map)
  on the interior vector between two reused buffers: the Dirichlet zeros
  are padded back only at samples and at the end.

Both go through one solver, ``_fixed_point``: a few monotone Picard sweeps
w <- P(w) from above, then Newton steps on F(w) = P(w) - w whose linear
systems (I - P'(w)) delta = F(w) are solved by one GMRES cycle with
finite-difference Jacobian-vector products (Newton-Krylov; Knoll & Keyes,
J. Comput. Phys. 193, 2004), so a Newton step costs the maps of its Krylov
directions plus one for the new iterate.  For a monotone concave map the
Newton iterate from above lies in the order interval [w*, P(w)], so each
iterate is projected onto [0, P(w)]: the projection only absorbs roundoff
and difference error, and the search stays above the largest fixed point
instead of landing on the zero orbit when a positive one exists.  A start
below the orbit (a subsolution, P(w) >= w) is held at or above P(w)
instead, for the same reason.

The limit is either the zero state or the unique positive periodic orbit;
which one occurs is dictated by the sign of the interval's principal
eigenvalue, and the fixed-domain routine verifies that agreement itself.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dlartg

from .eigen import principal_eigenvalue_monodromy
from .errors import NumericalError, PreconditionError
from .model import ModelParams, density_bounds
from .solver import _padded, frozen_step

__all__ = ["PeriodicOrbit", "ode_periodic_orbit", "fixed_domain_periodic", "ode_period_map"]

# LSODA tolerances of the homogeneous map: Newton differences states down to
# 1e-9 near the zero orbit, so only a relative tolerance keeps them accurate
ODE_RTOL = 1e-12
ODE_ATOL = 1e-20

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
    sample time).  ``start_pre_reset`` is the pre-reset state the search
    stopped at: the fixed point of the period map on the positive orbit;
    on the zero orbit, zeros for the homogeneous one and the last image
    (sup below tol) for the interval one.  ``periods`` counts the
    period-map evaluations of the search, Jacobian directions included.
    """

    t: np.ndarray
    U: np.ndarray
    V: np.ndarray
    residual: float
    is_positive: bool
    periods: int
    start_pre_reset: np.ndarray
    x: np.ndarray | None = None


def _check_count(name: str, value: int, least: int) -> None:
    """``value`` must be an integer (NumPy's too, by ``operator.index``) of at least ``least``."""
    try:
        if operator.index(value) >= least:
            return
    except TypeError:
        pass
    raise PreconditionError(f"need an integer {name} >= {least}, got {value!r}")


def _check_search(tol: float, max_periods: int) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise PreconditionError(f"tol must be finite and positive, got {tol}")
    _check_count("max_periods", max_periods, 1)


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

    delta = _gmres(defect_jvp, f, GMRES_RTOL, GMRES_ATOL * tol)
    if f.min() >= 0.0:  # a start below the orbit: at least as far up as P(w)
        return np.maximum(w + delta, pw)
    return np.clip(w + delta, 0.0, pw)


def _gmres(matvec, b: np.ndarray, rtol: float, atol: float) -> np.ndarray:
    """One unrestarted GMRES cycle from x = 0 for A x = b, with A x = ``matvec(x)``.

    The arithmetic of ``scipy.sparse.linalg.gmres(A, b, rtol=rtol, atol=atol,
    restart=b.size, maxiter=1)``: modified Gram-Schmidt, LAPACK dlartg Givens
    rotations, the same tolerance and the same early and breakdown exits.  It
    leaves out scipy's closing product b - A x, which only sets an info flag
    and costs one more period map; a test holds the two equal bit for bit.
    """
    n = b.size
    bnrm2 = np.linalg.norm(b)
    atol = max(float(atol), float(rtol) * float(bnrm2))
    if bnrm2 == 0 or bnrm2 < atol:
        return np.zeros(n)
    ptol = bnrm2 * min(1.0, atol / bnrm2)
    v, h, givens, S = np.empty((n + 1, n)), np.zeros((n, n)), np.zeros((n, 2)), np.zeros(n + 1)
    v[0] = b
    S[0] = np.linalg.norm(v[0])
    v[0] *= 1 / S[0]
    for col in range(n):
        w = matvec(v[col])
        h0 = np.linalg.norm(w)
        for k in range(col + 1):  # modified Gram-Schmidt
            h[col, k] = np.dot(v[k], w)
            w -= h[col, k] * v[k]
        h1 = np.linalg.norm(w)
        v[col + 1] = w
        if h1 <= np.finfo(float).eps * h0:  # breakdown: the solution is in the Krylov space,
            h1 = 0.0  # so this column's rotation has s = 0 and the residual test ends the cycle
        else:
            v[col + 1] *= 1 / h1
        for k in range(col):  # the earlier rotations, then this column's own
            c, s = givens[k]
            n0, n1 = h[col, k], h[col, k + 1]
            h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
        c, s, h[col, col] = dlartg(h[col, col], h1)
        givens[col] = c, s  # the subdiagonal entry, rotated to 0, is not stored
        S[col], S[col + 1] = c * S[col], -s * S[col]
        if abs(S[col + 1]) <= ptol:
            break
    if h[col, col] == 0:
        S[col] = 0
    y = S[: col + 1].copy()
    for k in range(col, 0, -1):  # back substitution, skipping zero entries as scipy does
        if y[k] != 0:
            y[k] /= h[k, k]
            y[:k] -= y[k] * h[k, :k]
    if y[0] != 0:
        y[0] /= h[0, 0]
    return y @ v[: col + 1]


def _integrate(params: ModelParams, u: float, v: float, t) -> np.ndarray:
    """LSODA solution of the homogeneous system from (u, v) at t[0]; one row per time in ``t``."""
    # deferred: scipy.integrate costs ~60 ms and 1.7 MB to import; only the ODE orbit needs it
    from scipy.integrate import ODEintWarning, odeint

    a11, a12, a22, f = params.a11, params.a12, params.a22, params.growth

    def rhs(y, _t):
        return (a12 * y[1] - a11 * y[0], f(y[0]) - a22 * y[1])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)  # failure is reported below instead
        y, info = odeint(rhs, (u, v), t, rtol=ODE_RTOL, atol=ODE_ATOL, full_output=True)
    if info["message"] != "Integration successful." or not np.isfinite(y).all():
        raise NumericalError(
            f"homogeneous ODE integration failed from ({u:.6g}, {v:.6g}): {info['message']}"
        )
    return y


def ode_period_map(params: ModelParams, state: tuple[float, float]) -> tuple[float, float]:
    """Apply the reset, integrate one period; pre-reset state in, pre-reset out."""
    u0 = float(params.impulse(state[0]))
    y = _integrate(params, u0, float(state[1]), (0.0, params.tau))
    return float(y[-1, 0]), float(y[-1, 1])


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
    if not all(math.isfinite(c) and c >= 0.0 for c in w0):
        raise PreconditionError(f"start must be finite and non-negative, got {w0}")

    def period_map(w: np.ndarray) -> np.ndarray:
        return np.array(ode_period_map(params, (w[0], w[1])))

    state, residual, is_positive, periods = _fixed_point(
        period_map, np.array(w0, dtype=float), tol, max_periods, "homogeneous"
    )
    t = np.linspace(0.0, params.tau, 201)
    if is_positive:  # resample one period of the converged orbit for the report
        U, V = _integrate(params, float(params.impulse(state[0])), float(state[1]), t).T.copy()
    else:
        U, V, state = np.zeros(t.size), np.zeros(t.size), np.zeros(2)
    return PeriodicOrbit(
        t=t, U=U, V=V, residual=residual, is_positive=is_positive, periods=periods,
        start_pre_reset=state,
    )


def _imex_period(params: ModelParams, w: np.ndarray, length: float, steps: int, sample_every=0):
    """Frozen-interval period map on the (2, n+1) densities: reset, then IMEX over (0, tau]
    on the interior vector with one factored matrix and two reused buffers; ``w`` itself is
    left as it is.  Optionally samples (t, w) every ``sample_every`` steps from 0+ and at tau."""
    dt = params.tau / steps
    step = frozen_step(params, dt, length, w.shape[1] - 1)
    z = np.concatenate((params.impulse(w[0, 1:-1]), w[1, 1:-1]))
    buffers = np.empty_like(z), np.empty_like(z)
    samples = [(0.0, _padded(z))] if sample_every else None
    for i in range(1, steps + 1):
        z = step(z, buffers[i % 2])  # reads one buffer, writes the other
        if samples is not None and (i % sample_every == 0 or i == steps):
            samples.append((i * dt, _padded(z)))
    return _padded(z), samples


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
    _check_count("n", n, 16)
    if not (math.isfinite(interval_length) and interval_length > 0):
        raise PreconditionError("interval length must be finite and positive")
    _check_count("steps_per_period", steps_per_period, 1)
    _check_search(tol, max_periods)
    lam = principal_eigenvalue_monodromy(params, interval_length).lam
    c2, c3 = density_bounds(params)

    w0 = _padded(np.repeat([c2, c3], n - 1))

    def period_map(w: np.ndarray) -> np.ndarray:  # the flat Newton vector: u, then v
        image, _ = _imex_period(params, w.reshape(2, n + 1), interval_length, steps_per_period)
        return image.ravel()

    state, residual, is_positive, periods = _fixed_point(
        period_map, w0.ravel(), tol, max_periods, "fixed-domain"
    )
    if is_positive != (lam < 0):
        raise NumericalError(
            "dichotomy violation: principal eigenvalue "
            f"{lam:.6g} but orbit classified {'positive' if is_positive else 'zero'} "
            f"on length {interval_length}"
        )

    start = state.reshape(2, n + 1)
    if is_positive:  # sample the converged orbit over one period, ending at the pre-reset state
        every = max(1, steps_per_period // 8)
        _, path = _imex_period(params, start, interval_length, steps_per_period, every)
        ts, ws = zip(*path)
        t, (U, V) = np.array(ts), np.stack(ws, axis=1)
    else:
        t = np.linspace(0.0, params.tau, 9)
        U, V = np.zeros((2, t.size, n + 1))
    x = np.linspace(-interval_length / 2.0, interval_length / 2.0, n + 1)
    return PeriodicOrbit(
        t=t, U=U, V=V, residual=residual, is_positive=is_positive,
        periods=periods, x=x, start_pre_reset=start,
    )
