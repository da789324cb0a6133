"""Periodic attractors of the frozen-geometry problems.

Two period maps P are solved for their fixed points, both started from the
uniform supersolution constants:

* the spatially homogeneous pair U' = a12 V - a11 U, V' = f(U) - a22 V with
  the reset U <- G(U) once per period (the whole-line limit dynamics),
  integrated by a Taylor-series method in Python floats (Jorba & Zou, Exp.
  Math. 14, 2005), where a failed or non-finite integration raises
  NumericalError, and
* the fixed-interval Dirichlet problem, advanced by the moving-front IMEX
  step with frozen fronts: ``solver.frozen_period_map`` builds the map, its
  factored matrix and its buffers once per orbit search, and the report
  samples the converged orbit from the same map.

Both go through one solver, ``_fixed_point``: a few monotone Picard sweeps
w <- P(w) from above, then Newton steps on F(w) = P(w) - w whose linear
systems (I - P'(w)) delta = F(w) are solved by one GMRES cycle with
finite-difference Jacobian-vector products (Newton-Krylov; Knoll & Keyes,
J. Comput. Phys. 193, 2004), so a Newton step costs the maps of its Krylov
directions plus one for the new iterate.  For a monotone concave map the
Newton iterate from above lies in the order interval [w*, P(w)], so each
iterate is projected onto [0, P(w)]: the projection only absorbs roundoff
and difference error, and the search stays above the largest fixed point
instead of landing on the zero orbit when a positive one exists.

The limit is either the zero state or the unique positive periodic orbit;
which one occurs is dictated by the sign of the interval's principal
eigenvalue, and the fixed-domain routine verifies that agreement itself.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .eigen import principal_eigenvalue_monodromy
from .errors import NumericalError, PreconditionError
from .model import ModelParams, density_bounds
from .solver import frozen_period_map

__all__ = ["PeriodicOrbit", "ode_periodic_orbit", "fixed_domain_periodic", "ode_period_map"]

# Taylor integration of the homogeneous map: each step is the order-TAYLOR_ORDER
# polynomial of the solution, whose last two terms are held to TAYLOR_RTOL of the
# state's sup-norm, times TAYLOR_SAFETY on the step length.  Newton differences
# states down to 1e-9 near the zero orbit, so only a relative tolerance keeps
# them accurate.  The method is explicit: once a11 (or a22) dominates, a step
# covers about 9 / a11, so TAYLOR_MAX_STEPS admits a11 * tau up to about 8.8e4
# (README "Numerical notes")
TAYLOR_ORDER = 20
TAYLOR_RTOL = 1e-13
TAYLOR_SAFETY = 0.9
TAYLOR_MAX_STEPS = 10_000

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
    """Newton iterate for P(w) - w = 0, projected onto the order interval [0, P(w)]."""
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
    return np.clip(w + delta, 0.0, pw)


def _gmres(matvec, b: np.ndarray, rtol: float, atol: float) -> np.ndarray:
    """One unrestarted GMRES cycle from x = 0 for A x = b, with A x = ``matvec(x)``.

    The arithmetic of ``scipy.sparse.linalg.gmres(A, b, rtol=rtol, atol=atol,
    restart=b.size, maxiter=1)``: modified Gram-Schmidt, LAPACK dlartg Givens
    rotations, the same tolerance and the same early and breakdown exits.  It
    leaves out scipy's closing product b - A x, which only sets an info flag
    and costs one more period map; a test holds the two equal bit for bit.
    """
    from scipy.linalg.lapack import dlartg  # deferred: scipy.linalg costs ~240 ms to import

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


def _integrate(params: ModelParams, u: float, v: float):
    """Taylor steps of the homogeneous system over one period from (u, v) at t = 0.

    Returns (steps, end): per step its start time and the Taylor coefficients
    of U and V there, from U_{k+1} = (a12 V_k - a11 U_k)/(k+1) and V_{k+1} =
    (F_k - a22 V_k)/(k+1) with the growth family's F_k; and the state at tau,
    which is ``_evaluate(steps, tau)`` bit for bit.  A non-finite state, a step
    that does not advance and TAYLOR_MAX_STEPS steps short of tau each raise
    NumericalError.
    """
    a11, a12, a22, term, tau = params.a11, params.a12, params.a22, params.growth.taylor_term, params.tau
    failed = f"homogeneous ODE integration failed from ({u:.6g}, {v:.6g}): "
    steps, t, last = [], 0.0, False
    while not last:
        if not (math.isfinite(u) and math.isfinite(v)):
            raise NumericalError(failed + f"the state ({u:.6g}, {v:.6g}) at t={t:.6g} is not finite")
        if len(steps) == TAYLOR_MAX_STEPS:
            raise NumericalError(failed + f"{TAYLOR_MAX_STEPS} steps reach only t={t:.6g} of {tau:.6g}")
        us, vs, aux = [u], [v], []
        for k in range(TAYLOR_ORDER):
            fk = term(us, aux)
            us.append((a12 * vs[k] - a11 * us[k]) / (k + 1))
            vs.append((fk - a22 * vs[k]) / (k + 1))
        steps.append((t, us, vs))
        h = _step_length(us, vs)
        last = h >= tau - t
        if last:
            h = tau - t  # as _evaluate forms it
        elif not h > 0.0:
            raise NumericalError(failed + f"the step length is {h:.3g} at t={t:.6g}")
        u, v = _horner(us, h), _horner(vs, h)
        t += h
    if not (math.isfinite(u) and math.isfinite(v)):
        raise NumericalError(failed + f"the state ({u:.6g}, {v:.6g}) at t={tau:.6g} is not finite")
    return steps, (u, v)


def _step_length(us: list[float], vs: list[float]) -> float:
    """The step whose last two Taylor terms are TAYLOR_RTOL of the state's sup-norm, times
    TAYLOR_SAFETY; inf when both terms vanish."""
    norm, h = max(abs(us[0]), abs(vs[0])), math.inf
    for k in (TAYLOR_ORDER - 1, TAYLOR_ORDER):
        size = max(abs(us[k]), abs(vs[k]))
        if size > 0.0:
            h = min(h, (TAYLOR_RTOL * (norm / size)) ** (1.0 / k))
    return TAYLOR_SAFETY * h


def _horner(coefficients: list[float], s: float) -> float:
    total = coefficients[-1]
    for c in coefficients[-2::-1]:
        total = total * s + c
    return total


def _evaluate(steps, t: float) -> tuple[float, float]:
    """The state at time t in [0, tau] from the polynomial of the last step starting at or
    before t, so the times asked for never change the steps taken."""
    start, us, vs = steps[bisect.bisect_right(steps, t, key=operator.itemgetter(0)) - 1]
    return _horner(us, t - start), _horner(vs, t - start)


def ode_period_map(params: ModelParams, state: tuple[float, float]) -> tuple[float, float]:
    """Apply the reset, integrate one period; pre-reset state in, pre-reset out."""
    return _integrate(params, float(params.impulse(state[0])), float(state[1]))[1]


def ode_periodic_orbit(
    params: ModelParams, tol: float = 1e-9, max_periods: int = 100_000
) -> PeriodicOrbit:
    """Homogeneous periodic attractor as the fixed point of the period map.

    Starts at the supersolution constants (C2, C3), so the search approaches
    from above.  Collapse below ``tol`` in norm is classified as the zero
    orbit.  ``max_periods`` caps the evaluations of ``ode_period_map``.
    """
    _check_search(tol, max_periods)

    def period_map(w: np.ndarray) -> np.ndarray:
        return np.array(ode_period_map(params, (w[0], w[1])))

    state, residual, is_positive, periods = _fixed_point(
        period_map, np.array(density_bounds(params)), tol, max_periods, "homogeneous"
    )
    t = np.linspace(0.0, params.tau, 201)
    if is_positive:  # resample one period of the converged orbit for the report
        steps, _ = _integrate(params, float(params.impulse(state[0])), float(state[1]))
        U, V = np.array([_evaluate(steps, ti) for ti in t.tolist()]).T.copy()
    else:
        U, V, state = np.zeros(t.size), np.zeros(t.size), np.zeros(2)
    return PeriodicOrbit(
        t=t, U=U, V=V, residual=residual, is_positive=is_positive, periods=periods,
        start_pre_reset=state,
    )


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
    w0 = np.zeros((2, n + 1))
    w0[0, 1:-1], w0[1, 1:-1] = density_bounds(params)
    period = frozen_period_map(params, interval_length, n, steps_per_period)

    def period_map(w: np.ndarray) -> np.ndarray:  # the flat Newton vector: u, then v
        return period(w.reshape(2, n + 1))[0].ravel()

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
        _, path = period(start, every)
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
