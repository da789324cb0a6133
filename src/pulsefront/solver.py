"""Time integration of the moving-interval model.

The interval (g(t), h(t)) is mapped to the fixed reference coordinate
xi = (x - g)/(h - g), which turns front motion into an advection term:

    U_t = d1 U_xixi/(h-g)^2 + [(g' + xi (h'-g'))/(h-g)] U_xi - a11 U + a12 V
    V_t = d2 V_xixi/(h-g)^2 + [(g' + xi (h'-g'))/(h-g)] V_xi - a22 V + f(U)

Front speeds come first each step from one-sided second-order gradients of
the current profiles (the accuracy bottleneck of the whole scheme), the
fronts advance by Heun, and the densities then take an IMEX step:
diffusion implicit via an SPD tridiagonal solve (LAPACK dptsv), advection
and reactions explicit.  The densities are one (2, n+1) array w (rows U, V)
that one block-diagonal dptsv call advances.  Disinfection resets u <- G(u)
pointwise at every multiple of tau; the k = 0 reset at t = 0+ is applied too.

Runs are deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs, dptsv

from .errors import ConfigurationError, NumericalError, PreconditionError
from .model import InitialData, ModelParams, density_bounds

__all__ = [
    "SolverConfig", "Snapshot", "TimeSeries", "Trajectory",
    "transform_step", "apply_impulse", "run", "imex_density_step", "frozen_step",
]

# Undershoot within this fraction of a species' sup-norm is rounding next to
# the zero boundary values and is clipped; more means the scheme has failed.
CLIP_TOL = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    n: int = 512
    steps_per_period: int = 2000

    def __post_init__(self):
        # integers, NumPy's too: a fractional count would skew the grid or
        # the step on which each impulse lands
        for name, least in (("n", 16), ("steps_per_period", 10)):
            value = getattr(self, name)
            try:
                if operator.index(value) >= least:
                    continue
            except TypeError:
                pass
            raise ConfigurationError(f"solver needs an integer {name} >= {least}, got {value!r}")

    @property
    def xi(self) -> np.ndarray:
        """Uniform nodes xi_i = i/n on the reference interval [0, 1]."""
        return np.linspace(0.0, 1.0, self.n + 1)

    @property
    def dxi(self) -> float:
        return 1.0 / self.n


@dataclass(frozen=True)
class Snapshot:
    t: float
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class TimeSeries:
    """Per-step front and sup-norm traces, plus optional full snapshots."""

    t: np.ndarray
    g: np.ndarray
    h: np.ndarray
    sup_u: np.ndarray
    sup_v: np.ndarray
    snapshots: tuple[Snapshot, ...] = field(default_factory=tuple)

    @property
    def width(self) -> np.ndarray:
        return self.h - self.g


def _front_velocities(
    w: np.ndarray, width: float, dxi: float, mu1: float, mu2: float
) -> tuple[float, float]:
    """Stefan speeds from one-sided three-point gradients; boundary values are zero.

    The continuous model keeps h' > 0 and g' < 0 strictly; stencil noise of a
    nearly flat profile can flip the sign by a roundoff-scale amount, so the
    speeds are floored at zero rather than letting fronts retreat.  ``item``
    gives Python floats, which round as NumPy scalars do but overflow to inf
    without a warning; the stability guard then rejects the step.
    """
    du_right = (w.item(0, -3) - 4.0 * w.item(0, -2)) / (2.0 * dxi)
    dv_right = (w.item(1, -3) - 4.0 * w.item(1, -2)) / (2.0 * dxi)
    du_left = (4.0 * w.item(0, 1) - w.item(0, 2)) / (2.0 * dxi)
    dv_left = (4.0 * w.item(1, 1) - w.item(1, 2)) / (2.0 * dxi)
    vel_h = -(mu1 * du_right + mu2 * dv_right) / width
    vel_g = -(mu1 * du_left + mu2 * dv_left) / width
    return min(vel_g, 0.0), max(vel_h, 0.0)


def imex_density_step(
    w: np.ndarray, params: ModelParams, dt: float, dxi: float, width_new: float,
    vel_g: float = 0.0, vel_h: float = 0.0, terms: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """One IMEX update of the (2, n+1) densities: the explicit ``terms`` of the start
    state w (formed here unless a caller passes them), then the stage solve.

    ``vel_g``/``vel_h`` are the discrete mesh velocities over the step; pass
    zeros for a fixed interval.  Both species are solved in one dptsv call on
    the block-diagonal system: the zero coupling entry between the blocks
    leaves the next pivot untouched and subtracts only products with zero, so
    the result equals two separate solves (up to the sign of a zero).
    """
    n = w.shape[1] - 1
    diff, react = terms or _start_terms(w, params, dt)
    # in place, and in an order whose bits equal
    # w + (dt / (2 dxi W)) * (vel_g + xi * (vel_h - vel_g)) * diff + react
    adv = _interior_xi(n, dxi) * (vel_h - vel_g)
    adv += vel_g
    adv *= dt / (2.0 * dxi * width_new)
    rhs = adv * diff
    rhs += w[:, 1:-1]
    rhs += react
    diag, off, r_u, r_v = _stage_matrix(params, dt, dxi, width_new, n - 1)
    _, _, interior, info = dptsv(diag, off, rhs.ravel(), 1, 1, 1)  # overwrite d, e and b
    if info != 0:
        name, r = ("u", r_u) if info <= n - 1 else ("v", r_v)
        raise NumericalError(f"tridiagonal solve for {name} failed (dptsv info={info}, r={r:.6g})")
    return _padded(_guarded(w, interior))


def frozen_step(params: ModelParams, dt: float, width: float, n: int):
    """``imex_density_step(w, params, dt, 1/n, width)`` on the interior vector z of w (u then v),
    bit for bit: the matrix is factored once (dpttrf), and ``step(z, out)`` skips the advection
    term, whose velocities are 0, and solves z + dt * reactions in the buffer ``out`` (dpttrs)."""
    diag, off, _, _ = _stage_matrix(params, dt, 1.0 / n, width, n - 1)
    diag, off, info = dpttrf(diag, off, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise NumericalError(f"frozen-interval matrix is not positive definite (dpttrf info={info})")
    constants = _reaction_constants(dt, params.a11, params.a12, params.a22)

    def step(z: np.ndarray, out: np.ndarray) -> np.ndarray:
        rows = z.reshape(2, -1)
        _reactions(rows, params, dt, constants, out.reshape(2, -1))
        out += z  # addition commutes: the bits of z + reactions
        return _guarded(rows, dpttrs(diag, off, out, overwrite_b=1)[0])

    return step


def _start_terms(w: np.ndarray, params: ModelParams, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The explicit terms of the start state w: central differences and dt-scaled reactions."""
    constants = _reaction_constants(dt, params.a11, params.a12, params.a22)
    return w[:, 2:] - w[:, :-2], _reactions(w[:, 1:-1], params, dt, constants)


@lru_cache(maxsize=8)
def _reaction_constants(dt: float, a11: float, a12: float, a22: float) -> tuple[float, np.ndarray]:
    """dt * a12 and the decay column [[dt * a11], [a22]] of ``_reactions``, shared read-only."""
    decay = np.array([[dt * a11], [a22]])
    decay.flags.writeable = False
    return dt * a12, decay


def _reactions(x: np.ndarray, params: ModelParams, dt: float, constants, out: np.ndarray | None = None):
    """The dt-scaled reactions (dt a12 v - dt a11 u, dt (f(u) - a22 v)) of the interior rows
    x = (u, v), bit for bit, written to ``out`` (new if None); ``constants`` are
    ``_reaction_constants`` of dt and the coefficients."""
    dt_a12, decay = constants
    out = np.empty(x.shape) if out is None else out
    np.multiply(dt_a12, x[1], out[0])
    out[1] = params.growth(x[0])
    out -= x * decay
    out[1] *= dt
    return out


def _stage_matrix(params: ModelParams, dt: float, dxi: float, width: float, m: int):
    """Diagonal, off-diagonal, r_u and r_v of the block SPD matrix on m interior nodes."""
    diffusion = dt / (width * width * dxi * dxi)
    r_u, r_v = diffusion * params.d1, diffusion * params.d2
    diag, off = np.empty(2 * m), np.empty(2 * m - 1)  # LAPACK overwrites both
    diag[:m], diag[m:] = 1.0 + 2.0 * r_u, 1.0 + 2.0 * r_v
    off[: m - 1], off[m - 1], off[m:] = -r_u, 0.0, -r_v
    return diag, off, r_u, r_v


def _guarded(w: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """``interior`` (u then v) after the finite and undershoot guards against the rows ``w`` of its
    start state, clipped in place; most pass on one whole-vector min and max (NaN fails both)."""
    if np.minimum.reduce(interior) >= 0.0 and math.isfinite(np.maximum.reduce(interior)):
        return interior
    rows = interior.reshape(2, -1)
    for row, (name, low, high) in enumerate(zip("uv", rows.min(axis=1), rows.max(axis=1))):
        if not (math.isfinite(low) and math.isfinite(high)):
            raise NumericalError(f"{name} is no longer finite; scheme failure")
        if low < 0.0:
            scale = w[row].max()
            if low < -CLIP_TOL * scale:
                raise NumericalError(
                    f"{name} undershoot {low:.3e} exceeds the clip tolerance "
                    f"({CLIP_TOL:.1e} * sup = {CLIP_TOL * scale:.3e}); scheme failure"
                )
            np.maximum(rows[row], 0.0, out=rows[row])
    return interior


def _padded(interior: np.ndarray) -> np.ndarray:
    """The (2, n+1) densities of an ``interior`` (u then v), with Dirichlet zeros at the ends."""
    out = np.zeros((2, interior.size // 2 + 2))
    out[:, 1:-1] = interior.reshape(2, -1)
    return out


@lru_cache(maxsize=8)
def _interior_xi(n: int, dxi: float) -> np.ndarray:
    xi = np.arange(1, n) * dxi  # interior nodes, shared by every step
    xi.flags.writeable = False
    return xi


def _stability_guard(params: ModelParams, cfg: SolverConfig, dt: float, vmax: float, width: float):
    # explicit central advection under implicit diffusion is von Neumann
    # stable when courant^2 <= 2 * diffusion number, i.e. dt*vmax^2 <= 2*min(d)
    dmin = min(params.d1, params.d2)
    if dt * vmax * vmax > 2.0 * dmin:
        diff_no = dt * max(params.d1, params.d2) * cfg.n**2 / (width * width)
        raise ConfigurationError(
            f"explicit advection unstable: dt={dt:.6g}, n={cfg.n} gives "
            f"dt*vmax^2={dt * vmax * vmax:.4g} > 2*min(d1,d2)={2 * dmin:.4g} "
            f"(diffusion number {diff_no:.3g}); reduce dt via steps_per_period"
        )


def transform_step(
    g: float, h: float, w: np.ndarray, params: ModelParams, cfg: SolverConfig, dt: float
) -> tuple[float, float, np.ndarray]:
    """Advance the fronts g, h and the densities w by one step: front speeds,
    Heun front update, then the density update.  Returns (g1, h1, w1)."""
    dxi = cfg.dxi
    vg0, vh0 = _front_velocities(w, h - g, dxi, params.mu1, params.mu2)
    _stability_guard(params, cfg, dt, max(-vg0, vh0), h - g)

    g1, h1 = g + dt * vg0, h + dt * vh0
    terms = _start_terms(w, params, dt)  # both stages start from w
    wp = imex_density_step(w, params, dt, dxi, h1 - g1, vg0, vh0, terms)
    vg1, vh1 = _front_velocities(wp, h1 - g1, dxi, params.mu1, params.mu2)
    g1 = g + 0.5 * dt * (vg0 + vg1)
    h1 = h + 0.5 * dt * (vh0 + vh1)

    vg = (g1 - g) / dt
    vh = (h1 - h) / dt
    _stability_guard(params, cfg, dt, max(-vg, vh), h1 - g1)
    return g1, h1, imex_density_step(w, params, dt, dxi, h1 - g1, vg, vh, terms)


def apply_impulse(w: np.ndarray, params: ModelParams) -> None:
    """Pointwise reset u <- G(u) of row 0 in place; v and the fronts are untouched."""
    w[0] = params.impulse(w[0])


class Trajectory:
    """A run from t = 0 that is advanced in pieces and read at any step.

    ``advance(k)`` integrates up to step k; stepping to k in one call or in
    several gives bit-identical records.  dt = tau / steps_per_period, so
    resets land exactly on step boundaries.  The reset due after a step that
    is a multiple of steps_per_period (and the k = 0 reset) is applied when
    the next step starts, so the record at a reset time holds the pre-reset
    state (the solution is left-continuous there) and the last record is
    never a post-reset state.  Density sup-norms are checked each step against
    the uniform supersolution constants derived from the coefficients.

    The state is the fronts ``g``, ``h`` and the (2, n+1) densities ``w``
    (rows u, v).  ``t_end`` sizes the record arrays and sets ``n_steps``;
    advancing beyond it grows them to at least twice their length.
    """

    def __init__(
        self,
        params: ModelParams,
        init: InitialData,
        cfg: SolverConfig,
        t_end: float,
        snapshot_times: tuple[float, ...] = (),
    ):
        if not (math.isfinite(t_end) and t_end > 0):
            raise PreconditionError(f"t_end must be finite and positive, got {t_end}")
        self.params, self.cfg = params, cfg
        self.dt = params.tau / cfg.steps_per_period
        if not self.dt > 0:
            raise ConfigurationError(
                f"tau={params.tau:g} / steps_per_period={cfg.steps_per_period} rounds to dt=0"
            )
        self.c2, self.c3 = density_bounds(params, init)
        try:
            self._xi = cfg.xi
            self.w = np.array(init.sample(-params.h0 + self._xi * (2.0 * params.h0)))
        except MemoryError:
            raise ConfigurationError(f"n={cfg.n} nodes are more than memory can hold") from None
        if np.any(self.w < 0):
            raise ConfigurationError("initial densities must be non-negative")
        self.w[:, 0] = self.w[:, -1] = 0.0
        self.g, self.h = -params.h0, params.h0
        self.step = 0
        try:
            self.n_steps = self.steps_to(t_end)
            self._rec = np.empty((5, self.n_steps + 1))  # rows t, g, h, sup_u, sup_v
        except (OverflowError, ValueError, MemoryError):
            raise PreconditionError(
                f"t_end={t_end:g} takes more steps of dt={self.dt:.3g} than can be recorded"
            ) from None
        if self.n_steps < 1:
            raise PreconditionError(f"t_end={t_end:g} rounds to no step of dt={self.dt:.3g}")
        self._snaps: list[Snapshot] = []
        self._pending = sorted(float(s) for s in snapshot_times)
        self._record()

    def steps_to(self, t_end: float) -> int:
        """Steps needed to reach t_end (a partial last step counts in full)."""
        return int(math.ceil(t_end / self.dt - 1e-9))

    def _record(self):
        i, w, dt = self.step, self.w, self.dt
        rec = self._rec
        rec[0, i] = i * dt
        rec[1, i] = self.g
        rec[2, i] = self.h
        np.maximum.reduce(w, axis=1, out=rec[3:, i])  # sup_u, sup_v
        while self._pending and i * dt >= self._pending[0] - 0.5 * dt:
            self._pending.pop(0)
            x = self.g + self._xi * (self.h - self.g)
            self._snaps.append(Snapshot(t=i * dt, x=x, u=w[0].copy(), v=w[1].copy()))

    def advance(self, to_step: int) -> None:
        """Integrate from the current step up to step ``to_step``."""
        if to_step >= self._rec.shape[1]:
            # at least double: a run resumed period by period copies its records
            # a few times, not once per period
            grown = np.empty((5, max(to_step + 1, 2 * self._rec.shape[1])))
            grown[:, : self.step + 1] = self._rec[:, : self.step + 1]
            self._rec = grown
        params, cfg, dt, m = self.params, self.cfg, self.dt, self.cfg.steps_per_period
        rec = self._rec
        while self.step < to_step:
            if self.step % m == 0:
                apply_impulse(self.w, params)
            self.g, self.h, self.w = transform_step(self.g, self.h, self.w, params, cfg, dt)
            self.step += 1
            self._record()
            i = self.step
            if rec[3, i] > self.c2 or rec[4, i] > self.c3:
                raise NumericalError(
                    f"density bound violated at t={i * dt:.6g}: "
                    f"sup_u={rec[3, i]:.6g} (C2={self.c2:.6g}), "
                    f"sup_v={rec[4, i]:.6g} (C3={self.c3:.6g})"
                )

    def series(self) -> TimeSeries:
        """The records up to the current step; later steps leave them as they are."""
        k = self.step + 1
        t, g, h, sup_u, sup_v = self._rec[:, :k]
        return TimeSeries(t=t, g=g, h=h, sup_u=sup_u, sup_v=sup_v, snapshots=tuple(self._snaps))


def run(
    params: ModelParams,
    init: InitialData,
    cfg: SolverConfig,
    t_end: float,
    snapshot_times: tuple[float, ...] = (),
) -> TimeSeries:
    """Integrate from t = 0 to t_end, recording every step boundary.

    A ``Trajectory`` advanced to its last step in one call; see there for
    the time grid, the resets and the density checks.
    """
    traj = Trajectory(params, init, cfg, t_end, snapshot_times)
    traj.advance(traj.n_steps)
    return traj.series()
