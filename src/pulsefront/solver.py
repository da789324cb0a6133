"""Time integration of the moving-interval model.

The interval (g(t), h(t)) is mapped to the fixed reference coordinate
xi = (x - g)/(h - g), which turns front motion into an advection term:

    U_t = d1 U_xixi/(h-g)^2 + [(g' + xi (h'-g'))/(h-g)] U_xi - a11 U + a12 V
    V_t = d2 V_xixi/(h-g)^2 + [(g' + xi (h'-g'))/(h-g)] V_xi - a22 V + f(U)

Front speeds come first each step from one-sided second-order gradients of
the current profiles (the accuracy bottleneck of the whole scheme), the
fronts advance by Heun, and the densities then take an IMEX step:
diffusion implicit via an SPD tridiagonal solve (LAPACK dptsv, imported
when a workspace is built), advection and reactions explicit.  The
densities are one (2, n+1) array w (rows U, V) that one block-diagonal
dptsv call advances.  A trajectory builds the kernel's coefficients, dt,
grid and buffers once, in a workspace that every step and stage runs on,
so a step allocates little beyond the state it keeps.  Disinfection resets
u <- G(u) pointwise at every multiple of tau; the k = 0 reset at t = 0+ is
applied too.

Runs are deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError, PreconditionError
from .model import InitialData, ModelParams, density_bounds

__all__ = [
    "SolverConfig", "Snapshot", "TimeSeries", "Trajectory",
    "apply_impulse", "run", "frozen_period_map",
]

# Undershoot within this fraction of a species' sup-norm is rounding next to
# the zero boundary values and is clipped; more means the scheme has failed.
CLIP_TOL = 1e-12

# The bits of +inf as an unsigned integer: +0.0 and every positive finite
# double lie below it; negatives, -0.0, infinities and NaNs at or above it.
_INF_BITS = np.float64(np.inf).view(np.uint64)


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
    rows: np.ndarray, width: float, dxi: float, mu1: float, mu2: float
) -> tuple[float, float]:
    """Stefan speeds from one-sided three-point gradients of the interior rows
    (u, v), shape (2, n-1); the boundary values are zero.

    The continuous model keeps h' > 0 and g' < 0 strictly; stencil noise of a
    nearly flat profile can flip the sign by a roundoff-scale amount, so the
    speeds are floored at zero rather than letting fronts retreat.  ``item``
    gives Python floats, which round as NumPy scalars do but overflow to inf
    without a warning; the stability guard then rejects the step.
    """
    du_right = (rows.item(0, -2) - 4.0 * rows.item(0, -1)) / (2.0 * dxi)
    dv_right = (rows.item(1, -2) - 4.0 * rows.item(1, -1)) / (2.0 * dxi)
    du_left = (4.0 * rows.item(0, 0) - rows.item(0, 1)) / (2.0 * dxi)
    dv_left = (4.0 * rows.item(1, 0) - rows.item(1, 1)) / (2.0 * dxi)
    vel_h = -(mu1 * du_right + mu2 * dv_right) / width
    vel_g = -(mu1 * du_left + mu2 * dv_left) / width
    return min(vel_g, 0.0), max(vel_h, 0.0)


class _Workspace:
    """The constants and buffers of the density kernel for one coefficient set,
    dt and grid of n intervals (dxi = 1/n), built once per trajectory or per
    orbit's frozen period map.

    ``start(w)`` keeps a start state w for the guards and forms its explicit
    terms: its interior rows, central differences and dt-scaled reactions.
    Each ``imex_density_step`` stage then writes its advection coefficients,
    matrix and right-hand side into the buffers and solves in place with the
    LAPACK ``dptsv`` it holds, so a stage's solution lives in ``rhs`` until the
    next stage overwrites it.  ``reactions`` takes its rows as prebuilt views
    and writes f(u) and the decay terms into buffers, so it allocates nothing.
    """

    def __init__(self, params: ModelParams, dt: float, n: int):
        # deferred, and held here so a stage does not pay the import statement:
        # scipy.linalg costs ~240 ms to import, and validate, eigen and classify solve nothing
        from scipy.linalg.lapack import dptsv

        m = n - 1
        self.params, self.dt, self.dxi, self.m, self.dptsv = params, dt, 1.0 / n, m, dptsv
        self.xi = np.arange(1, n) * self.dxi  # interior nodes
        self.dt_a12 = dt * params.a12
        self.decay = np.array([[dt * params.a11], [params.a22]])
        mat = np.empty(4 * m - 1)  # the diagonal, then the off-diagonal, of both blocks
        self.diag, self.off = mat[: 2 * m], mat[2 * m :]
        self.blocks = mat[:m], mat[m : 2 * m], mat[2 * m : 3 * m - 1], mat[3 * m :]
        self.diff, self.decayed = np.empty((2, m)), np.empty((2, m))
        self.react = with_rows(np.empty((2, m)))  # the reactions with their row views
        self.scratch = self.decayed[0]
        self.adv, self.rhs = np.empty(m), np.empty(2 * m)
        self.rhs_rows = self.rhs.reshape(2, m)

    def start(self, w: np.ndarray) -> _Workspace:
        """Keep the (2, n+1) start state w and form its explicit terms."""
        self.w, self.rows = w, w[:, 1:-1]
        np.subtract(w[:, 2:], w[:, :-2], out=self.diff)
        self.reactions(with_rows(self.rows), self.react)
        return self

    def reactions(self, x: tuple, out: tuple) -> np.ndarray:
        """The dt-scaled reactions (dt a12 v - dt a11 u, dt (f(u) - a22 v)) of the
        interior rows x = (u, v), bit for bit, written to ``out``; ``x`` and ``out``
        are ``with_rows`` triples."""
        (rows, u, v), (whole, out_u, out_v) = x, out
        np.multiply(self.dt_a12, v, out_u)
        self.params.growth.into(u, out_v, self.scratch)  # a row of decayed, rewritten next
        whole -= np.multiply(rows, self.decay, out=self.decayed)
        out_v *= self.dt
        return whole

    def matrix(self, diffusion: float) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal 1 + 2r and off-diagonal -r of the block SPD matrix, r = diffusion * d
        per species, filled into the reused buffer (LAPACK overwrites it).  The entries are
        Python floats, which overflow to inf without a warning."""
        diag_u, diag_v, off_u, off_v = self.blocks
        r_u, r_v = diffusion * self.params.d1, diffusion * self.params.d2
        diag_u.fill(1.0 + 2.0 * r_u)
        diag_v.fill(1.0 + 2.0 * r_v)
        off_u.fill(-r_u)
        self.off[self.m - 1] = 0.0  # the block coupling
        off_v.fill(-r_v)
        return self.diag, self.off


def with_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A (2, m) array with its two row views, built once for ``_Workspace.reactions``."""
    return rows, rows[0], rows[1]


def imex_density_step(work: _Workspace, width_new: float, vel_g: float, vel_h: float) -> np.ndarray:
    """One IMEX stage from the start state w that ``work`` was started on, onto
    an interval of ``width_new``: the stage solve on w's explicit terms.
    Returns the solved interior rows (2, n-1), which live in the workspace's
    buffer until the next stage.

    ``vel_g``/``vel_h`` are the discrete mesh velocities over the step.  Both
    species are solved in one dptsv call on the block-diagonal system: the
    zero coupling entry between the blocks leaves the next pivot untouched
    and subtracts only products with zero, so the result equals two separate
    solves (up to the sign of a zero).
    """
    dt, dxi = work.dt, work.dxi
    # in place, and in an order whose bits equal
    # w + (dt / (2 dxi W)) * (vel_g + xi * (vel_h - vel_g)) * diff + react
    adv = np.multiply(work.xi, vel_h - vel_g, out=work.adv)
    adv += vel_g
    adv *= dt / (2.0 * dxi * width_new)
    rhs = np.multiply(adv, work.diff, out=work.rhs_rows)
    rhs += work.rows
    rhs += work.react[0]
    diffusion = dt / (width_new * width_new * dxi * dxi)
    diag, off = work.matrix(diffusion)
    _, _, interior, info = work.dptsv(diag, off, work.rhs, 1, 1, 1)  # overwrite d, e and b
    if info != 0:
        name, d = ("u", work.params.d1) if info <= work.m else ("v", work.params.d2)
        r = diffusion * d
        raise NumericalError(f"tridiagonal solve for {name} failed (dptsv info={info}, r={r:.6g})")
    return _guarded(work.w, interior, work).reshape(2, -1)


def frozen_period_map(params: ModelParams, width: float, n: int, steps: int):
    """The frozen-interval period map: ``steps`` steps on n intervals of ``width``, with its
    workspace, factored matrix (dpttrf) and two buffers built once, each with its flat vector,
    (2, n-1) rows view and uint64 bits view.  ``period(w, every=0)`` writes the reset densities
    w into buffer 0, then takes ``steps`` zero-velocity ``imex_density_step`` stages of
    dt = tau/steps bit for bit on the interior vector z (u then v): the advection term is
    skipped, and step i solves z + dt * reactions (dpttrs) from buffer (i-1) % 2 into buffer
    i % 2, where the guards' one-reduction test runs inline.  Returns the fresh (2, n+1) image
    and, if ``every`` > 0, the (t, w) samples every ``every`` steps from 0+ and at tau (else
    None); ``w`` is left as it is."""
    from scipy.linalg.lapack import dpttrf, dpttrs  # deferred, as in _Workspace

    dt = params.tau / steps
    work = _Workspace(params, dt, n)
    diag, off = work.matrix(dt / (width * width * work.dxi * work.dxi))
    diag, off, info = dpttrf(diag, off, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise NumericalError(f"frozen-interval matrix is not positive definite (dpttrf info={info})")
    flat = np.empty(2 * (n - 1)), np.empty(2 * (n - 1))
    rows = with_rows(flat[0].reshape(2, -1)), with_rows(flat[1].reshape(2, -1))
    bits = flat[0].view(np.uint64), flat[1].view(np.uint64)

    def period(w: np.ndarray, every: int = 0):
        _, u, v = rows[0]
        u[:] = params.impulse(w[0, 1:-1])
        v[:] = w[1, 1:-1]
        samples = [(0.0, _padded(flat[0]))] if every else None
        for i in range(1, steps + 1):
            old, new = 1 - i % 2, i % 2
            out = flat[new]
            work.reactions(rows[old], rows[new])
            out += flat[old]  # addition commutes: the bits of z + reactions
            dpttrs(diag, off, out, overwrite_b=1)  # solves in place
            if not np.maximum.reduce(bits[new]) < _INF_BITS:
                _guarded(rows[old][0], out, work)
            if samples is not None and (i % every == 0 or i == steps):
                samples.append((i * dt, _padded(out)))
        return _padded(flat[steps % 2]), samples

    return period


def _guarded(w: np.ndarray, interior: np.ndarray, work: _Workspace) -> np.ndarray:
    """``interior`` (u then v) after the finite and undershoot guards against the rows ``w`` of its
    start state, clipped in place.  Most pass on one whole-vector reduction: the largest bit pattern
    lies below that of +inf only when every entry is +0.0 or positive and finite; any other vector
    goes on to the row checks.  An undershoot of a row whose explicit decay step dt*a is at least 1
    is a configuration error."""
    if np.maximum.reduce(interior.view(np.uint64)) < _INF_BITS:
        return interior
    rows = interior.reshape(2, -1)
    for row, (name, low, high) in enumerate(zip("uv", rows.min(axis=1), rows.max(axis=1))):
        if not (math.isfinite(low) and math.isfinite(high)):
            raise NumericalError(f"{name} is no longer finite; scheme failure")
        if low < 0.0:
            scale = w[row].max()
            if low < -CLIP_TOL * scale:
                coefficient = ("a11", "a22")[row]
                decay = work.dt * getattr(work.params, coefficient)
                if decay >= 1.0:
                    raise ConfigurationError(
                        f"explicit decay unstable: dt={work.dt:.6g} gives "
                        f"dt*{coefficient}={decay:.4g} >= 1; reduce dt via steps_per_period"
                    )
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


def _stability_guard(params: ModelParams, dt: float, vmax: float):
    # explicit central advection under implicit diffusion is von Neumann
    # stable when courant^2 <= 2 * diffusion number, i.e. dt*vmax^2 <= 2*min(d)
    dmin = min(params.d1, params.d2)
    if dt * vmax * vmax > 2.0 * dmin:
        raise ConfigurationError(
            f"explicit advection unstable: dt={dt:.6g} gives "
            f"dt*vmax^2={dt * vmax * vmax:.4g} > 2*min(d1,d2)={2 * dmin:.4g}; "
            "reduce dt via steps_per_period"
        )


def transform_step(
    g: float, h: float, w: np.ndarray, work: _Workspace
) -> tuple[float, float, np.ndarray]:
    """Advance the fronts g, h and the densities w by one step of the
    workspace's dt on its grid: front speeds, Heun front update, then two
    ``imex_density_step`` stages.  Returns (g1, h1, w1)."""
    params, dt, dxi = work.params, work.dt, work.dxi
    vg0, vh0 = _front_velocities(w[:, 1:-1], h - g, dxi, params.mu1, params.mu2)
    _stability_guard(params, dt, max(-vg0, vh0))

    g1, h1 = g + dt * vg0, h + dt * vh0
    work.start(w)  # both stages start from w
    wp = imex_density_step(work, h1 - g1, vg0, vh0)
    vg1, vh1 = _front_velocities(wp, h1 - g1, dxi, params.mu1, params.mu2)
    g1 = g + 0.5 * dt * (vg0 + vg1)
    h1 = h + 0.5 * dt * (vh0 + vh1)

    vg = (g1 - g) / dt
    vh = (h1 - h) / dt
    _stability_guard(params, dt, max(-vg, vh))
    return g1, h1, _padded(imex_density_step(work, h1 - g1, vg, vh))


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
    (rows u, v).  ``t_end`` sets ``n_steps``, the fixed length of the records;
    the density bounds also dominate ``w`` as sampled on the n+1 nodes.
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
        if not all(0.0 <= s < math.inf for s in snapshot_times):
            raise PreconditionError(
                f"snapshot times must be finite and non-negative, got {snapshot_times}"
            )
        self.params, self.cfg = params, cfg
        self.dt = params.tau / cfg.steps_per_period
        if not self.dt > 0:
            raise ConfigurationError(
                f"tau={params.tau:g} / steps_per_period={cfg.steps_per_period} rounds to dt=0"
            )
        try:
            self._xi = cfg.xi
            self.w = np.array(init.sample(-params.h0 + self._xi * (2.0 * params.h0)))
            self._work = _Workspace(params, self.dt, cfg.n)
        except (MemoryError, ValueError):  # ValueError: a size NumPy refuses outright
            raise ConfigurationError(f"n={cfg.n} nodes are more than memory can hold") from None
        self.c2, self.c3 = density_bounds(params, self.w)
        self.w[:, 0] = self.w[:, -1] = 0.0
        if np.any(self.w < 0):
            raise ConfigurationError("initial densities must be non-negative")
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

    def advance(self, to_step: int, stop_width: float = math.inf) -> None:
        """Integrate from the current step up to step ``to_step``, or to the
        first step after which the width h - g exceeds ``stop_width``."""
        if to_step > self.n_steps:
            raise PreconditionError(f"step {to_step} is past the last step {self.n_steps}")
        params, dt, m = self.params, self.dt, self.cfg.steps_per_period
        rec, work = self._rec, self._work
        while self.step < to_step:
            if self.step % m == 0:
                apply_impulse(self.w, params)
            self.g, self.h, self.w = transform_step(self.g, self.h, self.w, work)
            self.step += 1
            self._record()
            i = self.step
            if rec[3, i] > self.c2 or rec[4, i] > self.c3:
                raise NumericalError(
                    f"density bound violated at t={i * dt:.6g}: "
                    f"sup_u={rec[3, i]:.6g} (C2={self.c2:.6g}), "
                    f"sup_v={rec[4, i]:.6g} (C3={self.c3:.6g})"
                )
            if self.h - self.g > stop_width:
                break

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
