import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pulsefront import solver
from pulsefront.errors import ConfigurationError, NumericalError, PreconditionError
from pulsefront.model import InitialData, LinearGrowth
from pulsefront.presets import base_params_cd, preset
from pulsefront.solver import SolverConfig, Trajectory, apply_impulse, run

from oracles import heun_step, imex_step


def test_grid_and_config_invariants():
    assert SolverConfig(n=16).xi[1] == 1 / 16
    with pytest.raises(ConfigurationError, match="n >= 16"):
        SolverConfig(n=8)
    with pytest.raises(ConfigurationError):
        SolverConfig(steps_per_period=5)


@pytest.mark.parametrize(("field", "fraction"), [("n", 64.5), ("steps_per_period", 100.5)])
def test_solver_counts_must_be_integers(field, fraction):
    # steps_per_period = 100.5 would reset the bacteria only every other period
    with pytest.raises(ConfigurationError, match=field):
        SolverConfig(**{field: fraction})
    assert getattr(SolverConfig(**{field: np.int64(100)}), field) == 100


def test_zero_data_is_equilibrium(params_benchmark):
    init = InitialData(u0=lambda x: np.zeros_like(np.asarray(x, float)),
                       v0=lambda x: np.zeros_like(np.asarray(x, float)))
    series = run(params_benchmark, init, SolverConfig(n=64, steps_per_period=100), 5.0)
    assert np.all(series.h == 2.0) and np.all(series.g == -2.0)
    assert np.all(series.sup_u == 0.0) and np.all(series.sup_v == 0.0)


def test_apply_impulse_pointwise(params_benchmark):
    from pulsefront.model import LinearImpulse, SaturatingImpulse

    u = np.array([0.0, 2.0, 4.0, 2.0, 0.0])
    v = np.array([0.0, 1.0, 2.0, 1.0, 0.0])

    same = np.array([u, v])
    apply_impulse(same, params_benchmark)  # identity
    assert np.array_equal(same[0], u) and np.array_equal(same[1], v)

    halved = np.array([u, v])
    apply_impulse(halved, params_benchmark.with_(impulse=LinearImpulse(rho=0.5)))
    assert np.array_equal(halved[0], np.array([0.0, 1.0, 2.0, 1.0, 0.0]))
    assert np.array_equal(halved[1], v)

    sat = params_benchmark.with_(impulse=SaturatingImpulse(c=0.5, b=10.0))
    w10 = np.array([[0.0, 10.0, 0.0], v[:3]])
    apply_impulse(w10, sat)
    assert w10[0, 1] == pytest.approx(0.25)
    assert w10[0, 0] == 0.0


def test_single_step_symmetry(params_benchmark, init_cos):
    x0 = -2.0 + SolverConfig(n=128).xi * 4.0
    w = np.array(init_cos.sample(x0))
    w[:, 0] = w[:, -1] = 0.0
    g1, h1, w1 = heun_step(-2.0, 2.0, w, params_benchmark, 0.005)
    assert g1 + h1 == pytest.approx(0.0, abs=1e-15)
    assert h1 > 2.0
    assert np.max(np.abs(w1[0] - w1[0][::-1])) < 1e-15


def test_symmetry_preserved_along_run(params_benchmark, init_cos):
    series = run(params_benchmark, init_cos, SolverConfig(n=128, steps_per_period=500), 10.0)
    assert np.max(np.abs(series.g + series.h)) < 1e-10 * series.h[-1]


def test_front_monotonicity(params_disinfected, init_cos):
    series = run(params_disinfected, init_cos, SolverConfig(n=128, steps_per_period=500), 20.0)
    assert np.all(np.diff(series.h) >= 0.0)
    assert np.all(np.diff(series.g) <= 0.0)


def test_density_nonnegative_and_bounded(params_benchmark, init_cos):
    series = run(params_benchmark, init_cos, SolverConfig(n=128, steps_per_period=500), 10.0,
                 snapshot_times=(5.0, 10.0))
    for snap in series.snapshots:
        assert np.all(snap.u >= 0.0) and np.all(snap.v >= 0.0)
    assert np.all(series.sup_u <= 20.0) and np.all(series.sup_v <= 10.0)


def test_frozen_capacities_match_fixed_domain_core(params_benchmark, init_cos):
    # with vanishing expansion capacities the fronts stay put and the moving
    # stepper must agree with the frozen-front core bit for bit
    p0 = params_benchmark.with_(mu1=0.0, mu2=1e-300)
    cfg = SolverConfig(n=256, steps_per_period=2000)
    series = run(p0, init_cos, cfg, 5.0, snapshot_times=(5.0,))
    assert series.h[-1] == 2.0 and series.g[-1] == -2.0

    w = np.array(init_cos.sample(np.linspace(-2.0, 2.0, 257)))
    w[:, 0] = w[:, -1] = 0.0
    dt = 5.0 / 2000
    for _ in range(2000):
        w = imex_step(w, p0, dt, 4.0)
    assert np.array_equal(w[0], series.snapshots[-1].u)
    assert np.array_equal(w[1], series.snapshots[-1].v)


def test_stability_guard_names_the_pair(params_benchmark, init_cos):
    # 10 steps per period gives dt = 0.5; initial front speed ~3.5 violates
    # dt * vmax^2 <= 2 * min(d)
    with pytest.raises(ConfigurationError, match="dt=0.5"):
        run(params_benchmark, init_cos, SolverConfig(n=64, steps_per_period=10), 5.0)


def test_trajectory_zeroes_negative_dirichlet_ends():
    # cos(+-pi/2) rounds to about -1.6e-16 at h0 = 6.5: the ends are set to 0,
    # and the start state passes the non-negativity check
    params = preset("fig-c").config.model.with_(h0=6.5)
    init = InitialData.cos_quarter(6.5, 0.3, 0.1)
    cfg = SolverConfig(n=64, steps_per_period=100)
    assert np.any(np.array(init.sample(-6.5 + cfg.xi * 13.0)) < 0)
    traj = Trajectory(params, init, cfg, 1.0)
    assert np.all(traj.w[:, [0, -1]] == 0.0)
    assert np.all(traj.w >= 0)


def test_undershoot_abort():
    # a hard mesh-motion courant violation drives the explicit advection
    # update negative near the front, beyond any clip tolerance
    from pulsefront.presets import base_params_a

    n = 16
    xi = np.linspace(0.0, 1.0, n + 1)
    u = np.minimum(xi, 1.0 - xi)
    v = u.copy()
    with pytest.raises(NumericalError, match="undershoot"):
        imex_step(np.array([u, v]), base_params_a(), dt=0.2, width_new=4.0, vel_g=0.0, vel_h=12.0)


def test_run_is_deterministic(params_disinfected, init_cos):
    cfg = SolverConfig(n=64, steps_per_period=200)
    s1 = run(params_disinfected, init_cos, cfg, 10.0, snapshot_times=(10.0,))
    s2 = run(params_disinfected, init_cos, cfg, 10.0, snapshot_times=(10.0,))
    assert np.array_equal(s1.h, s2.h) and np.array_equal(s1.sup_u, s2.sup_u)
    assert np.array_equal(s1.snapshots[0].u, s2.snapshots[0].u)


def _assert_same_series(a, b):
    for name in ("t", "g", "h", "sup_u", "sup_v"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.t == sb.t
        assert np.array_equal(sa.x, sb.x) and np.array_equal(sa.u, sb.u)
        assert np.array_equal(sa.v, sb.v)


def _reference_records(params, init, cfg, t_end):
    """The step loop written out: a reset at t = 0 and after every
    steps_per_period-th step but the last; rows t, g, h, sup_u, sup_v."""
    dt = params.tau / cfg.steps_per_period
    n_steps = int(np.ceil(t_end / dt - 1e-9))
    w = np.array(init.sample(-params.h0 + cfg.xi * (2.0 * params.h0)))
    w[:, 0] = w[:, -1] = 0.0
    g, h = -params.h0, params.h0
    rows = [(0.0, g, h, w[0].max(), w[1].max())]
    apply_impulse(w, params)
    for i in range(1, n_steps + 1):
        g, h, w = heun_step(g, h, w, params, dt)
        rows.append((i * dt, g, h, w[0].max(), w[1].max()))
        if i % cfg.steps_per_period == 0 and i < n_steps:
            apply_impulse(w, params)
    return np.array(rows).T


def test_trajectory_in_pieces_matches_run(params_disinfected, init_cos):
    # saturating resets every 100 steps; t_end/dt = 310.4 is not integral
    cfg = SolverConfig(n=64, steps_per_period=100)
    t_end = 3.1 * params_disinfected.tau + 0.02
    snaps = (0.0, 5.0, 10.0, t_end, 2.0 * t_end)
    whole = run(params_disinfected, init_cos, cfg, t_end, snaps)
    traj = Trajectory(params_disinfected, init_cos, cfg, 4.0 * t_end, snaps)
    assert traj.steps_to(t_end) == whole.t.size - 1 == 311
    reference = _reference_records(params_disinfected, init_cos, cfg, t_end)
    assert np.array_equal(np.array([whole.t, whole.g, whole.h, whole.sup_u, whole.sup_v]), reference)
    for k in (1, 99, 100, 101, 200, 201, 250, 300, 311):
        traj.advance(k)
        assert traj.step == k
        _assert_same_series(traj.series(), run(params_disinfected, init_cos, cfg, k * traj.dt, snaps))
    _assert_same_series(traj.series(), whole)
    # resuming past the first horizon equals a fresh run
    first = traj.series()
    traj.advance(traj.steps_to(2.0 * t_end))
    _assert_same_series(traj.series(), run(params_disinfected, init_cos, cfg, 2.0 * t_end, snaps))
    _assert_same_series(first, whole)
    # then one period at a time up to the last step, at 4x the horizon
    while traj.step < traj.n_steps:
        traj.advance(min(traj.step + cfg.steps_per_period, traj.n_steps))
    _assert_same_series(traj.series(), run(params_disinfected, init_cos, cfg, 4.0 * t_end, snaps))


def test_advancing_past_the_last_step_is_refused(params_disinfected, init_cos):
    # a trajectory has the fixed length its t_end sets; past it the records
    # would need more room, so the call is refused and nothing changes
    traj = Trajectory(params_disinfected, init_cos, SolverConfig(n=32, steps_per_period=100), 1.0)
    traj.advance(7)
    before, w = traj.series(), traj.w.copy()
    with pytest.raises(PreconditionError, match="past the last step 20"):
        traj.advance(traj.n_steps + 1)
    assert traj.step == 7 and np.array_equal(traj.w, w)
    _assert_same_series(traj.series(), before)


def test_density_bound_covers_the_sampled_start():
    # a narrow peak of u0 = 1e5 at x = 0.0015 falls between the points of a
    # coarse sample but on nodes of the n = 4096 grid, where the run starts
    params = preset("fig-c").config.model
    x = np.array([-2.0, -1.9, 0.001, 0.0015, 0.002, 1.9, 2.0])
    u = np.array([0.0, 0.01, 0.01, 1e5, 0.01, 0.01, 0.0])
    v = np.array([0.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.0])
    traj = Trajectory(params, InitialData.from_table(x, u, v), SolverConfig(n=4096), 0.01)
    assert traj.n_steps == 4
    assert traj.c2 >= traj.w[0].max() > 9000.0
    traj.advance(4)


def test_timeseries_shape_and_times(params_benchmark, init_cos):
    cfg = SolverConfig(n=64, steps_per_period=500)
    series = run(params_benchmark, init_cos, cfg, 5.0)
    assert series.t.size == 501
    assert np.all(np.diff(series.t) > 0)
    assert series.t[0] == 0.0 and series.t[-1] == pytest.approx(5.0)


def test_impulse_reduces_recorded_mass(params_disinfected, init_cos):
    # resets land between recorded rows: the row after a reset boundary shows
    # the collapsed bacteria level
    cfg = SolverConfig(n=64, steps_per_period=100)
    series = run(params_disinfected, init_cos, cfg, 10.0)
    m = 100
    pre = series.sup_u[m]
    post = series.sup_u[m + 1]
    assert post < 0.1 * pre


def test_imex_step_matches_dense_solve(params_benchmark, init_cos):
    # oracle for the tridiagonal kernel: the same implicit system, assembled
    # densely from the scheme's definition and solved by np.linalg.solve
    p = params_benchmark
    n, dt, width, vel_g, vel_h = 64, 0.01, 4.3, -0.7, 1.1
    dxi = 1.0 / n
    xi = np.linspace(0.0, 1.0, n + 1)
    u, v = init_cos.sample(-2.0 + 4.0 * xi)
    u, v = u * (1.0 + xi), v * (2.0 - xi)  # break the mirror symmetry
    u[0] = u[-1] = v[0] = v[-1] = 0.0
    u_new, v_new = imex_step(np.array([u, v]), p, dt, width, vel_g, vel_h)

    adv = (vel_g + xi[1:-1] * (vel_h - vel_g)) / width
    cases = (
        (u, u_new, p.d1, -p.a11 * u[1:-1] + p.a12 * v[1:-1]),
        (v, v_new, p.d2, -p.a22 * v[1:-1] + p.growth(u[1:-1])),
    )
    for w, w_new, d, reaction in cases:
        r = dt * d / (width * dxi) ** 2
        matrix = (1.0 + 2.0 * r) * np.eye(n - 1) - r * (np.eye(n - 1, k=1) + np.eye(n - 1, k=-1))
        rhs = w[1:-1] + dt * (adv * (w[2:] - w[:-2]) / (2.0 * dxi) + reaction)
        expected = np.linalg.solve(matrix, rhs)
        assert w_new[0] == w_new[-1] == 0.0
        assert np.max(np.abs(w_new[1:-1] - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [32, 128])
def test_block_solve_equals_per_species_solves(params_benchmark, n):
    # the kernel solves u and v in one block-diagonal dptsv call; the two
    # per-species solves it replaces, written out here, must give the same
    # bits (the sign of zero included) for diffusion numbers r in [0.5, 50]
    from scipy.linalg.lapack import dptsv

    rng = np.random.default_rng(n)
    dt, dxi, width, vel_g, vel_h = 0.01, 1.0 / n, 3.7, -0.4, 0.9
    xi = np.linspace(0.0, 1.0, n + 1)
    inner = np.arange(1, n) * dxi
    for r_u, r_v in rng.uniform(0.5, 50.0, size=(6, 2)):
        scale = (width * dxi) ** 2 / dt
        p = params_benchmark.with_(d1=r_u * scale, d2=r_v * scale)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
        u = np.sin(np.pi * xi) * (1.5 + np.sin(3.0 * xi + phase[0]))
        v = np.sin(np.pi * xi) ** 2 * (1.5 + np.sin(5.0 * xi + phase[1]))

        adv = (dt / (2.0 * dxi * width)) * (vel_g + inner * (vel_h - vel_g))
        diffusion = dt / (width * width * dxi * dxi)
        expected = []
        for w, d, reaction_dt in (
            (u, p.d1, (dt * p.a12) * v[1:-1] - (dt * p.a11) * u[1:-1]),
            (v, p.d2, dt * (p.growth(u[1:-1]) - p.a22 * v[1:-1])),
        ):
            rhs = w[1:-1] + adv * (w[2:] - w[:-2]) + reaction_dt
            r = diffusion * d
            _, _, x, info = dptsv(np.full(n - 1, 1.0 + 2.0 * r), np.full(n - 2, -r), rhs)
            assert info == 0 and x.min() > 0.0
            expected.append(np.concatenate([[0.0], x, [0.0]]))

        got = imex_step(np.array([u, v]), p, dt, width, vel_g, vel_h)
        assert got.shape == (2, n + 1)
        assert np.array_equal(got.view(np.uint64), np.array(expected).view(np.uint64))


# inf - inf in the advection difference warns before the kernel's own check
# rejects the state; every other test runs with RuntimeWarning as an error
@pytest.mark.parametrize(
    "bad",
    [np.nan, pytest.param(np.inf, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))],
)
def test_nonfinite_density_aborts(params_benchmark, bad):
    # every other guard is a comparison, which NaN fails: the kernel itself
    # must refuse a non-finite state
    n = 32
    xi = np.linspace(0.0, 1.0, n + 1)
    u = np.sin(np.pi * xi)
    v = 0.5 * u
    u[n // 2] = bad
    with pytest.raises(NumericalError, match="finite"):
        imex_step(np.array([u, v]), params_benchmark, 0.01, 4.0)


def test_run_rejects_nan_initial_data(params_benchmark, init_cos):
    # NaN in the middle of the interval: the front speeds stay finite, so only
    # the kernel's finiteness check can stop the run
    spike = InitialData(u0=lambda x: np.where(np.abs(x) < 0.5, np.nan, init_cos.u0(x)),
                        v0=init_cos.v0)
    with pytest.raises(NumericalError, match="finite"):
        run(params_benchmark, spike, SolverConfig(n=64, steps_per_period=500), 5.0)


def test_stability_guard_checks_corrected_speeds(params_benchmark, init_cos, monkeypatch):
    # the predictor speeds pass dt * vmax^2 <= 2 * min(d) = 0.2; only the
    # Heun-corrected speed 0.5 * (0.1 + 20) that the density update uses fails
    speeds = iter([(-0.1, 0.1), (-0.1, 20.0)])
    monkeypatch.setattr(solver, "_front_velocities", lambda *args: next(speeds))
    x0 = -2.0 + SolverConfig(n=128).xi * 4.0
    w = np.array(init_cos.sample(x0))
    w[:, 0] = w[:, -1] = 0.0
    with pytest.raises(ConfigurationError, match="explicit advection unstable"):
        heun_step(-2.0, 2.0, w, params_benchmark, 0.005)


def test_indefinite_diffusion_system_aborts(params_benchmark):
    # dt < 0 makes r < 0 and the "diffusion" matrix indefinite; dptsv reports
    # it instead of returning a meaningless solve
    xi = np.linspace(0.0, 1.0, 33)
    u = np.sin(np.pi * xi)
    with pytest.raises(NumericalError, match="dptsv info="):
        imex_step(np.array([u, u]), params_benchmark, -1.0, 4.0)


def test_indefinite_v_block_alone_is_named_v(params_benchmark):
    # at dt < 0, d1 = 1e-3 keeps the u block positive definite (r_u = -0.064 > -1/4):
    # only the v block fails, and the error names v and its r
    p = params_benchmark.with_(d1=1e-3, d2=0.4)
    u = np.sin(np.pi * np.linspace(0.0, 1.0, 33))
    with pytest.raises(NumericalError, match=r"solve for v failed \(dptsv info=\d+, r=-25\.6\)"):
        imex_step(np.array([u, u]), p, -1.0, 4.0)


# a short disinfected trajectory and one sampled frozen period, hashed; the scipy-bundled
# OpenBLAS that serves dptsv/dpttrf/dpttrs reports its core type where its wheel exposes it
_CORE_TYPE_RUN = """
import ctypes, glob, hashlib, json, os
import numpy as np, scipy
from pulsefront.model import InitialData, SaturatingImpulse
from pulsefront.presets import preset
from pulsefront.solver import SolverConfig, Trajectory, frozen_period_map

p = preset("fig-b").config.model.with_(impulse=SaturatingImpulse(c=0.5, b=10.0))
traj = Trajectory(p, InitialData.cos_quarter(p.h0, 0.3, 0.1), SolverConfig(n=64, steps_per_period=100),
                  12.5, snapshot_times=(6.0,))
traj.advance(traj.n_steps)
series = traj.series()
image, samples = frozen_period_map(p, 30.0, 32, 50)(traj.w[:, ::2], 10)
digest = hashlib.sha256()
for a in (series.t, series.g, series.h, series.sup_u, series.sup_v, series.snapshots[0].u, traj.w,
          image, *(w for _, w in samples)):
    digest.update(np.ascontiguousarray(a).tobytes())
core = None
for path in glob.glob(os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs", "*openblas*")):
    name = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename", None)
    if name is not None:
        name.restype = ctypes.c_char_p
        core = name().decode()
print(json.dumps({"core": core, "digest": digest.hexdigest()}))
"""


def test_kernel_bits_do_not_depend_on_the_blas_core_type():
    # the moving and frozen kernels call only LAPACK's tridiagonal routines and
    # elementwise NumPy: a run and a frozen period give the same bits under the
    # default OpenBLAS core type and under the ones forced by OPENBLAS_CORETYPE
    results = []
    for core in (None, "Haswell", "Nehalem"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = str(Path(solver.__file__).parents[1])
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        out = subprocess.run([sys.executable, "-c", _CORE_TYPE_RUN], capture_output=True, text=True,
                             check=True, env=env)
        results.append(json.loads(out.stdout.splitlines()[-1]))
    assert len({r["digest"] for r in results}) == 1, results
    cores = [r["core"] for r in results]
    if None not in cores and platform.machine() in ("x86_64", "AMD64"):
        assert cores[1:] == ["Haswell", "Nehalem"], cores


def _heun_step_own_terms(g, h, w, params, cfg, dt):
    """transform_step with each IMEX stage forming its own start-state terms and buffers."""
    vg0, vh0 = solver._front_velocities(w.reshape(-1)[1:-1], h - g, 1.0 / cfg.n, params.mu1, params.mu2)
    g1, h1 = g + dt * vg0, h + dt * vh0
    wp = imex_step(w, params, dt, h1 - g1, vg0, vh0)
    vg1, vh1 = solver._front_velocities(wp.reshape(-1)[1:-1], h1 - g1, 1.0 / cfg.n, params.mu1, params.mu2)
    g1, h1 = g + 0.5 * dt * (vg0 + vg1), h + 0.5 * dt * (vh0 + vh1)
    return g1, h1, imex_step(w, params, dt, h1 - g1, (g1 - g) / dt, (h1 - h) / dt)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize(
    ("figure", "n", "steps_per_period", "k"),
    [("fig-a", 128, 500, 302), ("fig-b", 128, 500, 302), ("fig-c", 128, 500, 302),
     ("fig-d", 128, 500, 302), ("fig-b", 64, 100, 311)],
    ids=["fig-a", "fig-b", "fig-c", "fig-d", "fig-b-saturating-resets"],
)
def test_heun_stages_sharing_start_terms_are_bit_identical(figure, n, steps_per_period, k):
    # a trajectory steps through one workspace: both stages share the start
    # terms, and every stage reuses the buffers of the one before; a loop of
    # stages that each build their own must give the same records, bit for bit
    params = preset(figure).config.model
    cfg = SolverConfig(n=n, steps_per_period=steps_per_period)
    traj = Trajectory(params, InitialData.cos_quarter(params.h0, 0.3, 0.1), cfg,
                      k * params.tau / steps_per_period)
    assert traj.n_steps == k
    g, h, w = traj.g, traj.h, traj.w.copy()
    records = [(g, h, w[0].max(), w[1].max())]
    for step in range(k):
        if step % steps_per_period == 0:
            apply_impulse(w, params)
        g, h, w = _heun_step_own_terms(g, h, w, params, cfg, traj.dt)
        records.append((g, h, w[0].max(), w[1].max()))
    traj.advance(k)
    series = traj.series()
    got = np.array([series.g, series.h, series.sup_u, series.sup_v])
    assert np.array_equal(_bits(got), _bits(np.array(records).T))
    assert np.array_equal(_bits(traj.w), _bits(w))


def test_kept_arrays_are_not_reused_buffers(params_disinfected, init_cos):
    # the workspace's buffers are overwritten every stage; the records, the
    # state and the snapshots a caller keeps must never be one of them
    traj = Trajectory(params_disinfected, init_cos, SolverConfig(n=64, steps_per_period=100), 12.5,
                      snapshot_times=(1.0,))
    traj.advance(30)
    series, w = traj.series(), traj.w
    (snap,) = series.snapshots
    kept = [series.t, series.g, series.h, series.sup_u, series.sup_v, w, snap.x, snap.u, snap.v]
    copies = [a.copy() for a in kept]
    traj.advance(250)
    assert traj.w is not w
    for a, b in zip(kept, copies):
        assert np.array_equal(_bits(a), _bits(b))


def test_each_step_calls_the_traced_kernels(params_disinfected, init_cos, monkeypatch):
    # the benchmark's per-layer spans wrap these module-level names: k steps
    # of a trajectory are k transform_step and 2k imex_density_step calls
    calls = {"transform_step": 0, "imex_density_step": 0}

    def counted(name):
        real = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, name, wrapper)

    counted("transform_step")
    counted("imex_density_step")
    traj = Trajectory(params_disinfected, init_cos, SolverConfig(n=32, steps_per_period=100), 6.85)
    traj.advance(37)
    assert calls == {"transform_step": 37, "imex_density_step": 74}
    traj.advance(137)
    assert calls == {"transform_step": 137, "imex_density_step": 274}


def test_frozen_step_reports_an_indefinite_matrix(params_benchmark):
    # steps = -1 gives dt = -tau: the frozen matrix is indefinite, and its one
    # factorization, made when the map is built, says so
    with pytest.raises(NumericalError, match="dpttrf info="):
        solver.frozen_period_map(params_benchmark, 4.0, 32, -1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_frozen_map_recovers_from_a_failed_period(params_benchmark):
    # u overflows in the second of two steps, whose solve leaves the junction of the
    # map's buffer 0 non-finite; the next call on the same map must equal a fresh map's
    p, n = params_benchmark.with_(tau=2.0, a12=100.0, growth=LinearGrowth(p=1e10)), 32
    period = solver.frozen_period_map(p, 30.0, n, 2)
    huge = np.zeros((2, n + 1))
    huge[0, 1:-1] = 1e297
    with pytest.raises(NumericalError, match="u is no longer finite"):
        period(huge)
    w = np.zeros((2, n + 1))
    w[:, 1:-1] = 1.0
    image, samples = period(w, 1)
    fresh, fresh_samples = solver.frozen_period_map(p, 30.0, n, 2)(w, 1)
    assert np.array_equal(_bits(image), _bits(fresh))
    for (_, got), (_, want) in zip(samples, fresh_samples, strict=True):
        assert np.array_equal(_bits(got), _bits(want))


def _flat(interior):
    """The kernel's flat layout of an interior (u then v): u, the junction (+0.0, +0.0), v."""
    u, v = interior.reshape(2, -1)
    return np.concatenate([u, [0.0, 0.0], v])


def _guarded_by_rows(w, interior):
    """The row-wise guards as the solver had them before the whole-vector test:
    the (2, n+1) densities of a solved interior, clipped or rejected per row."""
    out = np.zeros_like(w)
    out[:, 1:-1] = interior.reshape(2, -1)
    for row, (name, low, high) in enumerate(zip("uv", out.min(axis=1), out.max(axis=1))):
        if not (np.isfinite(low) and np.isfinite(high)):
            raise NumericalError(f"{name} is no longer finite; scheme failure")
        if low < 0.0:
            scale = w[row].max()
            if low < -solver.CLIP_TOL * scale:
                raise NumericalError(
                    f"{name} undershoot {low:.3e} exceeds the clip tolerance "
                    f"({solver.CLIP_TOL:.1e} * sup = {solver.CLIP_TOL * scale:.3e}); scheme failure"
                )
            np.maximum(out[row], 0.0, out=out[row])
    return out


# dt*a11 = 0.015 and dt*a22 = 0.005: the decay step cannot undershoot by itself,
# so every undershoot beyond the tolerance is a scheme failure, as in the oracle
_GUARD_WORK = solver._Workspace(preset("fig-a").config.model, 0.05, 8)

# an interior entry: a signed zero, the least float of either sign, the
# largest float, a density, or k * CLIP_TOL * sup of its start row for k in
# [-3, 3], i.e. an undershoot inside or beyond the tolerance; then maybe one
# entry made infinite or NaN of either sign (-nan has its sign bit set)
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sys.float_info.max]).map(lambda x: (x, 0.0)),
    st.floats(0.0, 1e3).map(lambda x: (x, 0.0)),
    st.floats(-3.0, 3.0).map(lambda k: (0.0, k)),
)


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.0, 1e3) | st.just(-0.0), min_size=2 * (n + 1), max_size=2 * (n + 1)),
    st.lists(_ENTRY, min_size=2 * (n - 1), max_size=2 * (n - 1)),
    st.none() | st.tuples(st.integers(0, 2 * n - 3), st.sampled_from([np.nan, -np.nan, np.inf, -np.inf])))))
# the fast path's edge, next to positive finite entries: +inf is the least bit
# pattern that fails it, -nan the largest, and the largest float still passes
@example(([1.0] * 6, [(1.0, 0.0), (sys.float_info.max, 0.0)], (0, np.inf)))
@example(([1.0] * 6, [(5e-324, 0.0), (1.0, 0.0)], (1, -np.nan)))
@example(([1.0] * 6, [(5e-324, 0.0), (sys.float_info.max, 0.0)], None))
@settings(max_examples=300, deadline=None)
def test_guard_fast_path_matches_row_checks(drawn):
    # one whole-vector max of the bit patterns decides whether the row checks
    # run at all; the result, the in-place clip and the error message must be
    # the rows' own
    start, entries, nonfinite = drawn
    w = np.array(start).reshape(2, -1)
    sup = np.repeat(w.max(axis=1), w.shape[1] - 2)
    interior = np.array([x + k * solver.CLIP_TOL * s for (x, k), s in zip(entries, sup)])
    if nonfinite is not None:
        interior[nonfinite[0]] = nonfinite[1]
    try:
        expected = _guarded_by_rows(w, interior.copy())
    except NumericalError as exc:
        with pytest.raises(NumericalError) as got:
            solver._guarded(w, _flat(interior), _GUARD_WORK)
        assert str(got.value) == str(exc)
        return
    guarded = solver._guarded(w, _flat(interior), _GUARD_WORK)
    assert not expected[:, [0, -1]].any()
    assert np.array_equal(guarded.view(np.uint64), expected.ravel()[1:-1].view(np.uint64))


def test_guard_blames_the_decay_step_only_for_its_own_row(params_benchmark):
    # dt*a11 = 1.5 and dt*a22 = 0.05: an undershoot of u is the decay step's, one of v the scheme's
    work = solver._Workspace(params_benchmark.with_(a11=3.0), 0.5, 4)
    w = np.ones((2, 5))
    with pytest.raises(ConfigurationError, match=r"dt\*a11=1\.5 >= 1; reduce dt via steps_per_period"):
        solver._guarded(w, _flat(np.array([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0])), work)
    with pytest.raises(NumericalError, match="v undershoot -1.000e\\+00 exceeds the clip tolerance"):
        solver._guarded(w, _flat(np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])), work)


def test_frozen_steps_between_two_buffers_clip_like_the_moving_kernel(params_benchmark):
    # dt * a11 just above 1 and v = 0 before every one-step period: each step
    # leaves u a roundoff-size negative multiple of itself, clipped in the
    # buffer it wrote; one map, and so one pair of buffers, serves all four
    n, dt, width = 32, 0.05, 30.0
    p = params_benchmark.with_(tau=dt, a11=(1.0 + 1e-13) / dt)
    period = solver.frozen_period_map(p, width, n, 1)
    w = np.array([np.sin(np.pi * np.linspace(0.0, 1.0, n + 1)), np.zeros(n + 1)])
    w[0, -1] = 0.0
    image = w.copy()
    for _ in range(4):
        for state in (w, image):
            state[0, 1:-1] += 1.0  # fresh u, so every step undershoots
            state[1] = 0.0
        w = imex_step(w, p, dt, width)
        image, _ = period(image)
        assert not w[0].any() and w[1].max() > 0.0
        assert np.array_equal(image.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("times", [(-5.0, -1.0, 2.0), (2.0, float("nan")), (float("inf"),)])
def test_snapshot_times_must_be_finite_and_non_negative(init_cos, times):
    # a time before the run began came back as a copy of the start state labelled t = 0
    p, cfg = base_params_cd(1.0), SolverConfig(n=16, steps_per_period=10)
    with pytest.raises(PreconditionError, match="snapshot times must be finite and non-negative"):
        run(p, init_cos, cfg, 5.0, snapshot_times=times)
    # a time past t_end is dropped, as a shortened simulate relies on
    assert [s.t for s in run(p, init_cos, cfg, 5.0, (0.0, 2.0, 9.0)).snapshots] == [0.0, 2.0]
