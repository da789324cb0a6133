import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsefront import solver
from pulsefront.errors import ConfigurationError, NumericalError
from pulsefront.model import InitialData
from pulsefront.presets import preset
from pulsefront.solver import (
    SolverConfig,
    Trajectory,
    apply_impulse,
    imex_density_step,
    run,
    transform_step,
)


def test_grid_and_config_invariants():
    assert SolverConfig(n=16).dxi == 1 / 16
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
    cfg = SolverConfig(n=128, steps_per_period=1000)
    x0 = -2.0 + SolverConfig(n=128).xi * 4.0
    w = np.array(init_cos.sample(x0))
    w[:, 0] = w[:, -1] = 0.0
    g1, h1, w1 = transform_step(-2.0, 2.0, w, params_benchmark, cfg, 0.005)
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
        w = imex_density_step(w, p0, dt, 1.0 / 256, 4.0)
    assert np.array_equal(w[0], series.snapshots[-1].u)
    assert np.array_equal(w[1], series.snapshots[-1].v)


def test_stability_guard_names_the_pair(params_benchmark, init_cos):
    # 10 steps per period gives dt = 0.5; initial front speed ~3.5 violates
    # dt * vmax^2 <= 2 * min(d)
    with pytest.raises(ConfigurationError, match="dt=0.5"):
        run(params_benchmark, init_cos, SolverConfig(n=64, steps_per_period=10), 5.0)


def test_undershoot_abort():
    # a hard mesh-motion courant violation drives the explicit advection
    # update negative near the front, beyond any clip tolerance
    from pulsefront.presets import base_params_a

    n = 16
    xi = np.linspace(0.0, 1.0, n + 1)
    u = np.minimum(xi, 1.0 - xi)
    v = u.copy()
    with pytest.raises(NumericalError, match="undershoot"):
        imex_density_step(np.array([u, v]), base_params_a(), dt=0.2, dxi=1.0 / n,
                          width_new=4.0, vel_g=0.0, vel_h=12.0)


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
        g, h, w = transform_step(g, h, w, params, cfg, dt)
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
    traj = Trajectory(params_disinfected, init_cos, cfg, t_end, snaps)
    assert traj.n_steps == whole.t.size - 1 == 311
    reference = _reference_records(params_disinfected, init_cos, cfg, t_end)
    assert np.array_equal(np.array([whole.t, whole.g, whole.h, whole.sup_u, whole.sup_v]), reference)
    for k in (1, 99, 100, 101, 200, 201, 250, 300, 311):
        traj.advance(k)
        assert traj.step == k
        _assert_same_series(traj.series(), run(params_disinfected, init_cos, cfg, k * traj.dt, snaps))
    _assert_same_series(traj.series(), whole)
    # resuming past the first horizon grows the records and equals a fresh run
    first = traj.series()
    traj.advance(traj.steps_to(2.0 * t_end))
    _assert_same_series(traj.series(), run(params_disinfected, init_cos, cfg, 2.0 * t_end, snaps))
    _assert_same_series(first, whole)


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
    u_new, v_new = imex_density_step(np.array([u, v]), p, dt, dxi, width, vel_g, vel_h)

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

        got = imex_density_step(np.array([u, v]), p, dt, dxi, width, vel_g, vel_h)
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
        imex_density_step(np.array([u, v]), params_benchmark, 0.01, 1.0 / n, 4.0)


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
        transform_step(-2.0, 2.0, w, params_benchmark, SolverConfig(n=128, steps_per_period=1000),
                       0.005)


def test_indefinite_diffusion_system_aborts(params_benchmark):
    # dt < 0 makes r < 0 and the "diffusion" matrix indefinite; dptsv reports
    # it instead of returning a meaningless solve
    xi = np.linspace(0.0, 1.0, 33)
    u = np.sin(np.pi * xi)
    with pytest.raises(NumericalError, match="dptsv info="):
        imex_density_step(np.array([u, u]), params_benchmark, -1.0, 1.0 / 32, 4.0)


def _heun_step_own_terms(g, h, w, params, cfg, dt):
    """transform_step with each IMEX stage forming its own start-state terms."""
    vg0, vh0 = solver._front_velocities(w, h - g, cfg.dxi, params.mu1, params.mu2)
    g1, h1 = g + dt * vg0, h + dt * vh0
    wp = imex_density_step(w, params, dt, cfg.dxi, h1 - g1, vg0, vh0)
    vg1, vh1 = solver._front_velocities(wp, h1 - g1, cfg.dxi, params.mu1, params.mu2)
    g1, h1 = g + 0.5 * dt * (vg0 + vg1), h + 0.5 * dt * (vh0 + vh1)
    return g1, h1, imex_density_step(w, params, dt, cfg.dxi, h1 - g1, (g1 - g) / dt, (h1 - h) / dt)


@pytest.mark.parametrize("figure", ["fig-a", "fig-b", "fig-c", "fig-d"])
def test_heun_stages_sharing_start_terms_are_bit_identical(figure):
    # both stages start from w, so transform_step forms its explicit terms once
    params = preset(figure).config.model
    cfg = SolverConfig(n=128, steps_per_period=500)
    traj = Trajectory(params, InitialData.cos_quarter(params.h0, 0.3, 0.1), cfg, 5.0)
    for k in (300, 301, 302):
        traj.advance(k)
        shared = transform_step(traj.g, traj.h, traj.w, params, cfg, traj.dt)
        own = _heun_step_own_terms(traj.g, traj.h, traj.w, params, cfg, traj.dt)
        assert shared[:2] == own[:2]
        assert np.array_equal(shared[2].view(np.uint64), own[2].view(np.uint64))


def test_frozen_step_reports_an_indefinite_matrix(params_benchmark):
    # dt < 0 makes the frozen matrix indefinite; its one factorization says so
    with pytest.raises(NumericalError, match="dpttrf info="):
        solver.frozen_step(params_benchmark, -1.0, 4.0, 32)


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


# an interior entry: a signed zero, the least negative float, a density, or
# k * CLIP_TOL * sup of its start row for k in [-3, 3], i.e. an undershoot
# inside or beyond the tolerance; then maybe one entry made NaN or infinite
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, -5e-324]).map(lambda x: (x, 0.0)),
    st.floats(0.0, 1e3).map(lambda x: (x, 0.0)),
    st.floats(-3.0, 3.0).map(lambda k: (0.0, k)),
)


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.0, 1e3) | st.just(-0.0), min_size=2 * (n + 1), max_size=2 * (n + 1)),
    st.lists(_ENTRY, min_size=2 * (n - 1), max_size=2 * (n - 1)),
    st.none() | st.tuples(st.integers(0, 2 * n - 3), st.sampled_from([np.nan, np.inf, -np.inf])))))
@settings(max_examples=300, deadline=None)
def test_guard_fast_path_matches_row_checks(drawn):
    # one whole-vector min and max decide whether the row checks run at all;
    # the result, the in-place clip and the error message must be the rows' own
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
            solver._guarded(w, interior.copy())
        assert str(got.value) == str(exc)
        return
    guarded = solver._guarded(w, interior.copy())
    assert not expected[:, [0, -1]].any()
    assert np.array_equal(guarded.view(np.uint64), expected[:, 1:-1].ravel().view(np.uint64))


def test_frozen_steps_between_two_buffers_clip_like_the_moving_kernel(params_benchmark):
    # dt * a11 just above 1 and v = 0 before every step: each step leaves u a
    # roundoff-size negative multiple of itself, clipped in the buffer it wrote
    n, dt, width = 32, 0.05, 30.0
    p = params_benchmark.with_(a11=(1.0 + 1e-13) / dt)
    step = solver.frozen_step(p, dt, width, n)
    buffers = np.empty(2 * (n - 1)), np.empty(2 * (n - 1))
    w = np.array([np.sin(np.pi * np.linspace(0.0, 1.0, n + 1)), np.zeros(n + 1)])
    w[0, -1] = 0.0
    z = w[:, 1:-1].flatten()
    for i in range(4):
        w[0, 1:-1] += 1.0  # fresh u, so every step undershoots
        z[: n - 1] += 1.0
        w[1], z[n - 1:] = 0.0, 0.0
        w = imex_density_step(w, p, dt, 1.0 / n, width)
        z = step(z, buffers[i % 2])
        assert z is buffers[i % 2] and not w[0].any() and w[1].max() > 0.0
        assert np.array_equal(z.view(np.uint64), w[:, 1:-1].ravel().view(np.uint64))
