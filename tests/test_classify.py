import logging
import math

import numpy as np
import pytest

from pulsefront.classify import (
    Verdict,
    _bisect_threshold,
    classify_analytic,
    critical_length,
    detect_outcome,
    find_kappa_threshold,
    find_mu_threshold,
)
from pulsefront.errors import ConfigurationError, PreconditionError
from pulsefront.model import (
    InitialData,
    LinearGrowth,
    LinearImpulse,
    SaturatingImpulse,
)
from pulsefront.solver import SolverConfig, TimeSeries, Trajectory, run
from pulsefront.presets import base_params_cd

from conftest import CRITERION10_SEARCH, certified_search


def _series(t, g, h, su, sv):
    return TimeSeries(t=np.asarray(t, float), g=np.asarray(g, float), h=np.asarray(h, float),
                      sup_u=np.asarray(su, float), sup_v=np.asarray(sv, float))


def test_classify_analytic_regimes(params_benchmark, params_disinfected):
    td = classify_analytic(params_benchmark)
    assert td.verdict is Verdict.THRESHOLD_DEPENDENT
    assert td.lambda_infinity < 0 < td.lambda_h0

    van = classify_analytic(params_disinfected)
    assert van.verdict is Verdict.VANISHING
    assert van.lambda_infinity > 0

    dominated = classify_analytic(params_benchmark.with_(a11=100.0))
    assert dominated.verdict is Verdict.VANISHING

    spreading = classify_analytic(params_benchmark.with_(h0=100.0))
    assert spreading.verdict is Verdict.SPREADING


def test_critical_length_matches_quadratic(params_benchmark):
    p = params_benchmark
    lstar = critical_length(p)
    # identity impulse: the crossing is where det B(lam0) vanishes
    A = p.d1 * p.d2
    B = p.d1 * p.a22 + p.d2 * p.a11
    C = p.a11 * p.a22 - p.a12 * p.growth.slope_at_zero
    lam0 = (-B + math.sqrt(B * B - 4 * A * C)) / (2 * A)
    assert lstar == pytest.approx(math.pi / math.sqrt(lam0), abs=1e-8)


def test_critical_length_brackets_sign_change(params_benchmark):
    from pulsefront.eigen import principal_eigenvalue_monodromy

    lstar = critical_length(params_benchmark)
    assert principal_eigenvalue_monodromy(params_benchmark, lstar - 1e-4).lam > 0
    assert principal_eigenvalue_monodromy(params_benchmark, lstar + 1e-4).lam < 0


def test_critical_length_grows_as_impulse_strengthens(params_benchmark):
    weaker = params_benchmark.with_(impulse=LinearImpulse(rho=0.6))
    assert critical_length(weaker) > critical_length(params_benchmark)


def test_critical_length_far_above_the_initial_interval():
    # a12 f'(0) a hair above a11 a22 puts the whole-line eigenvalue at -7e-16
    # and L* near 6.4e7, where adjacent widths lie 7.5e-9 apart
    from pulsefront.eigen import principal_eigenvalue_monodromy

    p = base_params_cd(1.0).with_(a12=0.3 * (1 + 1e-14))
    lstar = critical_length(p)
    assert 6e7 < lstar < 7e7
    lam = lambda width: principal_eigenvalue_monodromy(p, width).lam
    below, above = math.nextafter(lstar, 0.0), math.nextafter(lstar, math.inf)
    assert lam(below) > 0 >= lam(lstar) or lam(lstar) > 0 >= lam(above)
    assert classify_analytic(p).critical_length == lstar


def test_critical_length_past_1e12():
    # d1 = d2 = 1e8 stretch the same hair-thin margin to L* ~ 3.2e12; the
    # width doubling has no cap
    p = base_params_cd(1.0).with_(d1=1e8, d2=1e8, a12=0.30000000000000016)
    lstar = critical_length(p)
    assert lstar > 1e12
    assert classify_analytic(p).critical_length == lstar


def test_critical_length_preconditions(params_benchmark, params_disinfected):
    with pytest.raises(PreconditionError, match="whole-line"):
        critical_length(params_disinfected)
    with pytest.raises(PreconditionError, match="initial-interval"):
        critical_length(params_benchmark.with_(h0=100.0))


def test_detect_zero_series_vanishes(params_benchmark):
    t = np.linspace(0.0, 100.0, 201)
    s = _series(t, -2.0 * np.ones_like(t), 2.0 * np.ones_like(t), np.zeros_like(t), np.zeros_like(t))
    assert detect_outcome(s, params_benchmark).verdict is Verdict.VANISHING


def test_detect_spreading_series(params_benchmark):
    t = np.linspace(0.0, 100.0, 201)
    h = 2.0 + 0.2 * t
    s = _series(t, -h, h, np.full_like(t, 5.0), np.full_like(t, 3.0))
    out = detect_outcome(s, params_benchmark)
    assert out.verdict is Verdict.SPREADING
    assert out.evidence["final_width"] > out.evidence["spread_trigger_width"]


def test_detect_undecided_series(params_benchmark):
    # mass between the two thresholds and a stalled front: no verdict yet
    t = np.linspace(0.0, 100.0, 201)
    s = _series(t, -2.5 * np.ones_like(t), 2.5 * np.ones_like(t),
                np.full_like(t, 5e-3), np.zeros_like(t))
    assert detect_outcome(s, params_benchmark).verdict is Verdict.UNDECIDED


def test_detect_verdicts_are_exclusive_on_prefixes(params_benchmark):
    t = np.linspace(0.0, 100.0, 401)
    h = 2.0 + 0.15 * t
    su = np.full_like(t, 2.0)
    s_full = _series(t, -h, h, su, su)
    for cut in (100, 200, 400):
        out = detect_outcome(
            TimeSeries(t=s_full.t[:cut + 1], g=s_full.g[:cut + 1], h=s_full.h[:cut + 1],
                       sup_u=s_full.sup_u[:cut + 1], sup_v=s_full.sup_v[:cut + 1]),
            params_benchmark,
        )
        assert out.verdict in (Verdict.SPREADING, Verdict.UNDECIDED)


def test_bisect_threshold_records_nested_brackets():
    def evaluate(x):
        return Verdict.VANISHING if x < 3.7 else Verdict.SPREADING

    result = _bisect_threshold(evaluate, 1.0, 10.0, 0.05, "x")
    assert len(result.brackets) == len(result.history)
    for (probe, verdict), (lo, hi) in zip(result.history, result.brackets):
        assert lo <= probe <= hi
        assert verdict is evaluate(probe)
    for (lo0, hi0), (lo1, hi1) in zip(result.brackets, result.brackets[1:]):
        assert lo0 <= lo1 and hi1 <= hi0
    lo, hi = result.bracket
    assert hi - lo <= 0.05 and lo <= 3.7 <= hi
    assert result.brackets[-1][0] <= lo and hi <= result.brackets[-1][1]
    verdicts = dict(result.history)
    assert verdicts[1.0] is Verdict.VANISHING and verdicts[10.0] is Verdict.SPREADING


def test_bisect_threshold_rejects_tol_below_float_spacing():
    probes = []

    def evaluate(x):
        probes.append(x)
        assert len(probes) < 200, "bisection does not end"
        return Verdict.VANISHING if x < 3.7 else Verdict.SPREADING

    # adjacent floats near 10 are ~1.8e-15 apart: 1e-300 is never reached
    with pytest.raises(PreconditionError, match="float spacing"):
        _bisect_threshold(evaluate, 1.0, 10.0, 1e-300, "x")
    assert probes == []
    # the spacing itself is reachable
    result = _bisect_threshold(evaluate, 1.0, 10.0, math.ulp(10.0), "x")
    lo, hi = result.bracket
    assert 0 < hi - lo <= math.ulp(10.0) and lo < 3.7 <= hi


def test_bisect_threshold_midpoint_does_not_overflow():
    # lo + hi overflows to inf near the top of the float range; the midpoint
    # 0.5*lo + 0.5*hi cannot, and equals 0.5*(lo + hi) wherever that is finite
    probes = []

    def evaluate(x):
        probes.append(x)
        assert len(probes) < 100, "bisection does not end"
        return Verdict.VANISHING if x < 1.3e308 else Verdict.SPREADING

    result = _bisect_threshold(evaluate, 1e308, 1.7e308, 1e300, "x")
    assert all(math.isfinite(x) for x in probes)
    assert math.isfinite(result.value)
    lo, hi = result.bracket
    assert hi - lo <= 1e300 and lo < 1.3e308 <= hi and lo <= result.value <= hi


def test_threshold_search_computes_critical_length_once(params_benchmark, init_cos, monkeypatch):
    import pulsefront.classify as classify

    lengths = []
    real_length, real_detect = classify.critical_length, classify.detect_outcome

    def counted_length(params, *args, **kwargs):
        lengths.append(params.mu2)
        return real_length(params, *args, **kwargs)

    outcomes = []

    def spied_detect(series, params, **known):
        out = real_detect(series, params, **known)
        outcomes.append((series, params, out))
        return out

    tables = []
    real_upper = classify._upper_solutions

    def counted_upper(params, critical):
        tables.append(params.mu2)
        return real_upper(params, critical)

    class FakeTrajectory:
        # spreads above mu2 = 20, stays put and empty below; the time grid
        # of the real one
        def __init__(self, params, init, cfg, t_end):
            self.mu2, self.dt, self.step = params.mu2, params.tau / cfg.steps_per_period, 0
            self.n_steps = self.steps_to(t_end)
            self.w = np.zeros((2, cfg.n + 1))
            if self.mu2 > 20.0:
                self.w[:, 1:-1] = [[5.0], [3.0]]

        def steps_to(self, t_end):
            return round(t_end / self.dt)

        def advance(self, to_step, stop_width=math.inf):
            self.step = max(self.step, to_step)

        @property
        def h(self):
            return 2.0 + 0.2 * self.step * self.dt if self.mu2 > 20.0 else 2.0

        @property
        def g(self):
            return -self.h

        def series(self):
            t = np.arange(self.step + 1) * self.dt
            if self.mu2 > 20.0:
                h = 2.0 + 0.2 * t
                return _series(t, -h, h, np.full_like(t, 5.0), np.full_like(t, 3.0))
            zero = np.zeros_like(t)
            return _series(t, zero - 2.0, zero + 2.0, zero, zero)

    monkeypatch.setattr(classify, "critical_length", counted_length)
    monkeypatch.setattr(classify, "_upper_solutions", counted_upper)
    monkeypatch.setattr(classify, "detect_outcome", spied_detect)
    monkeypatch.setattr(classify, "Trajectory", FakeTrajectory)
    cfg = SolverConfig(n=64, steps_per_period=10)
    result = find_mu_threshold(params_benchmark, init_cos, cfg, (1.0, 40.0), tol=1.0)
    lo, hi = result.bracket
    assert lo <= 20.0 <= hi and len(result.history) > 2
    assert len(lengths) == 1 and len(tables) == 1
    # the empty runs are certified to vanish at their first period end; only
    # the spreading ones are classified from their records
    spreading = [mu2 for mu2, verdict in result.history if verdict is Verdict.SPREADING]
    assert [params.mu2 for _, params, _ in outcomes] == spreading
    assert len(spreading) < len(result.history)
    # a direct call recomputes both and classifies every probe the same way
    for series, params, out in outcomes:
        assert real_detect(series, params) == out


def test_mu_threshold_preconditions(params_disinfected, init_cos):
    cfg = SolverConfig(n=64, steps_per_period=100)
    with pytest.raises(PreconditionError, match="threshold-dependent"):
        find_mu_threshold(params_disinfected, init_cos, cfg, (1.0, 10.0), 0.5)
    # tol 0 is never reached (adjacent-float midpoints do not shrink the
    # bracket), and nan or inf would end the bisection at its first bracket
    for tol in (0.0, -1.0, math.nan, math.inf, 1e-300):
        with pytest.raises(PreconditionError, match="tol"):
            find_mu_threshold(base_params_cd(1.0), init_cos, cfg, (1.0, 10.0), tol)


def test_mu_threshold_degenerate_bracket(init_cos):
    p = base_params_cd(1.0)
    cfg = SolverConfig(n=64, steps_per_period=100)
    with pytest.raises(PreconditionError, match="degenerate"):
        find_mu_threshold(p, init_cos, cfg, (3.0, 3.0), 0.5)
    # so is a bracket whose ends both spread or both vanish
    cfg = SolverConfig(n=32, steps_per_period=100)
    with pytest.raises(PreconditionError, match="mu2 bracket low end must vanish"):
        find_mu_threshold(p, init_cos, cfg, (20.0, 30.0), 0.5, t_end=200.0)
    with pytest.raises(PreconditionError, match="mu2 bracket high end must spread"):
        find_mu_threshold(p, init_cos, cfg, (0.5, 0.8), 0.5, t_end=200.0)


@pytest.mark.parametrize("bracket", [(1.0, math.inf), (-math.inf, 10.0), (math.nan, 10.0)])
def test_mu_threshold_nonfinite_bracket(init_cos, bracket):
    # a non-finite bracket end is named, not blamed on tol
    cfg = SolverConfig(n=64, steps_per_period=100)
    with pytest.raises(PreconditionError, match="bracket ends must be finite"):
        find_mu_threshold(base_params_cd(1.0), init_cos, cfg, bracket, 0.5)


def test_kappa_threshold_rejects_nonlinear_impulse(params_benchmark, init_cos):
    p = params_benchmark.with_(impulse=SaturatingImpulse(c=0.5, b=10.0))
    cfg = SolverConfig(n=64, steps_per_period=100)
    with pytest.raises(PreconditionError, match="linear"):
        find_kappa_threshold(p, init_cos, cfg, (0.1, 10.0), 0.5)


def test_kappa_endpoints_straddle(init_cos):
    # tiny bacterial seeds die (v-flux subcritical at mu2=2), huge ones spread
    p_small = base_params_cd(2.0)
    cfg = SolverConfig(n=128, steps_per_period=500)
    tiny = run(p_small, init_cos.scaled(1e-3, 1.0), cfg, 200.0)
    assert detect_outcome(tiny, p_small).verdict is Verdict.VANISHING

    # a 1000x seed drives the front at speed ~24 initially: dt must shrink
    p_big = base_params_cd(10.0)
    big = run(p_big, init_cos.scaled(1e3, 1.0),
              SolverConfig(n=128, steps_per_period=20000), 5.0)
    assert detect_outcome(big, p_big).verdict is Verdict.SPREADING


def test_kappa_threshold_end_to_end(init_cos):
    # coarse bracket on the seed size at mu2=2; the verified behavior is the
    # bracketing contract, not the digit count
    p = base_params_cd(2.0)
    cfg = SolverConfig(n=96, steps_per_period=400)
    result = find_kappa_threshold(p, init_cos, cfg, (0.01, 20.0), tol=6.0, t_end=150.0)
    assert 0.01 < result.value < 20.0
    verdicts = dict(result.history)
    assert verdicts[0.01] is Verdict.VANISHING
    assert verdicts[20.0] is Verdict.SPREADING


def test_monotone_evidence_and_verdict_order_in_mu2(init_cos):
    # outcomes along the probe grid never regress from Spreading back toward
    # Vanishing, and the final front position grows with mu2
    cfg = SolverConfig(n=64, steps_per_period=250)
    rank = {Verdict.VANISHING: 0, Verdict.UNDECIDED: 1, Verdict.SPREADING: 2}
    finals, ranks = [], []
    for mu2 in (1.0, 2.0, 5.0, 10.0):
        p = base_params_cd(mu2)
        series = run(p, init_cos, cfg, 200.0)
        finals.append(series.h[-1])
        ranks.append(rank[detect_outcome(series, p).verdict])
    assert all(a <= b + 1e-12 for a, b in zip(finals, finals[1:]))
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))
    assert ranks[0] == 0 and ranks[-1] == 2


def test_analytic_and_simulated_verdicts_agree(init_cos):
    # ten decisive parameter sets spanning both regimes; the simulated
    # verdict on a long enough run must reproduce the analytic one
    from pulsefront.presets import base_params_a

    base = base_params_a()
    vanishing = [
        (base.with_(impulse=SaturatingImpulse(0.5, 10.0)), 200.0),
        (base.with_(impulse=SaturatingImpulse(1.0, 20.0)), 200.0),
        (base.with_(impulse=LinearImpulse(0.1)), 400.0),
        (base.with_(a11=1.0), 200.0),
        (base.with_(a22=0.5), 200.0),
    ]
    cfg = SolverConfig(n=64, steps_per_period=500)
    for p, horizon in vanishing:
        assert classify_analytic(p).verdict is Verdict.VANISHING
        series = run(p, init_cos, cfg, horizon)
        assert detect_outcome(series, p).verdict is Verdict.VANISHING

    # wide seeds make the initial interval supercritical outright; the
    # default detection cap of 25*h0 needs a long horizon to clear
    cfg_spread = SolverConfig(n=64, steps_per_period=200)
    for h0 in (4.5, 5.0, 5.5, 6.0, 7.0):
        p = base.with_(h0=h0)
        assert classify_analytic(p).verdict is Verdict.SPREADING
        series = run(p, InitialData.cos_quarter(h0, 0.3, 0.1), cfg_spread, 600.0)
        assert detect_outcome(series, p).verdict is Verdict.SPREADING


def _counted_probe(monkeypatch, mu2):
    """One probe on the fig-c/d coefficients, coarse grid (mu0 near 1.4 there):
    (verdict, evidence of every detect_outcome call, transform_step calls, n1)."""
    import pulsefront.classify as classify
    import pulsefront.solver as solver

    params = base_params_cd(1.0)
    init, cfg = InitialData.cos_quarter(2.0, 0.3, 0.1), SolverConfig(n=32, steps_per_period=25)
    horizon, analytic, upper = classify._search_regime(params, None, "mu2")
    steps, evidences = [0], []
    real_step, real_detect = solver.transform_step, classify.detect_outcome

    def counted_step(*args):
        steps[0] += 1
        return real_step(*args)

    def spied_detect(*args, **kwargs):
        out = real_detect(*args, **kwargs)
        evidences.append(out.evidence)
        return out

    monkeypatch.setattr(solver, "transform_step", counted_step)
    monkeypatch.setattr(classify, "detect_outcome", spied_detect)
    verdict = classify._probe(
        params.with_(mu2=mu2), init, cfg, horizon, f"mu2={mu2}", analytic, upper
    )
    return verdict, evidences, steps[0], round(horizon / (params.tau / cfg.steps_per_period))


def test_spreading_probe_stops_before_horizon(monkeypatch):
    verdict, evidences, steps, n1 = _counted_probe(monkeypatch, 10.0)
    assert verdict is Verdict.SPREADING and n1 == 1000
    (evidence,) = evidences
    assert evidence["t_end"] < 200.0
    assert evidence["final_width"] > evidence["spread_trigger_width"]
    assert steps == round(evidence["t_end"] / 0.2) < n1
    # stopped at the first step whose record meets the spreading condition,
    # not at the period end after it
    import pulsefront.classify as classify

    series = run(base_params_cd(10.0), InitialData.cos_quarter(2.0, 0.3, 0.1),
                 SolverConfig(n=32, steps_per_period=25), steps * 0.2)
    holds = (series.width > evidence["spread_trigger_width"]) & (
        series.sup_u + series.sup_v > classify.EPS_SPREAD)
    assert series.t.size == steps + 1 and holds[-1] and not holds[:-1].any()


def test_undecided_probe_resumes_its_trajectory(monkeypatch, caplog):
    # on this grid mu2 = 1.3 is Undecided at t_end = 200 and certified to
    # vanish at t = 225, after the resume
    with caplog.at_level(logging.DEBUG, logger="pulsefront.classify"):
        verdict, evidences, steps, n1 = _counted_probe(monkeypatch, 1.3)
    (record,) = [r.probe for r in caplog.records]
    assert verdict is Verdict.VANISHING
    assert [e["t_end"] for e in evidences] == [200.0]
    assert record["resumed"] and record["stop_reason"] == "certificate"
    assert n1 < record["stop_step"] < record["horizon_step"] == 2 * n1
    assert steps == record["stop_step"]  # the resumed run went on, it did not start over
    assert record["certificate"]["t"] == steps * 0.2


def test_probes_log_one_debug_record_each(caplog, capsys):
    params = base_params_cd(1.0)
    init, cfg = InitialData.cos_quarter(2.0, 0.3, 0.1), SolverConfig(n=32, steps_per_period=25)

    def search():
        return find_mu_threshold(params, init, cfg, (1.0, 10.0), tol=3.0)

    with caplog.at_level(logging.INFO, logger="pulsefront.classify"):
        quiet = search()
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="pulsefront.classify"):
        loud = search()
    assert loud == quiet
    records = [r.probe for r in caplog.records]
    assert [(r["probe"], r["verdict"]) for r in records] == [
        (f"mu2={value:.6g}", str(verdict)) for value, verdict in loud.history
    ]
    # mu2 = 1 is certified to vanish and the high end spreads, both well
    # within the horizon
    assert [r["stop_reason"] for r in records[:2]] == ["certificate", "spreading"]
    assert all(r["stop_reason"] in ("spreading", "certificate", "horizon") for r in records)
    assert records[0]["stopped_early"] and records[0]["stop_step"] < records[0]["horizon_step"] == 1000
    assert not records[0]["resumed"] and records[0]["evidence"] is None
    certificate = records[0]["certificate"]
    assert certificate["t"] == records[0]["stop_step"] * (params.tau / 25)
    assert 0 < certificate["sigma0"] < certificate["sigma_inf"]
    assert 2.0 * certificate["sigma_inf"] < critical_length(params)
    assert certificate["delta"] > 0 and certificate["M"] > 0
    assert 0 <= certificate["ratio_u"] <= 0.5 and 0 <= certificate["ratio_v"] <= 0.5
    assert records[1]["stopped_early"] and records[1]["stop_step"] < 1000
    assert records[1]["certificate"] is None
    assert all(r["wall_s"] > 0 for r in records)
    assert records[1]["evidence"]["t_end"] == records[1]["stop_step"] * (params.tau / 25)
    assert capsys.readouterr().out == ""


def test_certificate_table_and_unbounded_growth(params_benchmark, init_cos):
    import pulsefront.classify as classify

    _, analytic, upper = classify._search_regime(params_benchmark, None, "mu2")
    assert len(upper.sigma_inf) == classify.CERTIFICATE_GRID
    assert np.all(upper.delta > 0) and np.all(2.0 * upper.sigma_inf < analytic.critical_length)
    # f(u)/u = 0.07 is above a11*a22/a12 = 0.06: the slope margin of A2 fails,
    # the regime does not, and the first probe finds no uniform density bound
    bad = params_benchmark.with_(growth=LinearGrowth(p=0.07))
    cfg = SolverConfig(n=64, steps_per_period=100)
    with pytest.raises(ConfigurationError, match="no uniform density bound"):
        find_mu_threshold(bad, init_cos, cfg, (1.0, 10.0), 0.5)


def _benchmark_bracket(seed):
    """The mu2 bracket the benchmark's ``threshold`` workload draws for a seed."""
    rng = np.random.default_rng([seed, 2])
    return 1.0 + 0.02 * rng.uniform(-1.0, 1.0), 10.0 + 0.05 * rng.uniform(-1.0, 1.0)


@pytest.mark.parametrize(
    ("search", "mu2", "n", "steps", "bracket", "tol", "t_end"),
    [
        # the benchmark's threshold rounds, seeds 1 and 7
        ("mu2", 1.0, 128, 100, _benchmark_bracket(1), 0.3, None),
        ("mu2", 1.0, 128, 100, _benchmark_bracket(7), 0.3, None),
        # test_cli_threshold_mu2_csv's config at its tol and at 0.3
        ("mu2", 1.0, 96, 400, (1.0, 10.0), 3.0, 200.0),
        ("mu2", 1.0, 96, 400, (1.0, 10.0), 0.3, 200.0),
        # test_kappa_threshold_end_to_end
        ("kappa", 2.0, 96, 400, (0.01, 20.0), 6.0, 150.0),
        # criterion 10 and README's weak.json
        CRITERION10_SEARCH,
    ],
    ids=["benchmark-seed1", "benchmark-seed7", "cli-tol3", "cli-tol0.3", "kappa", "criterion10"],
)
def test_certificate_stops_reach_vanishing(request, search, mu2, n, steps, bracket, tol, t_end):
    # every probe the certificate stops vanishes by detect_outcome too, run on
    # to its horizon or, where Undecided there, to the doubled one, the
    # trajectory's last step
    case = (search, mu2, n, steps, bracket, tol, t_end)
    if case == CRITERION10_SEARCH:
        _, certified = request.getfixturevalue("criterion10_search")
    else:
        _, certified = certified_search(*case)
    params = base_params_cd(mu2)
    assert certified
    horizon = 40.0 * params.tau if t_end is None else t_end
    for traj in certified:
        verdict = None
        for to_step in (traj.steps_to(horizon), traj.n_steps):
            if traj.step > to_step:  # certified after the resume
                continue
            traj.advance(to_step)
            verdict = detect_outcome(traj.series(), traj.params).verdict
            if verdict is not Verdict.UNDECIDED:
                break
        assert verdict is Verdict.VANISHING


def test_certificate_never_fires_on_a_spreading_run():
    # mu2 = 1.5625 is just above the threshold in the benchmark's shape
    import pulsefront.classify as classify

    params = base_params_cd(1.5625)
    horizon, analytic, upper = classify._search_regime(params, None, "mu2")
    cfg = SolverConfig(n=128, steps_per_period=100)
    traj = Trajectory(params, InitialData.cos_quarter(2.0, 0.3, 0.1), cfg, horizon)
    for period_end in range(100, traj.n_steps + 1, 100):
        traj.advance(period_end)
        assert classify._vanishing_certificate(traj, params, upper) is None
    outcome = detect_outcome(traj.series(), params, analytic=analytic)
    assert outcome.verdict is Verdict.SPREADING
