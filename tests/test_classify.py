import logging
import math

import numpy as np
import pytest

from pulsefront.classify import (
    DetectionCriteria,
    Verdict,
    _bisect_threshold,
    classify_analytic,
    critical_length,
    detect_outcome,
    find_kappa_threshold,
    find_mu_threshold,
)
from pulsefront.errors import PreconditionError
from pulsefront.model import InitialData, LinearImpulse, SaturatingImpulse
from pulsefront.solver import SolverConfig, TimeSeries, run
from pulsefront.presets import base_params_cd


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
    lstar = critical_length(p, tol=1e-10)
    # identity impulse: the crossing is where det B(lam0) vanishes
    A = p.d1 * p.d2
    B = p.d1 * p.a22 + p.d2 * p.a11
    C = p.a11 * p.a22 - p.a12 * p.growth.slope_at_zero
    lam0 = (-B + math.sqrt(B * B - 4 * A * C)) / (2 * A)
    assert lstar == pytest.approx(math.pi / math.sqrt(lam0), abs=1e-8)


def test_critical_length_brackets_sign_change(params_benchmark):
    from pulsefront.eigen import principal_eigenvalue_monodromy

    lstar = critical_length(params_benchmark, tol=1e-8)
    assert principal_eigenvalue_monodromy(params_benchmark, lstar - 1e-4).lam > 0
    assert principal_eigenvalue_monodromy(params_benchmark, lstar + 1e-4).lam < 0


def test_critical_length_grows_as_impulse_strengthens(params_benchmark):
    weaker = params_benchmark.with_(impulse=LinearImpulse(rho=0.6))
    assert critical_length(weaker) > critical_length(params_benchmark)


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


def test_threshold_search_computes_critical_length_once(params_benchmark, init_cos, monkeypatch):
    import pulsefront.classify as classify

    lengths = []
    real_length, real_detect = classify.critical_length, classify.detect_outcome

    def counted_length(params, *args, **kwargs):
        lengths.append(params.mu2)
        return real_length(params, *args, **kwargs)

    outcomes = []

    def spied_detect(series, params, criteria=None, **known):
        out = real_detect(series, params, criteria, **known)
        outcomes.append((series, params, out))
        return out

    class FakeTrajectory:
        # spreads above mu2 = 20, stays put and empty below; 200 steps to t_end
        def __init__(self, params, init, cfg, t_end):
            self.mu2, self.dt, self.step = params.mu2, t_end / 200, 0
            self.n_steps = self.steps_to(t_end)

        def steps_to(self, t_end):
            return round(t_end / self.dt)

        def advance(self, to_step):
            self.step = max(self.step, to_step)

        def series(self):
            t = np.arange(self.step + 1) * self.dt
            if self.mu2 > 20.0:
                h = 2.0 + 0.2 * t
                return _series(t, -h, h, np.full_like(t, 5.0), np.full_like(t, 3.0))
            zero = np.zeros_like(t)
            return _series(t, zero - 2.0, zero + 2.0, zero, zero)

    monkeypatch.setattr(classify, "critical_length", counted_length)
    monkeypatch.setattr(classify, "detect_outcome", spied_detect)
    monkeypatch.setattr(classify, "Trajectory", FakeTrajectory)
    result = find_mu_threshold(params_benchmark, init_cos, SolverConfig(n=64), (1.0, 40.0), tol=1.0)
    lo, hi = result.bracket
    assert lo <= 20.0 <= hi and len(outcomes) == len(result.history) > 2
    assert len(lengths) == 1
    # a direct call recomputes both and classifies every probe the same way
    for series, params, out in outcomes:
        assert real_detect(series, params) == out


def test_mu_threshold_preconditions(params_disinfected, init_cos):
    cfg = SolverConfig(n=64, steps_per_period=100)
    with pytest.raises(PreconditionError, match="threshold-dependent"):
        find_mu_threshold(params_disinfected, init_cos, cfg, (1.0, 10.0), 0.5)


def test_mu_threshold_degenerate_bracket(init_cos):
    p = base_params_cd(1.0)
    cfg = SolverConfig(n=64, steps_per_period=100)
    with pytest.raises(PreconditionError, match="degenerate"):
        find_mu_threshold(p, init_cos, cfg, (3.0, 3.0), 0.5)


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
    horizon, regime = classify._search_regime(params, None, "mu2")
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
    verdict = classify._probe(params.with_(mu2=mu2), init, cfg, horizon, None, f"mu2={mu2}", regime)
    return verdict, evidences, steps[0], round(horizon / (params.tau / cfg.steps_per_period))


def test_spreading_probe_stops_before_horizon(monkeypatch):
    verdict, evidences, steps, n1 = _counted_probe(monkeypatch, 10.0)
    assert verdict is Verdict.SPREADING and n1 == 1000
    (evidence,) = evidences
    assert evidence["t_end"] < 200.0
    assert evidence["final_width"] > evidence["spread_trigger_width"]
    # stopped at the first period end where the condition held
    assert steps % 25 == 0 and steps == round(evidence["t_end"] / 0.2) < n1


def test_undecided_probe_resumes_its_trajectory(monkeypatch):
    verdict, evidences, steps, n1 = _counted_probe(monkeypatch, 1.2)
    assert verdict is Verdict.VANISHING
    assert [e["t_end"] for e in evidences] == [200.0, 400.0]
    assert steps == 2 * n1  # n2 steps, not n1 + n2


def test_probes_log_one_debug_record_each(caplog):
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
    # mu2 = 1 vanishes at the horizon; the high end spreads within it
    assert records[0]["stop_step"] == records[0]["horizon_step"] == 1000
    assert not records[0]["stopped_early"] and not records[0]["resumed"]
    assert records[1]["stopped_early"] and records[1]["stop_step"] < 1000
    assert all(r["wall_s"] > 0 for r in records)
    assert records[1]["evidence"]["t_end"] == records[1]["stop_step"] * (params.tau / 25)
