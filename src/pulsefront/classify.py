"""Spreading-vanishing decision logic and sharp threshold searches.

The whole-line eigenvalue decides vanishing outright when non-negative.
When it is negative the initial-interval eigenvalue splits the remainder:
non-positive certifies spreading, positive leaves the outcome to the
expansion capacities and initial data, which is where simulation-backed
detection and the bisection searches for the sharp mu2 and initial-size
thresholds come in.  In that regime the classification carries the
critical length L*, the width at which the frozen-interval eigenvalue
crosses zero; it depends on neither mu1, mu2 nor the initial data, so a
search or sweep over those classifies once and shares the result.  A
threshold probe stops early once its outcome is certain: spreading once
the width passes L*, vanishing once an upper solution whose front stays
below it dominates the state.
"""

from __future__ import annotations

import enum
import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .eigen import lambda_at_h0, lambda_infinity, principal_eigenvalue_monodromy
from .errors import NumericalError, PreconditionError
from .model import IdentityImpulse, InitialData, LinearImpulse, ModelParams
from .solver import SolverConfig, TimeSeries, Trajectory

__all__ = [
    "Verdict",
    "Classification",
    "ThresholdResult",
    "classify_analytic",
    "critical_length",
    "detect_outcome",
    "find_mu_threshold",
    "find_kappa_threshold",
]

logger = logging.getLogger(__name__)

# Outcome detection from a run's records.  Vanishing needs the final mass
# sup u + sup v below EPS_VANISH and width growth below STALL_FRACTION * h0
# over the trailing TRAILING_FRACTION of the run.  Spreading needs the width
# past the critical length, or past SPREAD_CAP * h0 outside the
# threshold-dependent regime, where none exists, with the mass above
# EPS_SPREAD.  The order-of-magnitude gap between the two mass thresholds
# prevents verdict flapping.
EPS_VANISH = 1e-3
EPS_SPREAD = 1e-2
STALL_FRACTION = 0.01
TRAILING_FRACTION = 0.2
SPREAD_CAP = 25.0

# The vanishing certificate (README, "Numerical notes"): final half-widths
# sigma_inf = j/(GRID + 1) * L*/2 for j = 1..GRID, the initial half-width
# sigma0 = (1 + MARGIN) * w/2, and u, v at most 1/SAFETY of the upper solution.
CERTIFICATE_GRID = 19
CERTIFICATE_MARGIN = 1e-3
CERTIFICATE_SAFETY = 2.0


class Verdict(str, enum.Enum):
    VANISHING = "Vanishing"
    SPREADING = "Spreading"
    THRESHOLD_DEPENDENT = "ThresholdDependent"
    UNDECIDED = "Undecided"

    def __str__(self) -> str:  # plain value in CSV/JSON output
        return self.value


@dataclass(frozen=True)
class Classification:
    """A verdict, the two eigenvalues it rests on and, in the
    threshold-dependent regime, the critical length L* (None elsewhere).
    L* is not part of the JSON form."""

    verdict: Verdict
    lambda_infinity: float
    lambda_h0: float
    critical_length: float | None = None
    evidence: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "verdict": str(self.verdict),
            "lambda_infinity": self.lambda_infinity,
            "lambda_h0": self.lambda_h0,
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class ThresholdResult:
    """Located threshold, its final bracket and every probe in order.

    ``brackets[i]`` is the bracket ``history[i]`` was probed in: the input
    bracket for the two end probes, then the bisection bracket of the step.
    """

    value: float
    bracket: tuple[float, float]
    history: tuple[tuple[float, Verdict], ...]
    brackets: tuple[tuple[float, float], ...]


def classify_analytic(params: ModelParams) -> Classification:
    """Verdict from the two eigenvalues alone, no simulation, and in the
    threshold-dependent regime the critical length."""
    lam_inf = lambda_infinity(params).lam
    lam_h0 = lambda_at_h0(params).lam
    critical = None
    if lam_inf >= 0:
        verdict = Verdict.VANISHING
    elif lam_h0 <= 0:
        verdict = Verdict.SPREADING
    else:
        verdict = Verdict.THRESHOLD_DEPENDENT
        critical = critical_length(params)
    return Classification(verdict, lam_inf, lam_h0, critical)


def _bisect(above, lo: float, hi: float) -> float:
    """Root in [lo, hi], where ``above(x)`` says it lies above x, to adjacent floats."""
    mid = 0.5 * lo + 0.5 * hi
    while lo < mid < hi:
        if above(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * lo + 0.5 * hi
    return mid


def critical_length(params: ModelParams) -> float:
    """Interval width at which the frozen-interval eigenvalue crosses zero.

    Exists exactly in the threshold-dependent regime; the eigenvalue is
    strictly decreasing in width, so bisection to adjacent floats brackets
    the root.
    """
    lam_inf = lambda_infinity(params).lam
    lam_h0 = lambda_at_h0(params).lam
    if not lam_inf < 0:
        raise PreconditionError(
            f"critical length needs a negative whole-line eigenvalue, got {lam_inf:.6g}"
        )
    if not lam_h0 > 0:
        raise PreconditionError(
            f"critical length needs a positive initial-interval eigenvalue, got {lam_h0:.6g}"
        )
    lo = 2.0 * params.h0
    hi = 2.0 * lo
    # no cap: past L ~ 1.4e162, (pi/L)^2 underflows to 0 and the eigenvalue is lam_inf < 0
    while principal_eigenvalue_monodromy(params, hi).lam >= 0:
        lo, hi = hi, 2.0 * hi
    return _bisect(lambda width: principal_eigenvalue_monodromy(params, width).lam > 0, lo, hi)


def detect_outcome(
    series: TimeSeries, params: ModelParams, *, analytic: Classification | None = None
) -> Classification:
    """Classify a completed run; Undecided is a valid outcome (extend t_end).

    ``analytic`` is ``classify_analytic(params)``, computed here when left
    out; its critical length, or SPREAD_CAP * h0 outside the
    threshold-dependent regime, is the width past which the run spreads.
    """
    if analytic is None:
        analytic = classify_analytic(params)

    mass_end = float(series.sup_u[-1] + series.sup_v[-1])
    width = series.width
    t0, t1 = float(series.t[0]), float(series.t[-1])
    window_start = t1 - TRAILING_FRACTION * (t1 - t0)
    idx = int(np.searchsorted(series.t, window_start))
    trailing_growth = float(width[-1] - width[idx])

    # the width past which a run counts as spreading
    trigger = analytic.critical_length
    if trigger is None:
        trigger = SPREAD_CAP * params.h0
    evidence = {
        "t_end": t1,
        "final_mass": mass_end,
        "final_width": float(width[-1]),
        "trailing_growth": trailing_growth,
        "spread_trigger_width": trigger,
    }

    vanishing = mass_end < EPS_VANISH and trailing_growth < STALL_FRACTION * params.h0
    if vanishing:
        verdict = Verdict.VANISHING
    elif _spreads(series, trigger):
        verdict = Verdict.SPREADING
    else:
        verdict = Verdict.UNDECIDED
    return replace(analytic, verdict=verdict, evidence=evidence)


def _spreads(series: TimeSeries, trigger: float) -> bool:
    """The spreading condition at the last record: width past ``trigger`` and
    mass above ``EPS_SPREAD``.  Front speeds are floored at zero, so the width
    never shrinks; past the critical length spreading is certain."""
    width_end = float(series.h[-1] - series.g[-1])
    return width_end > trigger and float(series.sup_u[-1] + series.sup_v[-1]) > EPS_SPREAD


@dataclass(frozen=True)
class _UpperSolutions:
    """The certificate's grid of final half-widths ``sigma_inf`` (shape (J,)),
    the decay rates ``delta = lambda(2 sigma_inf) > 0`` and the temporal
    profiles ``phi``, ``psi`` (shape (J, samples), the last column at t = tau).
    None of them depends on mu1, mu2 or the initial data."""

    sigma_inf: np.ndarray
    delta: np.ndarray
    phi: np.ndarray
    psi: np.ndarray


def _upper_solutions(params: ModelParams, critical: float) -> _UpperSolutions:
    sigma_inf = 0.5 * critical * np.arange(1, CERTIFICATE_GRID + 1) / (CERTIFICATE_GRID + 1)
    reports = [principal_eigenvalue_monodromy(params, 2.0 * s) for s in sigma_inf]
    delta = np.array([r.lam for r in reports])
    keep = delta > 0  # holds below L*; with delta <= 0 no upper solution decays
    profiles = np.array([r.phi_psi_profile for r in reports])[keep]
    return _UpperSolutions(sigma_inf[keep], delta[keep], profiles[:, :, 1], profiles[:, :, 2])


def _vanishing_certificate(traj: Trajectory, params: ModelParams, upper: _UpperSolutions) -> dict | None:
    """Prove that a run vanishes from its state at a period end, or return None.

    The state is the pre-reset record of a period end.  With c the centre of
    (g, h), w = h - g and sigma0 = (1 + margin) w/2, the upper solution
    M e^{-delta t} (Phi, Psi)(t) cos(pi (x - c) / (2 sigma(t))) with
    sigma(t) = sigma0 + (sigma_inf - sigma0)(1 - e^{-delta t}) keeps its front
    inside (c - sigma_inf, c + sigma_inf) for M = 2 sigma0 delta
    (sigma_inf - sigma0) / (pi max_t(mu1 Phi + mu2 Psi)).  It dominates the
    run once u and v are at most 1/safety of it on every node at t = tau of
    the profile.  Of the grid values wider than sigma0, the one with the
    smallest ratio decides.
    """
    w = traj.h - traj.g
    sigma0 = (1.0 + CERTIFICATE_MARGIN) * 0.5 * w
    fits = upper.sigma_inf > sigma0
    if not fits.any():
        return None
    # cos(pi (x - c) / (2 sigma0)) on the interior nodes, where x - c = (xi - 1/2) w
    n = traj.w.shape[1] - 1
    weight = np.cos(np.pi * (np.arange(1, n) / n - 0.5) / (1.0 + CERTIFICATE_MARGIN))
    peak_u = float(np.max(traj.w[0, 1:-1] / weight))
    peak_v = float(np.max(traj.w[1, 1:-1] / weight))
    sigma_inf, delta = upper.sigma_inf[fits], upper.delta[fits]
    phi, psi = upper.phi[fits], upper.psi[fits]
    front = np.max(params.mu1 * phi + params.mu2 * psi, axis=1)
    amplitude = 2.0 * sigma0 * delta * (sigma_inf - sigma0) / (np.pi * front)
    ratio_u = peak_u / (amplitude * phi[:, -1])
    ratio_v = peak_v / (amplitude * psi[:, -1])
    j = int(np.argmin(np.maximum(ratio_u, ratio_v)))
    if CERTIFICATE_SAFETY * max(ratio_u[j], ratio_v[j]) > 1.0:
        return None
    return {
        "t": traj.step * traj.dt,
        "sigma0": sigma0,
        "sigma_inf": float(sigma_inf[j]),
        "delta": float(delta[j]),
        "M": float(amplitude[j]),
        "ratio_u": float(ratio_u[j]),
        "ratio_v": float(ratio_v[j]),
    }


def _probe(
    params: ModelParams,
    init: InitialData,
    cfg: SolverConfig,
    t_end: float,
    label: str,
    analytic: Classification,
    upper: _UpperSolutions,
) -> Verdict:
    """Simulate and classify; one doubling of the horizon on Undecided.

    The run advances one period at a time.  It stops at the first step at
    which the spreading condition holds, which no later step can undo, or as
    soon as a period end carries a vanishing certificate built from
    ``upper``.  The trajectory is built for ``2 * t_end`` and classified at
    ``t_end`` first; an Undecided run there continues the same trajectory to
    its end, with records bit-identical to a fresh run of that length.
    """
    start = time.perf_counter()
    try:
        traj = Trajectory(params, init, cfg, 2.0 * t_end)
    except PreconditionError as exc:
        raise PreconditionError(f"a probe may run to twice t_end={t_end:g}: {exc}") from None
    m = cfg.steps_per_period

    def run_to(horizon: int) -> tuple[str, dict | None, Classification | None]:
        """Step to ``horizon`` or to an earlier stop; the reason for the stop,
        the certificate and, unless certified, the classified records."""
        reason = "horizon"
        while traj.step < horizon:
            traj.advance(min(horizon, (traj.step // m + 1) * m), analytic.critical_length)
            if _spreads(traj.series(), analytic.critical_length):
                reason = "spreading"
                break
            if traj.step % m == 0:
                certificate = _vanishing_certificate(traj, params, upper)
                if certificate is not None:
                    return "certificate", certificate, None
        outcome = detect_outcome(traj.series(), params, analytic=analytic)
        return reason, None, outcome

    horizon = traj.steps_to(t_end)
    stop_reason, certificate, outcome = run_to(horizon)
    resumed = outcome is not None and outcome.verdict is Verdict.UNDECIDED
    if resumed:
        horizon = traj.n_steps
        stop_reason, certificate, outcome = run_to(horizon)
    verdict = Verdict.VANISHING if outcome is None else outcome.verdict
    record = {
        "probe": label,
        "verdict": str(verdict),
        "stop_reason": stop_reason,
        "stop_step": traj.step,
        "horizon_step": horizon,
        "stopped_early": traj.step < horizon,
        "resumed": resumed,
        "wall_s": time.perf_counter() - start,
        "evidence": None if outcome is None else outcome.evidence,
        "certificate": certificate,
    }
    logger.debug(
        "probe %(probe)s: %(verdict)s at step %(stop_step)d of %(horizon_step)d "
        "(stop: %(stop_reason)s, resumed: %(resumed)s) in %(wall_s).3f s",
        record,
        extra={"probe": record},
    )
    if verdict is Verdict.UNDECIDED:
        raise NumericalError(
            f"outcome at {label} still undecided at t={2.0 * t_end:.6g}, twice t_end={t_end:g}; "
            "refine the detection horizon"
        )
    return verdict


def _bisect_threshold(
    evaluate, lo: float, hi: float, tol: float, what: str
) -> ThresholdResult:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise PreconditionError(f"{what} bracket ends must be finite, got lo={lo}, hi={hi}")
    if not (lo < hi):
        raise PreconditionError(f"degenerate {what} bracket: lo={lo}, hi={hi}")
    if not (math.isfinite(tol) and tol > 0):
        raise PreconditionError(f"tol must be finite and positive, got {tol}")
    # adjacent floats of the bracket lie at most one spacing of its larger end
    # apart; a tol below that is never reached, since their midpoint is one of them
    spacing = math.ulp(max(abs(lo), abs(hi)))
    if tol < spacing:
        raise PreconditionError(
            f"tol {tol:g} is below the float spacing {spacing:g} of the {what} bracket "
            f"({lo:g}, {hi:g}); bisection cannot reach it"
        )
    history: list[tuple[float, Verdict]] = []
    brackets: list[tuple[float, float]] = []

    def probe(value: float) -> Verdict:
        verdict = evaluate(value)
        history.append((value, verdict))
        brackets.append((lo, hi))
        return verdict

    v_lo = probe(lo)
    if v_lo is not Verdict.VANISHING:
        raise PreconditionError(f"{what} bracket low end must vanish, got {v_lo} at {lo}")
    v_hi = probe(hi)
    if v_hi is not Verdict.SPREADING:
        raise PreconditionError(f"{what} bracket high end must spread, got {v_hi} at {hi}")
    while hi - lo > tol:
        mid = 0.5 * lo + 0.5 * hi
        if probe(mid) is Verdict.SPREADING:
            hi = mid
        else:
            lo = mid
    return ThresholdResult(
        value=0.5 * lo + 0.5 * hi,
        bracket=(lo, hi),
        history=tuple(history),
        brackets=tuple(brackets),
    )


def _search_regime(
    params: ModelParams, t_end: float | None, what: str
) -> tuple[float, Classification, _UpperSolutions]:
    """Check the regime a threshold search needs; return its probe horizon,
    the classification every probe shares and the vanishing certificate's
    table, none of which the searched mu2 or kappa changes.  The certificate
    needs f(s) <= f'(0)s and G(s) <= G'(0)s, which every growth and impulse
    family meets by construction."""
    analytic = classify_analytic(params)
    critical = analytic.critical_length
    if critical is None:
        raise PreconditionError(
            f"{what} threshold search needs the threshold-dependent regime, got {analytic.verdict}"
        )
    horizon = 40.0 * params.tau if t_end is None else t_end
    return horizon, analytic, _upper_solutions(params, critical)


def find_mu_threshold(
    params: ModelParams,
    init: InitialData,
    cfg: SolverConfig,
    mu2_bracket: tuple[float, float],
    tol: float,
    t_end: float | None = None,
) -> ThresholdResult:
    """Sharp expansion-capacity threshold in mu2, everything else fixed.

    Valid only in the threshold-dependent regime; the bracket ends must
    straddle the outcome (Vanishing low, Spreading high).
    """
    horizon, analytic, upper = _search_regime(params, t_end, "mu2")

    def evaluate(mu2: float) -> Verdict:
        p = params.with_(mu2=mu2)
        return _probe(p, init, cfg, horizon, f"mu2={mu2:.6g}", analytic, upper)

    return _bisect_threshold(evaluate, mu2_bracket[0], mu2_bracket[1], tol, "mu2")


def find_kappa_threshold(
    params: ModelParams,
    upsilon: InitialData,
    cfg: SolverConfig,
    kappa_bracket: tuple[float, float],
    tol: float,
    t_end: float | None = None,
) -> ThresholdResult:
    """Sharp initial-size threshold: u0 = kappa * upsilon.u0, v0 fixed.

    The sharpness result requires a linear disinfection response; other
    impulse families are rejected.
    """
    if not isinstance(params.impulse, (IdentityImpulse, LinearImpulse)):
        raise PreconditionError(
            "kappa threshold search requires a linear (or identity) impulse; "
            f"got {params.impulse.kind}"
        )
    horizon, analytic, upper = _search_regime(params, t_end, "kappa")

    def evaluate(kappa: float) -> Verdict:
        scaled = upsilon.scaled(kappa, 1.0)
        label = f"kappa={kappa:.6g}"
        return _probe(params, scaled, cfg, horizon, label, analytic, upper)

    return _bisect_threshold(evaluate, kappa_bracket[0], kappa_bracket[1], tol, "kappa")
