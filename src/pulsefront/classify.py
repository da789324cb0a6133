"""Spreading-vanishing decision logic and sharp threshold searches.

The whole-line eigenvalue decides vanishing outright when non-negative.
When it is negative the initial-interval eigenvalue splits the remainder:
non-positive certifies spreading, positive leaves the outcome to the
expansion capacities and initial data, which is where simulation-backed
detection and the bisection searches for the sharp mu2 and initial-size
thresholds come in.
"""

from __future__ import annotations

import enum
import logging
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
    "DetectionCriteria",
    "ThresholdResult",
    "classify_analytic",
    "critical_length",
    "detect_outcome",
    "find_mu_threshold",
    "find_kappa_threshold",
]

logger = logging.getLogger(__name__)


class Verdict(str, enum.Enum):
    VANISHING = "Vanishing"
    SPREADING = "Spreading"
    THRESHOLD_DEPENDENT = "ThresholdDependent"
    UNDECIDED = "Undecided"

    def __str__(self) -> str:  # plain value in CSV/JSON output
        return self.value


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    lambda_infinity: float
    lambda_h0: float
    evidence: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "verdict": str(self.verdict),
            "lambda_infinity": self.lambda_infinity,
            "lambda_h0": self.lambda_h0,
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class DetectionCriteria:
    """Constants for simulation-based outcome detection.

    Vanishing needs final mass below ``eps_vanish`` and front-width growth
    below ``stall_fraction * h0`` over the trailing ``trailing_fraction`` of
    the run.  Spreading needs the width to exceed the critical length (or
    ``spread_width_cap`` when no critical length exists) with final mass
    above ``eps_spread``.  The order-of-magnitude gap between the two mass
    thresholds prevents verdict flapping.
    """

    eps_vanish: float = 1e-3
    eps_spread: float = 1e-2
    stall_fraction: float = 0.01
    trailing_fraction: float = 0.2
    spread_width_cap: float | None = None  # defaults to 25 * h0


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
    """Verdict from the two eigenvalues alone; no simulation."""
    lam_inf = lambda_infinity(params).lam
    lam_h0 = lambda_at_h0(params).lam
    if lam_inf >= 0:
        verdict = Verdict.VANISHING
    elif lam_h0 <= 0:
        verdict = Verdict.SPREADING
    else:
        verdict = Verdict.THRESHOLD_DEPENDENT
    return Classification(verdict=verdict, lambda_infinity=lam_inf, lambda_h0=lam_h0)


def critical_length(params: ModelParams, tol: float = 1e-8) -> float:
    """Interval width at which the frozen-interval eigenvalue crosses zero.

    Exists exactly in the threshold-dependent regime; the eigenvalue is
    strictly decreasing in width, so plain bisection brackets the root.
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
    while principal_eigenvalue_monodromy(params, hi).lam >= 0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:
            raise NumericalError("no sign change found while expanding the width bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if principal_eigenvalue_monodromy(params, mid).lam > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def detect_outcome(
    series: TimeSeries,
    params: ModelParams,
    criteria: DetectionCriteria | None = None,
    *,
    analytic: Classification | None = None,
    critical: float | None = None,
) -> Classification:
    """Classify a completed run; Undecided is a valid outcome (extend t_end).

    ``analytic`` and ``critical`` are ``classify_analytic(params)`` and, in the
    threshold-dependent regime, ``critical_length(params)``; neither depends on
    mu1, mu2 or the initial data, so a threshold search computes them once and
    passes them in.  Left out, they are computed here.
    """
    crit = criteria or DetectionCriteria()
    if analytic is None:
        analytic = classify_analytic(params)

    mass_end = float(series.sup_u[-1] + series.sup_v[-1])
    width = series.width
    t0, t1 = float(series.t[0]), float(series.t[-1])
    window_start = t1 - crit.trailing_fraction * (t1 - t0)
    idx = int(np.searchsorted(series.t, window_start))
    trailing_growth = float(width[-1] - width[idx])

    trigger = _spread_trigger(params, crit, analytic, critical)
    evidence = {
        "t_end": t1,
        "final_mass": mass_end,
        "final_width": float(width[-1]),
        "trailing_growth": trailing_growth,
        "spread_trigger_width": trigger,
    }

    vanishing = mass_end < crit.eps_vanish and trailing_growth < crit.stall_fraction * params.h0
    if vanishing:
        verdict = Verdict.VANISHING
    elif _spreads(series, trigger, crit):
        verdict = Verdict.SPREADING
    else:
        verdict = Verdict.UNDECIDED
    return replace(analytic, verdict=verdict, evidence=evidence)


def _spread_trigger(
    params: ModelParams,
    crit: DetectionCriteria,
    analytic: Classification,
    critical: float | None,
) -> float:
    """Width past which a run counts as spreading: the critical length in the
    threshold-dependent regime, else the configured or default width cap."""
    if analytic.verdict is Verdict.THRESHOLD_DEPENDENT:
        return critical_length(params) if critical is None else critical
    if crit.spread_width_cap is not None:
        return crit.spread_width_cap
    return 25.0 * params.h0


def _spreads(series: TimeSeries, trigger: float, crit: DetectionCriteria) -> bool:
    """The spreading condition at the last record: width past ``trigger`` and
    mass above ``eps_spread``.  Front speeds are floored at zero, so the width
    never shrinks; past the critical length spreading is certain."""
    width_end = float(series.h[-1] - series.g[-1])
    return width_end > trigger and float(series.sup_u[-1] + series.sup_v[-1]) > crit.eps_spread


def _probe(
    params: ModelParams,
    init: InitialData,
    cfg: SolverConfig,
    t_end: float,
    criteria: DetectionCriteria | None,
    label: str,
    regime: dict,
) -> Verdict:
    """Simulate and classify; one doubling of the horizon on Undecided.

    The run advances one period at a time and stops as soon as the spreading
    condition holds, which no later step can undo.  An Undecided run at
    ``t_end`` continues the same trajectory to ``2 * t_end``: its records are
    bit-identical to a fresh run of that length.
    """
    start = time.perf_counter()
    crit = criteria or DetectionCriteria()
    trigger = _spread_trigger(params, crit, **regime)
    traj = Trajectory(params, init, cfg, t_end)
    m = cfg.steps_per_period

    def advance(horizon: int) -> None:
        while traj.step < horizon:
            traj.advance(min(horizon, (traj.step // m + 1) * m))
            if _spreads(traj.series(), trigger, crit):
                return

    horizon = traj.n_steps
    advance(horizon)
    outcome = detect_outcome(traj.series(), params, criteria, **regime)
    resumed = outcome.verdict is Verdict.UNDECIDED
    if resumed:
        horizon = traj.steps_to(2.0 * t_end)
        advance(horizon)
        outcome = detect_outcome(traj.series(), params, criteria, **regime)
    verdict = outcome.verdict
    record = {
        "probe": label,
        "verdict": str(verdict),
        "stop_step": traj.step,
        "horizon_step": horizon,
        "stopped_early": traj.step < horizon,
        "resumed": resumed,
        "wall_s": time.perf_counter() - start,
        "evidence": outcome.evidence,
    }
    logger.debug(
        "probe %(probe)s: %(verdict)s at step %(stop_step)d of %(horizon_step)d "
        "(stopped early: %(stopped_early)s, resumed: %(resumed)s) in %(wall_s).3f s",
        record,
        extra={"probe": record},
    )
    if verdict is Verdict.UNDECIDED:
        raise NumericalError(
            f"outcome at {label} still undecided at t_end={2.0 * t_end:.6g}; "
            "refine the detection horizon"
        )
    return verdict


def _bisect_threshold(
    evaluate, lo: float, hi: float, tol: float, what: str
) -> ThresholdResult:
    if not (lo < hi):
        raise PreconditionError(f"degenerate {what} bracket: lo={lo}, hi={hi}")
    if not tol > 0:
        raise PreconditionError("tol must be positive")
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
        mid = 0.5 * (lo + hi)
        if probe(mid) is Verdict.SPREADING:
            hi = mid
        else:
            lo = mid
    return ThresholdResult(
        value=0.5 * (lo + hi),
        bracket=(lo, hi),
        history=tuple(history),
        brackets=tuple(brackets),
    )


def _search_regime(params: ModelParams, t_end: float | None, what: str) -> tuple[float, dict]:
    """Check the regime a threshold search needs; return its probe horizon and
    the ``detect_outcome`` keywords every probe shares (the classification and
    the critical length, which the searched mu2 or kappa does not change)."""
    base = classify_analytic(params)
    if base.verdict is not Verdict.THRESHOLD_DEPENDENT:
        raise PreconditionError(
            f"{what} threshold search needs the threshold-dependent regime, got {base.verdict}"
        )
    horizon = 40.0 * params.tau if t_end is None else t_end
    return horizon, {"analytic": base, "critical": critical_length(params)}


def find_mu_threshold(
    params: ModelParams,
    init: InitialData,
    cfg: SolverConfig,
    mu2_bracket: tuple[float, float],
    tol: float,
    t_end: float | None = None,
    criteria: DetectionCriteria | None = None,
) -> ThresholdResult:
    """Sharp expansion-capacity threshold in mu2, everything else fixed.

    Valid only in the threshold-dependent regime; the bracket ends must
    straddle the outcome (Vanishing low, Spreading high).
    """
    horizon, regime = _search_regime(params, t_end, "mu2")

    def evaluate(mu2: float) -> Verdict:
        p = params.with_(mu2=mu2)
        return _probe(p, init, cfg, horizon, criteria, f"mu2={mu2:.6g}", regime)

    return _bisect_threshold(evaluate, mu2_bracket[0], mu2_bracket[1], tol, "mu2")


def find_kappa_threshold(
    params: ModelParams,
    upsilon: InitialData,
    cfg: SolverConfig,
    kappa_bracket: tuple[float, float],
    tol: float,
    t_end: float | None = None,
    criteria: DetectionCriteria | None = None,
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
    horizon, regime = _search_regime(params, t_end, "kappa")

    def evaluate(kappa: float) -> Verdict:
        scaled = upsilon.scaled(kappa, 1.0)
        return _probe(params, scaled, cfg, horizon, criteria, f"kappa={kappa:.6g}", regime)

    return _bisect_threshold(evaluate, kappa_bracket[0], kappa_bracket[1], tol, "kappa")
