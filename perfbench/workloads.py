"""The benchmark's three workloads: inputs from a seed, operations, output checks.

Every workload runs rounds of one fixed amount of work.  All rounds of one
run use the same inputs, so their outputs must be bit-identical, traced or
not.  ``operations`` lists the round's operations, each timed (and traced)
on its own; ``check`` verifies their results afterwards and is neither.

An operation is one CLI command or one periodic orbit.
An operation that raises, exits non-zero or fails its output check counts as
failed; it never aborts the run.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

import pulsefront.cli
import pulsefront.config
import pulsefront.eigen
import pulsefront.model as model
import pulsefront.periodic
from pulsefront.config import InitSpec, RunConfig, config_to_json_dict
from pulsefront.presets import FIGURES, base_params_cd, preset
from pulsefront.solver import SolverConfig

REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text())


def report(what: str) -> None:
    print(f"perfbench: {what}", file=sys.stderr)


class Outcome:
    """Operations attempted and failed in one round, plus an output fingerprint."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            report(f"check failed: {what}")

    @property
    def fingerprint(self) -> str:
        return self.digest.hexdigest()


def _call_cli(argv: list[str]) -> tuple[int | None, str]:
    """Run one CLI command in this process; (exit code or None on exception, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = pulsefront.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # a traceback is a failed operation, not the end of the run
        report("exception in " + " ".join(argv) + "\n" + traceback.format_exc())
        code = None
    return code, out.getvalue()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# figure


class Figure:
    """One reference-figure configuration at preset resolution, through the CLI.

    The seed picks the preset.  The run is shortened to ``t_end`` (2 periods)
    so a run of the benchmark repeats it many times; resolution, Heun fronts,
    snapshots and the CSV outputs are those of the preset.
    """

    name = "figure"
    # relative tolerance on the final g, h, sup_u, sup_v.  Solving the same
    # tridiagonal systems with LAPACK's symmetric banded routine instead of the
    # general one moves them by at most 1e-13; Euler fronts instead of Heun
    # move them by 3e-5 or more.
    REL_TOL = 1e-9

    def __init__(self, seed: int, out_dir: Path, toy: bool):
        self.figure = FIGURES[seed % len(FIGURES)]
        self.size = "toy" if toy else "full"
        self.config_path = out_dir / "config.json"
        self.result_dir = out_dir / "out"
        self.reference = REFERENCES["figure"][self.size][self.figure]
        self.t_end = 5.0 if toy else 10.0
        self.n = 32 if toy else None

    def describe(self) -> dict:
        return {"figure": self.figure, "t_end": self.t_end, "size": self.size}

    def write_inputs(self) -> None:
        doc = config_to_json_dict(preset(self.figure).config)
        doc["run"]["t_end"] = self.t_end
        doc["run"]["snapshot_times"] = [t for t in doc["run"]["snapshot_times"] if t <= self.t_end]
        doc["run"]["out_dir"] = str(self.result_dir)
        if self.n is not None:
            doc["solver"].update(n=self.n, steps_per_period=500)
        self.config_path.parent.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(doc, indent=2) + "\n")

    def setup(self) -> None:
        pulsefront.config.parse_config(self.config_path).initial_data()

    def operations(self):
        return [lambda: _call_cli(["simulate", "--config", str(self.config_path),
                                   "--out", str(self.result_dir)])]

    def check(self, results) -> Outcome:
        code, stdout = results[0]
        outcome = Outcome()
        if code != 0:
            outcome.op(False, f"simulate exited with {code}")
            return outcome
        final = json.loads(stdout)["final"]
        problems = [
            f"{key}={final[key]!r} (reference {ref!r})"
            for key, ref in self.reference.items()
            if not _close(final[key], ref, self.REL_TOL)
        ]
        ts = (self.result_dir / "timeseries.csv").read_bytes()
        snaps = (self.result_dir / "snapshots.csv").read_bytes()
        last = [float(x) for x in ts.decode().rstrip("\n").rsplit("\n", 1)[1].split(",")]
        if last != [final[k] for k in ("t", "g", "h", "sup_u", "sup_v")]:
            problems.append("timeseries.csv last row differs from the reported final state")
        outcome.op(not problems, "; ".join(problems))
        outcome.digest.update(stdout.encode() + ts + snaps)
        return outcome


# ---------------------------------------------------------------------------
# threshold


class Threshold:
    """``threshold --param mu2`` on the fig-c/d coefficient set, coarse grid.

    Shaped like the acceptance test of the threshold search: a bracket about
    9 wide around (1, 10), tol 0.3 and the default horizon of 40 periods.
    The seed jitters both bracket ends by a few hundredths, which moves every
    probe but keeps the search's path: 7 probes, of which both ends and the
    four midpoints above the threshold are decided at the first horizon, and
    the last midpoint, below the threshold, is undecided there and needs one
    horizon doubling.
    """

    name = "threshold"

    def __init__(self, seed: int, out_dir: Path, toy: bool):
        rng = np.random.default_rng([seed, 2])
        size = "toy" if toy else "full"
        self.reference = REFERENCES["threshold"][size]
        self.lo = float(1.0 + 0.02 * rng.uniform(-1.0, 1.0))
        self.hi = float(10.0 + 0.05 * rng.uniform(-1.0, 1.0))
        # the toy grid's threshold sits closer to the low midpoint, so the toy
        # search stops one bisection earlier, with no horizon doubling
        self.tol = 0.6 if toy else 0.3
        self.n, self.steps_per_period = (32, 25) if toy else (128, 100)
        self.config_path = out_dir / "config.json"

    def describe(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "tol": self.tol, "n": self.n,
                "steps_per_period": self.steps_per_period}

    def write_inputs(self) -> None:
        params = base_params_cd(self.lo)
        config = RunConfig(
            model=params,
            init=InitSpec(kind="cos-quarter", amp_u=0.3, amp_v=0.1),
            solver=SolverConfig(n=self.n, steps_per_period=self.steps_per_period),
            t_end=40.0 * params.tau,  # find_mu_threshold's default horizon
        )
        self.config_path.parent.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(config_to_json_dict(config), indent=2) + "\n")

    def setup(self) -> None:
        pulsefront.config.parse_config(self.config_path).initial_data()

    def operations(self):
        return [lambda: _call_cli([
            "threshold", "--config", str(self.config_path), "--param", "mu2",
            "--lo", repr(self.lo), "--hi", repr(self.hi), "--tol", repr(self.tol),
        ])]

    def check(self, results) -> Outcome:
        code, stdout = results[0]
        outcome = Outcome()
        outcome.digest.update(stdout.encode())
        if code != 0:
            outcome.op(False, f"threshold exited with {code}")
            return outcome
        rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
        lo, hi, value = (float(x) for x in rows[-1][1:4])
        mu0_lo, mu0_hi = self.reference["mu0_lo"], self.reference["mu0_hi"]
        outcome.op(
            rows[0][4] == "Vanishing" and rows[1][4] == "Spreading"
            and lo < mu0_lo < mu0_hi < hi and hi - lo <= self.tol and lo < value < hi,
            f"bracket [{lo}, {hi}] must straddle the outcome and contain mu0 in [{mu0_lo}, {mu0_hi}]",
        )
        return outcome


# ---------------------------------------------------------------------------
# periodic


# Coefficient sets for the frozen-interval cases; the seed jitters every
# coefficient by up to 10%.  The interval length of each case is then chosen
# so that lambda*tau = -1 (positive orbit) or +1 (zero orbit): far from 0, and
# the same for every seed, which keeps the Picard iteration counts (and so
# the work) nearly seed-independent.
PERIODIC_SETS = (
    ("positive-a", -1.0, dict(d1=0.1, d2=0.4, a11=0.3, a12=0.5, a22=0.1, tau=5.0),
     ("beverton-holt", 2.0, 2.0), ("identity",)),
    ("positive-b", -1.0, dict(d1=0.2, d2=0.1, a11=0.2, a12=1.0, a22=0.3, tau=3.0),
     ("beverton-holt", 3.0, 1.0), ("linear", 0.8)),
    ("zero-a", 1.0, dict(d1=0.1, d2=0.4, a11=0.3, a12=0.5, a22=0.1, tau=5.0),
     ("beverton-holt", 1.0, 10.0), ("saturating", 0.5, 10.0)),
    ("zero-b", 1.0, dict(d1=0.3, d2=0.2, a11=0.5, a12=0.4, a22=0.2, tau=2.0),
     ("linear", 0.1), ("linear", 0.5)),
)
# the homogeneous ODE orbit runs on these sets; zero-a is left out because its
# whole-line eigenvalue is close to 0 and the map would take ~300 periods
ODE_SETS = ("positive-a", "positive-b", "zero-b")


def _jittered(rng, coeffs: dict, growth: tuple, impulse: tuple) -> model.ModelParams:
    def j(x):
        return float(x * rng.uniform(0.9, 1.1))

    if growth[0] == "beverton-holt":
        g = model.BevertonHoltGrowth(m=j(growth[1]), a=j(growth[2]))
    else:
        g = model.LinearGrowth(p=j(growth[1]))
    if impulse[0] == "identity":
        imp = model.IdentityImpulse()
    elif impulse[0] == "linear":
        imp = model.LinearImpulse(rho=min(0.99, j(impulse[1])))
    else:
        imp = model.SaturatingImpulse(c=j(impulse[1]), b=j(impulse[2]))
    return model.ModelParams(
        **{k: j(v) for k, v in coeffs.items()}, mu1=1.0, mu2=1.0, h0=1.0, growth=g, impulse=imp
    )


def _length_for(params: model.ModelParams, lam_tau: float) -> float:
    """Interval length whose principal eigenvalue is lam_tau / tau (lambda falls with length)."""
    target = lam_tau / params.tau
    lo, hi = 0.5, 1000.0
    lam = pulsefront.eigen.principal_eigenvalue_monodromy
    if not lam(params, lo).lam > target > lam(params, hi).lam:
        raise ValueError(f"no interval length gives lambda*tau={lam_tau}")
    while hi / lo > 1.0 + 1e-12:
        mid = math.sqrt(lo * hi)
        if lam(params, mid).lam > target:
            lo = mid
        else:
            hi = mid
    return hi


class Periodic:
    """Seeded frozen-interval cases through ``fixed_domain_periodic`` plus ODE orbits."""

    name = "periodic"
    ODE_TOL = 1e-9

    def __init__(self, seed: int, out_dir: Path, toy: bool):
        self.seed = seed
        self.toy = toy
        self.n, self.steps_per_period = (16, 50) if toy else (64, 200)
        self.orbits = None

    def describe(self) -> dict:
        self.setup()
        return {
            "n": self.n, "steps_per_period": self.steps_per_period,
            "orbits": [{"case": label, "length": length, "lambda": lam}
                       for label, lam, _, length in self.orbits],
        }

    def write_inputs(self) -> None:
        pass

    def setup(self) -> None:
        """Build the orbit list: (label, lambda, params, interval length or None for the ODE)."""
        if self.orbits is not None:
            return
        rng = np.random.default_rng([self.seed, 3])
        sets = PERIODIC_SETS[1:3] if self.toy else PERIODIC_SETS
        ode_sets = ODE_SETS[1:2] if self.toy else ODE_SETS
        cases, odes = [], []
        for name, lam_tau, coeffs, growth, impulse in sets:
            params = _jittered(rng, coeffs, growth, impulse)
            length = _length_for(params, lam_tau)
            lam = pulsefront.eigen.principal_eigenvalue_monodromy(params, length).lam
            cases.append((name, lam, params, length))
            if name in ode_sets:
                lam_inf = pulsefront.eigen.principal_eigenvalue_monodromy(params, math.inf).lam
                odes.append((name + "/ode", lam_inf, params, None))
        self.orbits = cases + odes

    def operations(self):
        self.setup()
        ops = []
        for _, _, params, length in self.orbits:
            if length is None:
                ops.append(functools.partial(_guarded, "ode_periodic_orbit", params, tol=self.ODE_TOL))
            else:
                ops.append(functools.partial(_guarded, "fixed_domain_periodic", params, length, self.n,
                                             steps_per_period=self.steps_per_period))
        return ops

    def check(self, results) -> Outcome:
        outcome = Outcome()
        for (label, lam, params, length), orbit in zip(self.orbits, results):
            if orbit is None:
                outcome.op(False, f"{label}: orbit raised")
                continue
            ok = orbit.is_positive == (lam < 0)
            what = f"{label}: is_positive={orbit.is_positive}, lambda={lam!r}"
            if length is None:
                w = orbit.start_pre_reset
                image = pulsefront.periodic.ode_period_map(params, (w[0], w[1]))
                defect = max(abs(image[0] - w[0]), abs(image[1] - w[1]))
                ok = ok and defect <= self.ODE_TOL
                what += f", fixed-point defect {defect:.3e} (tol {self.ODE_TOL})"
            outcome.op(ok, what)
            for arr in (orbit.t, orbit.U, orbit.V, orbit.start_pre_reset):
                outcome.digest.update(np.ascontiguousarray(arr).tobytes())
            outcome.digest.update(repr((orbit.residual, orbit.periods, orbit.is_positive)).encode())
        return outcome


def checked(workload, results) -> Outcome:
    """workload.check(results); output it cannot even parse is one failed operation."""
    try:
        return workload.check(results)
    except Exception:
        report(f"output check of {workload.name} raised\n" + traceback.format_exc())
        outcome = Outcome()
        outcome.op(False, "unreadable output")
        return outcome


def _guarded(name: str, *args, **kwargs):
    """pulsefront.periodic.<name>(*args, **kwargs), looked up at call time; None if it raises."""
    try:
        return getattr(pulsefront.periodic, name)(*args, **kwargs)
    except Exception:  # a failed orbit is counted by check(), the run goes on
        report(f"exception in {name}\n" + traceback.format_exc())
        return None


WORKLOADS = {w.name: w for w in (Figure, Threshold, Periodic)}

