"""Command-line front end.

Subcommands: simulate, eigen, classify, threshold, sweep, reproduce,
validate.  Exit codes: 0 success, 2 configuration or validation error,
3 numerical failure, 4 violated precondition.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

from . import classify as cls
from . import eigen
from .config import RunConfig, parse_config
from .errors import ConfigurationError, NumericalError, PreconditionError
from .model import COEFFICIENTS, LinearImpulse, validate_assumptions
from .output import (
    atomic_write,
    fmt,
    snapshots_csv,
    svg_front_plot,
    svg_heatmap,
    timeseries_csv,
    write_json,
)
from .presets import FIGURES, preset
from .solver import run

SWEEP_AXES = COEFFICIENTS + ("rho",)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pulsefront",
        description="Free-boundary epidemic model with periodic disinfection impulses.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # every subcommand but reproduce reads a configuration, which main parses once
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)

    sim = sub.add_parser("simulate", parents=[config], help="run the model and write CSV traces")
    sim.add_argument("--t-end", type=float, default=None)
    sim.add_argument("--out", default=None)

    eig = sub.add_parser("eigen", parents=[config],
                         help="print the principal eigenvalue report as JSON")
    eig.add_argument("--interval", required=True, help="interval length, or 'inf'")

    cla = sub.add_parser("classify", parents=[config],
                         help="spreading-vanishing classification as JSON")
    cla.add_argument("--simulate", action="store_true", help="resolve by simulation if needed")

    thr = sub.add_parser("threshold", parents=[config],
                         help="bisect the sharp mu2 or kappa threshold")
    thr.add_argument("--param", required=True, choices=("mu2", "kappa"))
    thr.add_argument("--lo", type=float, required=True)
    thr.add_argument("--hi", type=float, required=True)
    thr.add_argument("--tol", type=float, default=0.25)

    swp = sub.add_parser("sweep", parents=[config],
                         help="tabulate eigenvalues and outcomes along one axis")
    swp.add_argument("--axis", required=True)
    swp.add_argument("--values", required=True, help="comma-separated numbers")

    rep = sub.add_parser("reproduce", help="run a reference scenario and write its report")
    rep.add_argument("figure", choices=FIGURES)
    rep.add_argument("--out", default=None)

    sub.add_parser("validate", parents=[config],
                   help="check the model assumptions of a configuration")
    return p


def _parse_interval(text: str) -> float:
    if text.strip().lower() in ("inf", "infinite", "infinity"):
        return math.inf
    try:
        length = float(text)
    except ValueError:
        raise ConfigurationError(f"--interval must be a number or 'inf', got {text!r}") from None
    return length


def _parse_values(text: str) -> list[float]:
    values = []
    for item in filter(str.strip, text.split(",")):
        try:
            value = float(item)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigurationError(f"--values must be finite numbers, got {item!r}")
        values.append(value)
    return values


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def _writing_to(out_dir: Path):
    """Report an OSError of the file operations in the block as an unusable output directory."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"cannot write outputs to {out_dir}: {exc.strerror or exc}") from None


def _output_dir(path: str | Path) -> Path:
    """``path``, created before any work so that an unusable ``--out`` exits 2 at once."""
    out_dir = Path(path)
    with _writing_to(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _simulate_outputs(config: RunConfig, out_dir: Path, t_end: float) -> dict:
    series = run(config.model, config.initial_data(), config.solver, t_end, config.snapshot_times)
    written = ["timeseries.csv"]
    with _writing_to(out_dir):
        atomic_write(out_dir / "timeseries.csv", timeseries_csv(series))
        if series.snapshots:
            atomic_write(out_dir / "snapshots.csv", snapshots_csv(series))
            written.append("snapshots.csv")
    return {"series": series, "written": written}


def _cmd_simulate(args, config: RunConfig) -> int:
    t_end = args.t_end if args.t_end is not None else config.t_end
    out_dir = _output_dir(args.out or config.out_dir)
    result = _simulate_outputs(config, out_dir, t_end)
    series = result["series"]
    _emit(
        {
            "out_dir": str(out_dir),
            "files": result["written"],
            "final": {
                "t": float(series.t[-1]),
                "g": float(series.g[-1]),
                "h": float(series.h[-1]),
                "sup_u": float(series.sup_u[-1]),
                "sup_v": float(series.sup_v[-1]),
            },
        }
    )
    return 0


def _cmd_eigen(args, config: RunConfig) -> int:
    length = _parse_interval(args.interval)
    report = eigen.principal_eigenvalue_monodromy(config.model, length)
    _emit(report.to_json_dict())
    return 0


def _cmd_classify(args, config: RunConfig) -> int:
    outcome = cls.classify_analytic(config.model)
    if args.simulate and outcome.verdict is cls.Verdict.THRESHOLD_DEPENDENT:
        series = run(config.model, config.initial_data(), config.solver, config.t_end)
        outcome = cls.detect_outcome(series, config.model, analytic=outcome)
    _emit(outcome.to_json_dict())
    return 0


def _cmd_threshold(args, config: RunConfig) -> int:
    search = cls.find_mu_threshold if args.param == "mu2" else cls.find_kappa_threshold
    result = search(
        config.model,
        config.initial_data(),
        config.solver,
        (args.lo, args.hi),
        args.tol,
        t_end=config.t_end,
    )
    lines = ["step,lo,hi,probe,verdict"]
    for i, ((probe_value, verdict), (lo, hi)) in enumerate(zip(result.history, result.brackets)):
        lines.append(f"{i},{fmt(lo)},{fmt(hi)},{fmt(probe_value)},{verdict}")
    lines.append(f"result,{fmt(result.bracket[0])},{fmt(result.bracket[1])},{fmt(result.value)},")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _sweep_row(config: RunConfig, axis: str, value: float, shared: cls.Classification | None) -> str:
    if axis == "rho":
        model = config.model.with_(impulse=LinearImpulse(rho=value))
    else:
        model = config.model.with_(**{axis: value})
    analytic = shared or cls.classify_analytic(model)
    series = run(model, config.init.build(model, config.base_dir), config.solver, config.t_end)
    verdict = analytic.verdict
    if verdict is cls.Verdict.THRESHOLD_DEPENDENT:
        verdict = cls.detect_outcome(series, model, analytic=analytic).verdict
    return ",".join(
        [
            fmt(value),
            fmt(analytic.lambda_infinity),
            fmt(analytic.lambda_h0),
            str(verdict),
            fmt(float(series.h[-1])),
            fmt(float(series.sup_u[-1])),
        ]
    )


def _cmd_sweep(args, config: RunConfig) -> int:
    if args.axis not in SWEEP_AXES:
        raise ConfigurationError(
            f"unknown sweep axis {args.axis!r}; valid axes: {', '.join(SWEEP_AXES)}"
        )
    values = _parse_values(args.values)
    # the classification (the eigenvalues, the regime and its critical
    # length) does not depend on the expansion capacities: one serves those axes
    shared = None
    if args.axis in ("mu1", "mu2") and values:
        shared = cls.classify_analytic(config.model)
    header = "value,lambda_infinity,lambda_h0,verdict,final_h,final_sup_u"
    rows = [_sweep_row(config, args.axis, v, shared) for v in values]
    sys.stdout.write("\n".join([header] + rows) + "\n")
    return 0


def _cmd_reproduce(args, _config: None) -> int:
    ref = preset(args.figure)
    config = ref.config
    out_dir = _output_dir(args.out or Path("out") / args.figure)
    result = _simulate_outputs(config, out_dir, config.t_end)
    series = result["series"]
    outcome = cls.detect_outcome(series, config.model)
    eigen_report = {
        "at_h0": eigen.lambda_at_h0(config.model).to_json_dict(),
        "at_infinity": eigen.lambda_infinity(config.model).to_json_dict(),
    }
    if ref.reference_lambda is not None:
        width, reported = ref.reference_lambda
        ours = eigen.principal_eigenvalue_monodromy(config.model, width)
        eigen_report["reference_interval"] = {
            "interval_width": width,
            "lambda_computed": ours.lam,
            "lambda_reference": reported,
            "signs_agree": (ours.lam < 0) == (reported < 0),
        }
    with _writing_to(out_dir):
        atomic_write(out_dir / "fronts.svg", svg_front_plot(series, f"{args.figure}: g(t), h(t)"))
        atomic_write(out_dir / "heatmap.svg", svg_heatmap(series, title=f"{args.figure}: u(t, x)"))
        write_json(out_dir / "verdict.json", outcome.to_json_dict() | {"figure": args.figure})
        write_json(out_dir / "eigen_report.json", eigen_report)

    _emit(
        {
            "figure": args.figure,
            "out_dir": str(out_dir),
            "verdict": str(outcome.verdict),
            "expected_verdict": ref.expected_verdict,
            "final_h": float(series.h[-1]),
            "final_sup_u": float(series.sup_u[-1]),
        }
    )
    return 0


def _cmd_validate(args, config: RunConfig) -> int:
    # parse_config already refused a hard failure with its label
    report = validate_assumptions(config.model, config.initial_data())
    _emit(report.to_json_dict())
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "eigen": _cmd_eigen,
    "classify": _cmd_classify,
    "threshold": _cmd_threshold,
    "sweep": _cmd_sweep,
    "reproduce": _cmd_reproduce,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config) if "config" in args else None
        return _HANDLERS[args.command](args, config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
