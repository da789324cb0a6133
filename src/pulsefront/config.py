"""Run configuration: a single JSON document per experiment.

Top-level keys ``model``, ``init``, ``solver``, ``run``.  The model's
coefficients are ``model.COEFFICIENTS``.  Growth and impulse functions are
tagged objects, e.g. {"kind": "beverton-holt", "m": 1, "a": 10} or
{"kind": "saturating", "c": 0.5, "b": 10}: ``kind`` picks a class of the
``GrowthFn`` or ``ImpulseFn`` union, and exactly that dataclass's fields are
read (other keys are ignored), so the schema is stated once, in ``model``.
Initial data is either the named profile {"kind": "cos-quarter", "amp_u": ..,
"amp_v": ..} or {"kind": "tabulated", "path": "profiles.csv"} with columns
x,u,v.  Parsing validates every field and then runs the assumption checks;
hard failures reject the configuration with the assumption label.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args

import numpy as np

from .errors import ConfigurationError
from .model import (
    COEFFICIENTS,
    GrowthFn,
    ImpulseFn,
    InitialData,
    ModelParams,
    validate_assumptions,
)
from .solver import SolverConfig

__all__ = ["InitSpec", "RunConfig", "parse_config", "config_to_json_dict", "parse_config_dict"]

GROWTH_KINDS = {c.kind: c for c in get_args(GrowthFn)}
IMPULSE_KINDS = {c.kind: c for c in get_args(ImpulseFn)}


@dataclass(frozen=True)
class InitSpec:
    kind: str
    amp_u: float = 0.0
    amp_v: float = 0.0
    path: str = ""

    def build(self, params: ModelParams, base_dir: Path | None = None) -> InitialData:
        if self.kind == "cos-quarter":
            return InitialData.cos_quarter(params.h0, self.amp_u, self.amp_v)
        table = Path(self.path)
        if base_dir is not None and not table.is_absolute():
            table = base_dir / table
        if not table.exists():
            raise ConfigurationError(f"tabulated profile file not found: {table}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # loadtxt warns on a file of no rows
                rows = np.loadtxt(table, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError, UserWarning) as exc:
            raise ConfigurationError(f"cannot read tabulated profile {table}: {exc}") from None
        if rows.shape[1] != 3:
            raise ConfigurationError("tabulated profile needs columns x,u,v")
        return InitialData.from_table(rows[:, 0], rows[:, 1], rows[:, 2])


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    init: InitSpec
    solver: SolverConfig
    t_end: float
    snapshot_times: tuple[float, ...] = ()
    out_dir: str = "out"
    base_dir: Path = field(default_factory=Path, compare=False)

    def initial_data(self) -> InitialData:
        return self.init.build(self.model, self.base_dir)


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigurationError(f"missing field '{key}' in {where}")
    return obj[key]


def _section(obj: dict, key: str, where: str) -> dict:
    val = _require(obj, key, where)
    if not isinstance(val, dict):
        raise ConfigurationError(f"'{key}' in {where} must be a JSON object, got {val!r}")
    return val


def _finite(val, what: str) -> float:
    try:
        if not isinstance(val, bool) and math.isfinite(val):
            return float(val)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        pass
    raise ConfigurationError(f"{what} must be a finite number, got {val!r}")


def _number(obj: dict, key: str, where: str) -> float:
    return _finite(_require(obj, key, where), f"field '{key}' in {where}")


def _integer(obj: dict, key: str, where: str) -> int:
    val = _number(obj, key, where)
    if not val.is_integer():
        raise ConfigurationError(f"field '{key}' in {where} must be an integer, got {obj[key]!r}")
    return int(val)


def _family(obj: dict, where: str, kinds: dict):
    """The family member named by ``obj["kind"]``, built from its dataclass fields."""
    kind = _require(obj, "kind", where)
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        expected = ", ".join(map(repr, kinds))
        raise ConfigurationError(f"unknown kind {kind!r} in {where}; expected one of {expected}")
    return cls(**{f.name: _number(obj, f.name, where) for f in fields(cls)})


def parse_config_dict(doc: dict, base_dir: Path | None = None) -> RunConfig:
    base_dir = base_dir or Path(".")
    model_doc = _section(doc, "model", "configuration")
    kwargs = {name: _number(model_doc, name, "model") for name in COEFFICIENTS}
    params = ModelParams(
        growth=_family(_section(model_doc, "growth", "model"), "model.growth", GROWTH_KINDS),
        impulse=_family(_section(model_doc, "impulse", "model"), "model.impulse", IMPULSE_KINDS),
        **kwargs,
    )

    init_doc = _section(doc, "init", "configuration")
    kind = _require(init_doc, "kind", "init")
    if kind == "cos-quarter":
        spec = InitSpec(
            kind=kind,
            amp_u=_number(init_doc, "amp_u", "init"),
            amp_v=_number(init_doc, "amp_v", "init"),
        )
    elif kind == "tabulated":
        spec = InitSpec(kind=kind, path=str(_require(init_doc, "path", "init")))
    else:
        raise ConfigurationError(f"unknown init kind {kind!r}; expected 'cos-quarter' or 'tabulated'")

    solver_doc = _section(doc, "solver", "configuration") if "solver" in doc else {}
    names = [f.name for f in fields(SolverConfig)]
    for key in solver_doc:
        if key not in names:
            raise ConfigurationError(
                f"unknown field '{key}' in solver; it accepts only {' and '.join(names)}"
            )
    solver = SolverConfig(**{key: _integer(solver_doc, key, "solver") for key in solver_doc})

    run_doc = _section(doc, "run", "configuration")
    t_end = _number(run_doc, "t_end", "run")
    if not t_end > 0:
        raise ConfigurationError(f"run.t_end must be positive, got {t_end}")
    snapshot_doc = run_doc.get("snapshot_times", [])
    if not isinstance(snapshot_doc, list):
        raise ConfigurationError(f"run.snapshot_times must be a list, got {snapshot_doc!r}")
    snapshot_times = tuple(_finite(s, "each of run.snapshot_times") for s in snapshot_doc)
    out_dir = str(run_doc.get("out_dir", "out"))

    periods = t_end / params.tau
    if not math.isfinite(periods):
        raise ConfigurationError(f"run.t_end={t_end} spans too many periods of tau={params.tau}")
    if abs(periods - round(periods)) > 1e-9:
        warnings.warn(
            f"t_end={t_end} is not a multiple of tau={params.tau}; outcome detection "
            "works best on whole periods",
            stacklevel=2,
        )

    cfg = RunConfig(
        model=params,
        init=spec,
        solver=solver,
        t_end=t_end,
        snapshot_times=snapshot_times,
        out_dir=out_dir,
        base_dir=base_dir,
    )

    report = validate_assumptions(params, cfg.initial_data())
    hard = report.failures()
    if hard:
        labels = "; ".join(f"{c.label}: {c.detail}" for c in hard)
        raise ConfigurationError(f"model assumptions violated: {labels}")
    return cfg


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"configuration file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"configuration parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond Python's int-string limit
        raise ConfigurationError(f"configuration parse error in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"configuration root in {path} must be a JSON object")
    return parse_config_dict(doc, base_dir=path.parent)


def config_to_json_dict(cfg: RunConfig) -> dict:
    m = cfg.model
    init: dict = {"kind": cfg.init.kind}
    if cfg.init.kind == "cos-quarter":
        init.update(amp_u=cfg.init.amp_u, amp_v=cfg.init.amp_v)
    else:
        init["path"] = cfg.init.path
    return {
        "model": {
            **{name: getattr(m, name) for name in COEFFICIENTS},
            "growth": {"kind": m.growth.kind, **asdict(m.growth)},
            "impulse": {"kind": m.impulse.kind, **asdict(m.impulse)},
        },
        "init": init,
        "solver": asdict(cfg.solver),
        "run": {
            "t_end": cfg.t_end,
            "snapshot_times": list(cfg.snapshot_times),
            "out_dir": cfg.out_dir,
        },
    }
