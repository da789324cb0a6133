"""Run configuration: a single JSON document per experiment.

Top-level keys ``model``, ``init``, ``solver``, ``run``.  The model's
coefficients are ``model.COEFFICIENTS``.  Growth and impulse functions are
tagged objects, e.g. {"kind": "beverton-holt", "m": 1, "a": 10} or
{"kind": "saturating", "c": 0.5, "b": 10}: ``kind`` picks a class of the
``GrowthFn`` or ``ImpulseFn`` union, and that dataclass's fields are read,
so the schema is stated once, in ``model``.  Initial data is one of
``INIT_KINDS``: {"kind": "cos-quarter", "amp_u": .., "amp_v": ..} or
{"kind": "tabulated", "path": "profiles.csv"} with columns x,u,v.  Every
object refuses a key it does not read.  Parsing validates every field, then
runs the assumption checks; a hard failure is refused with its label.
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

    def __post_init__(self):
        _kind(self.kind, INIT_KINDS, "init")

    def build(self, params: ModelParams, base_dir: Path = Path()) -> InitialData:
        if self.kind == "cos-quarter":
            return InitialData.cos_quarter(params.h0, self.amp_u, self.amp_v)
        table = base_dir / self.path  # an absolute path stays as it is
        if not table.exists():
            raise ConfigurationError(f"tabulated profile file not found: {table}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # loadtxt warns on a file of no rows
                rows = np.loadtxt(table, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError, UserWarning) as exc:
            raise ConfigurationError(f"cannot read tabulated profile {table}: {exc}") from None
        if rows.shape[1] != 3:
            raise ConfigurationError(f"tabulated profile {table} needs columns x,u,v")
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


def _text(obj: dict, key: str, where: str) -> str:
    return str(_require(obj, key, where))


# Each init kind with the reader of each field it reads; InitSpec holds the fields of both
INIT_KINDS = {"cos-quarter": {"amp_u": _number, "amp_v": _number}, "tabulated": {"path": _text}}


def _known(obj: dict, names, where: str) -> None:
    """Refuse a key of ``obj`` that is not one of ``names``."""
    for key in obj:
        if key not in names:
            raise ConfigurationError(
                f"unknown field '{key}' in {where}; it accepts only {', '.join(names)}"
            )


def _kind(kind, kinds: dict, where: str):
    if isinstance(kind, str) and kind in kinds:
        return kinds[kind]
    expected = ", ".join(map(repr, kinds))
    raise ConfigurationError(f"unknown kind {kind!r} in {where}; expected one of {expected}")


def _family(obj: dict, where: str, kinds: dict):
    """The family member named by ``obj["kind"]``, built from its dataclass fields."""
    cls = _kind(_require(obj, "kind", where), kinds, where)
    _known(obj, ["kind", *(f.name for f in fields(cls))], where)
    return cls(**{f.name: _number(obj, f.name, where) for f in fields(cls)})


def parse_config_dict(doc: dict, base_dir: Path | None = None) -> RunConfig:
    base_dir = base_dir or Path(".")
    _known(doc, ["model", "init", "solver", "run"], "configuration")
    model_doc = _section(doc, "model", "configuration")
    _known(model_doc, [*COEFFICIENTS, "growth", "impulse"], "model")
    kwargs = {name: _number(model_doc, name, "model") for name in COEFFICIENTS}
    params = ModelParams(
        growth=_family(_section(model_doc, "growth", "model"), "model.growth", GROWTH_KINDS),
        impulse=_family(_section(model_doc, "impulse", "model"), "model.impulse", IMPULSE_KINDS),
        **kwargs,
    )

    init_doc = _section(doc, "init", "configuration")
    kind = _require(init_doc, "kind", "init")
    readers = _kind(kind, INIT_KINDS, "init")
    _known(init_doc, ["kind", *readers], "init")
    spec = InitSpec(kind, **{name: read(init_doc, name, "init") for name, read in readers.items()})

    solver_doc = _section(doc, "solver", "configuration") if "solver" in doc else {}
    _known(solver_doc, [f.name for f in fields(SolverConfig)], "solver")
    solver = SolverConfig(**{key: _integer(solver_doc, key, "solver") for key in solver_doc})

    run_doc = _section(doc, "run", "configuration")
    _known(run_doc, ["t_end", "snapshot_times", "out_dir"], "run")
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
    m, init = cfg.model, cfg.init
    return {
        "model": {
            **{name: getattr(m, name) for name in COEFFICIENTS},
            "growth": {"kind": m.growth.kind, **asdict(m.growth)},
            "impulse": {"kind": m.impulse.kind, **asdict(m.impulse)},
        },
        "init": {"kind": init.kind, **{k: getattr(init, k) for k in INIT_KINDS[init.kind]}},
        "solver": asdict(cfg.solver),
        "run": {
            "t_end": cfg.t_end,
            "snapshot_times": list(cfg.snapshot_times),
            "out_dir": cfg.out_dir,
        },
    }
