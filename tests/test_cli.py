import contextlib
import copy
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pulsefront
from pulsefront.cli import main
from pulsefront.config import (
    InitSpec,
    RunConfig,
    config_to_json_dict,
    parse_config,
    parse_config_dict,
)
from pulsefront.errors import ConfigurationError
from pulsefront.model import COEFFICIENTS, BevertonHoltGrowth
from pulsefront.output import fmt, snapshots_csv, svg_front_plot, svg_heatmap, timeseries_csv
from pulsefront.presets import FIGURES, FigurePreset, preset
from pulsefront.solver import Snapshot, TimeSeries

GROWTHS = [{"kind": "linear", "p": 0.05}, {"kind": "beverton-holt", "m": 1.0, "a": 10.0}]
IMPULSES = [
    {"kind": "identity"}, {"kind": "linear", "rho": 0.5}, {"kind": "saturating", "c": 0.5, "b": 10.0},
]


def small_config_dict(t_end=10.0, n=64, steps=500, mu1=10.0, mu2=15.0, impulse=None, growth=None):
    return {
        "model": {
            "d1": 0.1, "d2": 0.4, "a11": 0.3, "a12": 0.5, "a22": 0.1,
            "mu1": mu1, "mu2": mu2, "h0": 2.0, "tau": 5.0,
            "growth": growth or {"kind": "beverton-holt", "m": 1.0, "a": 10.0},
            "impulse": impulse or {"kind": "identity"},
        },
        "init": {"kind": "cos-quarter", "amp_u": 0.3, "amp_v": 0.1},
        "solver": {"n": n, "steps_per_period": steps},
        "run": {"t_end": t_end, "snapshot_times": [t_end], "out_dir": "out"},
    }


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(small_config_dict()))
    return path


def test_parse_benchmark_preset(config_path):
    cfg = parse_config(config_path)
    assert cfg.model.d1 == 0.1 and cfg.model.mu2 == 15.0 and cfg.model.tau == 5.0
    assert isinstance(cfg.model.growth, BevertonHoltGrowth)
    assert cfg.solver.n == 64


def test_parse_missing_tau(tmp_path):
    doc = small_config_dict()
    del doc["model"]["tau"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="tau"):
        parse_config(path)


def test_parse_negative_d1(tmp_path):
    doc = small_config_dict()
    doc["model"]["d1"] = -0.1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="d1"):
        parse_config(path)


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "mangled.json"
    path.write_text('{"model": {,}')
    with pytest.raises(ConfigurationError, match="line 1"):
        parse_config(path)


def test_parse_rejects_assumption_violation(tmp_path):
    doc = small_config_dict()
    doc["model"]["growth"] = {"kind": "linear", "p": 0.2}  # above a11*a22/a12
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="A2"):
        parse_config(path)


def _tabulated_config(tmp_path, table: str | None = None):
    """A run.json whose init reads profiles.csv, by default hat profiles on [-2, 2]."""
    if table is None:
        xs = [-2.0 + 0.1 * i for i in range(41)]
        table = "\n".join(
            ["x,u,v"]
            + [f"{x},{0.3 * max(0.0, 1 - abs(x) / 2)},{0.1 * max(0.0, 1 - abs(x) / 2)}" for x in xs]
        ) + "\n"
    (tmp_path / "profiles.csv").write_text(table)
    doc = small_config_dict()
    doc["init"] = {"kind": "tabulated", "path": "profiles.csv"}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


def test_parse_tabulated_init(tmp_path):
    cfg = parse_config(_tabulated_config(tmp_path))
    u, v = cfg.initial_data().sample([0.0])
    assert u[0] == pytest.approx(0.3) and v[0] == pytest.approx(0.1)
    with pytest.raises(ConfigurationError, match="unknown kind 'cos_quarter' in init"):
        InitSpec(kind="cos_quarter", amp_u=0.3, amp_v=0.1)


@pytest.mark.parametrize(
    "table",
    ["x,u,v\n-2,0,0\n0,abc,0.1\n2,0,0\n", "x,u,v\n-2,0,0\n0,0.3\n2,0,0\n", "x,u,v\n", None,
     "missing", "x,u\n-2,0\n0,0.3\n2,0\n"],
    ids=["non-numeric", "ragged", "header-only", "directory", "missing", "two-column"],
)
def test_cli_tabulated_read_errors_exit_2(tmp_path, capsys, table):
    config = _tabulated_config(tmp_path, table or "")
    if table in (None, "missing"):
        (tmp_path / "profiles.csv").unlink()
    if table is None:
        (tmp_path / "profiles.csv").mkdir()
    assert main(["validate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "profiles.csv" in err and "Traceback" not in err


def test_cli_negative_interior_start_state_exits_2(tmp_path, capsys):
    # u < 0 only at x = 0: validate's 1,000 sample points miss it, the n = 16
    # grid has a node there, and only the Dirichlet ends are set to 0
    (tmp_path / "profiles.csv").write_text(
        "x,u,v\n-2,0,0\n-0.001,0.01,0.1\n0,-0.01,0.1\n0.001,0.01,0.1\n2,0,0\n"
    )
    doc = small_config_dict(n=16, steps=10, mu1=0.1, mu2=1.0)
    doc["init"] = {"kind": "tabulated", "path": "profiles.csv"}
    doc["run"]["out_dir"] = str(tmp_path / "out")
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: initial densities must be non-negative\n"
    )


def test_scenario_table_order():
    # the benchmark runs FIGURES[seed % 4]: a reordered table would change
    # which scenario each seed runs
    assert FIGURES == ("fig-a", "fig-b", "fig-c", "fig-d")
    assert [preset(f).figure for f in FIGURES] == list(FIGURES)
    with pytest.raises(ValueError, match="'fig-x'; expected one of fig-a, fig-b, fig-c, fig-d$"):
        preset("fig-x")


@pytest.mark.parametrize(
    "source",
    [
        pytest.param(small_config_dict(growth=g, impulse=i), id=f"{g['kind']}-{i['kind']}")
        for g in GROWTHS
        for i in IMPULSES
    ]
    + ["tabulated", *FIGURES],
)
def test_config_round_trip(tmp_path, source):
    if source == "tabulated":
        cfg = parse_config(_tabulated_config(tmp_path))
    elif isinstance(source, str):
        cfg = preset(source).config
    else:
        cfg = parse_config_dict(source)
    again = parse_config_dict(config_to_json_dict(cfg), base_dir=cfg.base_dir)
    for f in fields(RunConfig):
        assert getattr(again, f.name) == getattr(cfg, f.name), f.name


MALFORMED_FIELDS = [
    (("model", "d1"), math.inf),
    (("run", "t_end"), math.inf),
    (("solver", "n"), "abc"),
    (("solver", "negative_clip_tol"), "tiny"),  # an unknown key, whatever its value
    (("run", "snapshot_times"), ["x"]),
    (("solver",), [1]),
    (("solver", "steps_per_period"), 200.9),
    (("model", "tau"), 5e-324),  # t_end / tau overflows
    (("solver", "front_update"), "heun"),
    (("solver", "steps_per_periods"), 500),
    # a kind that is no string must not reach a dict lookup
    (("model", "growth", "kind"), ["linear"]),
    (("model", "impulse", "kind"), {"a": 1}),
    (("init", "kind"), None),
    (("model", "growth", "kind"), 7),
    (("model", "growth", "a"), 1e-170),  # a**2 underflows to 0
    # every section refuses a key it does not read, and the message names it
    (("slover",), {"n": 64, "steps_per_period": 100}),
    (("model", "mu3"), 1.0),
    (("model", "growth", "extra"), 1.0),
    (("model", "impulse", "extra"), 1.0),
    (("init", "ampu"), 0.3),
    (("init",), {"kind": "tabulated", "path": "bad.json", "extra": 1.0}),
    (("run", "snapshot_time"), [5.0]),
    (("run", "out_dri"), "out"),
    # a snapshot before the run began
    (("run", "snapshot_times"), [-1.0]),
]


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize(("path", "value"), MALFORMED_FIELDS)
def test_cli_validate_rejects_malformed_field(tmp_path, capsys, path, value):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(_mutated(small_config_dict(), path, value)))
    assert main(["validate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert path[-1] in err


def test_cli_validate_rejects_oversized_integer_literal(tmp_path, capsys):
    text = json.dumps(small_config_dict()).replace('"d1": 0.1', '"d1": ' + "1" * 5000)
    config = tmp_path / "bad.json"
    config.write_text(text)
    assert main(["validate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def _field_paths(doc, prefix=()):
    for key, val in doc.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _field_paths(val, prefix + (key,))


# between them the two documents carry every growth and impulse family's fields
_VALID_DOCS = [
    small_config_dict(impulse={"kind": "saturating", "c": 0.5, "b": 10.0}),
    small_config_dict(growth={"kind": "linear", "p": 0.05}, impulse={"kind": "linear", "rho": 0.5}),
]
_ODD_VALUES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=1),
    st.none(),
    st.booleans(),
    st.floats(-1e3, 1e3).filter(lambda x: not x.is_integer()),
    st.sampled_from([10**400, -(10**400), 10**20]),
)


@given(st.sampled_from([(doc, path) for doc in _VALID_DOCS for path in _field_paths(doc)]), _ODD_VALUES)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cli_validate_exit_contract(tmp_path_factory, doc_path, value):
    doc, path = doc_path
    config = tmp_path_factory.getbasetemp() / "mutated.json"
    config.write_text(json.dumps(_mutated(doc, path, value)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        # a fractional number of periods is valid input that the CLI warns about,
        # which pytest's warning filter would otherwise raise
        warnings.filterwarnings("ignore", "t_end=.* is not a multiple of tau", UserWarning)
        code = main(["validate", "--config", str(config)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


def test_cli_eigen_json(config_path, capsys):
    assert main(["eigen", "--config", str(config_path), "--interval", "inf"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"lambda", "method", "lambda0", "c1", "c2", "k0", "y0"}
    assert payload["lambda"] == pytest.approx(-0.0449489742783178, abs=1e-12)
    assert payload["lambda0"] == 0.0


@given(st.floats())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cli_eigen_interval_exit_contract(tmp_path_factory, interval):
    # nan, +-inf, subnormals and lengths near the float limits: short
    # intervals overflow (pi/L)^2 (exit 4), and every number of a report
    # that is printed is finite.  exp(B*tau) is never formed, so it cannot
    # fail; the one exit 3 left is the shift overflow, (d1 + d2)*(pi/L)^2
    # past the float range, which these coefficients do not reach (see
    # test_cli_eigen_shift_overflow_is_numerical_failure)
    config = tmp_path_factory.getbasetemp() / "eigen.json"
    config.write_text(json.dumps(small_config_dict()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(["eigen", "--config", str(config), f"--interval={interval!r}"])
    assert code in (0, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        payload = json.loads(out.getvalue())
        assert all(math.isfinite(v) for v in payload.values() if not isinstance(v, str))


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        # exp(B*tau) would underflow to zero; the factored Perron root does not form it
        (["eigen", "--interval", "0.05"], 0),
        (["eigen", "--interval", "1e-200"], 4),  # (pi/L)^2 overflows
        (["sweep", "--axis", "h0", "--values", "1e-200"], 4),
        # exp(B*tau) would overflow on the whole line; it is not formed either
        (["sweep", "--axis", "tau", "--values", "20000"], 0),
        (["simulate", "--t-end", "inf"], 4),
        (["simulate", "--t-end", "1e300"], 4),  # more steps than an array can hold
    ],
)
def test_cli_out_of_range_inputs_exit_cleanly(tmp_path, capsys, argv, code):
    # no eigenvalue case here exits 3: that is left to the shift overflow,
    # test_cli_eigen_shift_overflow_is_numerical_failure.
    # dt = tau / steps stays stable (dt*vmax^2 <= 2*min(d)) at tau = 20000
    _assert_clean_exit(tmp_path, capsys, small_config_dict(steps=2_000_000), argv, code)


def test_cli_oversized_grid_exits_cleanly(tmp_path, capsys):
    # 1e13 nodes need tens of TiB: the allocator refuses the grid at once;
    # 1e20 is past the size NumPy accepts at all
    for n in (10**13, 10**20):
        doc = small_config_dict(n=n)
        doc["run"]["out_dir"] = str(tmp_path / "out")
        _assert_clean_exit(tmp_path, capsys, doc, ["simulate"], 2)


@pytest.mark.parametrize(
    ("argv", "model", "code"),
    [
        # a12 + a12/2 overflows, and the density bound's balance rounds to 0
        (["simulate"], {"a12": 1.7e308}, 2),
        (["sweep", "--axis", "a12", "--values", "1.7976931348623157e308"], {}, 2),
        # the front speed overflows in the stability guard
        (["sweep", "--axis", "mu2", "--values", "1e300"], {}, 2),
        (["sweep", "--axis", "mu1", "--values", "1e160"], {}, 2),
        (["sweep", "--axis", "a12", "--values", "1e160"], {}, 2),
        # a wide interval: the run is valid
        (["sweep", "--axis", "h0", "--values", "1e200"], {}, 0),
        (["sweep", "--axis", "h0", "--values", "1.7976931348623157e308"], {}, 2),  # 2*h0 overflows
        # the monodromy matrix rounds to I; then dt = tau / 10 rounds to 0
        (["sweep", "--axis", "tau", "--values", "5e-324"], {}, 2),
        (["simulate", "--t-end", "1e-10"], {}, 4),  # below one step of dt = 0.5
        # the shapes of A2-A4 are the families' own, whatever the magnitudes of their
        # constants: validate passes m = 1e307 and c = 1e307, though m*u and c*u
        # overflow once u exceeds about 18
        (["validate"], {"growth": {"kind": "beverton-holt", "m": 1e14, "a": 1e8}}, 0),
        (["validate"], {"growth": {"kind": "beverton-holt", "m": 1e307, "a": 1e10}}, 0),
        (["validate"], {"impulse": {"kind": "saturating", "c": 1e307, "b": 1e308}}, 0),
        # f'(0) = m/a and G'(0) = c/b round to 0: the constructors refuse them
        (["validate"], {"growth": {"kind": "beverton-holt", "m": 5e-324, "a": 2.0}}, 2),
        (["validate"], {"impulse": {"kind": "saturating", "c": 5e-324, "b": 2.0}}, 2),
        # a12 is a positive float, but the coupling a12*f'(0) rounds to 0: ModelParams
        # refuses it, where the eigenfunction profile would divide by it
        (["eigen", "--interval", "1"], {"a12": 5e-324}, 2),
        (["validate"], {"a12": 5e-324}, 2),
        (["sweep", "--axis", "a12", "--values", "5e-324"], {}, 2),
        # the front speed h'/width of a 2e-300 wide interval overflows in the stability guard
        (["simulate"], {"h0": 1e-300}, 2),
        # cos-quarter's end samples round to about -1.6e-16 of the amplitude at these h0;
        # the Dirichlet ends are set to 0 before the start state is checked
        (["simulate"], {"h0": 6.5}, 0),
        (["sweep", "--axis", "h0", "--values", "6.5"], {}, 0),
        # a12*f'(0) a hair above a11*a22 and d1 = d2 = 1e8 put L* near 3.2e12
        (["classify"], {"d1": 1e8, "d2": 1e8, "a12": 0.30000000000000016}, 0),
        (["sweep", "--axis", "mu2", "--values", "1"],
         {"d1": 1e8, "d2": 1e8, "a12": 0.30000000000000016}, 0),
    ],
)
def test_cli_extreme_inputs_exit_cleanly(tmp_path, capsys, argv, model, code):
    # a cheap grid (n = 16, dt = 0.5), stable on the base coefficients
    doc = small_config_dict(n=16, steps=10, mu1=0.1, mu2=1.0)
    doc["model"].update(model)
    doc["run"]["out_dir"] = str(tmp_path / "out")
    _assert_clean_exit(tmp_path, capsys, doc, argv, code)


# valid numbers of extreme magnitude, one field at a time: the malformed values of
# test_cli_validate_exit_contract never reach the arithmetic that these do
MAGNITUDES = (5e-324, 1e-300, 1e-160, 1e-30, 1e30, 1e160, 1e300, 1.7976931348623157e308)
MAGNITUDE_FIELDS = [("model", name) for name in COEFFICIENTS] + [
    ("model", "growth", "m"), ("model", "growth", "a"), ("init", "amp_u"), ("init", "amp_v"),
]
MAGNITUDE_COMMANDS = (
    ["validate"], ["eigen", "--interval", "1"], ["eigen", "--interval", "inf"], ["classify"],
    ["simulate"],
)


def test_cli_extreme_magnitudes_keep_the_exit_contract(tmp_path):
    # every case exits 0 silently, or 2, 3 or 4 with one stderr line
    config = tmp_path / "run.json"
    escapes = []
    for impulse in IMPULSES:
        base = small_config_dict(n=16, steps=10, mu1=0.1, mu2=1.0, impulse=impulse)
        for path, value in itertools.product(MAGNITUDE_FIELDS, MAGNITUDES):
            config.write_text(json.dumps(_mutated(base, path, value)))
            for argv in MAGNITUDE_COMMANDS:
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                        warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "t_end=.* is not a multiple of tau", UserWarning)
                    try:
                        code = main([argv[0], "--config", str(config), *argv[1:]])
                    except Exception as exc:  # a traceback at the command line
                        code = repr(exc)
                lines = err.getvalue().count("\n")
                if not (code == 0 and lines == 0 or code in (2, 3, 4) and lines == 1):
                    escapes.append((impulse["kind"], path[-1], value, " ".join(argv), code))
    assert escapes == []


@pytest.mark.parametrize(("c", "code"), [(1e307, 2), (1e306, 0)])
def test_cli_impulse_overflow_below_the_density_bound(tmp_path, capsys, c, code):
    # amp_u = 30 gives C2 = 33, and u never exceeds C2: c*u overflows below it
    # for c = 1e307, where the run would meet a non-finite u at the first reset
    doc = small_config_dict(n=16, steps=10, mu1=0.1, mu2=1.0,
                            impulse={"kind": "saturating", "c": c, "b": 1e308})
    doc["init"]["amp_u"] = 30.0
    doc["run"]["out_dir"] = str(tmp_path / "out")
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("configuration error: saturating impulse (c=1e+307, b=1e+308) "
                       "overflows at the density bound C2=33\n")
    else:
        assert err == ""


@pytest.mark.parametrize(
    ("model", "code"),
    [
        # dt = 0.5: with dt*a11 or dt*a22 at or past 1 the explicit decay step alone
        # takes the density below zero, so the step size is the configuration's fault
        pytest.param({"a11": 2.0}, 2, id="a11=2.0"),
        pytest.param({"a11": 3.0}, 2, id="a11=3.0"),
        pytest.param({"a11": 1e30}, 2, id="a11=1e30"),
        pytest.param({"a22": 3.0}, 2, id="a22=3.0"),
        pytest.param({"a22": 1e30}, 2, id="a22=1e30"),
        # dt*a22 = 1 leaves v = dt*f(u) >= 0 after the decay: the run is valid
        pytest.param({"a22": 2.0}, 0, id="a22=2.0"),
        # dt*a11 = 0.995: the undershoot is the scheme's, not the decay step's
        pytest.param({"a11": 1.99}, 3, id="a11=1.99"),
    ],
)
def test_cli_decay_step_limit(tmp_path, capsys, model, code):
    doc = small_config_dict(n=16, steps=10, mu1=0.1, mu2=1.0)
    doc["model"].update(model)
    doc["run"]["out_dir"] = str(tmp_path / "out")
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == code
    err = capsys.readouterr().err
    (name,) = model
    if code == 2:
        assert err.startswith(f"configuration error: explicit decay unstable: dt=0.5 gives dt*{name}=")
        assert err.endswith(" >= 1; reduce dt via steps_per_period\n")
    elif code == 3:
        assert err.startswith("numerical failure: u undershoot ") and err.count("\n") == 1
    else:
        assert err == ""


def _assert_clean_exit(tmp_path, capsys, doc, argv, code):
    """The command exits with ``code``: silently on 0, else with one error line."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    assert main([argv[0], "--config", str(config)] + argv[1:]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        prefixes = ("configuration error: ", "numerical failure: ", "precondition error: ")
        assert err.startswith(prefixes) and err.count("\n") == 1


def test_cli_eigen_shift_overflow_is_numerical_failure(tmp_path, capsys):
    # (pi/L)^2 is in range, but (d1 + d2) * (pi/L)^2 overflows
    doc = small_config_dict()
    doc["model"].update(d1=1.0, d2=4.0)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    assert main(["eigen", "--config", str(config), "--interval", "3.2e-154"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


def test_cli_eigen_bad_interval(config_path, capsys):
    assert main(["eigen", "--config", str(config_path), "--interval", "wat"]) == 2


def test_cli_classify(config_path, capsys):
    assert main(["classify", "--config", str(config_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "ThresholdDependent"
    assert payload["lambda_infinity"] < 0 < payload["lambda_h0"]


@pytest.mark.parametrize("command", [
    ["classify", "--simulate"],
    ["sweep", "--axis", "mu2", "--values", "1,2"],
])
def test_cli_large_critical_length_is_decided(tmp_path, capsys, command):
    # L* near 6.4e7, where adjacent widths lie 7.5e-9 apart: the critical
    # length is bisected to adjacent floats, not to a fixed tolerance
    doc = small_config_dict(t_end=10.0, n=16, steps=10, mu1=0.1, mu2=1.0)
    doc["model"]["a12"] = 0.3 * (1 + 1e-14)
    path = tmp_path / "near.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], "--config", str(path), *command[1:]]) == 0
    out = capsys.readouterr().out
    assert "Undecided" in out


def test_cli_classify_simulate_flag(config_path, capsys):
    # threshold-dependent regime resolved (or honestly left open) by a run
    assert main(["classify", "--config", str(config_path), "--simulate"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] in ("Vanishing", "Spreading", "Undecided")
    assert payload["evidence"] is not None


def test_cli_validate(config_path, capsys):
    assert main(["validate", "--config", str(config_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"] is True
    labels = [c["label"] for c in payload["checks"]]
    assert any("A3" in l for l in labels)


def test_cli_missing_config_is_config_error(tmp_path, capsys):
    assert main(["classify", "--config", "/nonexistent.json"]) == 2
    assert main(["validate", "--config", str(tmp_path)]) == 2  # a directory
    assert f"configuration file {tmp_path} cannot be read" in capsys.readouterr().err
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert main(["classify", "--config", str(listed)]) == 2
    assert "configuration root" in capsys.readouterr().err


def test_cli_kappa_threshold_precondition_exit(tmp_path, capsys):
    doc = small_config_dict(impulse={"kind": "saturating", "c": 0.5, "b": 10.0})
    path = tmp_path / "sat.json"
    path.write_text(json.dumps(doc))
    code = main(["threshold", "--config", str(path), "--param", "kappa",
                 "--lo", "0.1", "--hi", "10"])
    assert code == 4


def test_cli_sweep_unknown_axis(config_path):
    assert main(["sweep", "--config", str(config_path), "--axis", "bogus", "--values", "1"]) == 2


def test_cli_sweep_empty_values(config_path, capsys):
    assert main(["sweep", "--config", str(config_path), "--axis", "mu2", "--values", ""]) == 0
    out = capsys.readouterr().out
    assert out == "value,lambda_infinity,lambda_h0,verdict,final_h,final_sup_u\n"


@pytest.mark.parametrize("values", ["abc", "1,nan", "1,inf"])
def test_cli_sweep_bad_values_is_config_error(config_path, capsys, values):
    assert main(["sweep", "--config", str(config_path), "--axis", "mu2", "--values", values]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: --values")
    assert captured.err.count("\n") == 1


def test_cli_simulate_writes_deterministic_csv(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(small_config_dict(t_end=5.0)))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
    capsys.readouterr()
    ts1 = (out1 / "timeseries.csv").read_bytes()
    ts2 = (out2 / "timeseries.csv").read_bytes()
    assert ts1 == ts2
    assert (out1 / "snapshots.csv").read_bytes() == (out2 / "snapshots.csv").read_bytes()
    header = ts1.decode().splitlines()[0]
    assert header == "t,g,h,sup_u,sup_v"
    assert (out1 / "snapshots.csv").read_text().splitlines()[0] == "t,x,u,v"


@pytest.mark.parametrize("command", ["simulate", "reproduce"])
def test_cli_unusable_out_exits_2_before_the_run(tmp_path, capsys, monkeypatch, config_path, command):
    import pulsefront.cli as cli_mod

    def no_run(*args, **kwargs):
        raise AssertionError("the run started before the output directory was checked")

    monkeypatch.setattr(cli_mod, "run", no_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub"  # a directory under a regular file cannot be made
    argv = ["simulate", "--config", str(config_path)] if command == "simulate" else ["reproduce", "fig-a"]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: cannot write outputs to {out}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_cli_simulate_failed_write_exits_2(tmp_path, capsys, config_path):
    out = tmp_path / "o"
    (out / "timeseries.csv").mkdir(parents=True)  # the rename onto it fails
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: cannot write outputs to {out}: ")
    assert captured.err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == ["timeseries.csv"]  # no temporary file is left


def test_cli_sweep_mu2_values(tmp_path, capsys):
    doc = small_config_dict(t_end=200.0, n=96, steps=400, mu1=0.1, mu2=1.0)
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--axis", "mu2", "--values", "1,10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "value,lambda_infinity,lambda_h0,verdict,final_h,final_sup_u"
    verdicts = [line.split(",")[3] for line in lines[1:]]
    assert verdicts == ["Vanishing", "Spreading"]


def test_cli_sweep_rho_values(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(small_config_dict(t_end=10.0, n=32, steps=500)))
    assert main(["eigen", "--config", str(path), "--interval", "inf"]) == 0
    identity_lam = json.loads(capsys.readouterr().out)["lambda"]

    assert main(["sweep", "--config", str(path), "--axis", "rho",
                 "--values", "0.5,1,0.2"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [0.5, 1.0, 0.2]
    lam = {float(r[0]): float(r[1]) for r in rows}
    assert lam[1.0] == pytest.approx(identity_lam, rel=1e-12, abs=1e-15)
    # stronger disinfection (smaller rho) pushes the whole-line eigenvalue up
    assert lam[0.2] > lam[0.5] > lam[1.0]


def test_cli_threshold_mu2_csv(tmp_path, capsys):
    doc = small_config_dict(t_end=200.0, n=96, steps=400, mu1=0.1, mu2=1.0)
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(doc))
    code = main(["threshold", "--config", str(path), "--param", "mu2",
                 "--lo", "1", "--hi", "10", "--tol", "3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,lo,hi,probe,verdict"
    assert lines[1].endswith("Vanishing") and lines[2].endswith("Spreading")
    final = lines[-1].split(",")
    assert final[0] == "result"
    assert 1.0 < float(final[3]) < 10.0


def test_cli_threshold_unreachable_tol_is_precondition_exit(tmp_path, capsys):
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(small_config_dict(t_end=200.0, n=96, steps=400, mu1=0.1, mu2=1.0)))
    code = main(["threshold", "--config", str(path), "--param", "mu2",
                 "--lo", "1", "--hi", "10", "--tol", "1e-300"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "float spacing" in captured.err


def test_cli_threshold_unrecordable_horizon_names_the_configured_one(tmp_path, capsys):
    # a probe's trajectory is built for twice the horizon; the message says so
    path = tmp_path / "long.json"
    path.write_text(json.dumps(small_config_dict(t_end=5e16, n=16, steps=10, mu1=0.1, mu2=1.0)))
    code = main(["threshold", "--config", str(path), "--param", "mu2",
                 "--lo", "1", "--hi", "10", "--tol", "3"])
    assert code == 4
    err = capsys.readouterr().err
    assert "may run to twice t_end=5e+16: " in err and "than can be recorded" in err


def test_cli_threshold_undecided_probe_names_the_configured_horizon(tmp_path, capsys):
    # mu2 = 1 neither vanishes nor spreads by t = 40; the message names both horizons
    path = tmp_path / "short.json"
    path.write_text(json.dumps(small_config_dict(t_end=20.0, n=16, steps=10, mu1=0.1, mu2=1.0)))
    code = main(["threshold", "--config", str(path), "--param", "mu2",
                 "--lo", "1", "--hi", "1e300", "--tol", "1e299"])
    assert code == 3
    assert capsys.readouterr().err == (
        "numerical failure: outcome at mu2=1 still undecided at t=40, twice t_end=20; "
        "refine the detection horizon\n"
    )


def _tiny_preset(figure):
    """The reference scenario ``figure`` on a 64-interval grid to t = 10."""
    ref = preset(figure)
    cfg = ref.config
    small = cfg.__class__(
        model=cfg.model,
        init=cfg.init,
        solver=type(cfg.solver)(n=64, steps_per_period=500),
        t_end=10.0,
        snapshot_times=(0.0, 5.0, 10.0),
        out_dir=cfg.out_dir,
    )
    return FigurePreset(figure=ref.figure, config=small,
                        expected_verdict=ref.expected_verdict,
                        reference_lambda=ref.reference_lambda)


def test_cli_reproduce_writes_report_bundle(tmp_path, capsys, monkeypatch):
    import pulsefront.cli as cli_mod

    monkeypatch.setattr(cli_mod, "preset", _tiny_preset)
    out = tmp_path / "rep"
    assert main(["reproduce", "fig-a", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["figure"] == "fig-a"
    for name in ("timeseries.csv", "snapshots.csv", "fronts.svg", "heatmap.svg",
                 "verdict.json", "eigen_report.json"):
        assert (out / name).exists()
    eigen_doc = json.loads((out / "eigen_report.json").read_text())
    ref = eigen_doc["reference_interval"]
    assert ref["lambda_reference"] == -0.012
    assert ref["lambda_computed"] < 0 and ref["signs_agree"] is True
    verdict_doc = json.loads((out / "verdict.json").read_text())
    assert verdict_doc["lambda_infinity"] < 0 < verdict_doc["lambda_h0"]


# each subcommand on an input it completes and on one it refuses, most of them after
# work has begun; "{out}" is a fresh directory, "{blocked}" one under a regular file
SINGLE_WRITER_CASES = [
    pytest.param(["simulate", "--out", "{out}"], {}, 0, id="simulate"),
    pytest.param(["simulate", "--out", "{out}"], {"a11": 30.0}, 2, id="simulate-decay"),
    pytest.param(["eigen", "--interval", "1"], {}, 0, id="eigen"),
    pytest.param(["eigen", "--interval", "1e-200"], {}, 4, id="eigen-narrow"),
    pytest.param(["classify", "--simulate"], {}, 0, id="classify"),
    pytest.param(["classify", "--simulate"], {"mu2": 1e300}, 2, id="classify-unstable-run"),
    pytest.param(["threshold", "--param", "mu2", "--lo", "1", "--hi", "10", "--tol", "3"], {}, 0,
                 id="threshold"),
    pytest.param(["threshold", "--param", "mu2", "--lo", "1", "--hi", "1e6", "--tol", "10"], {}, 2,
                 id="threshold-unstable-probe"),
    pytest.param(["sweep", "--axis", "mu2", "--values", "1,2"], {}, 0, id="sweep"),
    pytest.param(["sweep", "--axis", "a11", "--values", "0.3,30"], {}, 2, id="sweep-second-row"),
    pytest.param(["reproduce", "fig-a", "--out", "{out}"], {}, 0, id="reproduce"),
    pytest.param(["reproduce", "fig-a", "--out", "{blocked}"], {}, 2, id="reproduce-unusable-out"),
    pytest.param(["validate"], {}, 0, id="validate"),
    pytest.param(["validate"], {"growth": {"kind": "linear", "p": 0.2}}, 2, id="validate-a2"),
]


@pytest.mark.parametrize(("argv", "model", "code"), SINGLE_WRITER_CASES)
def test_cli_prints_one_document_only_on_success(tmp_path, capsys, monkeypatch, argv, model, code):
    import pulsefront.cli as cli_mod

    monkeypatch.setattr(cli_mod, "preset", _tiny_preset)
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [arg.format(out=tmp_path / "out", blocked=blocker / "sub") for arg in argv]
    if argv[0] != "reproduce":
        doc = small_config_dict(t_end=100.0, n=16, steps=50, mu1=0.1, mu2=1.0)
        doc["model"].update(model)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        argv = [argv[0], "--config", str(config), *argv[1:]]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
    elif argv[0] in ("threshold", "sweep"):
        assert err == "" and out.endswith("\n")
        lines = out[:-1].split("\n")
        assert lines.count(lines[0]) == 1 and all(lines)  # one header, no blank line
    else:
        assert err == "" and out.endswith("\n")
        json.loads(out)  # a second document would be "Extra data"


def test_python_m_pulsefront_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(pulsefront.__file__).parents[1])}
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(small_config_dict()))
    bad.write_text('{"model": ')

    def validate(config):
        argv = [sys.executable, "-m", "pulsefront", "validate", "--config", str(config)]
        return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path)

    ok = validate(good)
    assert ok.returncode == 0 and ok.stderr == ""
    assert json.loads(ok.stdout)["all_pass"] is True
    refused = validate(bad)
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr.startswith("configuration error: ") and refused.stderr.count("\n") == 1


def test_csv_float_format_round_trips():
    x = 0.1 + 0.2
    assert float(fmt(x)) == x
    assert fmt(1.0) == "1"


EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 2.0, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("with_snapshots", [True, False])
def test_csv_writers_equal_per_value_formatting(with_snapshots):
    # the writers format a whole row per % call; the reference formats each
    # value on its own through fmt
    values = np.array(EDGE_FLOATS)
    columns = [np.roll(values, k) for k in range(5)]
    snapshots = tuple(
        Snapshot(t=t, x=np.roll(values, k), u=np.roll(values, k + 1), v=np.roll(values, k + 2))
        for k, t in enumerate(EDGE_FLOATS)
    ) if with_snapshots else ()
    series = TimeSeries(*columns, snapshots=snapshots)

    lines = ["t,g,h,sup_u,sup_v"]
    for i in range(values.size):
        lines.append(",".join(fmt(c[i]) for c in columns))
    assert timeseries_csv(series) == "\n".join(lines) + "\n"
    lines = ["t,x,u,v"]
    for snap in snapshots:
        for j in range(snap.x.size):
            lines.append(f"{fmt(snap.t)},{fmt(snap.x[j])},{fmt(snap.u[j])},{fmt(snap.v[j])}")
    assert snapshots_csv(series) == "\n".join(lines) + "\n"
    assert timeseries_csv(series).splitlines()[1:3] == [
        "-0,-inf,inf,nan,2", "4.9406564584124654e-324,-0,-inf,inf,nan",
    ]


def test_svg_outputs_deterministic(params_benchmark, init_cos):
    from pulsefront.solver import SolverConfig, run

    series = run(params_benchmark, init_cos, SolverConfig(n=64, steps_per_period=500), 5.0,
                 snapshot_times=(0.0, 2.5, 5.0))
    a = svg_front_plot(series)
    b = svg_front_plot(series)
    assert a == b and a.startswith("<svg")
    hm1 = svg_heatmap(series)
    hm2 = svg_heatmap(series)
    assert hm1 == hm2 and "<rect" in hm1


def test_cli_sweep_mu_axis_computes_critical_length_once(tmp_path, capsys, monkeypatch):
    import pulsefront.classify as classify
    from pulsefront.solver import run

    doc = small_config_dict(t_end=20.0, n=32, steps=100, mu1=0.1, mu2=1.0)
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(doc))
    calls = []
    real_length = classify.critical_length

    def counted_length(params, *args, **kwargs):
        calls.append(params.mu2)
        return real_length(params, *args, **kwargs)

    monkeypatch.setattr(classify, "critical_length", counted_length)
    assert main(["sweep", "--config", str(path), "--axis", "mu2", "--values", "1,2,3,4"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(calls) == 1
    monkeypatch.undo()
    # every row is what the library computes for that mu2 on its own
    config = parse_config(path)
    for row, mu2 in zip(rows, (1.0, 2.0, 3.0, 4.0), strict=True):
        model = config.model.with_(mu2=mu2)
        series = run(model, config.initial_data(), config.solver, config.t_end)
        analytic = classify.classify_analytic(model)
        outcome = classify.detect_outcome(series, model)
        assert analytic.verdict is classify.Verdict.THRESHOLD_DEPENDENT
        assert row[1:4] == [fmt(analytic.lambda_infinity), fmt(analytic.lambda_h0),
                            str(outcome.verdict)]
    assert {row[3] for row in rows} == {"Undecided", "Spreading"}
