"""Span tracer that wraps pulsefront's public functions from the outside.

A function is wrapped wherever its name is looked up: every loaded
``pulsefront`` module whose namespace holds the original function object gets
the wrapper, so bindings made by ``from .solver import run`` in ``classify``,
``cli`` and ``periodic`` are traced as well as the defining module.  Growth
and impulse functions are traced through their classes' ``__call__``, which
is how the solver evaluates them.  A target that no longer exists is listed
in ``missing`` and its metrics are left out; it never raises.

Spans (id, parent id, name, start, end, run id) are kept in memory and
written out by ``write_spans``.  Hot functions are called millions of times,
so each name keeps only its first ``KEEP_SPANS`` raw spans, plus exact call
counts and a strided sample of durations for the medians.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# (span name, module, function name or the classes whose __call__ is traced)
TARGETS = (
    ("model.growth", "pulsefront.model", ("LinearGrowth", "BevertonHoltGrowth")),
    ("model.impulse", "pulsefront.model", ("IdentityImpulse", "LinearImpulse", "SaturatingImpulse")),
    ("eigen.principal_eigenvalue_monodromy", "pulsefront.eigen", "principal_eigenvalue_monodromy"),
    ("solver.run", "pulsefront.solver", "run"),
    ("solver.transform_step", "pulsefront.solver", "transform_step"),
    ("solver.imex_density_step", "pulsefront.solver", "imex_density_step"),
    ("solver.apply_impulse", "pulsefront.solver", "apply_impulse"),
    ("periodic.fixed_domain_periodic", "pulsefront.periodic", "fixed_domain_periodic"),
    ("periodic.ode_periodic_orbit", "pulsefront.periodic", "ode_periodic_orbit"),
    ("periodic.ode_period_map", "pulsefront.periodic", "ode_period_map"),
    # the probe boundary has no public name; a rename shows as missing metrics
    ("classify.probe", "pulsefront.classify", "_probe"),
    ("classify.detect_outcome", "pulsefront.classify", "detect_outcome"),
    ("classify.critical_length", "pulsefront.classify", "critical_length"),
    ("classify.find_mu_threshold", "pulsefront.classify", "find_mu_threshold"),
    ("cli.main", "pulsefront.cli", "main"),
    ("config.parse_config", "pulsefront.config", "parse_config"),
    ("output.timeseries_csv", "pulsefront.output", "timeseries_csv"),
    ("output.snapshots_csv", "pulsefront.output", "snapshots_csv"),
    ("output.atomic_write", "pulsefront.output", "atomic_write"),
)

# names whose spans also record process CPU time, for wall-minus-CPU waiting
CPU_TIMED = frozenset({"cli.main"})
# elementwise functions whose scalar calls (millions per ODE orbit, ~0.2 us
# each) are counted without a span, which would cost more than the call;
# their spans and medians cover array calls
SCALAR_COUNTED = frozenset({"model.growth", "model.impulse"})
# raw spans kept per name, and the most duration samples kept per statistic
KEEP_SPANS = 2000
SAMPLE_CAP = 1 << 16


class Samples:
    """Every ``stride``-th value; the stride doubles whenever the buffer fills."""

    def __init__(self):
        self.stride = 1
        self.seen = 0
        self.values: list[float] = []

    def add(self, x: float) -> None:
        if self.seen % self.stride == 0:
            self.values.append(x)
            if len(self.values) >= SAMPLE_CAP:
                self.values = self.values[::2]
                self.stride *= 2
        self.seen += 1

    def median(self) -> float | None:
        return statistics.median(self.values) if self.values else None


class NameStats:
    def __init__(self):
        self.calls = 0
        self.dur_ns = Samples()
        self.self_ns = Samples()
        self.wait_ns = Samples()
        self.child_calls: dict[str, int] = {}


class _Frame:
    __slots__ = ("name", "id", "parent", "start", "cpu0", "child_ns", "children")

    def __init__(self, name, span_id, parent, start, cpu0):
        self.name = name
        self.id = span_id
        self.parent = parent
        self.start = start
        self.cpu0 = cpu0
        self.child_ns = 0
        self.children: dict[str, int] = {}


class Tracer:
    """In-memory spans and per-name statistics; install/uninstall the wrappers."""

    def __init__(self):
        self.stats: dict[str, NameStats] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, Samples] = {}
        self.scalar_calls: dict[str, list[int]] = {}
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.run_id = 0
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self._located: list[tuple] | None = None

    # -- recording -----------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, Samples()).add(value)

    def _enter(self, name: str) -> _Frame:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        cpu0 = time.process_time_ns() if name in CPU_TIMED else 0
        frame = _Frame(name, self._next_id, parent, time.perf_counter_ns(), cpu0)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        dur = end - frame.start
        st = self.stats.get(frame.name)
        if st is None:
            st = self.stats[frame.name] = NameStats()
        st.calls += 1
        st.dur_ns.add(dur)
        st.self_ns.add(dur - frame.child_ns)
        if frame.cpu0:
            st.wait_ns.add(dur - (time.process_time_ns() - frame.cpu0))
        for child, k in frame.children.items():
            st.child_calls[child] = st.child_calls.get(child, 0) + k
        if frame.name == "solver.run":
            steps = frame.children.get("solver.transform_step", 0)
            if steps:
                self.sample("solver.run.self_ns_per_step", (dur - frame.child_ns) / steps)
        parent = frame.parent
        if parent is not None:
            parent.child_ns += dur
            parent.children[frame.name] = parent.children.get(frame.name, 0) + 1
        if st.calls <= KEEP_SPANS:
            self.spans.append(
                (frame.id, parent.id if parent else None, frame.name, frame.start, end, self.run_id)
            )

    # -- installing the wrappers ----------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        if name not in SCALAR_COUNTED:
            return traced
        counter = self.scalar_calls.setdefault(name, [0])

        @functools.wraps(fn)
        def traced_elementwise(obj, u):
            if isinstance(u, float):
                counter[0] += 1
                return fn(obj, u)
            return traced(obj, u)

        return traced_elementwise

    def _locate(self) -> list[tuple]:
        """(name, owner, attribute, original) for every target that exists."""
        found = []
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
                if isinstance(attr, tuple):
                    for cls_name in attr:
                        cls = getattr(module, cls_name)
                        found.append((name, cls, "__call__", cls.__dict__["__call__"]))
                else:
                    found.append((name, None, attr, getattr(module, attr)))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
        return found

    def install(self) -> None:
        if self._located is None:
            self._located = self._locate()
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "pulsefront"]
        for name, owner, attr, original in self._located:
            wrapper = self._wrap(name, original)
            if owner is not None:
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, run_id in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end, "run": run_id}
                    )
                    + "\n"
                )


def _count_undecided(tracer, args, kwargs, result):
    if str(result.verdict) == "Undecided":
        tracer.count("classify.undecided")


def _bracket_width(tracer, args, kwargs, result):
    tracer.sample("classify.final_bracket_width", result.bracket[1] - result.bracket[0])


def _orbit_periods(tracer, args, kwargs, result):
    tracer.count("periodic.periods", result.periods)


def _bytes_written(tracer, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.count("output.bytes_written", len(text.encode()))


_HOOKS = {
    "classify.detect_outcome": _count_undecided,
    "classify.find_mu_threshold": _bracket_width,
    "periodic.fixed_domain_periodic": _orbit_periods,
    "periodic.ode_periodic_orbit": _orbit_periods,
    "output.atomic_write": _bytes_written,
}


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from ``rounds`` identical traced rounds.

    Times are medians per call; counts are per round, hence exact.  A layer
    the workload never calls reports zero calls and zero time.  Metrics of a
    missing target are omitted.
    """
    out: dict[str, tuple[float, str]] = {}
    missing = set(tracer.missing)
    scale = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}

    def stats(name):
        return tracer.stats.get(name) or NameStats()

    def time_metric(metric, name, unit, which="dur_ns"):
        if name not in missing:
            value = getattr(stats(name), which).median()
            out[metric] = ((value or 0.0) * scale[unit], unit)

    def per_round(metric, name, value):
        if name not in missing:
            out[metric] = (value / rounds, "count")

    def ratio(metric, names, num, den):
        if not missing.intersection(names):
            out[metric] = (num / den if den else 0.0, "ratio")

    ts, imex, run = "solver.transform_step", "solver.imex_density_step", "solver.run"
    time_metric("solver.transform_step.us", ts, "us")
    time_metric("solver.transform_step.self_us", ts, "us", "self_ns")
    per_round("solver.transform_step.calls", ts, stats(ts).calls)
    time_metric("solver.imex_density_step.us", imex, "us")
    per_round("solver.imex_density_step.calls", imex, stats(imex).calls)
    if not missing.intersection((run, ts)):
        per_step = tracer.samples.get("solver.run.self_ns_per_step")
        out["solver.run.self_us_per_step"] = ((per_step.median() if per_step else 0.0) * 1e-3, "us")
    per_round("solver.run.calls", run, stats(run).calls)
    per_round("solver.apply_impulse.calls", "solver.apply_impulse", stats("solver.apply_impulse").calls)

    def all_calls(name):
        return stats(name).calls + tracer.scalar_calls.get(name, [0])[0]

    time_metric("model.growth.us", "model.growth", "us")
    per_round("model.growth.calls", "model.growth", all_calls("model.growth"))
    per_round("model.impulse.calls", "model.impulse", all_calls("model.impulse"))

    eig, detect = "eigen.principal_eigenvalue_monodromy", "classify.detect_outcome"
    time_metric("eigen.principal_eigenvalue_monodromy.us", eig, "us")
    per_round("eigen.principal_eigenvalue_monodromy.calls", eig, stats(eig).calls)
    ratio("eigen.calls_per_verdict", (eig, detect), stats(eig).calls, stats(detect).calls)

    probe = "classify.probe"
    per_round("classify.probes", probe, stats(probe).calls)
    per_round("classify.horizon_doublings", detect, tracer.counters.get("classify.undecided", 0))
    ratio("classify.probe_yield", (probe, run), stats(probe).calls,
          stats(probe).child_calls.get(run, 0))
    time_metric("classify.probe.s", probe, "s")
    per_round("classify.detect_outcome.calls", detect, stats(detect).calls)
    per_round("classify.critical_length.calls", "classify.critical_length",
              stats("classify.critical_length").calls)
    if "classify.find_mu_threshold" not in missing:
        width = tracer.samples.get("classify.final_bracket_width")
        out["classify.final_bracket_width"] = (width.median() if width else 0.0, "mu2")

    fdp, ode, pmap = "periodic.fixed_domain_periodic", "periodic.ode_periodic_orbit", "periodic.ode_period_map"
    time_metric("periodic.fixed_domain_periodic.s", fdp, "s")
    if not missing.intersection((fdp, ode)):
        out["periodic.periods"] = (tracer.counters.get("periodic.periods", 0) / rounds, "count")
    ratio("periodic.imex_steps_per_orbit", (fdp, imex), stats(fdp).child_calls.get(imex, 0),
          stats(fdp).calls)
    time_metric("periodic.ode_period_map.ms", pmap, "ms")
    per_round("periodic.ode_period_map.calls", pmap, stats(pmap).calls)

    time_metric("cli.main.s", "cli.main", "s")
    time_metric("cli.wait_s", "cli.main", "s", "wait_ns")
    time_metric("config.parse_config.ms", "config.parse_config", "ms")
    time_metric("output.timeseries_csv.s", "output.timeseries_csv", "s")
    time_metric("output.snapshots_csv.s", "output.snapshots_csv", "s")
    if "output.atomic_write" not in missing:
        out["output.bytes_written"] = (
            tracer.counters.get("output.bytes_written", 0) / rounds, "bytes"
        )
    return out
