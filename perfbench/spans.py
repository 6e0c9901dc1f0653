"""Spans and counters for the traced benchmark sample.

The benchmark times each layer from outside the program: it replaces
the public functions of each quadswarm module at the call sites where
their callers bound them (``from .quad import simulate`` gives
``planner.simulate`` and ``mission.simulate`` as separate bindings, so a
wrapper on ``quad.simulate`` alone would see nothing). Every wrapper
opens a span; spans nest by call order, and a span's self time is its
duration minus the durations of its direct children. Counters are
derived from each call's arguments and result, never from the program's
internals, so they repeat exactly for equal inputs.

``instrument`` restores every binding it replaced when its block exits.
"""

import functools
import inspect
import math
import os
import time
from collections import Counter
from contextlib import contextmanager

# Span name -> per-layer metric that receives the span's self time.
SELF_TIME_METRIC = {
    "mission.run_mission": "mission.self_s",
    "mission.load_config": "mission.load_config_s",
    "mission.export_csv": "mission.export_s",
    "mission.integrate_protocol": "consensus.integrate_s",
    "mission.rendezvous_leg": "planner.self_s",
    "mission.schedule_for": "planner.self_s",
    "planner.schedule_for": "planner.self_s",
    "planner.simulate": "quad.tune_sim_s",
    "mission.simulate": "quad.flight_s",
    "mission.sym_eigen": "numerics.sym_eigen_s",
}

# Layers whose self times make up run_s; load_config runs before it.
RUN_LAYER_METRICS = (
    "planner.self_s", "quad.tune_sim_s", "quad.flight_s",
    "consensus.integrate_s", "numerics.sym_eigen_s", "mission.export_s",
    "mission.self_s",
)


class Tracer:
    """In-memory span tree plus integer counters for one process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or None]
        self.counters = Counter()
        self._open = []      # indices of open spans, innermost last
        self._attrs = []     # attributes of the open spans, same order

    @contextmanager
    def span(self, name, **attrs):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        self._attrs.append(attrs)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()
            self._attrs.pop()

    def enclosing(self, key):
        """Value of attribute `key` on the innermost open span having it."""
        for attrs in reversed(self._attrs):
            if key in attrs:
                return attrs[key]
        return None

    def self_times(self):
        """Seconds of self time per per-layer metric."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            out[SELF_TIME_METRIC[name]] += (end - start) - inner
        return out


def rk4_steps(schedule, duration, dt):
    """RK4 steps quad.simulate takes for one call.

    Mirrors simulate's windowing: windows snap to the schedule's
    interior breakpoints, and each window takes its full steps of dt
    plus one shorter step when its span is not a multiple of dt.
    """
    edges = [0.0]
    for bp in sorted({float(b) for b in getattr(schedule, "breakpoints", ())}):
        if edges[-1] + 1e-9 < bp < duration - 1e-9:
            edges.append(bp)
    if duration > 0.0:
        edges.append(duration)
    steps = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        span = hi - lo
        nfull = int(math.floor(span / dt + 1e-9))
        rem = span - nfull * dt
        steps += nfull + (rem > 1e-9 * max(1.0, span))
    return steps


def _count_leg(tracer, args, result):
    tracer.counters["planner.legs"] += 1


def _count_tune_sim(tracer, args, result):
    kind = tracer.enclosing("kind")
    tracer.counters["planner.sims"] += 1
    tracer.counters[f"planner.sims.{kind}"] += 1
    tracer.counters["quad.steps"] += rk4_steps(
        args["schedule"], args["duration"], args["dt"])


def _count_flight(tracer, args, result):
    tracer.counters["quad.steps"] += rk4_steps(
        args["schedule"], args["duration"], args["dt"])


def _count_protocol(tracer, args, result):
    log = result.laplacian_log
    tracer.counters["consensus.steps"] += round(
        float(result.times[-1]) / args["dt"])
    tracer.counters["network.topology_changes"] += len(log) - 1
    tracer.counters["network.edges_final"] = len(log[-1][1].source.edges)


def _count_export(tracer, args, result):
    tracer.counters["mission.export_bytes"] += os.path.getsize(args["path"])


def _count_eigen(tracer, args, result):
    tracer.counters["numerics.sym_eigen_calls"] += 1


# (module, attribute, counter hook, span attributes from the call's args)
_BINDINGS = (
    ("mission", "load_config", None, None),
    ("mission", "integrate_protocol", _count_protocol, None),
    ("mission", "rendezvous_leg", None, None),
    ("mission", "schedule_for", _count_leg,
     lambda a: {"kind": a["spec"].kind}),
    ("planner", "schedule_for", _count_leg,
     lambda a: {"kind": a["spec"].kind}),
    ("mission", "simulate", _count_flight, None),
    ("planner", "simulate", _count_tune_sim, None),
    ("mission", "export_csv", _count_export, None),
    ("mission", "sym_eigen", _count_eigen, None),
)


def _wrap(tracer, name, fn, hook, attrs_of):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        attrs = attrs_of(bound.arguments) if attrs_of else {}
        with tracer.span(name, **attrs):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, bound.arguments, result)
        return result

    return wrapper


@contextmanager
def instrument(tracer, modules):
    """Wrap every traced binding; `modules` maps short names to modules."""
    patched = []
    try:
        for mod_name, attr, hook, attrs_of in _BINDINGS:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            patched.append((mod, attr, fn))
            setattr(mod, attr,
                    _wrap(tracer, f"{mod_name}.{attr}", fn, hook, attrs_of))
        yield tracer
    finally:
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)
