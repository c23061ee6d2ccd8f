"""Wrap etsafe's public functions from outside and aggregate what they do.

``install(tracer)`` wraps every public function defined in an etsafe module,
plus the few methods the layer table names, and rebinds each wrapper in
*every* etsafe namespace that holds the original by name (``engine`` calls
``propagate_until`` through its own global, ``scenarios`` calls
``two_body_field`` through its own, and so on).  A function that only one
namespace rebinds would be bypassed by the others.

Each wrapper adds its call count, total time and self time (total minus the
time covered by wrapped children) to one aggregate per function.  The hooks
that derive counts run outside that timed region, so their cost lands in the
caller's self time, not in the hooked function's; the one exception is the
evaluation counter of ``locate_zero_crossing``, which adds one Python call per
evaluation of the bracketed function.  Coarse
calls (runs, segments, crossings, impulses, writers, the dwell bound) also
become spans: ``(id, name, start, end, parent_id)``, kept in memory and
written out when the run ends.  Hot per-step calls are aggregated only.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = (
    "numerics",
    "dynamics",
    "barrier",
    "orbital",
    "safety_filter",
    "inter_event",
    "scenarios",
    "engine",
    "config",
    "cli",
)

# Functions recorded as spans; everything else is aggregated only.
SPAN_FUNCTIONS = {
    "numerics.propagate_until",
    "numerics.locate_zero_crossing",
    "orbital.station_keeping_impulse",
    "engine.run_greedy_impulsive",
    "engine.run_maneuver",
    "engine.run_intermittent_filter",
    "engine.miet_bound",
    "engine.check_nominal_safety_assumption",
    "engine.audit_safety",
    "inter_event.collect_inter_event_samples",
    "inter_event.fit_inter_event_model",
    "inter_event.save_samples",
    "inter_event.save_model",
    "inter_event.load_model",
    "inter_event.load_samples",
    "config.parse_config",
    "config.build_scenario",
    "barrier.check_gradient",
    "cli.write_trajectory_csv",
    "cli.write_events_csv",
    "cli.write_summary_json",
    "cli.main",
}

# Methods the layer table names, as (module, class, method, stat name).
METHODS = (
    ("inter_event", "InterEventTimeModel", "evaluate", "inter_event.InterEventTimeModel.evaluate"),
    ("config", "ScenarioConfig", "build_satellite", "config.build_scenario"),
    ("config", "ScenarioConfig", "build_planar", "config.build_scenario"),
)

# Functions that must exist; a rename fails the install instead of
# silently zeroing a layer.
REQUIRED = (
    "numerics.rk4_step",
    "numerics.propagate_until",
    "numerics.locate_zero_crossing",
    "dynamics.two_body_field",
    "barrier.barrier_condition_margin",
    "barrier.maneuver_timing_margin",
    "barrier.check_gradient",
    "orbital.station_keeping_impulse",
    "orbital.verify_jump_conditions",
    "safety_filter.build_constraint",
    "safety_filter.project",
    "inter_event.collect_inter_event_samples",
    "inter_event.margin_batch",
    "inter_event.fit_inter_event_model",
    "inter_event.save_samples",
    "engine.run_greedy_impulsive",
    "engine.run_maneuver",
    "engine.run_intermittent_filter",
    "engine.miet_bound",
    "engine.check_nominal_safety_assumption",
    "engine.audit_safety",
    "config.parse_config",
    "cli.write_trajectory_csv",
    "cli.write_events_csv",
    "cli.main",
)


class Tracer:
    """Aggregates per function and spans for coarse calls, all in memory."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._child_time: list[float] = []
        self._span_ids: list[int] = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time
        clock = time.perf_counter

        if name not in SPAN_FUNCTIONS:

            def hot(*args, **kwargs):
                child_time.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    covered = child_time.pop()
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - covered
                    if child_time:
                        child_time[-1] += elapsed

            return hot

        spans = self.spans
        span_ids = self._span_ids

        def spanned(*args, **kwargs):
            span_id = len(spans)
            parent = span_ids[-1] if span_ids else None
            spans.append(None)
            span_ids.append(span_id)
            child_time.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                covered = child_time.pop()
                span_ids.pop()
                spans[span_id] = (span_id, name, t0, t1, parent)
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - covered
                if child_time:
                    child_time[-1] += elapsed

        return spanned

    def document(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                for s in self.spans
                if s is not None
            ],
        }


def _hooked(qualname: str, fn, tracer: Tracer):
    """Add the argument and result hooks that derived counts need."""
    counters = tracer.counters
    if qualname == "numerics.locate_zero_crossing":

        def locate(g, *args, **kwargs):
            def counted(t):
                counters["bisection_evals"] += 1
                return g(t)

            result = fn(counted, *args, **kwargs)
            counters["crossings"] += 1
            if result.degraded:
                counters["degraded_crossings"] += 1
            return result

        return locate
    if qualname == "orbital.station_keeping_impulse":
        infeasible = importlib.import_module("etsafe.orbital").ControllerInfeasibleError

        def impulse(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except infeasible:
                counters["infeasible"] += 1
                raise

        return impulse
    if qualname == "safety_filter.project":

        def project(u_nom, con, *args, **kwargs):
            result = fn(u_nom, con, *args, **kwargs)
            if (result != u_nom).any():  # an inactive filter returns u_nom's values
                counters["filter_active"] += 1
            return result

        return project
    if qualname == "cli.write_trajectory_csv":

        def write(path, *args, **kwargs):
            fn(path, *args, **kwargs)
            counters["trajectory_bytes"] += os.path.getsize(path)

        return write
    if qualname == "dynamics.DisturbanceModel.realize":
        wrap_sampler = tracer.wrap

        def realize(*args, **kwargs):
            return wrap_sampler("dynamics.disturbance", fn(*args, **kwargs))

        return realize
    return fn


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap etsafe's public functions everywhere they are bound.

    Returns, per wrapped function, how many namespaces were rebound.
    """
    modules = {name: importlib.import_module(f"etsafe.{name}") for name in MODULES}
    namespaces = [importlib.import_module("etsafe"), *modules.values()]

    originals = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                originals[f"{short}.{attr}"] = obj
    missing = [q for q in REQUIRED if q not in originals]
    if missing:
        raise RuntimeError(f"etsafe functions not found (renamed?): {missing}")

    rebound: dict[str, int] = {}
    for qualname, original in originals.items():
        wrapper = _hooked(qualname, tracer.wrap(qualname, original), tracer)
        count = 0
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if obj is original:
                    setattr(ns, attr, wrapper)
                    count += 1
        rebound[qualname] = count

    for short, cls_name, method, stat in METHODS:
        cls = getattr(modules[short], cls_name)
        setattr(cls, method, tracer.wrap(stat, getattr(cls, method)))
        rebound[stat] = rebound.get(stat, 0) + 1
    # realize() itself is cheap; the sampler it returns is the hot call
    dist_cls = modules["dynamics"].DisturbanceModel
    dist_cls.realize = _hooked("dynamics.DisturbanceModel.realize", dist_cls.realize, tracer)
    return rebound
