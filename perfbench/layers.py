"""Per-layer metrics of the traced run, with the prediction each one carries.

Every row names one metric, its unit and which direction is better, the
end-to-end metric it should move (``moves``) on which workloads (``on``), and
the workloads where it should stay put (``not_on``).  ``called_in`` lists the
workloads on which a call or work count must be nonzero: a traced run that
reads zero there fails, so a renamed or re-imported function breaks the
benchmark loudly instead of silently zeroing its layer.

Metric names are ``<module>.<function>.<calls|self_s|total_s>`` for wrapped
functions, plus counts derived from the run's outputs or from argument and
result hooks (see ``tracer.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

ALL = ("compare", "campaign", "planar")
SCALAR = ("compare", "planar")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    on: tuple[str, ...]
    not_on: tuple[str, ...]
    called_in: tuple[str, ...] = ()


def _fn(stat, suffixes, moves, on, not_on, called_in=(), better="lower"):
    units = {"calls": "count", "self_s": "s", "total_s": "s"}
    return [
        LayerMetric(
            f"{stat}.{sfx}",
            units[sfx],
            better,
            moves,
            on,
            not_on,
            called_in if sfx == "calls" else (),
        )
        for sfx in suffixes
    ]


LAYER_METRICS: list[LayerMetric] = [
    # numerics: the scalar integrator, event location and monitored propagation
    *_fn("numerics.rk4_step", ("calls", "self_s"), "wall_s, steps_per_s", SCALAR, ("campaign",), SCALAR),
    *_fn("numerics.propagate_until", ("calls", "self_s"), "wall_s, steps_per_s", SCALAR, ("campaign",), SCALAR),
    *_fn("numerics.locate_zero_crossing", ("calls", "total_s"), "wall_s, steps_per_s", SCALAR, ("campaign",), ALL),
    LayerMetric("numerics.bisection_evals", "count", "lower", "wall_s", SCALAR, ("campaign",), ALL),
    LayerMetric("numerics.evals_per_crossing", "count", "lower", "wall_s", SCALAR, ("campaign",), ALL),
    LayerMetric("numerics.degraded_crossings", "count", "lower", "wall_s", SCALAR, ("campaign",)),
    LayerMetric("numerics.steps", "count", "lower", "steps_per_s", SCALAR, ("campaign",), SCALAR),
    # dynamics: vector field and the realized disturbance sampler
    *_fn("dynamics.two_body_field", ("calls", "self_s"), "wall_s", ("compare",), ("planar",), ("compare", "campaign")),
    *_fn("dynamics.disturbance", ("calls", "self_s"), "wall_s", ("compare",), ("planar",), SCALAR),
    # barrier: trigger margins and the construction-time self-checks
    *_fn("barrier.barrier_condition_margin", ("calls", "self_s"), "wall_s", ("compare",), (), ALL),
    *_fn("barrier.maneuver_timing_margin", ("calls", "self_s"), "wall_s", ("compare",), (), ("compare",)),
    LayerMetric("barrier.check_gradient.total_s", "s", "lower", "setup_s", ALL, ()),
    # orbital: the station-keeping controller and post-jump audit
    *_fn("orbital.station_keeping_impulse", ("calls", "total_s"), "wall_s", ("campaign",), SCALAR, ("compare", "campaign")),
    *_fn("orbital.verify_jump_conditions", ("calls",), "wall_s", ("campaign",), SCALAR, ("compare",)),
    LayerMetric("orbital.infeasible", "count", "lower", "wall_s", ("campaign",), SCALAR),
    # safety_filter: the halfspace projection filter
    *_fn("safety_filter.build_constraint", ("calls", "self_s"), "wall_s", ("planar",), ("compare", "campaign"), ("planar",)),
    *_fn("safety_filter.project", ("calls", "self_s"), "wall_s", ("planar",), ("compare", "campaign"), ("planar",)),
    LayerMetric("safety_filter.active_frac", "ratio", "lower", "wall_s", ("planar",), ("compare", "campaign")),
    # inter_event: the batched sampling campaign and the tau fit
    *_fn("inter_event.collect_inter_event_samples", ("self_s",), "wall_s, steps_per_s", ("campaign",), SCALAR, ("campaign",)),
    *_fn("inter_event.margin_batch", ("calls", "self_s"), "wall_s, steps_per_s", ("campaign",), SCALAR, ("campaign",)),
    LayerMetric("inter_event.lane_steps", "count", "lower", "steps_per_s", ("campaign",), SCALAR, ("campaign",)),
    LayerMetric("inter_event.batch_iterations", "count", "lower", "wall_s", ("campaign",), SCALAR, ("campaign",)),
    LayerMetric("inter_event.mean_batch_width", "count", "higher", "steps_per_s", ("campaign",), SCALAR, ("campaign",)),
    LayerMetric("inter_event.lane_steps_per_s", "1/s", "higher", "steps_per_s", ("campaign",), SCALAR, ("campaign",)),
    LayerMetric("inter_event.censored_frac", "ratio", "lower", "wall_s", ("campaign",), SCALAR),
    *_fn("inter_event.fit_inter_event_model", ("total_s",), "wall_s", ("campaign",), SCALAR, ("campaign",)),
    *_fn("inter_event.InterEventTimeModel.evaluate", ("calls",), "wall_s", ("compare",), ("planar",), ("compare",)),
    # engine: event loops, trajectory build, dwell bound and audits
    *_fn("engine.run_greedy_impulsive", ("self_s",), "wall_s", ("compare",), ("campaign", "planar")),
    *_fn("engine.run_maneuver", ("self_s",), "wall_s", ("compare",), ("campaign", "planar")),
    *_fn("engine.run_intermittent_filter", ("self_s",), "wall_s", ("planar",), ("compare", "campaign")),
    *_fn("engine.miet_bound", ("total_s",), "wall_s", SCALAR, ("campaign",)),
    *_fn("engine.check_nominal_safety_assumption", ("total_s",), "wall_s", ("planar",), ("compare", "campaign")),
    *_fn("engine.audit_safety", ("total_s",), "wall_s", SCALAR, ("campaign",)),
    LayerMetric("engine.events.jump.initial", "count", "lower", "wall_s", ("compare",), ("campaign", "planar")),
    LayerMetric("engine.events.jump.safety", "count", "lower", "wall_s", ("compare",), ("campaign", "planar"), ("compare",)),
    LayerMetric("engine.events.jump.timing", "count", "lower", "wall_s", ("compare",), ("campaign", "planar")),
    LayerMetric("engine.events.jump.deadline", "count", "lower", "wall_s", ("compare",), ("campaign", "planar")),
    LayerMetric("engine.events.filter_on.initial", "count", "lower", "wall_s", ("planar",), ("compare", "campaign")),
    LayerMetric("engine.events.filter_on.safety", "count", "lower", "wall_s", ("planar",), ("compare", "campaign"), ("planar",)),
    LayerMetric("engine.events.filter_off.safety", "count", "lower", "wall_s", ("planar",), ("compare", "campaign"), ("planar",)),
    # config: what every CLI call pays before its first integration step
    LayerMetric("etsafe.import_s", "s", "lower", "setup_s", ALL, ()),
    *_fn("config.parse_config", ("total_s",), "setup_s", ALL, ()),
    *_fn("config.build_scenario", ("total_s",), "setup_s", ALL, ()),
    # cli: writers and the byte-identity of the outputs
    *_fn("cli.write_trajectory_csv", ("total_s",), "wall_s, peak_rss_mb", ("compare",), ("campaign",)),
    LayerMetric("cli.write_trajectory_csv.bytes", "B", "lower", "wall_s, peak_rss_mb", ("compare",), ("campaign",), SCALAR),
    LayerMetric("cli.write_mb_per_s", "MB/s", "higher", "wall_s", ("compare",), ("campaign",), SCALAR),
    *_fn("cli.write_events_csv", ("total_s",), "wall_s", ("compare",), ("campaign",)),
    *_fn("inter_event.save_samples", ("total_s",), "wall_s", ("campaign",), SCALAR),
    LayerMetric("cli.outputs_identical", "bool", "higher", "none (byte-identity of outputs)", ALL, ()),
    # the tracing itself
    LayerMetric("trace.overhead_frac", "ratio", "lower", "none (traced vs untraced wall)", ALL, ()),
    LayerMetric("trace.uncovered_s", "s", "lower", "none (wall not covered by layer self times)", ALL, ()),
]

LAYER_NAMES = [m.name for m in LAYER_METRICS]
