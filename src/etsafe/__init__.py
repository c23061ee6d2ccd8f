"""Event-triggered safety for impulsive and intermittent control systems.

The package simulates three trigger schemes built on barrier functions:

* greedy impulsive safety (fire an impulse only when the robust barrier
  condition is about to fail),
* two-impulse safety maneuvers guided by a fitted inter-event-time model,
* an event-triggered intermittent safety filter, a closed-form halfspace
  projection of a nominal input,

demonstrated on a satellite orbit-keeping scenario (the first two) and a
planar single integrator (the filter).  See the README for the CLI and the
demos directory for narrative walkthroughs.
"""

from .barrier import (
    BandBarrier,
    BarrierSpec,
    DiskBarrier,
    barrier_condition_margin,
    filter_off_margin,
    maneuver_timing_margin,
    orbital_range_barrier,
    planar_disk_barrier,
)
from .dynamics import DisturbanceModel, apply_impulse, two_body_field
from .numerics import (
    EventLocatorConfig,
    IntegratorConfig,
    locate_zero_crossing,
    propagate_until,
    rk4_step,
)
from .orbital import (
    StationKeepingConfig,
    station_keeping_impulse,
    verify_jump_conditions,
)
from .safety_filter import (
    HalfspaceConstraint,
    InfeasibleFilterError,
    build_constraint,
    filter_active,
    project,
)
from .config import ConfigError, ScenarioConfig, parse_config
from .engine import (
    EventRecord,
    RunResult,
    RunSummary,
    Trajectory,
    audit_safety,
    miet_bound,
    run_greedy_impulsive,
    run_intermittent_filter,
    run_maneuver,
)
from .inter_event import (
    InterEventSampleSet,
    InterEventTimeModel,
    collect_inter_event_samples,
    fit_inter_event_model,
)
from .scenarios import FilterConfig, PlanarScenario, SatelliteScenario

__version__ = "0.1.0"

__all__ = [
    "BandBarrier",
    "BarrierSpec",
    "ConfigError",
    "DiskBarrier",
    "DisturbanceModel",
    "EventLocatorConfig",
    "EventRecord",
    "FilterConfig",
    "HalfspaceConstraint",
    "InfeasibleFilterError",
    "IntegratorConfig",
    "InterEventSampleSet",
    "InterEventTimeModel",
    "PlanarScenario",
    "RunResult",
    "RunSummary",
    "SatelliteScenario",
    "ScenarioConfig",
    "StationKeepingConfig",
    "Trajectory",
    "apply_impulse",
    "audit_safety",
    "barrier_condition_margin",
    "build_constraint",
    "collect_inter_event_samples",
    "filter_active",
    "filter_off_margin",
    "fit_inter_event_model",
    "locate_zero_crossing",
    "maneuver_timing_margin",
    "miet_bound",
    "orbital_range_barrier",
    "parse_config",
    "planar_disk_barrier",
    "project",
    "propagate_until",
    "rk4_step",
    "run_greedy_impulsive",
    "run_intermittent_filter",
    "run_maneuver",
    "station_keeping_impulse",
    "two_body_field",
    "verify_jump_conditions",
]
