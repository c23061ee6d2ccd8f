"""Hybrid simulation loops: greedy impulsive safety, two-impulse maneuvers,
and the event-triggered intermittent safety filter, with safety auditing.

Shared semantics
----------------
Flow segments integrate ``dx/dt = F(x) + d(t)`` with the realized disturbance
while the *monitors* evaluate disturbance-free margins; the worst-case
``|grad h| d_bar`` term inside the margins covers the gap.  Each segment ends
either at the horizon or at a located monitor crossing, where an event fires:

* greedy: every crossing of the barrier-condition margin triggers a
  station-keeping impulse; the post-jump buffer guarantees a minimum dwell
  before the margin can reach zero again (see :func:`miet_bound`).
* maneuver: impulses come in pairs, in the greedy scheme's loop.  The first
  is timed greedily and sets a gate, the expected inter-event time
  ``tau(h_after)`` later.  Before the gate only the safety margin is
  monitored.  At the gate the second impulse fires at once if the
  expected-payoff margin is already nonpositive (deadline); after it, at the
  earlier of the safety crossing and the payoff crossing (timing).
* intermittent: the safety filter toggles; while off, the nominal loop runs
  until the barrier-condition margin under the nominal controller crosses
  zero; while on, a rate-promoting filter raises h until the margin recovers
  past a hysteresis gap.

The segment that starts at a jump is not armed: its monitors skip the
post-jump state and start at the end of its first step (the post-jump
buffer makes an instant re-fire impossible in exact arithmetic; skipping
the start state removes the tolerance-level residue of it).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .barrier import (
    BandBarrier,
    BarrierSpec,
    Flow,
    barrier_condition_margin,
    barrier_condition_rows,
    filter_off_margin,
    maneuver_timing_margin,
    maneuver_timing_rows,
)
from .dynamics import _single_integrator_rk4, apply_impulse
from .inter_event import InterEventTimeModel
from .numerics import Field, SingularityError, _dot, propagate_until
from .orbital import station_keeping_impulse, verify_jump_conditions
from .safety_filter import _promoting_filter, build_constraint, project
from .scenarios import PlanarScenario, SatelliteScenario

log = logging.getLogger(__name__)


class RunAbortedError(RuntimeError):
    """A run could not continue; carries the diagnostic state and time."""

    def __init__(self, message: str, t: float, x: np.ndarray):
        super().__init__(f"{message} (t={t!r})")
        self.reason = message
        self.t = t
        self.x = np.array(x, dtype=float)

    def __reduce__(self):
        # rebuild from the constructor's arguments, not the formatted message,
        # so an abort in a worker process reaches the caller intact
        return type(self), (self.reason, self.t, self.x)


class AssumptionCheckError(ValueError):
    """Nominal-safety pre-run sampling check failed; configuration rejected."""


@dataclass(frozen=True)
class EventRecord:
    """One discrete event of a hybrid run.

    ``kind`` is jump / filter_on / filter_off; ``trigger_id`` names the fired
    condition: safety (barrier-condition margin), timing (expected-payoff
    margin), deadline (payoff margin already nonpositive when it armed), or
    initial (forced at the start state).  ``pair_role`` marks maneuver
    impulses as first/second of their pair.
    """

    time: float
    kind: str
    trigger_id: str
    state_before: np.ndarray
    state_after: np.ndarray
    h_before: float
    h_after: float
    xi_after: float
    impulse_magnitude: Optional[float] = None
    pair_role: Optional[str] = None


@dataclass
class Trajectory:
    """Dense hybrid-trajectory samples.

    ``xi_active`` holds the value of the monitor guarding each segment (the
    quantity that stays positive in segment interiors).  At jumps two samples
    share a timestamp: the pre-jump and post-jump states.
    """

    times: np.ndarray
    states: np.ndarray
    h: np.ndarray
    xi_active: np.ndarray
    filter_on: np.ndarray


@dataclass(frozen=True)
class RunSummary:
    scheme: str
    horizon: float
    seed: int
    gamma: float
    d_bar: float
    step_size: float
    time_tolerance: float
    value_tolerance: float
    jump_count: int
    filter_on_count: int
    filter_off_count: int
    event_count: int
    min_inter_event_time: Optional[float]
    mean_inter_event_time: Optional[float]
    median_inter_event_time: Optional[float]
    min_h: float
    min_xi_flow: float
    miet_lower_bound: Optional[float]
    min_post_jump_margin: Optional[float]
    aborted: bool
    horizon_truncated: bool
    assumption_check_samples: Optional[int] = None
    max_on_duration: Optional[float] = None

    @property
    def safe(self) -> bool:
        """The safety verdict: ``min_h >= -value_tolerance`` (not safe when
        ``min_h`` is NaN, as for an empty trajectory)."""
        return self.min_h >= -self.value_tolerance


@dataclass(frozen=True)
class RunResult:
    events: list[EventRecord]
    trajectory: Trajectory
    summary: RunSummary


class _TrajectoryBuilder:
    def __init__(self, b: BarrierSpec):
        self._b = b
        self.times: list[np.ndarray] = []
        self.states: list[np.ndarray] = []
        self.xi: list[np.ndarray] = []
        self.filter_on: list[np.ndarray] = []

    def add_segment(
        self, times: np.ndarray, states: np.ndarray, xi: np.ndarray, filter_state: int
    ) -> None:
        """A flow segment and its guarding monitor's values ``xi``, less a start
        row that restates the last sample (that of every unarmed segment)."""
        start = 1 if self._repeats_last(times, states, filter_state) else 0
        self.times.append(times[start:])
        self.states.append(states[start:])
        self.xi.append(xi[start:])
        self.filter_on.append(np.full(len(times) - start, filter_state, dtype=np.int8))

    def _repeats_last(self, times: np.ndarray, states: np.ndarray, filter_state: int) -> bool:
        """Segment starts restate the previous sample except across filter
        toggles, where the repeated timestamp carries the new filter flag."""
        if not self.times or len(self.times[-1]) == 0 or len(times) == 0:
            return False
        return (
            times[0] == self.times[-1][-1]
            and filter_state == int(self.filter_on[-1][-1])
            and bool(np.array_equal(states[0], self.states[-1][-1]))
        )

    def add_point(self, t: float, x: np.ndarray, xi: float, filter_state: int) -> None:
        self.times.append(np.array([t]))
        self.states.append(np.array([x]))
        self.xi.append(np.array([xi]))
        self.filter_on.append(np.array([filter_state], dtype=np.int8))

    def build(self) -> Trajectory:
        times = np.concatenate(self.times) if self.times else np.empty(0)
        states = np.vstack(self.states) if self.states else np.empty((0, 0))
        xi = np.concatenate(self.xi) if self.xi else np.empty(0)
        fon = np.concatenate(self.filter_on) if self.filter_on else np.empty(0, dtype=np.int8)
        h = self._b.h_rows(states)
        return Trajectory(times=times, states=states, h=h, xi_active=xi, filter_on=fon)


def _propagate(*args, **kwargs):
    """:func:`propagate_until`, warning when its located crossing is degraded."""
    result = propagate_until(*args, **kwargs)
    crossing = result[3]
    if crossing is not None and crossing.degraded:
        log.warning(
            "degraded crossing of monitor %d at t=%r: bisection budget ran out "
            "before either tolerance was met",
            crossing.monitor_index,
            crossing.time,
        )
    return result


# --- Greedy impulsive scheme ---


def run_greedy_impulsive(scenario: SatelliteScenario, x0: np.ndarray, horizon: float) -> RunResult:
    """On-demand impulsive safety: jump exactly when the margin reaches zero.

    Every flow segment keeps the barrier-condition margin positive in its
    interior; every jump passes the in-set and buffer checks.  The
    disturbance realization is keyed by the scenario's disturbance seed
    (stream 0), which the summary records.
    """
    events, traj = _run_impulsive(scenario, x0, horizon, tau_model=None)
    return _finalize_impulsive(scenario, "greedy", events, traj, horizon)


def run_maneuver(
    scenario: SatelliteScenario,
    tau_model: InterEventTimeModel,
    x0: np.ndarray,
    horizon: float,
) -> RunResult:
    """Two-impulse maneuvers: greedy first impulse, payoff-timed second."""
    events, traj = _run_impulsive(scenario, x0, horizon, tau_model=tau_model)
    return _finalize_impulsive(scenario, "maneuver", events, traj, horizon)


def _run_impulsive(
    scenario: SatelliteScenario,
    x0: np.ndarray,
    horizon: float,
    tau_model: Optional[InterEventTimeModel],
) -> tuple[list[EventRecord], Trajectory]:
    """The greedy and maneuver event loop; ``tau_model`` pairs the impulses.

    Each segment flows from the last event under the safety monitor.  A
    greedy run, and a maneuver run waiting for its first impulse, flows to
    the horizon.  A first impulse sets the gate ``t + tau(h_after)`` of its
    second: until the gate the segment ends there, and a payoff margin
    already nonpositive at the gate fires the second impulse at once (the
    deadline).  From the gate on, the payoff monitor runs beside the safety
    monitor, and whichever crosses first fires the second impulse (safety or
    timing).  Every impulse is recorded with its pair role, then the role
    and gate move on.
    """
    b = scenario.barrier
    g = scenario.gravity
    flow = scenario.nominal_flow()
    field = scenario.disturbed_field(stream=0)
    safety = lambda x: barrier_condition_margin(b, flow, x)
    payoff = lambda x: maneuver_timing_margin(tau_model, b, x)
    # propagate_until evaluates a block of steps at once by the row forms
    safety.rows = lambda states: barrier_condition_rows(b, states)
    payoff.rows = lambda states: maneuver_timing_rows(tau_model, b, states)

    x = np.array(x0, dtype=float)
    t = 0.0
    if b.h(x) < 0.0:
        raise RunAbortedError("initial state outside the safe set", t, x)

    events: list[EventRecord] = []
    builder = _TrajectoryBuilder(b)
    role = "first" if tau_model is not None else None
    # set while a second impulse is pending: when its payoff monitor arms
    gate_time: Optional[float] = None
    # a jump disarms the segment that starts at it
    armed = True

    def do_jump(t_e: float, x_e: np.ndarray, trigger_id: str) -> np.ndarray:
        nonlocal role, gate_time, armed
        try:
            dv = station_keeping_impulse(scenario.controller, b, g, x_e)
        except Exception as err:
            raise RunAbortedError(f"station-keeping impulse failed: {err}", t_e, x_e) from err
        x_post = apply_impulse(x_e, dv)
        check = verify_jump_conditions(b, g, x_post, scenario.controller.post_jump_margin)
        if not check.ok:
            raise RunAbortedError(
                f"post-jump conditions violated: h={check.h_value!r}, xi={check.xi_value!r}",
                t_e,
                x_e,
            )
        _record(
            events,
            EventRecord(
                time=t_e,
                kind="jump",
                trigger_id=trigger_id,
                state_before=x_e.copy(),
                state_after=x_post.copy(),
                h_before=b.h(x_e),
                h_after=check.h_value,
                xi_after=check.xi_value,
                impulse_magnitude=float(np.linalg.norm(dv)),
                pair_role=role,
            ),
        )
        builder.add_point(t_e, x_post, check.xi_value, 0)
        if role == "first":
            role, gate_time = "second", t_e + tau_model.tau(check.h_value)
        elif role == "second":
            role, gate_time = "first", None
        armed = False
        return x_post

    if safety(x) <= 0.0:
        if not scenario.allow_initial_jump:
            raise RunAbortedError("margin nonpositive at start and initial jump disabled", t, x)
        builder.add_point(t, x, safety(x), 0)
        x = do_jump(t, x, "initial")

    while t < horizon - 1e-12:
        gated = gate_time is not None and t < gate_time - 1e-12
        seg_end = min(gate_time, horizon) if gated else horizon
        monitors = [safety, payoff] if gate_time is not None and not gated else [safety]
        times, states, vals, crossing = _propagate(
            field, x, t, seg_end - t, monitors,
            scenario.integrator, scenario.events, armed=armed,
        )
        builder.add_segment(times, states, vals[:, 0], 0)
        if crossing is not None:
            t = crossing.time
            x = do_jump(t, crossing.state, "safety" if crossing.monitor_index == 0 else "timing")
            continue
        t, x = seg_end, states[-1]
        armed = True
        if gated and seg_end < horizon and payoff(x) <= 0.0:
            # the gate itself fires if the payoff margin is already nonpositive
            x = do_jump(t, x, "deadline")

    return events, builder.build()


def _finalize_impulsive(
    scenario: SatelliteScenario,
    scheme: str,
    events: list[EventRecord],
    traj: Trajectory,
    horizon: float,
) -> RunResult:
    bound = miet_bound(
        scenario.barrier,
        scenario.nominal_flow(),
        satellite_region_states(scenario),
        scenario.controller.post_jump_margin,
    )
    margins = [e.xi_after for e in events]
    summary = _summary(
        scheme, scenario, events, traj, horizon,
        gaps=np.diff([e.time for e in events]),
        miet_lower_bound=bound,
        min_post_jump_margin=float(min(margins)) if margins else None,
        horizon_truncated=False,
    )
    return RunResult(events=events, trajectory=traj, summary=summary)


def _summary(
    scheme: str,
    scenario: SatelliteScenario | PlanarScenario,
    events: Sequence[EventRecord],
    traj: Trajectory,
    horizon: float,
    gaps: np.ndarray,
    **fields,
) -> RunSummary:
    """The :class:`RunSummary` fields every scheme fills alike, audit included;
    ``gaps`` are the inter-event times and ``fields`` the scheme's own.  The
    seed is the disturbance's, the one the run used."""
    b = scenario.barrier
    min_h, min_xi = audit_safety(traj)
    kinds = [e.kind for e in events]
    return RunSummary(
        scheme=scheme,
        horizon=horizon,
        seed=scenario.disturbance.seed,
        gamma=b.gamma,
        d_bar=b.d_bar,
        step_size=scenario.integrator.step_size,
        time_tolerance=scenario.events.time_tolerance,
        value_tolerance=scenario.events.value_tolerance,
        jump_count=kinds.count("jump"),
        filter_on_count=kinds.count("filter_on"),
        filter_off_count=kinds.count("filter_off"),
        event_count=len(events),
        min_inter_event_time=float(np.min(gaps)) if len(gaps) else None,
        mean_inter_event_time=float(np.mean(gaps)) if len(gaps) else None,
        median_inter_event_time=float(np.median(gaps)) if len(gaps) else None,
        min_h=min_h,
        min_xi_flow=min_xi,
        aborted=False,
        **fields,
    )


# --- Intermittent safety filter ---


def run_intermittent_filter(scenario: PlanarScenario, x0: np.ndarray, horizon: float) -> RunResult:
    """Toggle a rate-promoting safety filter by hysteresis triggers.

    Off periods run the nominal loop and end when the barrier-condition
    margin under the nominal controller crosses zero; on periods run the
    promoting filter (dh/dt >= promote_rate despite the disturbance) and end
    once the margin recovers to the hysteresis gap.  The nominal-safety
    pre-check (margin >= gap wherever h >= recovery_level) is sampled before
    the run; failure rejects the configuration, since without it the off
    trigger has no guarantee of ever firing.
    """
    b, gap = scenario.barrier, scenario.filter.hysteresis_gap
    nominal_flow = scenario.nominal_flow()
    n_checked = check_nominal_safety_assumption(scenario)
    nominal_field, filtered_field = _planar_fields(scenario)

    # the monitors take propagate_until's states as Python floats
    on_margin = lambda x: barrier_condition_margin(b, nominal_flow, x.tolist())
    # the off trigger fires when the margin has RISEN back to the gap, so the
    # monitored (positive-inside) quantity is the negated off margin
    off_monitor = lambda x: -filter_off_margin(b, nominal_flow, x.tolist(), gap)

    x = np.array(x0, dtype=float)
    t = 0.0
    if b.h(x) < 0.0:
        raise RunAbortedError("initial state outside the safe set", t, x)

    events: list[EventRecord] = []
    builder = _TrajectoryBuilder(b)
    filter_on = on_margin(x) <= 0.0
    if filter_on:
        _record(events, _filter_event(t, x, "filter_on", "initial", b, on_margin(x)))

    while t < horizon - 1e-12:
        field, monitor = (filtered_field, off_monitor) if filter_on else (nominal_field, on_margin)
        times, states, vals, crossing = _propagate(
            field, x, t, horizon - t, [monitor], scenario.integrator, scenario.events
        )
        builder.add_segment(times, states, vals[:, 0], int(filter_on))
        if crossing is None:
            t = horizon
            break
        t, x = crossing.time, crossing.state
        kind = "filter_off" if filter_on else "filter_on"
        _record(events, _filter_event(t, x, kind, "safety", b, on_margin(x)))
        filter_on = not filter_on

    traj = builder.build()
    on_durations = _durations(events, "filter_on", "filter_off")
    bound = miet_bound(b, nominal_flow, planar_region_states(scenario), gap)
    summary = _summary(
        "intermittent", scenario, events, traj, horizon,
        gaps=_durations(events, "filter_off", "filter_on"),
        miet_lower_bound=bound,
        min_post_jump_margin=None,
        horizon_truncated=filter_on,  # horizon ended inside an on period
        assumption_check_samples=n_checked,
        max_on_duration=float(np.max(on_durations)) if len(on_durations) else None,
    )
    return RunResult(events=events, trajectory=traj, summary=summary)


def _planar_fields(scenario: PlanarScenario) -> tuple[Field, Field]:
    """The intermittent run's two flow fields, nominal loop and promoting
    filter, each with the realized disturbance of stream 0, both built from
    the scenario's one nominal input.

    Each carries its own RK4 step, ``field.rk4`` (see :mod:`etsafe.numerics`),
    which takes the nominal input and the promoting filter on named Python
    floats.  The field calls themselves build the filter's
    :func:`build_constraint` and :func:`project`: the reference path, which
    serves the in-step interpolant's ends and the replay of a non-finite step.
    """
    b = scenario.barrier
    control = scenario.nominal_input()
    rate = scenario.filter.promote_rate
    dist = scenario.disturbance.realize(stream=0)
    promote = _promoting_filter(b, rate)

    def disturbed(t: float, u0: float, u1: float) -> list[float]:
        # the single integrator's closed loop 0.0 + u, plus the disturbance
        d0, d1 = dist(t)
        return [(0.0 + u0) + d0, (0.0 + u1) + d1]

    def nominal_field(t: float, x: Sequence[float]) -> list[float]:
        return disturbed(t, *control(*x))

    def filtered_field(t: float, x: Sequence[float]) -> list[float]:
        con = build_constraint(b, x, mode="promoting", promote_rate=rate)
        return disturbed(t, *project(control(*x), con).tolist())

    def filtered_input(x0: float, x1: float) -> tuple[float, float]:
        return promote(x0, x1, *control(x0, x1))

    nominal_field.rk4 = _single_integrator_rk4(control, dist)
    filtered_field.rk4 = _single_integrator_rk4(filtered_input, dist)
    return nominal_field, filtered_field


def _filter_event(
    t: float, x: np.ndarray, kind: str, trigger_id: str, b: BarrierSpec, xi: float
) -> EventRecord:
    h = b.h(x.tolist())  # on Python floats the disk's h returns a Python float
    return EventRecord(
        time=t,
        kind=kind,
        trigger_id=trigger_id,
        state_before=np.array(x, dtype=float),
        state_after=np.array(x, dtype=float),
        h_before=h,
        h_after=h,
        xi_after=xi,
    )


def _record(events: list[EventRecord], e: EventRecord) -> None:
    """Append ``e``, logged as one DEBUG line (shown with ETSAFE_LOG_LEVEL=debug)."""
    log.debug(
        "event t=%r kind=%s trigger_id=%s h_before=%r", e.time, e.kind, e.trigger_id, e.h_before
    )
    events.append(e)


def _durations(events: Sequence[EventRecord], start: str, stop: str) -> np.ndarray:
    """Durations from each ``start``-kind event to the next ``stop``-kind event."""
    durations = []
    t_start: Optional[float] = None
    for e in events:
        if e.kind == start:
            t_start = e.time
        elif e.kind == stop and t_start is not None:
            durations.append(e.time - t_start)
            t_start = None
    return np.array(durations)


_GRID_SIDE = 60  # radii and angles of the nominal-safety check's polar grid
_RANDOM_STATES = 2000  # drawn from default_rng(0) by each sampled check


def check_nominal_safety_assumption(scenario: PlanarScenario) -> int:
    """Sampled verification that the nominal loop is safe above the recovery level.

    Checks ``barrier_condition_margin >= hysteresis_gap`` on the disk out to
    the recovery radius: a polar grid of 60 radii by 60 angles, then 2,000
    random points from ``default_rng(0)``, each skipped where
    ``h < recovery_level``.  Raises AssumptionCheckError at the first
    violation; returns the number of points checked.
    """
    b = scenario.barrier
    nominal_flow = scenario.nominal_flow()
    gap, level = scenario.filter.hysteresis_gap, scenario.filter.recovery_level

    checked = 0
    for x in _assumption_check_states(_recovery_radius(b, level)).tolist():
        if b.h(x) < level:
            continue
        checked += 1
        margin = barrier_condition_margin(b, nominal_flow, x)
        if not margin >= gap:  # a NaN margin fails too
            raise AssumptionCheckError(
                "nominal loop violates the safety margin above the recovery level: "
                f"margin {margin!r} is not >= gap {gap!r} at x={x!r}; "
                "increase the class-K gain or lower the recovery level"
            )
    return checked


def _assumption_check_states(s_max: float) -> np.ndarray:
    """The points of :func:`check_nominal_safety_assumption`, in check order:
    the polar grid radius by radius, then the random points, each drawn as
    an angle then a radius fraction, in turn, from ``default_rng(0)``."""
    radii = np.linspace(0.0, s_max, _GRID_SIDE)[:, None]
    angles = np.linspace(0.0, 2.0 * np.pi, _GRID_SIDE, endpoint=False)
    grid = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=2)
    # uniform(0, high) is 0.0 + high * U; the added zero leaves U >= 0 as it is
    draws = np.random.default_rng(0).uniform(size=(_RANDOM_STATES, 2))
    ang = (2.0 * np.pi) * draws[:, 0]
    s = s_max * np.sqrt(draws[:, 1])
    drawn = np.stack([s * np.cos(ang), s * np.sin(ang)], axis=1)
    return np.concatenate([grid.reshape(-1, 2), drawn])


def _recovery_radius(b: BarrierSpec, level: float) -> float:
    """Outer radius where the radial barrier falls to ``level`` (else its center)."""
    return b.center + math.sqrt(max(b.half_width ** 2 - level, 0.0))


# --- Bounds and audits ---


def miet_bound_formula(margin: float, l_xi: float, b_sup: float, d_bar: float) -> float:
    """Closed-form dwell-time bound ``margin / (l_xi * (b_sup + d_bar))``.

    After an event the monitored margin is at least ``margin``; it cannot
    decay to zero faster than its Lipschitz constant times the state speed,
    so consecutive events are at least this far apart.  A zero denominator
    means the margin cannot decay at all: the bound is infinite.
    """
    if not margin > 0.0:
        raise ValueError("margin must be > 0")
    denom = l_xi * (b_sup + d_bar)
    if denom == 0.0:
        return float("inf")
    return margin / denom


_MIET_INFLATION = 1.1  # of miet_bound's sampled constants
_MIET_EPS = 1e-6  # central-difference step of miet_bound's margin gradient


def miet_bound(b: BarrierSpec, flow: Flow, states: np.ndarray, margin: float) -> float:
    """Minimum inter-event time implied by the post-event margin.

    Estimates the flow-speed bound and the margin's Lipschitz constant over
    ``states``, samples of the operating region (:func:`satellite_region_states`,
    :func:`planar_region_states`), with central differences of step 1e-6 for
    the gradient; inflates both by 10% against sampling optimism, and plugs
    them into :func:`miet_bound_formula`.
    """
    xi = lambda x: barrier_condition_margin(b, flow, x)
    differences = _margin_differences(b, states)
    b_sup = 0.0
    l_xi = 0.0
    for k, x in enumerate(states.tolist()):
        velocity = flow(x)
        speed = math.sqrt(_dot(velocity, velocity))
        if not math.isfinite(speed):
            raise ValueError(f"non-finite flow sample at x={x!r}")
        b_sup = max(b_sup, speed)
        grad_sq = 0.0
        for i in range(len(x)):
            if differences is not None:
                di = differences[k][i]
            else:
                xp = list(x)
                xm = list(x)
                xp[i] += _MIET_EPS
                xm[i] -= _MIET_EPS
                di = (xi(xp) - xi(xm)) / (2.0 * _MIET_EPS)
            if not math.isfinite(di):
                raise ValueError(f"non-finite margin gradient at x={x!r}")
            grad_sq += di * di
        l_xi = max(l_xi, math.sqrt(grad_sq))
    return miet_bound_formula(margin, _MIET_INFLATION * l_xi, _MIET_INFLATION * b_sup, b.d_bar)


def _margin_differences(b: BarrierSpec, states: np.ndarray) -> Optional[list[list[float]]]:
    """:func:`miet_bound`'s central differences of the margin, state by
    coordinate, from the row form over all ``2 n d`` shifted states in one
    call; None for the disk, which has no row form, or when a shifted state
    is below the singularity floor, and the scalar margin then raises there."""
    if not isinstance(b, BandBarrier):
        return None
    n, d = states.shape
    diag = np.arange(d)
    shifted = np.repeat(np.repeat(states[None, :, None, :], 2, axis=0), d, axis=2)
    shifted[0, :, diag, diag] += _MIET_EPS
    shifted[1, :, diag, diag] -= _MIET_EPS
    try:
        xi = barrier_condition_rows(b, shifted.reshape(-1, d)).reshape(2, n, d)
    except SingularityError:
        return None
    return ((xi[0] - xi[1]) / (2.0 * _MIET_EPS)).tolist()


def satellite_region_states(scenario: SatelliteScenario) -> np.ndarray:
    """2,000 states from ``default_rng(0)`` covering the safe band with
    sub-escape speeds."""
    b = scenario.barrier
    n = _RANDOM_STATES
    rng = np.random.default_rng(0)
    radii = rng.uniform(b.center - b.half_width, b.center + b.half_width, n)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vdirs = rng.normal(size=(n, 3))
    vdirs /= np.linalg.norm(vdirs, axis=1, keepdims=True)
    speeds = rng.uniform(0.0, 0.99, n) * np.sqrt(2.0 * scenario.gravity.mu / radii)
    return np.hstack([radii[:, None] * dirs, speeds[:, None] * vdirs])


def planar_region_states(scenario: PlanarScenario) -> np.ndarray:
    """2,000 states from ``default_rng(0)`` covering the planar safe disk."""
    b = scenario.barrier
    rho = b.half_width  # the disk's outer edge
    rng = np.random.default_rng(0)
    ang = rng.uniform(0.0, 2.0 * np.pi, _RANDOM_STATES)
    s = rho * np.sqrt(rng.uniform(size=_RANDOM_STATES))
    return np.stack([s * np.cos(ang), s * np.sin(ang)], axis=1)


def audit_safety(traj: Trajectory) -> tuple[float, float]:
    """Scan dense samples: (min h, min active-monitor value), NaN where there
    is nothing to scan; :attr:`RunSummary.safe` is the verdict on min h."""
    if len(traj.times) == 0:
        return float("nan"), float("nan")
    min_h = float(np.min(traj.h))
    finite = traj.xi_active[np.isfinite(traj.xi_active)]
    min_xi = float(np.min(finite)) if len(finite) else float("nan")
    return min_h, min_xi
