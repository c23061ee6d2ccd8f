"""Expected inter-event time as a function of barrier value.

The maneuver scheme needs to know, before firing, how long the next quiet
period is expected to last.  Rather than learning that over the full state
space, the barrier value h serves as a one-dimensional proxy: states are
sampled at fixed orbital radii (fixed h), pushed through the station-keeping
impulse, and propagated until the safety trigger fires again; the elapsed
times per h level are summarized by their median and the piecewise-linear
curve through the level medians is the model.  The model and its derivative
feed :func:`etsafe.barrier.maneuver_timing_margin`.

Sample collection is embarrassingly parallel and fully deterministic: sample
(j, i) of the campaign is keyed by (seed, radius index j, sample index i),
and every sample is propagated under its own disturbance stream.

Propagation runs in two kernels.  While the batch is wide, all live lanes
step together as one component-major, C-contiguous ``(6, n_live)`` numpy
array (each state component a contiguous row), compacted when lanes fire.
A numpy step costs about the same at any width, so once at most
``_TAIL_WIDTH`` lanes are live, each remaining lane is finished on its own
on Python floats (:func:`_finish_lane`), by the two-body step that the
scalar engine's satellite field takes too.

Both kernels give every lane the same bits.  Each operation keeps its IEEE
operands and their association: the RK4 stages of :func:`_lane_field`, the
radius of :func:`_norm3`, the margin of :func:`margin_batch`, and the
row-major ``(n, 6)`` formulation the batch replaced (``np.linalg.norm`` and
``np.einsum`` over rows).  Both kernels take a lane's disturbance from
:mod:`etsafe.dynamics`: the batch from its ``_LaneDisturbance``, the tail
from :meth:`~etsafe.dynamics.DisturbanceModel.realize`, each bit for bit
:meth:`~etsafe.dynamics.DisturbanceModel.sample`.  It depends only on
(seed, stream, interval), never on which lanes are live or on which kernel
steps it.

So the lanes can also be split across processes (:func:`_propagate_sharded`):
one interleaved shard per usable CPU, at most ``_MAX_SHARDS`` (2), each
through both kernels, shard 0 in the calling process and the other in a
forked worker.  A numpy batch step costs ≈43 µs at 21 lanes and ≈110 µs at
605 on a 2-vCPU host, so width buys little and a second process is what
cuts the wall time.  The times are the same for any shard count; which
failing lane is named need not be.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .atomic_io import atomic_write
from .barrier import BarrierSpec, barrier_condition_margin
from .dynamics import (
    _LaneDisturbance,
    _hash_uniforms,
    _hash_unit_vectors,
    _two_body_rk4,
    apply_impulse,
    two_body_field,
)
from .numerics import (
    IntegrationFailureError,
    _step_interpolant,
    locate_zero_crossing,
    span_problems,
)
from .orbital import ControllerInfeasibleError, station_keeping_impulse
from .scenarios import SatelliteScenario
from .workers import started_workers

log = logging.getLogger(__name__)

# the campaign's default wait cap; the CLI and the config read it
DEFAULT_MAX_WAIT = 6000.0

# the model file's basis and statistic, each with its one value
_BASIS = "piecewise-linear"
_STATISTIC = "median"

# Hash-key tags for sample geometry; far above any disturbance interval index.
_PLANE_TAG = np.uint64(1) << np.uint64(40)
_ANGLE_TAG = np.uint64(2) << np.uint64(40)

_LEVEL_DECIMALS = 9  # h values are pooled after rounding to this many digits


class FitError(ValueError):
    """The samples give too few h levels to fit a model."""


class LaneFailureError(IntegrationFailureError):
    """A campaign lane's barrier margin went non-finite; ``t`` and ``x`` are
    the start of the step that made it so, ``stream`` names the lane."""

    def __init__(self, t: float, x, stream: int):
        super().__init__(t, x, f"non-finite barrier margin in campaign stream {stream}")
        self.stream = stream

    def __reduce__(self):
        return type(self), (self.t, self.x, self.stream)


@dataclass(frozen=True)
class TauEval:
    """Model evaluation: value, derivative, and an extrapolation flag.

    Outside the fitted range both value and derivative are clamped to their
    boundary values, which is conservative: extrapolation can never invent a
    sign change of the derivative.
    """

    value: float
    derivative: float
    extrapolated: bool


@dataclass(frozen=True)
class InterEventTimeModel:
    """Fitted map from barrier value to median inter-event time: the
    piecewise-linear interpolant of ``coefficients`` at ``knots``, on the
    fitted range ``[h_min, h_max]``."""

    knots: np.ndarray
    coefficients: np.ndarray
    h_min: float
    h_max: float

    def __post_init__(self) -> None:
        n = len(self.knots) if np.ndim(self.knots) == 1 else 0
        if n == 0 or not np.all(np.diff(self.knots) > 0.0):
            raise ValueError("knots must be a non-empty, strictly increasing list")
        if not np.all(np.isfinite(self.knots)):
            raise ValueError("knots must be finite")
        if np.shape(self.coefficients) != (n,):
            raise ValueError(f"a piecewise-linear model needs one coefficient per knot ({n})")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("coefficients must be finite")
        lo, hi = self.h_min, self.h_max
        # an inverted range would clamp every h to one end and flag it extrapolated
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"h_min <= h_max must be finite, got {lo!r} and {hi!r}")

    def evaluate(self, h: float) -> TauEval:
        extrapolated = h < self.h_min or h > self.h_max
        hc = min(max(float(h), self.h_min), self.h_max)
        value = float(np.interp(hc, self.knots, self.coefficients))
        derivative = float(self.slopes(np.array([hc]))[0])
        return TauEval(value=value, derivative=derivative, extrapolated=extrapolated)

    def tau(self, h: float) -> float:
        return self.evaluate(h).value

    def slopes(self, h: np.ndarray) -> np.ndarray:
        """The model's slope at each value of ``h``, ``evaluate``'s
        derivative: that of the segment holding the value clamped to the
        fitted range (the first or last segment beyond the knots; 0.0 for a
        single knot)."""
        if len(self.knots) < 2:
            return np.zeros(len(h))
        knots = np.asarray(self.knots, dtype=float)
        coef = np.asarray(self.coefficients, dtype=float)
        hc = np.minimum(np.maximum(h, self.h_min), self.h_max)
        seg = np.clip(np.searchsorted(knots, hc, side="right") - 1, 0, len(knots) - 2)
        return ((coef[1:] - coef[:-1]) / (knots[1:] - knots[:-1]))[seg]


@dataclass(frozen=True)
class InterEventSampleSet:
    """Raw campaign records plus the keys needed to reproduce them.

    One record per (radius, sample index).  Censored records (controller
    infeasible, or no trigger within the wait cap) keep their row with
    ``censored = True`` and are dropped from fitting.
    """

    radius: np.ndarray
    h: np.ndarray
    inter_event_time: np.ndarray
    censored: np.ndarray
    seed: int
    n_per_radius: int
    max_wait: float

    def __post_init__(self) -> None:
        n = len(self.radius)
        if not (len(self.h) == len(self.inter_event_time) == len(self.censored) == n):
            raise ValueError("record columns must have equal length")
        accepted = self.inter_event_time[~self.censored]
        if len(accepted) and not np.all(accepted > 0.0):
            raise ValueError("accepted inter-event times must be > 0")

    @property
    def censored_count(self) -> int:
        return int(np.sum(self.censored))

    def accepted(self) -> tuple[np.ndarray, np.ndarray]:
        """(h, inter_event_time) of the non-censored records."""
        keep = ~self.censored
        return self.h[keep], self.inter_event_time[keep]

    def level_statistics(self) -> tuple[np.ndarray, np.ndarray]:
        """The h levels of the accepted records, sorted, and the median
        inter-event time at each.

        Radii symmetric about the band center share an h value and pool into
        one level (after rounding to 9 decimals).
        """
        h, t = self.accepted()
        keys = np.round(h, _LEVEL_DECIMALS)
        levels = np.unique(keys)
        stats = np.array([np.median(t[keys == lv]) for lv in levels])
        return levels, stats


# --- Campaign collection (vectorized batch propagation) ---


def campaign_problems(
    b: Optional[BarrierSpec],
    radius_grid: Optional[np.ndarray],
    n_per_radius: Optional[int],
    max_wait: Optional[float],
) -> list[str]:
    """The campaign's rules, one message per broken one, each naming its
    parameter: at least one radius, every radius strictly inside the band of
    ``b``, ``n_per_radius >= 1`` and ``max_wait`` a time span (see
    :func:`~etsafe.numerics.span_problems`).  A value of None goes unchecked,
    and so do the radii when ``b`` is None."""
    problems = []
    if b is not None and radius_grid is not None:
        inner, outer = b.center - b.half_width, b.center + b.half_width
        if len(radius_grid) == 0:
            problems.append("radius_grid is empty")
        elif not np.all((radius_grid > inner) & (radius_grid < outer)):
            problems.append(f"radius_grid must lie strictly inside ({inner}, {outer})")
    if n_per_radius is not None and n_per_radius < 1:
        problems.append("n_per_radius must be >= 1")
    return problems + span_problems("max_wait", max_wait)


def collect_inter_event_samples(
    scenario: SatelliteScenario,
    radius_grid: np.ndarray,
    n_per_radius: int,
    seed: int,
    max_wait: float = DEFAULT_MAX_WAIT,
) -> InterEventSampleSet:
    """Sample inter-event times of the station-keeping loop at fixed radii.

    For each radius, ``n_per_radius`` craft are placed at hash-derived random
    orbital planes and phase angles with circular tangential speed, kicked
    once by the station-keeping impulse, and propagated under per-sample
    disturbance streams until the barrier-condition margin crosses zero.  The
    elapsed time is recorded against h(radius).  Craft still quiet at
    ``max_wait`` are censored, as are (rare) controller-infeasible starts.
    Raises ValueError listing what breaks :func:`campaign_problems`.

    Where more than one CPU is usable, the calling process forks a worker
    for the second shard of the lanes (:func:`_propagate_sharded`), whoever
    the caller is; the times do not depend on it.
    """
    g = scenario.gravity
    radius_grid = np.asarray(radius_grid, dtype=float)
    problems = campaign_problems(scenario.barrier, radius_grid, n_per_radius, max_wait)
    if problems:
        raise ValueError("; ".join(problems))

    n_total = len(radius_grid) * n_per_radius
    streams = np.arange(1, n_total + 1, dtype=np.uint64)  # stream 0 is the main run
    radii = np.repeat(radius_grid, n_per_radius)

    states = _initial_states(g.mu, radii, seed, streams)

    censored = np.zeros(n_total, dtype=bool)
    times = np.full(n_total, np.nan)
    for i in range(n_total):
        try:
            dv = station_keeping_impulse(scenario.controller, scenario.barrier, g, states[i])
        except ControllerInfeasibleError:
            censored[i] = True
            times[i] = 0.0
            continue
        states[i] = apply_impulse(states[i], dv)

    live = ~censored
    fired_times = _propagate_sharded(scenario, states[live], streams[live], max_wait)
    times[live] = fired_times
    capped = live.copy()
    capped[live] = ~np.isfinite(fired_times)
    times[capped] = max_wait
    censored |= capped

    h_col = np.array([scenario.barrier.h(np.array([r, 0, 0, 0, 0, 0])) for r in radii])
    return InterEventSampleSet(
        radius=radii,
        h=h_col,
        inter_event_time=times,
        censored=censored,
        seed=seed,
        n_per_radius=n_per_radius,
        max_wait=max_wait,
    )


def _initial_states(mu: float, radii: np.ndarray, seed: int, streams: np.ndarray) -> np.ndarray:
    """Random-plane, random-phase circular states at the given radii."""
    n = len(radii)
    normals = _hash_unit_vectors(seed, streams, np.full(n, _PLANE_TAG, dtype=np.uint64), 3)
    angles = 2.0 * np.pi * _hash_uniforms(
        seed, streams, np.full(n, _ANGLE_TAG, dtype=np.uint64), 1
    )[:, 0]

    # in-plane basis: e1 perpendicular to the normal, e2 completes the triad
    ref = np.where(
        (np.abs(normals[:, 2]) < 0.9)[:, None],
        np.tile(np.array([0.0, 0.0, 1.0]), (n, 1)),
        np.tile(np.array([1.0, 0.0, 0.0]), (n, 1)),
    )
    e1 = np.cross(normals, ref)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(normals, e1)

    r_hat = np.cos(angles)[:, None] * e1 + np.sin(angles)[:, None] * e2
    t_hat = np.cross(normals, r_hat)
    v_circ = np.sqrt(mu / radii)

    states = np.empty((n, 6))
    states[:, :3] = radii[:, None] * r_hat
    states[:, 3:] = v_circ[:, None] * t_hat
    return states


def _norm3(p: np.ndarray) -> np.ndarray:
    """Column norms of a ``(3, n)`` array, ``sqrt((x0*x0 + x1*x1) + x2*x2)``.

    Bit-identical to ``np.linalg.norm(p.T, axis=1)``: the same ``add.reduce``
    of the squares, without the wrapper's overhead.
    """
    return np.sqrt(np.add.reduce(p * p, axis=0))


def margin_batch(states: np.ndarray, b: BarrierSpec, r: np.ndarray) -> np.ndarray:
    """Vectorized barrier-condition margin for the orbital range barrier ``b``.

    ``states`` is ``(n, 6)`` and ``r`` its :func:`_norm3` radii; the campaign
    passes the ``.T`` view of its component-major ``(6, n)`` array, so every
    component read here is one contiguous row.  Must agree with
    :func:`etsafe.barrier.barrier_condition_margin` evaluated per state
    (covered by tests); reads the band and the linear class-K gain from ``b``.

    On either layout the result is bit-identical to the row-major formula
    ``r = np.linalg.norm(pos, axis=1)``,
    ``rdot = np.einsum("ij,ij->i", pos, vel) / r`` on a C-contiguous
    ``(n, 6)`` array: the norm as in :func:`_norm3`, and the dot product with
    the association numpy 2.4.6's einsum uses there for three terms,
    ``(x0*v0 + x2*v2) + x1*v1`` (pinned bitwise by tests; einsum itself
    associates differently on strided views).
    """
    c = states.T
    pv = c[:3] * c[3:]
    rdot = ((pv[0] + pv[2]) + pv[1]) / r
    delta = r - b.center
    h = b.half_width ** 2 - delta * delta
    # |-2 delta| is exactly 2 |delta|: scaling by a power of two is exact
    neg2_delta = -2.0 * delta
    return neg2_delta * rdot - np.abs(neg2_delta) * b.d_bar + b.gamma * h


def _lane_field(x: np.ndarray, mu: float, accel, r: np.ndarray | None = None) -> np.ndarray:
    """Two-body derivative of component-major lanes ``x`` (6, n) plus ``accel``.

    ``r`` is the lanes' radii, if the caller has them.  Same IEEE operations
    per lane as the row-major ``(-mu / (r * r * r)) * pos`` then ``+= accel``.
    """
    pos = x[:3]
    if r is None:
        r = _norm3(pos)
    a = (-mu / (r * r * r)) * pos
    a += accel
    return np.concatenate((x[3:], a))


# Live width at or below which the batch hands its lanes to _finish_lane.  On
# a 2-vCPU host a numpy batch step costs ≈100 µs at any width up to 32 and a
# float lane step ≈4.8 µs.  Over the 605-lane campaign at seed 3, widths 8,
# 16, 20, 24 and 32 took 11.0, 11.4, 10.4, 11.2 and 11.8 s (medians of 3
# alternating runs; the runs of one width spread by up to 2 s).
_TAIL_WIDTH = 20


def _propagate_batch_until_trigger(
    scenario: SatelliteScenario,
    states0: np.ndarray,
    streams: np.ndarray,
    max_wait: float,
) -> np.ndarray:
    """First margin zero-crossing time per sample; NaN where max_wait passed.

    While more than ``_TAIL_WIDTH`` lanes are live, they step together,
    component-major, as one C-contiguous ``(6, n_live)`` array that is
    compacted when lanes fire.  Once the live width is at most
    ``_TAIL_WIDTH``, each remaining lane is finished alone by
    :func:`_finish_lane` on Python floats, which repeats the batch's
    operations bit for bit, so the times do not depend on the switch.
    Raises LaneFailureError when a lane's margin goes non-finite.
    """
    b = scenario.barrier
    dt = scenario.integrator.step_size
    if b.margin_terms is None:
        raise ValueError("batch campaign requires the orbital barrier")
    mu = scenario.gravity.mu

    n = len(states0)
    out = np.full(n, np.nan)
    x = np.ascontiguousarray(np.asarray(states0, dtype=float).T)
    lanes = np.arange(n)
    streams = np.asarray(streams, dtype=np.uint64)
    # each step's radii serve its margin and the next step's first stage
    r = _norm3(x[:3])
    margins = margin_batch(x.T, b, r)
    _require_finite_margins(margins, 0.0, x, streams, lanes)
    n_steps = int(np.ceil(max_wait / dt))

    accel_at = _LaneDisturbance(scenario.disturbance, streams)

    k = 0
    while k < n_steps and len(lanes) > _TAIL_WIDTH:
        t0 = k * dt
        k += 1
        k1 = _lane_field(x, mu, accel_at(t0), r)
        # stages 2 and 3 share a time and so one disturbance lookup; it is a
        # view of the lane table, dropped before stage 4 may refill the table
        d_half = accel_at(t0 + 0.5 * dt)
        x2 = x + 0.5 * dt * k1
        k2 = _lane_field(x2, mu, d_half)
        x3 = x + 0.5 * dt * k2
        k3 = _lane_field(x3, mu, d_half)
        del d_half
        x4 = x + dt * k3
        k4 = _lane_field(x4, mu, accel_at(t0 + dt))
        new_x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        new_r = _norm3(new_x[:3])
        new_margins = margin_batch(new_x.T, b, new_r)
        _require_finite_margins(new_margins, t0, x, streams, lanes)

        fired = (margins > 0.0) & (new_margins <= 0.0)
        if np.count_nonzero(fired):
            for j in np.flatnonzero(fired):
                out[lanes[j]] = _refine_sample_crossing(
                    scenario, x[:, j].copy(), new_x[:, j].copy(), t0, dt, int(streams[lanes[j]])
                )
            keep = ~fired
            lanes = lanes[keep]
            x = new_x.compress(keep, axis=1)
            r = new_r[keep]
            margins = new_margins[keep]
            accel_at.keep(keep)
        else:
            x = new_x
            r = new_r
            margins = new_margins

    for j, lane in enumerate(lanes.tolist()):
        out[lane] = _finish_lane(
            scenario, x[:, j].tolist(), float(margins[j]), int(streams[lane]), k, n_steps
        )
    return out


# Two shards is the only count whose wall time has been measured (a 2-vCPU
# host).  Sharding adds work: each shard pays the batch's per-iteration
# floor until its own live width reaches the tail, so two shards do ≈1.47x
# the CPU work of one process, and more shards move still more of it into
# the float tail.  Raise this only on alternating-pair benchmark runs on a
# host with 3 or more usable CPUs that show a gain.
_MAX_SHARDS = 2


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, which ignores a
    cgroup CPU quota (a container limited to 2 CPUs may list many)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _shard_count(n_lanes: int) -> int:
    """Shards for ``n_lanes`` live lanes: one per usable CPU, but no more
    than ``_MAX_SHARDS``, no more than leave every shard more than
    ``_TAIL_WIDTH`` lanes (a shard that would start in the tail gains
    nothing from a process of its own), and one where no process can be
    forked."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_MAX_SHARDS, _usable_cpus(), n_lanes // (_TAIL_WIDTH + 1)))


def _propagate_sharded(
    scenario: SatelliteScenario,
    states0: np.ndarray,
    streams: np.ndarray,
    max_wait: float,
) -> np.ndarray:
    """:func:`_propagate_batch_until_trigger` over :func:`_shard_count`
    interleaved shards of the lanes, lane i in shard i mod k, each in its own
    process: shard 0 here, the others in workers forked from this process
    (the scenario holds closures and does not pickle; a forked worker
    inherits it).  A lane's time depends only on the lane, so the result is
    the same for any k.

    Every shard is waited for.  If lanes failed, the LaneFailureError with
    the earliest step-start time is raised, the lowest stream among equal
    times; a shard stops at its first failure, and its tail finishes lanes
    one after another, so when several lanes fail, which one is named can
    depend on k.  A worker that exits without a reply raises
    ChildProcessError with its exit code.
    """
    k = _shard_count(len(states0))
    if k == 1:
        return _propagate_batch_until_trigger(scenario, states0, streams, max_wait)
    calls = [
        (f"campaign worker {i}", _propagate_batch_until_trigger,
         (scenario, states0[i::k], streams[i::k], max_wait))
        for i in range(1, k)
    ]
    with started_workers(calls, "its shard", start_method="fork") as workers:
        try:
            own = (True, _propagate_batch_until_trigger(scenario, states0[::k], streams[::k], max_wait))
        except LaneFailureError as err:
            own = (False, err)
        replies = [own] + [w.reply() for w in workers]
    failures = [value for ok, value in replies if not ok]
    for err in failures:
        if not isinstance(err, LaneFailureError):
            raise err
    if failures:
        raise min(failures, key=lambda err: (err.t, err.stream))
    out = np.empty(len(states0))
    for i, (_, taus) in enumerate(replies):
        out[i::k] = taus
    return out


def _finish_lane(
    scenario: SatelliteScenario,
    x: list[float],
    m: float,
    stream: int,
    first_step: int,
    n_steps: int,
) -> float:
    """Crossing time of one lane stepped alone on Python floats; NaN if it is
    still quiet after step ``n_steps``.

    The lane enters at step ``first_step`` with state ``x`` and margin ``m``.
    Each step is :func:`etsafe.dynamics._two_body_rk4` with no singularity
    floor, as the batch has none, then the margin of :func:`_lane_margin`:
    the batch step's IEEE operations in its association.  A non-finite
    margin, or a division by a zero radius (which gives one in the batch),
    raises LaneFailureError with the step-start time and state and the
    lane's stream.
    """
    margin = _lane_margin(scenario.barrier)
    dt = scenario.integrator.step_size
    step = _two_body_rk4(scenario.gravity.mu, 0.0, scenario.disturbance.realize(stream))
    for k in range(first_step, n_steps):
        t0 = k * dt
        try:
            new = step(t0, dt, x)
            nm = margin(new)
        except ZeroDivisionError:
            nm = math.nan
        if not math.isfinite(nm):
            raise LaneFailureError(t0, x, stream)
        if m > 0.0 and nm <= 0.0:
            return _refine_sample_crossing(scenario, np.array(x), np.array(new), t0, dt, stream)
        x, m = new, nm
    return math.nan


def _lane_margin(b: BarrierSpec):
    """``margin(x)``: :func:`margin_batch` of one lane's six floats with its
    :func:`_norm3` radius, on Python floats, bit for bit; reads the band and
    the gain from ``b`` once."""
    c, hw2, d_bar, gamma = b.center, b.half_width ** 2, b.d_bar, b.gamma
    sqrt = math.sqrt

    def margin(x) -> float:
        x0, x1, x2, v0, v1, v2 = x
        r = sqrt((x0 * x0 + x1 * x1) + x2 * x2)
        rdot = ((x0 * v0 + x2 * v2) + x1 * v1) / r
        delta = r - c
        neg2_delta = -2.0 * delta
        return neg2_delta * rdot - abs(neg2_delta) * d_bar + gamma * (hw2 - delta * delta)

    return margin


def _require_finite_margins(
    margins: np.ndarray, t: float, x: np.ndarray, streams: np.ndarray, lanes: np.ndarray
) -> None:
    """Raise LaneFailureError for the first live lane whose margin is
    non-finite, with the time and state at the start of its step; such a
    lane would otherwise never fire and be censored at max_wait."""
    # one cheap test per step: the dot product is non-finite when any margin
    # is, and (only for margins beyond ~1e154) when it overflows
    if math.isfinite(margins.dot(margins)):
        return
    bad = np.flatnonzero(~np.isfinite(margins))
    if len(bad):
        j = int(bad[0])
        raise LaneFailureError(t, x[:, j], int(streams[lanes[j]]))


def _refine_sample_crossing(
    scenario: SatelliteScenario,
    x0: np.ndarray,
    x1: np.ndarray,
    t0: float,
    dt: float,
    stream: int,
) -> float:
    """Scalar in-step refinement matching the engine's event semantics.

    The derivative at each end of the step is ``two_body_field`` with the
    lane's disturbance there; at the start it is bitwise the first RK4 stage
    of the batch and of the tail.  A degraded crossing is logged as a
    WARNING, as the engine logs its own.
    """
    g = scenario.gravity
    b = scenario.barrier
    dist = scenario.disturbance
    flow = scenario.nominal_flow()
    monitor = lambda x: barrier_condition_margin(b, flow, x)

    field = lambda t, x: two_body_field(g, x, accel=dist.sample(t, stream))
    interp = _step_interpolant(field, t0, x0, t0 + dt, x1)
    if monitor(x0) <= 0.0:  # margin grazed zero within tolerance at step start
        return t0
    res = locate_zero_crossing(lambda t: monitor(interp(t)), t0, t0 + dt, scenario.events)
    if res.degraded:
        log.warning(
            "degraded crossing of campaign stream %d at t=%r: bisection budget ran out "
            "before either tolerance was met",
            stream,
            res.time,
        )
    return res.time


# --- Fitting ---


def fit_inter_event_model(samples: InterEventSampleSet) -> InterEventTimeModel:
    """The model through the per-level medians, with a knot at each level.

    It interpolates the level medians exactly, so the curve is monotone
    wherever they are.  Raises FitError for fewer than two levels.
    """
    levels, stats = samples.level_statistics()
    if len(levels) < 2:
        raise FitError(f"need >= 2 distinct h levels, got {len(levels)}")
    return InterEventTimeModel(
        knots=levels, coefficients=stats, h_min=float(levels[0]), h_max=float(levels[-1])
    )


# --- Serialization (documented plain-text formats) ---


def save_samples(samples: InterEventSampleSet, path: str) -> None:
    """CSV columns: radius, h, inter_event_time, censored (0/1).

    Campaign keys ride along as '#'-prefixed header comments.  Written
    atomically (temp file + rename).
    """
    lines = [
        "# etsafe inter-event samples",
        f"# seed={samples.seed} n_per_radius={samples.n_per_radius} max_wait={samples.max_wait!r}",
        "radius,h,inter_event_time,censored",
    ]
    for r, h, t, c in zip(
        samples.radius, samples.h, samples.inter_event_time, samples.censored
    ):
        lines.append(f"{float(r)!r},{float(h)!r},{float(t)!r},{int(c)}")
    atomic_write(path, ["\n".join(lines) + "\n"])


def load_samples(path: str) -> InterEventSampleSet:
    seed, n_per_radius, max_wait = 0, 0, float("nan")
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if token.startswith("seed="):
                        seed = int(token[5:])
                    elif token.startswith("n_per_radius="):
                        n_per_radius = int(token[13:])
                    elif token.startswith("max_wait="):
                        max_wait = float(token[9:])
                continue
            if line.startswith("radius,"):
                continue
            r, h, t, c = line.split(",")
            rows.append((float(r), float(h), float(t), bool(int(c))))
    if not rows:
        raise ValueError(f"no sample rows in {path}")
    arr = np.array(rows, dtype=float)
    return InterEventSampleSet(
        radius=arr[:, 0],
        h=arr[:, 1],
        inter_event_time=arr[:, 2],
        censored=arr[:, 3].astype(bool),
        seed=seed,
        n_per_radius=n_per_radius,
        max_wait=max_wait,
    )


def save_model(model: InterEventTimeModel, path: str) -> None:
    """JSON document: knots, coefficients and fitted range, beside the format
    constants ``basis`` ("piecewise-linear"), ``residual`` (0.0, as the model
    interpolates its levels) and ``statistic`` ("median")."""
    doc = {
        "basis": _BASIS,
        "knots": [float(k) for k in model.knots],
        "coefficients": [float(c) for c in model.coefficients],
        "h_min": model.h_min,
        "h_max": model.h_max,
        "residual": 0.0,
        "statistic": _STATISTIC,
    }
    atomic_write(path, [json.dumps(doc, indent=2) + "\n"])


def load_model(path: str) -> InterEventTimeModel:
    """The model :func:`save_model` wrote; a ValueError naming the problem
    when it is not a JSON object, lacks a key, names another basis or
    statistic (a missing ``statistic`` reads as "median") or breaks a model
    rule."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"tau model {path} is not a JSON object")
    try:
        basis = doc["basis"]
        model = dict(
            knots=np.array(doc["knots"], dtype=float),
            coefficients=np.array(doc["coefficients"], dtype=float),
            h_min=float(doc["h_min"]),
            h_max=float(doc["h_max"]),
        )
        float(doc["residual"])  # a required number, though save_model writes 0.0
        statistic = doc.get("statistic", _STATISTIC)
        if basis != _BASIS:
            raise ValueError(f"basis must be {_BASIS}, got {basis!r}")
        if statistic != _STATISTIC:
            raise ValueError(f"statistic must be {_STATISTIC}, got {statistic!r}")
        return InterEventTimeModel(**model)
    except KeyError as err:
        raise ValueError(f"tau model {path} has no {err.args[0]!r} key") from None
    except (TypeError, ValueError) as err:
        raise ValueError(f"tau model {path}: {err}") from None
