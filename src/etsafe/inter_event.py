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

Propagation runs in two kernels.  While more than ``_TAIL_WIDTH`` lanes are
live, they step together, component-major, ``_BATCH_BLOCK`` steps at a time,
and one :func:`margin_batch` call and one scan per block find each lane's
first fire; then each remaining lane is finished alone on Python floats
(:func:`_finish_lane`), by the two-body step the scalar engine takes too.
Both kernels give every lane the same bits: the same IEEE operations in the
same association, the band's one margin formula (in its row and float forms)
and disturbance vectors that depend only on (seed, stream, interval).  A
fired step is refined with that margin too.

A batch step costs about the same at any width, so the lanes are split
across processes (:func:`_propagate_sharded`) to cut the wall time: one
interleaved shard per usable CPU, at most ``_MAX_SHARDS`` (2), shard 0 in the
calling process and the other in a forked worker.  The times are the
same for any shard count; which failing lane is named need not be.
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
from .barrier import (
    BandBarrier,
    BarrierSpec,
    _band_rows,
    _band_terms,
    _condition_margin,
    _norm3,
    barrier_condition_margin,
)
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
    radius_grid = np.asarray(radius_grid, dtype=float)
    problems = campaign_problems(scenario.barrier, radius_grid, n_per_radius, max_wait)
    if problems:
        raise ValueError("; ".join(problems))

    n_total = len(radius_grid) * n_per_radius
    streams = np.arange(1, n_total + 1, dtype=np.uint64)  # stream 0 is the main run
    radii = np.repeat(radius_grid, n_per_radius)

    states = _initial_states(radii, seed, streams)

    censored = np.zeros(n_total, dtype=bool)
    times = np.full(n_total, np.nan)
    for i in range(n_total):
        try:
            dv = station_keeping_impulse(scenario.controller, scenario.barrier, states[i])
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


def _initial_states(radii: np.ndarray, seed: int, streams: np.ndarray) -> np.ndarray:
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
    v_circ = np.sqrt(1.0 / radii)

    states = np.empty((n, 6))
    states[:, :3] = radii[:, None] * r_hat
    states[:, 3:] = v_circ[:, None] * t_hat
    return states


def margin_batch(states: np.ndarray, b: BandBarrier, r: np.ndarray) -> np.ndarray:
    """Barrier-condition margin of each state, by the band's row form
    (:func:`etsafe.barrier._band_rows`) with no floor.

    ``states`` is an ``(n, 6)`` or ``(n, steps, 6)`` view whose ``.T`` is
    component-major, and ``r`` its :func:`_norm3` radii: the campaign's
    ``(6, n)`` lanes at the start, then each block's ``(steps, 6, n)`` rows.
    """
    return _condition_margin(b, _band_rows(b, states.T, r))


# Live width at or below which the batch hands its lanes to _finish_lane.  On
# a 2-vCPU host a batch step costs ≈30 µs at 12 to 30 lanes and a float lane
# step ≈5 µs, so the batch is the cheaper kernel down to about six lanes.
# Over the campaign benchmark (benchmark seed 1, four rotating rounds of
# 25 s runs), widths 8, 12 and 20 gave medians of 2.04M, 2.05M and 1.87M
# lane-steps/s; the runs of one width spread by up to 0.4M.
_TAIL_WIDTH = 12

# Steps the batch takes between margin scans.  A block writes each step's
# states and radii into rows of its own arrays, evaluates their margins in one
# margin_batch call and scans them once for fires and non-finite margins.
# Blocks of 8, 16 and 32 steps timed within noise of each other (one shard of
# the seed-3 campaign in process, 3 runs each); a longer block holds more
# rows, and peak RSS counts them.
_BATCH_BLOCK = 16


def _propagate_batch_until_trigger(
    scenario: SatelliteScenario,
    states0: np.ndarray,
    streams: np.ndarray,
    max_wait: float,
) -> np.ndarray:
    """First margin zero-crossing time per sample; NaN where max_wait passed.

    While more than ``_TAIL_WIDTH`` lanes are live, they step together,
    component-major, ``_BATCH_BLOCK`` steps at a time (:class:`_LaneBlock`);
    after each block its margins are scanned by the per-step rule
    (:func:`_scan_block`), the lanes that fired are refined from the block's
    rows and dropped, and the rest go on from the block's last row.  Once the
    live width after a block is at most ``_TAIL_WIDTH``, each remaining lane
    is finished alone by :func:`_finish_lane` on Python floats, which repeats
    the batch's operations bit for bit, so the times do not depend on the
    switch or on the block length.  Raises LaneFailureError when a lane's
    margin goes non-finite.
    """
    b = scenario.barrier
    dt = scenario.integrator.step_size

    n = len(states0)
    out = np.full(n, np.nan)
    x = np.ascontiguousarray(np.asarray(states0, dtype=float).T)
    lanes = np.arange(n)
    streams = np.asarray(streams, dtype=np.uint64)
    # each step's radii serve its margin and the next step's first stage
    r = _norm3(x[:3])
    margins = margin_batch(x.T, b, r)
    bad = np.flatnonzero(~np.isfinite(margins))
    if len(bad):
        raise LaneFailureError(0.0, x[:, bad[0]], int(streams[bad[0]]))
    n_steps = int(np.ceil(max_wait / dt))

    accel_at = _LaneDisturbance(scenario.disturbance, streams)
    block = _LaneBlock(x, r)
    k = 0
    while k < n_steps and len(lanes) > _TAIL_WIDTH:
        steps = min(_BATCH_BLOCK, n_steps - k)
        accels = block.run(accel_at, k, steps, dt)
        after, radii = block.states[1 : steps + 1], block.radii[1 : steps + 1]
        # the (n, steps, 6) view whose .T is component-major (6, steps, n)
        block_margins = margin_batch(after.transpose(2, 0, 1), b, radii)
        fired, failed = _scan_block(margins, block_margins)
        for i, j in fired:
            d0, d1 = accels[i]
            out[lanes[j]] = _refine_sample_crossing(
                scenario, block.states[i, :, j].tolist(), after[i, :, j].tolist(), (k + i) * dt,
                dt, int(streams[lanes[j]]), _column(d0, j), _column(d1, j),
            )
        if failed is not None:
            i, j = failed
            raise LaneFailureError((k + i) * dt, block.states[i, :, j], int(streams[lanes[j]]))

        k += steps
        margins = block_margins[-1]
        if fired:
            keep = np.ones(len(lanes), dtype=bool)
            keep[[j for _, j in fired]] = False
            lanes = lanes[keep]
            margins = margins[keep]
            accel_at.keep(keep)
            block = _LaneBlock(after[-1].compress(keep, axis=1), radii[-1][keep])
        else:
            block.restart(steps)

    x = block.states[0]
    for j, lane in enumerate(lanes.tolist()):
        out[lane] = _finish_lane(
            scenario, x[:, j].tolist(), float(margins[j]), int(streams[lane]), k, n_steps
        )
    return out


class _LaneBlock:
    """The lanes' states over one block of batch steps: ``states[0]``
    (6, width) and ``radii[0]`` (width,) are the state and :func:`_norm3`
    radii at the block's start, ``states[i + 1]`` and ``radii[i + 1]`` those
    after its step i; beside them, the stage buffers that every step reuses.

    Each step runs the IEEE operations of the batch's RK4 stages, the
    two-body derivative ``(v, (-1 / (r r r)) p + d)`` at ``x``,
    ``x + (dt/2) k1``, ``x + (dt/2) k2`` and ``x + dt k3``, and their sum
    ``x + (dt/6) (((k1 + 2 k2) + 2 k3) + k4)``, in that association, writing
    each result through ``out=``.
    """

    def __init__(self, x: np.ndarray, r: np.ndarray) -> None:
        width = x.shape[1]
        self.states = np.empty((_BATCH_BLOCK + 1, 6, width))
        self.radii = np.empty((_BATCH_BLOCK + 1, width))
        self.states[0] = x
        self.radii[0] = r
        self.total = np.empty((6, width))  # k1, then the running RK4 sum
        self.stage = np.empty((6, width))  # the derivative of stages 2 to 4
        self.state = np.empty((6, width))  # the state of stages 2 to 4
        self.squares = np.empty((3, width))
        self.q = np.empty(width)  # -1 / r^3 of the stage
        self.r = np.empty(width)  # the radii of the stage state

    def restart(self, steps: int) -> None:
        """Start the next block where step ``steps`` of this one ended."""
        self.states[0] = self.states[steps]
        self.radii[0] = self.radii[steps]

    def run(self, accel_at, k: int, steps: int, dt: float) -> list:
        """Steps ``k .. k+steps-1`` from ``states[0]`` into ``states[1 ..
        steps]``; returns each step's disturbances at its start and its end,
        as ``accel_at`` gave them."""
        multiply, add, divide, sqrt, copyto = np.multiply, np.add, np.divide, np.sqrt, np.copyto
        add_rows = np.add.reduce
        total, stage, state, squares, q, rs = (
            self.total, self.stage, self.state, self.squares, self.q, self.r
        )
        total_v, total_a = total[:3], total[3:]
        stage_v, stage_a = stage[:3], stage[3:]
        state_p, state_v = state[:3], state[3:]
        states, radii = self.states, self.radii
        x, r = states[0], radii[0]
        half = 0.5 * dt
        sixth = dt / 6.0
        accels = []
        for i in range(steps):
            t0 = (k + i) * dt
            # stage 1 at x, with the radii the previous step took:
            # k1 = (v, (-1 / (r r r)) p + d)
            d0 = accel_at(t0)
            multiply(r, r, out=q)
            multiply(q, r, out=q)
            divide(-1.0, q, out=q)
            multiply(q, x[:3], out=total_a)
            add(total_a, d0, out=total_a)
            copyto(total_v, x[3:])
            multiply(total, half, out=state)
            add(x, state, out=state)
            # stages 2 and 3 share a time and so one disturbance lookup; the
            # state of stage 3 is x + half k2, that of stage 4 x + dt k3, and
            # the sum takes 2 k2 and 2 k3
            d_half = accel_at(t0 + half)
            for scale in (half, dt):
                multiply(state_p, state_p, out=squares)
                add_rows(squares, axis=0, out=rs)
                sqrt(rs, out=rs)
                multiply(rs, rs, out=q)
                multiply(q, rs, out=q)
                divide(-1.0, q, out=q)
                multiply(q, state_p, out=stage_a)
                add(stage_a, d_half, out=stage_a)
                copyto(stage_v, state_v)
                multiply(stage, scale, out=state)
                add(x, state, out=state)
                multiply(stage, 2.0, out=stage)
                add(total, stage, out=total)
            # stage 4, then the new state x + (dt/6) (((k1 + 2 k2) + 2 k3) + k4)
            d1 = accel_at(t0 + dt)
            multiply(state_p, state_p, out=squares)
            add_rows(squares, axis=0, out=rs)
            sqrt(rs, out=rs)
            multiply(rs, rs, out=q)
            multiply(q, rs, out=q)
            divide(-1.0, q, out=q)
            multiply(q, state_p, out=stage_a)
            add(stage_a, d1, out=stage_a)
            copyto(stage_v, state_v)
            add(total, stage, out=total)
            multiply(total, sixth, out=total)
            row, rad = states[i + 1], radii[i + 1]
            add(x, total, out=row)
            positions = row[:3]
            multiply(positions, positions, out=squares)
            add_rows(squares, axis=0, out=rad)
            sqrt(rad, out=rad)
            x, r = row, rad
            accels.append((d0, d1))
        return accels


def _column(d, j: int) -> list[float]:
    """Lane ``j``'s disturbance vector from a lane-table row ``d`` (dim, n),
    or the zero vector where the row is the scalar 0.0 of the ``none``
    kind."""
    return d[:, j].tolist() if np.ndim(d) else [d, d, d]


def _scan_block(m0: np.ndarray, m: np.ndarray):
    """The per-step rule over one block of margins: ``m0`` (n,) the lanes'
    margins before the block, ``m`` (steps, n) those after each step.

    A lane fires at the first step whose margin goes from > 0 to <= 0, and
    fails at its first non-finite margin unless it fired at an earlier step
    (the per-step loop tested the margins before the fires).  Returns
    ``(fired, failed)``: ``failed`` is the ``(step, lane)`` of the earliest
    failing step and its first lane in array order, or None; ``fired`` lists
    the ``(step, lane)`` of the lanes that fired before that step (all that
    fired, if none failed), by step, then by lane.
    """
    steps = len(m)
    fires = np.empty(m.shape, dtype=bool)
    np.greater(m0, 0.0, out=fires[0])
    np.greater(m[:-1], 0.0, out=fires[1:])
    fires &= m <= 0.0
    fire_step = np.where(fires.any(axis=0), fires.argmax(axis=0), steps)
    failed = None
    limit = steps
    finite = np.isfinite(m)
    if not finite.all():
        bad = ~finite
        fail_step = np.where(bad.any(axis=0), bad.argmax(axis=0), steps)
        failing = (fail_step < steps) & (fail_step <= fire_step)
        if failing.any():
            limit = int(fail_step[failing].min())
            failed = (limit, int(np.flatnonzero(failing & (fail_step == limit))[0]))
    lanes = np.flatnonzero(fire_step < limit)
    order = np.argsort(fire_step[lanes], kind="stable")
    fired = [(int(fire_step[j]), int(j)) for j in lanes[order]]
    return fired, failed


# Two shards is the only count whose wall time has been measured (a 2-vCPU
# host).  Sharding adds work: each shard pays the batch's per-iteration
# floor until its own live width reaches the tail, so two shards do ≈1.4x
# the CPU work of one process (1.39-1.42x at seed 3: CPU time of each shard
# alone against all lanes in one process), and more shards move still more
# of it into the float tail.  Raise this only on alternating-pair benchmark
# runs on a host with 3 or more usable CPUs that show a gain.
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
    floor, as the batch has none, then the margin by the band's float form
    (:func:`etsafe.barrier._band_terms`), with no floor either.  A
    non-finite margin, or a division by a zero radius (which gives one in the
    batch), raises LaneFailureError with the step-start time and state and
    the lane's stream.
    """
    b = scenario.barrier
    dt = scenario.integrator.step_size
    accel = scenario.disturbance.realize(stream)
    step = _two_body_rk4(0.0, accel)
    for k in range(first_step, n_steps):
        t0 = k * dt
        try:
            new = step(t0, dt, x)
            nm = _condition_margin(b, _band_terms(b, new, 0.0))
        except ZeroDivisionError:
            nm = math.nan
        if not math.isfinite(nm):
            raise LaneFailureError(t0, x, stream)
        if m > 0.0 and nm <= 0.0:
            # copies: the sampler refills its block in place, and the end's
            # interval is in the block, the start's perhaps not
            end = list(accel(t0 + dt))
            start = list(accel(t0))
            return _refine_sample_crossing(scenario, x, new, t0, dt, stream, start, end)
        x, m = new, nm
    return math.nan


def _refine_sample_crossing(
    scenario: SatelliteScenario,
    x0: list[float],
    x1: list[float],
    t0: float,
    dt: float,
    stream: int,
    accel0,
    accel1,
) -> float:
    """Scalar in-step refinement matching the engine's event semantics.

    ``x0`` and ``x1`` are the lane's states at the step's start and end, as
    lists of Python floats; ``accel0`` and ``accel1`` its disturbance there,
    as the kernel that stepped it read them (for the ``none`` kind a zero
    vector, which the field adds as it adds any other).  The derivative at
    each end is ``two_body_field`` with that disturbance; at the start it is
    bitwise the first RK4 stage of the batch and of the tail.  A degraded
    crossing is logged as a WARNING, as the engine logs its own.
    """
    b = scenario.barrier
    flow = scenario.nominal_flow()
    monitor = lambda x: barrier_condition_margin(b, flow, x)

    field = lambda t, x: two_body_field(x, accel=accel0 if t == t0 else accel1)
    interp = _step_interpolant(field, t0, x0, t0 + dt, x1)
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
