"""Fixed-step integration with dense interpolation and bracketed event location.

The simulation loops in :mod:`etsafe.engine` alternate smooth flow with
instantaneous events (impulses, filter toggles).  Everything here is built for
that pattern: a classical RK4 stepper, a cubic Hermite interpolant within each
step so events can be located between grid points, and a bisection root
finder that preserves the left-most sign change (the earliest event wins).

All functions are pure and deterministic: identical inputs produce
bit-identical outputs.

The :data:`Field` contract: ``field(t, x)`` takes the state as a list of
Python floats (:func:`rk4_step` passes each stage state, and the in-step
interpolant each end state, as one) and returns its derivative as a sequence
of floats, such as a tuple.  :func:`rk4_step` takes and returns a state as a
sequence of Python floats and builds no array; code that needs array
arithmetic on a state or a derivative converts it with ``np.asarray`` at that
boundary.  The planar fields stay on floats throughout: their dot products,
and those of the planar margin, are the exact FMA chain that ``ndarray.dot``
computes on the hosts the outputs are pinned on, each step one exact
:func:`_fma`: :func:`_dot` of two sequences, or :func:`_dot2` of two named
2-vectors, which the planar loop takes.  Their own steps take the filter on
named floats, so its only arrays, the ``HalfspaceConstraint.a`` and
projected input, are built only where the filtered field itself is called:
at the in-step interpolant's ends and in a replayed step.

A field may bring its own step, ``field.rk4(t, dt, x) -> new state`` with
``x`` a list of floats and the state a sequence of floats, bit for bit the
generic step on the field (the satellite's disturbed field and both planar
fields do).
:func:`rk4_step` then takes the step with it, and replays through the
generic stages a step that raised SingularityError or came out non-finite,
so a field's errors are the generic step's.

The :data:`Monitor` contract: ``monitor(x)`` is a scalar of one state, an
ndarray.  A monitor may also carry a row form, ``monitor.rows(states)``: its
value at each row of an (n, dim) array as an array, bit for bit the scalar
calls, raising if the monitor raises on some row.  When every monitor of a
:func:`propagate_until` call has one, the steps run in blocks and each
monitor is evaluated once per block; a row form that raises sends the block
through the scalar calls, one row at a time, to find the error or the
crossing that comes first.  Otherwise (the planar monitors) the monitors are
called after each step, inside the same step loop, and the segment's times,
states and monitor values stay in Python lists until the segment ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

Field = Callable[[float, Sequence[float]], Sequence[float]]
Monitor = Callable[[np.ndarray], float]


class IntegrationFailureError(RuntimeError):
    """A vector field returned a non-finite derivative."""

    def __init__(self, t: float, x: np.ndarray, message: str = "non-finite derivative"):
        super().__init__(f"{message} at t={t!r}, x={np.asarray(x).tolist()!r}")
        self.reason = message
        self.t = t
        self.x = np.array(x, dtype=float)

    def __reduce__(self):
        # picklable across processes: rebuild from the constructor's arguments
        return type(self), (self.t, self.x, self.reason)


class SingularityError(RuntimeError):
    """A field's state reached its singularity: for the two-body field, the
    radius fell below the singularity floor (a crash into the central body)."""


class BracketError(ValueError):
    """locate_zero_crossing was called without a valid downward bracket."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator settings.

    step_size is in scenario time units and must be positive and finite.
    Events inside a step are located on its cubic Hermite interpolant.
    """

    step_size: float = 0.05

    def __post_init__(self) -> None:
        if not self.step_size > 0.0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if self.step_size == math.inf:
            raise ValueError("step_size must be finite, got inf")


@dataclass(frozen=True)
class EventLocatorConfig:
    """Tolerances for bracketed event location."""

    time_tolerance: float = 1e-9
    value_tolerance: float = 1e-9
    max_bisections: int = 200

    def __post_init__(self) -> None:
        for name in ("time_tolerance", "value_tolerance"):
            if problems := span_problems(name, getattr(self, name)):
                raise ValueError(problems[0])
        if self.max_bisections < 1:
            raise ValueError("max_bisections must be >= 1")


@dataclass(frozen=True)
class CrossingResult:
    """A located downward zero crossing.

    ``degraded`` is set when the bisection budget ran out before either
    tolerance was met; the reported time is then the best bracket midpoint.
    """

    time: float
    value: float
    degraded: bool = False


@dataclass(frozen=True)
class MonitorCrossing:
    """Earliest monitor crossing found by :func:`propagate_until`."""

    monitor_index: int
    time: float
    state: np.ndarray
    value: float
    degraded: bool = False


def span_problems(name: str, span: Optional[float]) -> list[str]:
    """The rule for a positive setting (a horizon, the campaign's wait cap,
    a scale, rate or tolerance), > 0 and finite: one message naming ``name``
    if ``span`` breaks it, else none; None goes unchecked."""
    if span is None or 0.0 < span < math.inf:
        return []
    return [f"{name} must be > 0" if not span > 0.0 else f"{name} must be finite"]


# TwoProduct (Dekker's product on Veltkamp's split) is exact unless a step
# overflows, which leaves its sum non-finite, or the product's rounding error
# is subnormal, which a product below _PRODUCT_MIN rules out.
_SPLITTER = 134217729.0  # 2**27 + 1
_PRODUCT_MIN = 2.0**-960


def _fma(x: float, y: float, s: float) -> float:
    """``x * y + s`` rounded once: one step of the FMA chain of :func:`_dot`
    and :func:`_dot2`.

    TwoProduct gives ``x * y`` as its rounded value plus its exact error, and
    ``math.fsum`` rounds their sum with ``s`` once.  A product below 2**-960
    or not finite, or a sum that comes out non-finite (an overflow, or an
    infinite or NaN ``s``), is evaluated again by :func:`_fma_exact`.
    """
    p = x * y
    if not _PRODUCT_MIN <= abs(p) < math.inf:
        return _fma_exact(x, y, s)
    if not s:
        return float(p)  # a normal product plus a zero: the product
    t = _SPLITTER * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLITTER * y
    yh = t - (t - y)
    yl = y - yh
    try:
        r = math.fsum((p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl, s))
    except OverflowError:
        r = math.inf
    return r if -math.inf < r < math.inf else _fma_exact(x, y, s)


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    """Dot product of two float sequences, bitwise ``ndarray.dot`` of them
    where that is a fused multiply-add chain (OpenBLAS's ddot on Haswell):
    ``s = fma(a_i, b_i, s)`` from ``s = +0.0``, each step an exact
    :func:`_fma`, then ``s + 0.0``, as numpy adds the BLAS result to +0.0.
    Takes and returns Python floats; two elements cost ≈0.9 µs, about what
    ``ndarray.dot`` costs, and :func:`_dot2` takes them for about half.
    """
    s = 0.0
    for x, y in zip(a, b):
        s = _fma(x, y, s)
    return s + 0.0


def _dot2(a0: float, a1: float, b0: float, b1: float) -> float:
    """``_dot((a0, a1), (b0, b1))`` on named floats, bit for bit, with no
    sequence built or iterated: the planar loop's dot (≈0.5 µs).

    The chain's first step, ``fma(a0, b0, +0.0)``, is the rounded product
    ``a0 * b0`` save for the sign of a zero, so the product is the second
    step's addend: a zero addend of either sign gives the same nonzero
    result, and a zero result only differs in a sign the final ``+ 0.0``
    drops.
    """
    return _fma(a1, b1, a0 * b0) + 0.0


def _fma_exact(a: float, b: float, c: float) -> float:
    """``a * b + c`` rounded once, on exact rationals, as a Python float:
    the steps of :func:`_fma` that TwoProduct cannot take."""
    if not (a and b and math.isfinite(a) and math.isfinite(b)):
        return float(a * b + c)  # a zero, infinite or NaN factor: IEEE's product is exact
    if not math.isfinite(c):
        return float(c)  # a finite product leaves an infinite or NaN addend as it is
    # imported on first use, which no shipped run makes: fractions imports decimal
    from fractions import Fraction

    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if not exact:
        # then a * b is exact (zero, or -c), and IEEE addition signs the zero
        return float(a * b + c)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def rk4_step(field: Field, x: Sequence[float], t: float, dt: float) -> Sequence[float]:
    """Single classical 4th-order Runge-Kutta step of ``dx/dt = field(t, x)``.

    ``x`` is a sequence of floats (an ndarray is read once with ``tolist``);
    the new state is a new sequence of Python floats, and no array is built.
    The stages run with the association of the numpy expression
    ``x + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4)``, so the result is
    bit-identical to it.  A field with its own ``rk4`` step is stepped by it
    (see the module docstring).

    Raises IntegrationFailureError, with the step-start ``t`` and ``x``, if any
    stage derivative is non-finite.  The generic stages then evaluate no later
    stage; a field's own step has evaluated all four before the replay.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    x0 = x.tolist() if isinstance(x, np.ndarray) else x
    own = getattr(field, "rk4", None)
    if own is not None:
        try:
            x1 = own(t, dt, x0)
            if math.isfinite(sum(x1)):
                return x1
        except SingularityError:
            pass
        # a non-finite stage derivative leaves a non-finite sum; then, or
        # below the floor, the generic stages replay the step and raise
    half = 0.5 * dt
    k1 = field(t, x0)
    _require_finite(k1, t, x0)
    k2 = field(t + half, [a + half * k for a, k in zip(x0, k1)])
    _require_finite(k2, t, x0)
    k3 = field(t + half, [a + half * k for a, k in zip(x0, k2)])
    _require_finite(k3, t, x0)
    k4 = field(t + dt, [a + dt * k for a, k in zip(x0, k3)])
    _require_finite(k4, t, x0)
    sixth = dt / 6.0
    return [
        a + sixth * (((p + 2.0 * q) + 2.0 * r) + s)
        for a, p, q, r, s in zip(x0, k1, k2, k3, k4)
    ]


def _require_finite(k: Sequence[float], t: float, x: Sequence[float]) -> None:
    # same verdict as np.all(np.isfinite(k)) for a 1-D k, at a fraction of the cost
    if not all(map(math.isfinite, k)):
        raise IntegrationFailureError(t, x)


def hermite_interpolant(
    t0: float,
    x0: np.ndarray,
    f0: np.ndarray,
    t1: float,
    x1: np.ndarray,
    f1: np.ndarray,
) -> Callable[[float], np.ndarray]:
    """Cubic Hermite interpolant matching states and derivatives at both ends."""
    dt = t1 - t0

    def interp(t: float) -> np.ndarray:
        s = (t - t0) / dt
        s2 = s * s
        s3 = s2 * s
        h00 = 2.0 * s3 - 3.0 * s2 + 1.0
        h10 = s3 - 2.0 * s2 + s
        h01 = -2.0 * s3 + 3.0 * s2
        h11 = s3 - s2
        return h00 * x0 + (h10 * dt) * f0 + h01 * x1 + (h11 * dt) * f1

    return interp


def locate_zero_crossing(
    g: Callable[[float], float],
    t_lo: float,
    t_hi: float,
    cfg: EventLocatorConfig,
) -> CrossingResult:
    """Locate the earliest downward crossing of ``g`` inside ``[t_lo, t_hi]``.

    Requires ``g(t_lo) > 0`` and ``g(t_hi) <= 0``.  Bisection always keeps the
    left-most sign-change bracket, so the returned time is the earliest
    crossing up to tolerance.  The returned point satisfies ``g(t) <= 0`` and
    either ``|g(t)| <= value_tolerance`` or the final bracket width is at most
    ``time_tolerance`` (except in the degraded case, see CrossingResult).
    """
    g_lo = g(t_lo)
    if not g_lo > 0.0:
        raise BracketError(f"g(t_lo) must be > 0, got {g_lo!r} at t={t_lo!r}")
    g_hi = g(t_hi)
    if g_hi > 0.0:
        raise BracketError(f"g(t_hi) must be <= 0, got {g_hi!r} at t={t_hi!r}")

    lo, hi = t_lo, t_hi
    val_hi = g_hi
    for _ in range(cfg.max_bisections):
        if abs(val_hi) <= cfg.value_tolerance or (hi - lo) <= cfg.time_tolerance:
            return CrossingResult(time=hi, value=val_hi)
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid <= 0.0:
            hi = mid
            val_hi = g_mid
            if abs(g_mid) <= cfg.value_tolerance:
                return CrossingResult(time=mid, value=g_mid)
        else:
            lo = mid
    mid = 0.5 * (lo + hi)
    return CrossingResult(time=mid, value=g(mid), degraded=True)


# Steps per block of propagate_until when every monitor has a row form.
_BLOCK_STEPS = 128


def propagate_until(
    field: Field,
    x0: np.ndarray,
    t0: float,
    horizon: float,
    monitors: Sequence[Monitor],
    integrator: IntegratorConfig = IntegratorConfig(),
    events: EventLocatorConfig = EventLocatorConfig(),
    armed: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Optional[MonitorCrossing]]:
    """Propagate until a monitor crosses zero downward or the horizon ends.

    Steps with RK4 at the configured step size, checking each monitor's sign at
    every step endpoint.  A downward sign change (previous value > 0, new value
    <= 0) is refined with bisection on the step's cubic Hermite interpolant,
    with the monitor re-evaluated on interpolated states.  A monitor that is
    already <= 0 when monitoring starts is an immediate event at that time.

    When every monitor has a row form (see the module docstring), the steps
    run a block of ``_BLOCK_STEPS`` at a time, each monitor is evaluated once
    over the block's stacked states, and the steps after the block's first
    crossing are dropped; otherwise the one block is the whole segment, its
    monitors called after each step and the loop left at the first crossing.
    The result is that of a loop that monitors every step before it takes
    the next: an error of a step or a monitor after the first crossing is
    dropped, and one before it is raised as that loop would raise it.

    An ``armed`` segment starts monitoring at ``t0``.  One that is not skips
    the start state and starts at the end of the first step; callers use
    this after a jump, so a tolerance-level residue of the crossing that
    fired it cannot fire again at once.

    Returns ``(times, states, monitor_values, crossing)``:

    * ``times``  - shape (N,), dense sample times, starting at t0.  The final
      sample is the crossing time if an event fired, else ``t0 + horizon``.
    * ``states`` - shape (N, n), states at those times.
    * ``monitor_values`` - shape (N, len(monitors)); the start row is NaN
      when the segment is not armed.
    * ``crossing`` - earliest MonitorCrossing, or None.
    """
    if problems := span_problems("horizon", horizon):
        raise ValueError(problems[0])
    dt = integrator.step_size

    # each part is a block of rows; the returned arrays are joined once at the end
    x = np.array(x0, dtype=float)
    prev = [m(x) for m in monitors] if armed else [math.nan] * len(monitors)
    times = [np.array([t0])]
    states = [x[None, :]]
    values = [np.array(prev, dtype=float).reshape(1, len(monitors))]
    if armed:
        crossing = _immediate_crossing(prev, t0, x)
        if crossing is not None:
            return _joined(times, states, values, monitors, crossing)

    n_full = int(np.floor(horizon / dt + 1e-12))
    remainder = horizon - n_full * dt
    if remainder < 1e-12 * max(1.0, abs(horizon)):
        remainder = 0.0
    total_steps = n_full + (1 if remainder > 0.0 else 0)
    # without a row form for every monitor, the monitors are evaluated after
    # each step inside the step loop, whose one block is the whole segment
    by_step = not all(hasattr(m, "rows") for m in monitors)
    block = total_steps if by_step else _BLOCK_STEPS

    step, state = 0, x.tolist()
    while step < total_steps:
        at_start = step == 0 and not armed
        ends, rows, row_vals, failure, i = [], [], [], None, None
        for k in range(step, min(step + block, total_steps)):
            t_start = t0 + k * dt
            step_dt = dt if k < n_full else remainder
            try:
                state = rk4_step(field, state, t_start, step_dt)
            except Exception as err:  # raised below unless a crossing comes first
                failure = err
                break
            ends.append(t_start + step_dt)
            rows.append(state)
            if by_step:
                x_end = np.array(state)
                row = [m(x_end) for m in monitors]
                row_vals.append(row)
                if _fires(row, prev, at_start and k == 0):
                    i = len(rows) - 1
                    break
                prev = row
        if not rows:
            raise failure
        block_states = np.array(rows, dtype=float)
        if by_step:
            vals = np.array(row_vals, dtype=float)
        else:
            vals, i = _monitor_block(monitors, block_states, prev, block > 1, at_start)
        if i is not None:
            if at_start and i == 0:
                # Monitoring starts at this sample; a value already <= 0 is an
                # immediate event here rather than a located crossing.
                crossing = _immediate_crossing(vals[0].tolist(), ends[0], block_states[0])
            else:
                before = vals[i - 1] if i else prev
                crossed = [
                    j for j, (p, v) in enumerate(zip(before, vals[i])) if p > 0.0 and v <= 0.0
                ]
                t_start = t0 + (step + i) * dt
                x_start = block_states[i - 1] if i else x
                interp = _step_interpolant(field, t_start, x_start, ends[i], block_states[i])
                crossing = _refine_step_crossings(
                    interp, monitors, crossed, t_start, ends[i], events
                )
            times.append(np.array(ends[:i]))
            states.append(block_states[:i])
            values.append(vals[:i])
            return _joined(times, states, values, monitors, crossing)

        times.append(np.array(ends))
        states.append(block_states)
        values.append(vals)
        if failure is not None:
            raise failure
        step += len(rows)
        prev, x = vals[-1].tolist(), block_states[-1]

    return np.concatenate(times), np.concatenate(states), np.concatenate(values), None


def _monitor_block(
    monitors: Sequence[Monitor],
    states: np.ndarray,
    prev: Sequence[float],
    by_rows: bool,
    at_start: bool,
) -> tuple[np.ndarray, Optional[int]]:
    """Each monitor's value at each row of ``states`` up to the first row
    where a monitor fires, or at every row, as a (rows, len(monitors))
    array, and the index of that row or None.  A monitor fires at a sign
    change from the row before (``prev`` before the first row), or,
    ``at_start``, by an immediate event at the first row.

    ``by_rows`` takes each monitor's row form over all rows at once.  Without
    it, or when a row form raised, the monitors are evaluated one row at a
    time in monitor order, and only up to the first row that fires, so an
    error is the one a step-by-step loop meets first.
    """
    if by_rows:
        n, m = len(states), len(monitors)
        vals = np.empty((n, m))
        try:
            for j, mon in enumerate(monitors):
                vals[:, j] = mon.rows(states)
        except Exception:  # evaluated again below, one row at a time
            pass
        else:
            if at_start and _at_once(vals[0].tolist()) is not None:
                return vals, 0
            before = np.vstack((np.reshape(prev, (1, m)), vals[:-1]))
            hit = np.flatnonzero(((before > 0.0) & (vals <= 0.0)).any(axis=1))
            return vals, int(hit[0]) if len(hit) else None
    evaluated = []
    for i in range(len(states)):
        x = states[i]
        row = [mon(x) for mon in monitors]
        evaluated.append(row)
        if _fires(row, prev, at_start and i == 0):
            return np.array(evaluated, dtype=float), i
        prev = row
    return np.array(evaluated, dtype=float), None


def _fires(row: list[float], prev: Sequence[float], at_start: bool) -> bool:
    """Whether the monitor values ``row`` of one step fire: by an immediate
    event at a segment's first monitored sample (``at_start``), else by a
    sign change from ``prev``, the values a step before."""
    if at_start:
        return _at_once(row) is not None
    for p, v in zip(prev, row):
        if p > 0.0 and v <= 0.0:
            return True
    return False


def _joined(
    times: list[np.ndarray],
    states: list[np.ndarray],
    values: list[np.ndarray],
    monitors: Sequence[Monitor],
    crossing: MonitorCrossing,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, MonitorCrossing]:
    """The segment's arrays ending at ``crossing``, with the monitors
    evaluated again at its state."""
    times.append(np.array([crossing.time]))
    states.append(crossing.state[None, :])
    values.append(np.array([m(crossing.state) for m in monitors], dtype=float).reshape(1, -1))
    return np.concatenate(times), np.concatenate(states), np.concatenate(values), crossing


def _at_once(vals: list[float]) -> Optional[int]:
    """The monitor that fires at once at a segment's first monitored sample:
    the smallest value, if <= 0 (``argmin`` picks a NaN, which does not)."""
    if not vals:
        return None
    idx = int(np.argmin(vals))
    return idx if vals[idx] <= 0.0 else None


def _immediate_crossing(vals: list[float], t: float, x: np.ndarray) -> Optional[MonitorCrossing]:
    idx = _at_once(vals)
    return None if idx is None else MonitorCrossing(idx, t, x.copy(), float(vals[idx]))


def _step_interpolant(
    field: Field, t0: float, x0: np.ndarray, t1: float, x1: np.ndarray
) -> Callable[[float], np.ndarray]:
    """The trajectory inside one step: the cubic Hermite interpolant on
    ``field``'s derivatives at both ends."""
    # the interpolant does array arithmetic on the end derivatives
    f0 = np.asarray(field(t0, x0.tolist()))
    f1 = np.asarray(field(t1, x1.tolist()))
    return hermite_interpolant(t0, x0, f0, t1, x1, f1)


def _refine_step_crossings(
    interp: Callable[[float], np.ndarray],
    monitors: Sequence[Monitor],
    crossed: list[int],
    t_start: float,
    t_end: float,
    events: EventLocatorConfig,
) -> MonitorCrossing:
    """Refine each monitor in ``crossed`` (those whose sign went from > 0 to
    <= 0 in this step) on the step's interpolant; the earliest crossing wins."""
    best: Optional[MonitorCrossing] = None
    for i in crossed:
        m = monitors[i]
        result = locate_zero_crossing(
            lambda t: m(interp(t)), t_start, t_end, events
        )
        if best is None or result.time < best.time:
            best = MonitorCrossing(
                monitor_index=i,
                time=result.time,
                state=interp(result.time),
                value=result.value,
                degraded=result.degraded,
            )
    return best
