"""Barrier functions and the trigger margins built from them.

A barrier function h defines the safe set as its zero superlevel set
(h >= 0 is safe).  Safety monitoring reduces to watching the scalar margin

    barrier_condition_margin(x) = dh/dt along the flow
                                  - |grad h| * d_bar          (disturbance worst case)
                                  + gamma * h(x)              (linear class-K rate)

which is nonnegative exactly when the robust barrier condition holds.  Every
trigger in this package is a zero crossing of this margin, of a shifted copy
of it (hysteresis), or of the expected-inter-event-time trend in
:func:`maneuver_timing_margin`.

Every barrier is radial, ``h = half_width^2 - (r - center)^2`` in the
position norm r: the planar :class:`DiskBarrier` (center 0) or the orbital
:class:`BandBarrier`.  The band's margin terms have one closed form, on
Python floats for one state (:func:`_band_terms`) and elementwise on rows
(:func:`_band_rows`), which the engine and the tau campaign share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .dynamics import SINGULARITY_FLOOR, SingularityError
from .numerics import _dot2, span_problems

if TYPE_CHECKING:
    from .inter_event import InterEventTimeModel

Flow = Callable[[Sequence[float]], Sequence[float]]


class GradientMismatchError(ValueError):
    """Analytic gradient disagrees with finite differences of h."""


def barrier_problems(
    gamma: Optional[float] = None, rho: Optional[float] = None
) -> list[str]:
    """The rules for a barrier's class-K rate ``gamma`` and a disk's radius
    ``rho``, each > 0 and finite: one message for each that breaks its rule,
    else none; None goes unchecked."""
    return span_problems("gamma", gamma) + span_problems("rho", rho)


@dataclass(frozen=True)
class BarrierSpec:
    """The gain, noise bound and radial geometry every barrier has, and
    their rules; :class:`DiskBarrier` and :class:`BandBarrier` state the
    formulas, each ``margin_terms(flow, x)`` returning ``(h, dh/dt, |grad h|)``.

    The class-K rate is linear, ``alpha(h) = gamma * h`` with ``gamma > 0``.
    d_bar must equal the disturbance model's bound; the margin functions below
    use exactly this declared value in their robust terms.
    """

    gamma: float
    d_bar: float
    center: float
    half_width: float

    def __post_init__(self) -> None:
        if problems := barrier_problems(gamma=self.gamma):
            raise ValueError(problems[0])
        if not self.d_bar >= 0.0:
            raise ValueError("d_bar must be >= 0")
        if self.d_bar == math.inf:
            raise ValueError("d_bar must be finite")
        # a NaN radius would make every grid point pass the assumption check
        if not (math.isfinite(self.center) and math.isfinite(self.half_width)):
            raise ValueError("radial geometry must be finite")


@dataclass(frozen=True)
class DiskBarrier(BarrierSpec):
    """The planar disk ``h = half_width^2 - x . x`` on two floats, centered
    at the origin, with gradient ``-2 x``."""

    center: float = field(default=0.0, init=False)

    def h(self, x: Sequence[float]) -> float:
        x0, x1 = x
        hw = self.half_width
        return hw * hw - _dot2(x0, x1, x0, x1)

    def grad_h(self, x: Sequence[float]) -> list[float]:
        return [-2.0 * v for v in x]

    def h_rows(self, states: np.ndarray) -> np.ndarray:
        """``h`` of each row of an (n, 2) array, bitwise ``h`` row by row."""
        hw = self.half_width
        return np.array([hw * hw - _dot2(p0, p1, p0, p1) for p0, p1 in states.tolist()])

    def margin_terms(self, flow: Flow, x: Sequence[float]) -> tuple[float, float, float]:
        """``h``, ``grad_h`` and their dots, bit for bit, on named floats, with
        one call of ``flow``.  math.sqrt of the dot is bitwise
        np.linalg.norm(grad), which computes exactly sqrt(grad.dot(grad))."""
        x0, x1 = x
        g0, g1 = -2.0 * x0, -2.0 * x1
        f0, f1 = flow(x)
        hw = self.half_width
        h = hw * hw - _dot2(x0, x1, x0, x1)
        return h, _dot2(g0, g1, f0, f1), math.sqrt(_dot2(g0, g1, g0, g1))


@dataclass(frozen=True)
class BandBarrier(BarrierSpec):
    """The orbital band ``h = half_width^2 - (|pos| - center)^2`` of a state
    (position, velocity); ``h`` and ``grad_h`` take an ndarray and
    ``sqrt(pos.dot(pos))``, bitwise ``np.linalg.norm(pos)``.  The margin
    terms take no flow (they assume ``dr/dt = v``) and raise
    SingularityError below ``floor``, the two-body field's singularity floor."""

    floor: float

    def h(self, x: np.ndarray) -> float:
        pos = x[:3]
        r = math.sqrt(pos.dot(pos))
        hw = self.half_width
        return hw * hw - (r - self.center) ** 2

    def grad_h(self, x: np.ndarray) -> np.ndarray:
        pos = x[:3]
        r = math.sqrt(pos.dot(pos))
        k = -2.0 * (r - self.center) / r
        x0, x1, x2 = pos.tolist()
        return np.array((k * x0, k * x1, k * x2, 0.0, 0.0, 0.0))

    def h_rows(self, states: np.ndarray) -> np.ndarray:
        """``h`` of each row of an (n, 6) array, bitwise ``h`` row by row."""
        return _band_h(_row_radii(states), self.center, self.half_width)

    def margin_terms(self, flow: Flow, x: Sequence[float]) -> tuple[float, float, float]:
        """:func:`_band_terms` of six Python floats ``x``."""
        return _band_terms(self, x, self.floor)

    def margin_rows(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The terms of each row of an (n, 6) array, bit for bit
        ``margin_terms`` row by row, raising where it would on some row."""
        p = np.asarray(states, dtype=float).T
        r, floor = _norm3(p[:3]), self.floor
        low = np.flatnonzero(r < floor)
        if len(low):
            raise SingularityError(f"radius {float(r[low[0]])!r} below singularity floor {floor!r}")
        return _band_rows(self, p, r)


def _band_terms(b: BandBarrier, x: Sequence[float], floor: float) -> tuple[float, float, float]:
    """``(h, dh/dt, |grad h|)`` of one state's six Python floats in closed
    form: with ``r = sqrt((x0*x0 + x1*x1) + x2*x2)`` and ``d = r - center``,
    ``h = hw*hw - d*d``, ``dh/dt = -2d * (((x0*v0 + x2*v2) + x1*v1) / r)``
    and ``|grad h| = |-2d|``.  Raises SingularityError where ``r < floor``;
    with a zero floor a zero radius raises ZeroDivisionError instead."""
    x0, x1, x2, v0, v1, v2 = x
    r = math.sqrt((x0 * x0 + x1 * x1) + x2 * x2)
    if r < floor:
        raise SingularityError(f"radius {r!r} below singularity floor {floor!r}")
    delta = r - b.center
    neg2_delta = -2.0 * delta
    hw = b.half_width
    return hw * hw - delta * delta, neg2_delta * (((x0 * v0 + x2 * v2) + x1 * v1) / r), abs(neg2_delta)


def _band_rows(b: BandBarrier, p: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_band_terms` of each column of a component-major ``(6, ...)``
    array ``p`` with its :func:`_norm3` radii ``r``, elementwise and bit for
    bit, with no floor."""
    pv = p[:3] * p[3:]
    delta = r - b.center
    neg2_delta = -2.0 * delta
    hw = b.half_width
    return hw * hw - delta * delta, neg2_delta * (((pv[0] + pv[2]) + pv[1]) / r), np.abs(neg2_delta)


def _norm3(p: np.ndarray) -> np.ndarray:
    """Column norms of a ``(3, ...)`` array, ``sqrt((x0*x0 + x1*x1) + x2*x2)``,
    bit-identical to ``np.linalg.norm(p.T, axis=1)`` without its overhead."""
    return np.sqrt(np.add.reduce(p * p, axis=0))


def _row_radii(states: np.ndarray) -> np.ndarray:
    """The position norm of each row of an (n, 6) array, bitwise
    ``math.sqrt(pos.dot(pos))``: ``np.matmul`` of (n, 1, 3) by (n, 3, 1)
    takes BLAS's ``ddot`` on each row, as ``ndarray.dot`` does."""
    pos = states[:, None, :3]
    return np.sqrt(np.matmul(pos, pos.transpose(0, 2, 1))[:, 0, 0])


def _band_h(r: np.ndarray, c: float, hw: float) -> np.ndarray:
    """``hw*hw - (r - c)**2`` of each radius with Python's ``**``, as the
    band's ``h`` takes it: numpy's square differs in the last bit on some."""
    h = np.empty(len(r))
    # a block of Python floats at a time: one list of all 120k rows of a
    # compare arm raised its peak memory by ≈0.9 MB
    for lo in range(0, len(r), 4096):
        h[lo : lo + 4096] = [hw * hw - (e - c) ** 2 for e in r[lo : lo + 4096].tolist()]
    return h


_GRADIENT_EPS = 1e-6  # check_gradient's central-difference step
_GRADIENT_REL_TOL = 1e-5  # the largest relative error check_gradient accepts


def check_gradient(b: BarrierSpec, states: np.ndarray) -> float:
    """Compare grad_h against central finite differences of h, step 1e-6.

    The band's margin terms are held to the same differences: its h, its
    gradient norm, and its dh/dt along v = e_i (the gradient's i-th position
    component, with no velocity block).  Returns the worst relative error
    over the given states; raises GradientMismatchError when it exceeds 1e-5.
    """
    worst = 0.0
    for x in np.atleast_2d(states):
        g = np.asarray(b.grad_h(x), dtype=float)
        fd = np.empty_like(g)
        for i in range(len(x)):
            xp = np.array(x, dtype=float)
            xm = np.array(x, dtype=float)
            xp[i] += _GRADIENT_EPS
            xm[i] -= _GRADIENT_EPS
            fd[i] = (b.h(xp) - b.h(xm)) / (2.0 * _GRADIENT_EPS)
        scale = max(float(np.linalg.norm(g)), 1.0)
        err = float(np.linalg.norm(fd - g)) / scale
        if isinstance(b, BandBarrier):
            fused = np.zeros_like(fd)
            pos = x[:3].tolist()
            fused[:3] = [b.margin_terms(None, pos + e)[1] for e in np.eye(3).tolist()]
            h, _, grad_norm = b.margin_terms(None, x.tolist())
            err = max(
                err,
                float(np.linalg.norm(fd - fused)) / scale,
                abs(grad_norm - float(np.linalg.norm(fd))) / scale,
                abs(h - b.h(x)) / max(abs(h), 1.0),
            )
        worst = max(worst, err)
    if worst > _GRADIENT_REL_TOL:
        raise GradientMismatchError(
            f"gradient mismatch: relative error {worst:.3e} > {_GRADIENT_REL_TOL:.1e}"
        )
    return worst


def orbital_range_barrier(gamma: float, d_bar: float) -> BandBarrier:
    """Annular range barrier keeping the orbital radius near 2 body radii.

    h(r, v) = 0.4^2 - (|r| - 2)^2, which is zero exactly at r = 2 +- 0.4 and
    positive strictly inside.  The gradient lives in the position block
    only; velocity does not enter h.  The margin terms keep two_body_field's
    singularity floor.
    """
    spec = BandBarrier(gamma=gamma, d_bar=d_bar, center=2.0, half_width=0.4, floor=SINGULARITY_FLOOR)
    check_gradient(spec, _orbital_check_states(spec.center, spec.half_width))
    return spec


def planar_disk_barrier(rho: float, gamma: float, d_bar: float) -> DiskBarrier:
    """Disk barrier for the planar demo: h(x) = rho^2 - |x|^2, on floats."""
    if problems := barrier_problems(rho=rho):
        raise ValueError(problems[0])
    spec = DiskBarrier(gamma=gamma, d_bar=d_bar, half_width=rho)
    check_gradient(spec, _disk_check_states(rho))
    return spec


def _orbital_check_states(center: float, half_width: float) -> np.ndarray:
    # Deterministic spread of radii/directions inside the safe shell; catches
    # hand-derivation errors in grad_h at construction time.
    radii = np.linspace(center - 0.9 * half_width, center + 0.9 * half_width, 8)
    angles = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
    states = []
    for r in radii:
        for a in angles:
            states.append(
                [r * np.cos(a), r * np.sin(a) * 0.8, r * np.sin(a) * 0.6, 0.1, -0.2, 0.05]
            )
    return np.array(states)


def _disk_check_states(rho: float) -> np.ndarray:
    radii = np.linspace(0.1 * rho, 0.95 * rho, 6)
    angles = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
    return np.array(
        [[r * np.cos(a), r * np.sin(a)] for r in radii for a in angles]
    )


# --- Margin (trigger condition) evaluations ---


def barrier_condition_margin(b: BarrierSpec, flow: Flow, x: Sequence[float]) -> float:
    """Robust barrier-condition margin along the control-free flow.

    Positive means the barrier condition holds with room to spare; the
    on-demand triggers fire when this reaches zero.  ``flow`` is the
    disturbance-free closed-loop field (disturbance is covered by the
    ``|grad h| * d_bar`` term), unused by the band.  ``x`` is any float
    sequence; the disk's closed form costs least on Python floats.
    """
    return _condition_margin(b, b.margin_terms(flow, x))


def barrier_condition_rows(b: BandBarrier, states: np.ndarray) -> np.ndarray:
    """:func:`barrier_condition_margin` of each row of ``states`` for the
    band, bit for bit."""
    return _condition_margin(b, b.margin_rows(states))


def _condition_margin(b: BarrierSpec, terms: tuple):
    """The robust barrier condition of the margin terms ``(h, dh/dt,
    |grad h|)``, on floats or on rows."""
    h, lfh, grad_norm = terms
    return (lfh - grad_norm * b.d_bar) + b.gamma * h


def filter_off_margin(b: BarrierSpec, nominal_flow: Flow, x: Sequence[float], gap: float) -> float:
    """Margin whose rise through zero allows switching the safety filter off.

    Equals ``barrier_condition_margin`` under the nominal closed loop minus a
    hysteresis gap, so the filter only disengages once the nominal controller
    satisfies the barrier condition with that much slack.  A zero gap reduces
    this to the on-trigger margin; running scenarios require a positive gap
    (enforced at scenario construction) for the off-period dwell guarantee.
    """
    if gap < 0.0:
        raise ValueError("gap must be >= 0")
    return barrier_condition_margin(b, nominal_flow, x) - gap


def maneuver_timing_margin(
    model: "InterEventTimeModel", b: BandBarrier, x: Sequence[float]
) -> float:
    """Margin that fires when the expected inter-event payoff stops improving.

    The fitted model maps the barrier value to the expected time until the
    next safety trigger.  Along the flow that expectation changes at rate
    ``model'(h(x)) * dh/dt``; this margin is ``(1 + rate) / 2`` and crosses
    zero exactly when the expectation decays faster than real time advances,
    i.e. when waiting longer no longer pays.  Outside the fitted range the
    model derivative is clamped, which never fabricates a firing.  ``b`` is
    the band: dh/dt comes from its margin terms, which take no flow.
    """
    h, lfh, _ = b.margin_terms(None, x)
    rate = model.evaluate(h).derivative * lfh
    return 0.5 * (1.0 + rate)


def maneuver_timing_rows(
    model: "InterEventTimeModel", b: BandBarrier, states: np.ndarray
) -> np.ndarray:
    """:func:`maneuver_timing_margin` of each row of ``states``, bit for bit:
    the model's slope on each row's segment (:meth:`InterEventTimeModel.slopes`)
    times dh/dt from ``margin_rows``."""
    h, lfh, _ = b.margin_rows(states)
    return 0.5 * (1.0 + model.slopes(h) * lfh)
