"""Runtime scenario bundles consumed by the simulation engine.

A scenario collects the dynamics, barrier, controller parameters, and
numerical settings of one experiment.  Construction is cheap and pure; the
engine realizes per-run disturbance streams itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .barrier import BandBarrier, BarrierSpec, DiskBarrier
from .dynamics import SINGULARITY_FLOOR, DisturbanceModel, _two_body_rk4, two_body_field
from .numerics import EventLocatorConfig, Field, IntegratorConfig, span_problems
from .orbital import StationKeepingConfig


def _check_parts(d: DisturbanceModel, b: BarrierSpec, geometry: type, dim: int) -> None:
    """A scenario's rules for its barrier and disturbance: a barrier of the
    ``geometry`` the scenario's state takes, and a disturbance with the
    barrier's bound in ``dim`` dimensions."""
    if not isinstance(b, geometry):
        raise ValueError(f"the scenario needs a {geometry.__name__}, got a {type(b).__name__}")
    if d.d_bar != b.d_bar:
        raise ValueError(
            f"disturbance bound and barrier d_bar must agree: {d.d_bar!r} != {b.d_bar!r}"
        )
    if d.dim != dim:
        raise ValueError(f"the scenario needs a {dim}-D disturbance, got {d.dim}-D")


@dataclass(frozen=True)
class SatelliteScenario:
    """Orbit keeping around a normalized central body (mu = R = 1)."""

    barrier: BandBarrier
    controller: StationKeepingConfig
    disturbance: DisturbanceModel
    integrator: IntegratorConfig = IntegratorConfig()
    events: EventLocatorConfig = EventLocatorConfig()
    allow_initial_jump: bool = True

    def __post_init__(self) -> None:
        _check_parts(self.disturbance, self.barrier, BandBarrier, 3)

    def nominal_flow(self):
        """Control-free flow used inside the trigger margins."""
        return two_body_field

    def disturbed_field(self, stream: int = 0) -> Field:
        """Integration field including the realized disturbance stream.

        Takes any float sequence and returns the derivative as a tuple, and
        carries its own RK4 step, ``fld.rk4`` (see :mod:`etsafe.numerics`).
        """
        d = self.disturbance.realize(stream)

        def fld(t: float, x: Sequence[float]) -> tuple[float, ...]:
            return two_body_field(x, accel=d(t))

        fld.rk4 = _two_body_rk4(SINGULARITY_FLOOR, d)
        return fld


@dataclass(frozen=True)
class FilterConfig:
    """The planar loop's ``[filter]`` settings: the promoting filter's rate,
    the hysteresis gap that ends an on period, the recovery level above which
    the nominal loop must keep that gap, and the nominal controller's goal
    (a 2-vector) and gain."""

    promote_rate: float = 0.05
    hysteresis_gap: float = 0.05
    recovery_level: float = 0.2
    goal: Sequence[float] = (0.0, 0.0)
    gain: float = 1.0

    def __post_init__(self) -> None:
        for name in ("promote_rate", "hysteresis_gap", "recovery_level"):
            if problems := span_problems(name, getattr(self, name)):
                raise ValueError(problems[0])
        if len(self.goal) != 2:
            raise ValueError("goal must be a 2-vector")
        if not all(math.isfinite(g) for g in self.goal):
            raise ValueError("goal must be finite")
        if not math.isfinite(self.gain):
            raise ValueError("gain must be finite")


@dataclass(frozen=True)
class PlanarScenario:
    """Planar single integrator ``dx/dt = u + d`` with a goal-tracking
    nominal controller: the one owner of the planar closed loop, whose
    fields, fused steps and filter the engine builds from
    :meth:`nominal_input`."""

    barrier: DiskBarrier
    disturbance: DisturbanceModel
    integrator: IntegratorConfig
    filter: FilterConfig = FilterConfig()
    events: EventLocatorConfig = EventLocatorConfig()

    def __post_init__(self) -> None:
        _check_parts(self.disturbance, self.barrier, DiskBarrier, 2)

    def nominal_input(self):
        """``control(x0, x1) -> (u0, u1)``: the goal-tracking nominal input
        ``-gain * (x - goal)`` on named Python floats."""
        g0, g1 = (float(g) for g in self.filter.goal)
        neg_gain = -self.filter.gain

        def control(x0: float, x1: float) -> tuple[float, float]:
            return neg_gain * (x0 - g0), neg_gain * (x1 - g1)

        return control

    def nominal_flow(self):
        """Disturbance-free nominal closed loop ``0.0 + u`` of the input
        :meth:`nominal_input`, used by the trigger margins.  The single
        integrator has zero drift and identity input, so its closed loop
        adds the input to +0.0: exact, save that -0.0 becomes +0.0."""
        control = self.nominal_input()

        def flow(x: Sequence[float]) -> tuple[float, float]:
            u0, u1 = control(*x)
            return 0.0 + u0, 0.0 + u1

        return flow
