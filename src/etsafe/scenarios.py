"""Runtime scenario bundles consumed by the simulation engine.

A scenario collects the dynamics, barrier, controller parameters, and
numerical settings of one experiment.  Construction is cheap and pure; the
engine realizes per-run disturbance streams itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .barrier import BarrierSpec
from .dynamics import (
    ControlAffineSystem,
    DisturbanceModel,
    GravityModel,
    _two_body_rk4,
    goal_tracking_controller,
    single_integrator,
    two_body_field,
)
from .numerics import EventLocatorConfig, Field, IntegratorConfig
from .orbital import StationKeepingConfig


@dataclass(frozen=True)
class SatelliteScenario:
    """Orbit keeping around a normalized central body (mu = R = 1)."""

    gravity: GravityModel
    barrier: BarrierSpec
    controller: StationKeepingConfig
    disturbance: DisturbanceModel
    integrator: IntegratorConfig = IntegratorConfig()
    events: EventLocatorConfig = EventLocatorConfig()
    allow_initial_jump: bool = True

    def __post_init__(self) -> None:
        if self.disturbance.d_bar != self.barrier.d_bar:
            raise ValueError(
                "disturbance bound and barrier d_bar must agree: "
                f"{self.disturbance.d_bar!r} != {self.barrier.d_bar!r}"
            )
        if self.disturbance.dim != 3:
            raise ValueError("satellite scenario needs a 3-D disturbance")

    def nominal_flow(self):
        """Control-free flow used inside the trigger margins."""
        g = self.gravity
        return lambda x: two_body_field(g, x)

    def disturbed_field(self, stream: int = 0) -> Field:
        """Integration field including the realized disturbance stream.

        Takes any float sequence and returns the derivative as a tuple, and
        carries its own RK4 step, ``fld.rk4`` (see :mod:`etsafe.numerics`).
        """
        g = self.gravity
        d = self.disturbance.realize(stream)

        def fld(t: float, x: Sequence[float]) -> tuple[float, ...]:
            return two_body_field(g, x, accel=d(t, x))

        fld.rk4 = _two_body_rk4(g.mu, g.singularity_floor, d, self.disturbance.by_state)
        return fld


@dataclass(frozen=True)
class PlanarScenario:
    """Planar single integrator with a goal-tracking nominal controller."""

    barrier: BarrierSpec
    goal: np.ndarray
    gain: float
    disturbance: DisturbanceModel
    promote_rate: float
    hysteresis_gap: float
    recovery_level: float
    integrator: IntegratorConfig
    events: EventLocatorConfig = EventLocatorConfig()
    system: ControlAffineSystem = field(default_factory=lambda: single_integrator(2))

    def __post_init__(self) -> None:
        if self.disturbance.d_bar != self.barrier.d_bar:
            raise ValueError(
                "disturbance bound and barrier d_bar must agree: "
                f"{self.disturbance.d_bar!r} != {self.barrier.d_bar!r}"
            )
        if self.disturbance.dim != 2:
            raise ValueError("planar scenario needs a 2-D disturbance")
        if not self.promote_rate > 0.0:
            raise ValueError("promote_rate must be > 0")
        if not self.hysteresis_gap > 0.0:
            raise ValueError("hysteresis_gap must be > 0")
        if not self.recovery_level > 0.0:
            raise ValueError("recovery_level must be > 0")

    def k_nom(self):
        return goal_tracking_controller(self.goal, self.gain)

    def nominal_flow(self):
        """Disturbance-free nominal closed loop, used by the trigger margins."""
        k = self.k_nom()
        sys = self.system
        return lambda x: sys.closed_loop(x, k(x))
