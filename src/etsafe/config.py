"""Declarative scenario configuration: INI schema, validation, and builders.

The file format is plain INI (one section per subsystem), diff-friendly and
language-agnostic.  All values are validated before any run starts; every
problem found is reported at once.  See the README for the full key schema.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .barrier import BarrierSpec, orbital_range_barrier, planar_disk_barrier
from .dynamics import DisturbanceModel, GravityModel
from .inter_event import _BASES, _STATISTICS, DEFAULT_MAX_WAIT, campaign_problems
from .numerics import EventLocatorConfig, IntegratorConfig, span_problems
from .orbital import StationKeepingConfig
from .scenarios import PlanarScenario, SatelliteScenario

_KINDS = ("satellite", "planar-demo")
_SCHEMES = ("greedy", "maneuver", "intermittent")
_SCHEMES_BY_KIND = {
    "satellite": ("greedy", "maneuver"),
    "planar-demo": ("intermittent",),
}


class ConfigError(ValueError):
    """Configuration invalid; message lists every failed check."""


@dataclass
class ScenarioConfig:
    """Validated scenario description, ready to build runtime objects.

    ``tau_model_path`` is resolved relative to the config file's directory.
    ``hours_per_time_unit`` only annotates outputs; nothing is rescaled.
    ``build_satellite``/``build_planar`` give ``disturbance`` its ``seed``,
    so an override of ``seed`` reaches the disturbance.
    """

    kind: str
    trigger_scheme: str
    seed: int
    horizon: float
    hours_per_time_unit: float
    allow_initial_jump: bool
    gravity: GravityModel
    disturbance: DisturbanceModel
    barrier: BarrierSpec
    controller: StationKeepingConfig
    promote_rate: float
    hysteresis_gap: float
    recovery_level: float
    goal: np.ndarray
    gain: float
    integrator: IntegratorConfig
    events: EventLocatorConfig
    initial_state: np.ndarray
    tau_model_path: Optional[str]
    tau_radius_grid: np.ndarray
    tau_n_per_radius: int
    tau_max_wait: float

    def build_satellite(self) -> SatelliteScenario:
        return SatelliteScenario(
            gravity=self.gravity,
            barrier=self.barrier,
            controller=self.controller,
            # the zonal field peaks at the band's inner radius
            disturbance=replace(
                self.disturbance,
                seed=self.seed,
                shell_inner=self.barrier.center - self.barrier.half_width,
            ),
            integrator=self.integrator,
            events=self.events,
            allow_initial_jump=self.allow_initial_jump,
        )

    def build_planar(self) -> PlanarScenario:
        return PlanarScenario(
            barrier=self.barrier,
            goal=self.goal,
            gain=self.gain,
            disturbance=replace(self.disturbance, seed=self.seed),
            promote_rate=self.promote_rate,
            hysteresis_gap=self.hysteresis_gap,
            recovery_level=self.recovery_level,
            integrator=self.integrator,
            events=self.events,
        )


def _parse_vector(text: str) -> np.ndarray:
    vector = np.array([float(tok) for tok in text.replace(",", " ").split()])
    if not np.all(np.isfinite(vector)):
        raise ValueError(f"non-finite entry in {text!r}")
    return vector


def parse_config(path: str) -> ScenarioConfig:
    """Read and validate one scenario configuration file.

    The gravity model, disturbance model, controller, integrator and
    event-locator settings are each built from the keys their section sets,
    so a key left out takes the default of the type that owns it, and the
    type's own range checks apply; the barrier is built from them.  Raises
    ConfigError listing every violated check; never partially applies.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err

    problems: list[str] = []

    def get(section: str, key: str, cast, default=None):
        try:
            raw = parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if default is None:
                problems.append(f"missing [{section}] {key}")
                return None
            return default
        try:
            if cast is bool:
                lowered = raw.strip().lower()
                if lowered not in ("true", "false", "1", "0", "yes", "no"):
                    raise ValueError(raw)
                return lowered in ("true", "1", "yes")
            return cast(raw)
        except ValueError:
            problems.append(f"bad value for [{section}] {key}: {raw!r}")
            return None

    def build(section: str, make, **casts):
        """``make`` called with each key of ``casts`` that ``[section]`` sets,
        read with its cast, so the type's own defaults fill in the rest; its
        ValueError recorded under ``[section]``.  None if that fails or a
        value did not parse."""
        values = {k: get(section, k, c) for k, c in casts.items() if parser.has_option(section, k)}
        if any(v is None for v in values.values()):
            return None
        try:
            return make(**values)
        except ValueError as err:
            problems.append(f"[{section}] {err}")
            return None

    kind = get("scenario", "kind", str)
    scheme = get("scenario", "trigger_scheme", str)
    seed = get("scenario", "seed", int)
    horizon = get("scenario", "horizon", float)
    hours = get("scenario", "hours_per_time_unit", float, 1.0)
    allow_initial = get("scenario", "allow_initial_jump", bool, True)

    gravity = build("gravity", GravityModel, mu=float, R=float)
    disturbance = build(
        "disturbance",
        partial(DisturbanceModel, dim=2 if kind == "planar-demo" else 3),
        kind=str,
        d_bar=float,
        hold_time=float,
    )

    gamma = get("barrier", "gamma", float)
    rho = get("barrier", "rho", float, 1.0)
    # optional: when set, it must equal the bound of the built disturbance
    barrier_d_bar = None
    if parser.has_option("barrier", "d_bar"):
        barrier_d_bar = get("barrier", "d_bar", float)

    controller = build(
        "controller", StationKeepingConfig, post_jump_margin=float, retarget_gain=float
    )

    promote = get("filter", "promote_rate", float, 0.05)
    gap = get("filter", "hysteresis_gap", float, 0.05)
    recovery = get("filter", "recovery_level", float, 0.2)
    goal = get("filter", "goal", _parse_vector, np.zeros(2))
    gain = get("filter", "gain", float, 1.0)

    integrator = build("integrator", IntegratorConfig, step_size=float, interpolation=str)
    events = build(
        "events",
        EventLocatorConfig,
        time_tolerance=float,
        value_tolerance=float,
        max_bisections=int,
    )

    tau_path = get("tau", "model_path", str, "")
    # the default radii are in units of [gravity] R
    R = gravity.R if gravity is not None else 1.0
    grid = np.array([1.625, 1.68, 1.76, 1.85, 1.93, 2.0, 2.07, 2.16, 2.25, 2.33, 2.375]) * R
    tau_grid = get("tau", "radius_grid", _parse_vector, grid)
    tau_n = get("tau", "n_per_radius", int, 55)
    tau_wait = get("tau", "max_wait", float, DEFAULT_MAX_WAIT)

    if kind is not None and kind not in _KINDS:
        problems.append(f"[scenario] kind must be one of {_KINDS}, got {kind!r}")
    if scheme is not None and scheme not in _SCHEMES:
        problems.append(f"[scenario] trigger_scheme must be one of {_SCHEMES}, got {scheme!r}")
    if kind in _SCHEMES_BY_KIND and scheme is not None and scheme not in _SCHEMES_BY_KIND[kind]:
        problems.append(
            f"trigger_scheme {scheme!r} not available for kind {kind!r} "
            f"(expected one of {_SCHEMES_BY_KIND[kind]})"
        )

    if kind == "satellite":
        pos = get("initial", "position", _parse_vector)
        vel = get("initial", "velocity", _parse_vector)
        initial = None
        if pos is not None and vel is not None:
            if len(pos) != 3 or len(vel) != 3:
                problems.append("[initial] position and velocity must be 3-vectors")
            else:
                initial = np.concatenate([pos, vel])
    else:
        initial = get("initial", "state", _parse_vector)
        if initial is not None and len(initial) != 2:
            problems.append("[initial] state must be a 2-vector")

    if goal is not None and len(goal) != 2:
        problems.append("[filter] goal must be a 2-vector")

    problems += span_problems("[scenario] horizon", horizon)
    checks = [
        (seed is None or seed >= 0, "[scenario] seed must be >= 0"),
        (gamma is None or gamma > 0.0, "[barrier] gamma must be > 0"),
        (rho is None or rho > 0.0, "[barrier] rho must be > 0"),
        (promote is None or promote > 0.0, "[filter] promote_rate must be > 0"),
        (gap is None or gap > 0.0, "[filter] hysteresis_gap must be > 0"),
        (recovery is None or recovery > 0.0, "[filter] recovery_level must be > 0"),
    ]
    for ok, message in checks:
        if not ok:
            problems.append(message)

    # built once its inputs passed their own checks, so no rule is reported twice
    barrier = None
    if disturbance is not None and gamma is not None and gamma > 0.0:
        d_bar = disturbance.d_bar
        if kind == "satellite" and gravity is not None:
            barrier = build("barrier", partial(orbital_range_barrier, gravity, gamma, d_bar))
        elif kind == "planar-demo" and rho is not None and rho > 0.0:
            barrier = build("barrier", partial(planar_disk_barrier, rho, gamma, d_bar))
    band = barrier if kind == "satellite" else None
    problems += [f"[tau] {p}" for p in campaign_problems(band, tau_grid, tau_n, tau_wait)]
    # validated only: fit-tau takes --statistic and --basis
    for key, allowed in (("statistic", _STATISTICS), ("basis", _BASES)):
        if parser.has_option("tau", key) and get("tau", key, str) not in allowed:
            problems.append(f"[tau] {key} must be {' or '.join(allowed)}")

    if (
        barrier_d_bar is not None
        and disturbance is not None
        and barrier_d_bar != disturbance.d_bar
    ):
        problems.append(
            "[barrier] d_bar must equal [disturbance] d_bar "
            f"({barrier_d_bar!r} != {disturbance.d_bar!r}); the margin's robust term must "
            "use the actual disturbance bound"
        )

    if scheme == "maneuver" and not tau_path:
        problems.append("[tau] model_path is required for the maneuver scheme")

    if problems:
        raise ConfigError(f"invalid config {path}:\n  " + "\n  ".join(problems))

    resolved_tau = (
        os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(path)), tau_path))
        if tau_path
        else None
    )
    return ScenarioConfig(
        kind=kind,
        trigger_scheme=scheme,
        seed=seed,
        horizon=horizon,
        hours_per_time_unit=hours,
        allow_initial_jump=allow_initial,
        gravity=gravity,
        disturbance=disturbance,
        barrier=barrier,
        controller=controller,
        promote_rate=promote,
        hysteresis_gap=gap,
        recovery_level=recovery,
        goal=goal,
        gain=gain,
        integrator=integrator,
        events=events,
        initial_state=initial,
        tau_model_path=resolved_tau,
        tau_radius_grid=tau_grid,
        tau_n_per_radius=tau_n,
        tau_max_wait=tau_wait,
    )
