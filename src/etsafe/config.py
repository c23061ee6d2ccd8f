"""Declarative scenario configuration: INI schema, validation, and builders.

The file format is plain INI (one section per subsystem), diff-friendly and
language-agnostic.  All values are validated before any run starts; every
problem found is reported at once.  See the README for the full key schema.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .barrier import orbital_range_barrier, planar_disk_barrier
from .dynamics import DisturbanceModel, GravityModel
from .inter_event import _BASES, _STATISTICS
from .numerics import EventLocatorConfig, IntegratorConfig
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
    gamma: float
    rho: float
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
        barrier = orbital_range_barrier(
            self.gravity, gamma=self.gamma, d_bar=self.disturbance.d_bar
        )
        return SatelliteScenario(
            gravity=self.gravity,
            barrier=barrier,
            controller=self.controller,
            # the zonal field peaks at the band's inner radius
            disturbance=replace(
                self.disturbance,
                seed=self.seed,
                shell_inner=barrier.center - barrier.half_width,
            ),
            integrator=self.integrator,
            events=self.events,
            allow_initial_jump=self.allow_initial_jump,
        )

    def build_planar(self) -> PlanarScenario:
        return PlanarScenario(
            barrier=planar_disk_barrier(
                rho=self.rho, gamma=self.gamma, d_bar=self.disturbance.d_bar
            ),
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
    return np.array([float(tok) for tok in text.replace(",", " ").split()])


def parse_config(path: str) -> ScenarioConfig:
    """Read and validate one scenario configuration file.

    Raises ConfigError listing every violated check; never partially applies.
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

    def build(section: str, make, **values):
        """``make(**values)``, its ValueError recorded under ``[section]``;
        None if that fails or a value did not parse."""
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

    gravity = build(
        "gravity",
        GravityModel,
        mu=get("gravity", "mu", float, 1.0),
        R=get("gravity", "R", float, 1.0),
    )

    d_bar = get("disturbance", "d_bar", float, 0.0)
    disturbance = build(
        "disturbance",
        DisturbanceModel,
        kind=get("disturbance", "kind", str, "none"),
        d_bar=d_bar,
        hold_time=get("disturbance", "hold_time", float, 1.0),
        dim=2 if kind == "planar-demo" else 3,
    )

    gamma = get("barrier", "gamma", float)
    rho = get("barrier", "rho", float, 1.0)
    barrier_d_bar = get("barrier", "d_bar", float, d_bar if d_bar is not None else 0.0)

    controller = build(
        "controller",
        StationKeepingConfig,
        post_jump_margin=get("controller", "post_jump_margin", float, 0.01),
        retarget_gain=get("controller", "retarget_gain", float, 0.5),
    )

    promote = get("filter", "promote_rate", float, 0.05)
    gap = get("filter", "hysteresis_gap", float, 0.05)
    recovery = get("filter", "recovery_level", float, 0.2)
    goal = get("filter", "goal", _parse_vector, np.zeros(2))
    gain = get("filter", "gain", float, 1.0)

    integrator = build(
        "integrator",
        IntegratorConfig,
        step_size=get("integrator", "step_size", float, 0.05),
        interpolation=get("integrator", "interpolation", str, "cubic-hermite"),
    )
    events = build(
        "events",
        EventLocatorConfig,
        time_tolerance=get("events", "time_tolerance", float, 1e-9),
        value_tolerance=get("events", "value_tolerance", float, 1e-9),
        max_bisections=get("events", "max_bisections", int, 200),
    )

    tau_path = get("tau", "model_path", str, "")
    tau_grid = get(
        "tau",
        "radius_grid",
        _parse_vector,
        np.array([1.625, 1.68, 1.76, 1.85, 1.93, 2.0, 2.07, 2.16, 2.25, 2.33, 2.375]),
    )
    tau_n = get("tau", "n_per_radius", int, 55)
    tau_wait = get("tau", "max_wait", float, 6000.0)
    # validated only: fit-tau takes --statistic and --basis
    tau_stat = get("tau", "statistic", str, "median")
    tau_basis = get("tau", "basis", str, "piecewise-linear")

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

    checks = [
        (horizon is None or horizon > 0.0, "[scenario] horizon must be > 0"),
        (seed is None or seed >= 0, "[scenario] seed must be >= 0"),
        (gamma is None or gamma > 0.0, "[barrier] gamma must be > 0"),
        (rho is None or rho > 0.0, "[barrier] rho must be > 0"),
        (promote is None or promote > 0.0, "[filter] promote_rate must be > 0"),
        (gap is None or gap > 0.0, "[filter] hysteresis_gap must be > 0"),
        (recovery is None or recovery > 0.0, "[filter] recovery_level must be > 0"),
        (tau_n is None or tau_n >= 1, "[tau] n_per_radius must be >= 1"),
        (tau_wait is None or tau_wait > 0.0, "[tau] max_wait must be > 0"),
        (tau_stat in _STATISTICS, f"[tau] statistic must be {' or '.join(_STATISTICS)}"),
        (tau_basis in _BASES, f"[tau] basis must be {' or '.join(_BASES)}"),
    ]
    for ok, message in checks:
        if not ok:
            problems.append(message)

    if (
        barrier_d_bar is not None
        and d_bar is not None
        and barrier_d_bar != d_bar
    ):
        problems.append(
            "[barrier] d_bar must equal [disturbance] d_bar "
            f"({barrier_d_bar!r} != {d_bar!r}); the margin's robust term must "
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
        gamma=gamma,
        rho=rho,
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
