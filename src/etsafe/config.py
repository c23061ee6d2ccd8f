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
from .dynamics import _DISTURBANCE_KINDS, DisturbanceModel, GravityModel
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
    """

    kind: str
    trigger_scheme: str
    seed: int
    horizon: float
    hours_per_time_unit: float
    allow_initial_jump: bool
    mu: float
    R: float
    disturbance_kind: str
    d_bar: float
    hold_time: float
    gamma: float
    rho: float
    post_jump_margin: float
    retarget_gain: float
    promote_rate: float
    hysteresis_gap: float
    recovery_level: float
    goal: np.ndarray
    gain: float
    step_size: float
    interpolation: str
    time_tolerance: float
    value_tolerance: float
    max_bisections: int
    initial_state: np.ndarray
    tau_model_path: Optional[str]
    tau_radius_grid: np.ndarray
    tau_n_per_radius: int
    tau_max_wait: float

    def build_satellite(self) -> SatelliteScenario:
        g = GravityModel(mu=self.mu, R=self.R)
        barrier = orbital_range_barrier(g, gamma=self.gamma, d_bar=self.d_bar)
        center, half_width = barrier.radial_geometry()
        return SatelliteScenario(
            gravity=g,
            barrier=barrier,
            controller=StationKeepingConfig(
                post_jump_margin=self.post_jump_margin,
                retarget_gain=self.retarget_gain,
            ),
            # the zonal field peaks at the band's inner radius
            disturbance=replace(self._disturbance(dim=3), shell_inner=center - half_width),
            integrator=IntegratorConfig(
                step_size=self.step_size, interpolation=self.interpolation
            ),
            events=self._events(),
            allow_initial_jump=self.allow_initial_jump,
        )

    def build_planar(self) -> PlanarScenario:
        return PlanarScenario(
            barrier=planar_disk_barrier(rho=self.rho, gamma=self.gamma, d_bar=self.d_bar),
            goal=self.goal,
            gain=self.gain,
            disturbance=self._disturbance(dim=2),
            promote_rate=self.promote_rate,
            hysteresis_gap=self.hysteresis_gap,
            recovery_level=self.recovery_level,
            integrator=IntegratorConfig(
                step_size=self.step_size, interpolation=self.interpolation
            ),
            events=self._events(),
        )

    def _disturbance(self, dim: int) -> DisturbanceModel:
        return DisturbanceModel(
            kind=self.disturbance_kind,
            d_bar=self.d_bar,
            seed=self.seed,
            hold_time=self.hold_time,
            dim=dim,
        )

    def _events(self) -> EventLocatorConfig:
        return EventLocatorConfig(
            time_tolerance=self.time_tolerance,
            value_tolerance=self.value_tolerance,
            max_bisections=self.max_bisections,
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

    kind = get("scenario", "kind", str)
    scheme = get("scenario", "trigger_scheme", str)
    seed = get("scenario", "seed", int)
    horizon = get("scenario", "horizon", float)
    hours = get("scenario", "hours_per_time_unit", float, 1.0)
    allow_initial = get("scenario", "allow_initial_jump", bool, True)

    mu = get("gravity", "mu", float, 1.0)
    R = get("gravity", "R", float, 1.0)

    d_kind = get("disturbance", "kind", str, "none")
    d_bar = get("disturbance", "d_bar", float, 0.0)
    hold = get("disturbance", "hold_time", float, 1.0)

    gamma = get("barrier", "gamma", float)
    rho = get("barrier", "rho", float, 1.0)
    barrier_d_bar = get("barrier", "d_bar", float, d_bar if d_bar is not None else 0.0)

    margin = get("controller", "post_jump_margin", float, 0.01)
    retarget = get("controller", "retarget_gain", float, 0.5)

    promote = get("filter", "promote_rate", float, 0.05)
    gap = get("filter", "hysteresis_gap", float, 0.05)
    recovery = get("filter", "recovery_level", float, 0.2)
    goal = get("filter", "goal", _parse_vector, np.zeros(2))
    gain = get("filter", "gain", float, 1.0)

    step = get("integrator", "step_size", float, 0.05)
    interp = get("integrator", "interpolation", str, "cubic-hermite")

    ttol = get("events", "time_tolerance", float, 1e-9)
    vtol = get("events", "value_tolerance", float, 1e-9)
    bisections = get("events", "max_bisections", int, 200)

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
        (mu is None or mu > 0.0, "[gravity] mu must be > 0"),
        (R is None or R > 0.0, "[gravity] R must be > 0"),
        (d_bar is None or d_bar >= 0.0, "[disturbance] d_bar must be >= 0"),
        (hold is None or hold > 0.0, "[disturbance] hold_time must be > 0"),
        (gamma is None or gamma > 0.0, "[barrier] gamma must be > 0"),
        (rho is None or rho > 0.0, "[barrier] rho must be > 0"),
        (margin is None or margin > 0.0, "[controller] post_jump_margin must be > 0"),
        (
            retarget is None or 0.0 <= retarget < 1.0,
            "[controller] retarget_gain must be in [0, 1)",
        ),
        (promote is None or promote > 0.0, "[filter] promote_rate must be > 0"),
        (gap is None or gap > 0.0, "[filter] hysteresis_gap must be > 0"),
        (recovery is None or recovery > 0.0, "[filter] recovery_level must be > 0"),
        (step is None or step > 0.0, "[integrator] step_size must be > 0"),
        (ttol is None or ttol > 0.0, "[events] time_tolerance must be > 0"),
        (vtol is None or vtol > 0.0, "[events] value_tolerance must be > 0"),
        (bisections is None or bisections >= 1, "[events] max_bisections must be >= 1"),
        (tau_n is None or tau_n >= 1, "[tau] n_per_radius must be >= 1"),
        (tau_wait is None or tau_wait > 0.0, "[tau] max_wait must be > 0"),
        (
            tau_stat in ("median", "mean"),
            "[tau] statistic must be median or mean",
        ),
        (
            tau_basis in ("piecewise-linear", "polynomial"),
            "[tau] basis must be piecewise-linear or polynomial",
        ),
        (
            interp in ("linear", "cubic-hermite"),
            "[integrator] interpolation must be linear or cubic-hermite",
        ),
    ]
    for ok, message in checks:
        if not ok:
            problems.append(message)

    if d_kind is not None and d_kind not in _DISTURBANCE_KINDS:
        problems.append(f"[disturbance] unknown kind {d_kind!r}")
    if d_kind in _DISTURBANCE_KINDS and d_kind != "none" and d_bar is not None and not d_bar > 0.0:
        problems.append(f"[disturbance] kind {d_kind!r} requires d_bar > 0")

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
        mu=mu,
        R=R,
        disturbance_kind=d_kind,
        d_bar=d_bar,
        hold_time=hold,
        gamma=gamma,
        rho=rho,
        post_jump_margin=margin,
        retarget_gain=retarget,
        promote_rate=promote,
        hysteresis_gap=gap,
        recovery_level=recovery,
        goal=goal,
        gain=gain,
        step_size=step,
        interpolation=interp,
        time_tolerance=ttol,
        value_tolerance=vtol,
        max_bisections=bisections,
        initial_state=initial,
        tau_model_path=resolved_tau,
        tau_radius_grid=tau_grid,
        tau_n_per_radius=tau_n,
        tau_max_wait=tau_wait,
    )
