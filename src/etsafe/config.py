"""Declarative scenario configuration: INI schema, validation, and the built scenario.

The file format is plain INI (one section per subsystem), diff-friendly and
language-agnostic.  All values are validated before any run starts; every
problem found is reported at once.  See the README for the full key schema.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Union

import numpy as np

from .barrier import barrier_problems, orbital_range_barrier, planar_disk_barrier
from .dynamics import DisturbanceModel, seed_problems
from .inter_event import DEFAULT_MAX_WAIT, campaign_problems
from .numerics import EventLocatorConfig, IntegratorConfig, span_problems
from .orbital import StationKeepingConfig
from .scenarios import FilterConfig, PlanarScenario, SatelliteScenario

_KINDS = ("satellite", "planar-demo")
_SCHEMES = ("greedy", "maneuver", "intermittent")
_SCHEMES_BY_KIND = {
    "satellite": ("greedy", "maneuver"),
    "planar-demo": ("intermittent",),
}


class ConfigError(ValueError):
    """Configuration invalid; message lists every failed check."""


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated configuration: the scenario it built and the run settings
    around it.

    The run's seed is ``scenario.disturbance.seed``.  ``tau_model_path`` is
    resolved relative to the config file's directory.  ``hours_per_time_unit``
    only annotates outputs; nothing is rescaled.
    """

    kind: str
    trigger_scheme: str
    horizon: float
    hours_per_time_unit: float
    initial_state: np.ndarray
    tau_model_path: Optional[str]
    tau_radius_grid: np.ndarray
    tau_n_per_radius: int
    tau_max_wait: float
    scenario: Union[SatelliteScenario, PlanarScenario]

    def build_satellite(self) -> SatelliteScenario:
        """The scenario; a ConfigError unless it is a satellite one."""
        if self.kind != "satellite":
            raise ConfigError(f"a satellite scenario is needed, not a {self.kind!r} one")
        return self.scenario

    def build_planar(self) -> PlanarScenario:
        """The scenario; a ConfigError unless it is a planar one."""
        if self.kind != "planar-demo":
            raise ConfigError(f"a planar-demo scenario is needed, not a {self.kind!r} one")
        return self.scenario


def _parse_vector(text: str) -> np.ndarray:
    vector = np.array([float(tok) for tok in text.replace(",", " ").split()])
    if not np.all(np.isfinite(vector)):
        raise ValueError(f"non-finite entry in {text!r}")
    return vector


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered not in ("true", "false", "1", "0", "yes", "no"):
        raise ValueError(text)
    return lowered in ("true", "1", "yes")


# Every key a config may set, by section, with the cast that reads it; any
# other section or key is rejected.  Both kinds read every section, though
# [controller] serves only the satellite, [filter] only the planar loop, and
# [initial] holds each kind's own keys.
SCHEMA = {
    "scenario": dict(
        kind=str, trigger_scheme=str, seed=int, horizon=float,
        hours_per_time_unit=float, allow_initial_jump=_parse_bool,
    ),
    "disturbance": dict(kind=str, d_bar=float, hold_time=float),
    "barrier": dict(gamma=float, rho=float, d_bar=float),
    "controller": dict(post_jump_margin=float, retarget_gain=float),
    "filter": dict(
        promote_rate=float, hysteresis_gap=float, recovery_level=float,
        goal=_parse_vector, gain=float,
    ),
    "integrator": dict(step_size=float),
    "events": dict(time_tolerance=float, value_tolerance=float, max_bisections=int),
    "initial": dict(position=_parse_vector, velocity=_parse_vector, state=_parse_vector),
    "tau": dict(model_path=str, radius_grid=_parse_vector, n_per_radius=int, max_wait=float),
}


def parse_config(
    path: str,
    seed: Optional[int] = None,
    horizon: Optional[float] = None,
    tau_model_path: Optional[str] = None,
) -> ScenarioConfig:
    """Read and validate one scenario configuration file and build its scenario.

    Each runtime part (disturbance, controller, filter, integrator, event
    locator) is built from the keys its section sets, so a key left out
    takes the default of the type that owns it and the type's own range
    checks apply; the barrier and then the scenario are built from them.
    ``seed``, ``horizon`` and ``tau_model_path`` (the --seed, --horizon and
    --tau-model flags) take the place of the file's values, the first two
    under the same rules.  Raises ConfigError listing every violated check.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err

    # a [DEFAULT] key would be set in every section, and no key belongs to all
    problems = [f"unknown key [DEFAULT] {key}" for key in parser.defaults()]
    for section in parser.sections():
        # configparser lowercases keys, and lists the [DEFAULT] ones in every section
        known = {key.lower() for key in SCHEMA.get(section, ())} | set(parser.defaults())
        unknown = [key for key in parser.options(section) if key not in known]
        problems += (
            [f"unknown key [{section}] {key}" for key in unknown]
            if section in SCHEMA
            else [f"unknown section [{section}]"]
        )

    def get(section: str, key: str, default=None):
        try:
            raw = parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if default is None:
                problems.append(f"missing [{section}] {key}")
            return default
        try:
            return SCHEMA[section][key](raw)
        except ValueError:
            problems.append(f"bad value for [{section}] {key}: {raw!r}")
            return None

    def build(section: str, make, keys=None):
        """``make`` called with each key of ``keys`` (default: all of the
        section's) that ``[section]`` sets, so the type's own defaults fill in
        the rest; its ValueError recorded under ``[section]``.  None if that
        fails or a value did not parse."""
        keys = SCHEMA[section] if keys is None else keys
        values = {k: get(section, k) for k in keys if parser.has_option(section, k)}
        if any(v is None for v in values.values()):
            return None
        try:
            return make(**values)
        except ValueError as err:
            problems.append(f"[{section}] {err}")
            return None

    kind = get("scenario", "kind")
    scheme = get("scenario", "trigger_scheme")
    file_seed = get("scenario", "seed")
    file_horizon = get("scenario", "horizon")
    hours = get("scenario", "hours_per_time_unit", 1.0)
    # read for both kinds; SatelliteScenario's default fills it in
    initial_jump = build("scenario", dict, ["allow_initial_jump"])

    disturbance = build(
        "disturbance", partial(DisturbanceModel, dim=2 if kind == "planar-demo" else 3)
    )

    gamma = get("barrier", "gamma")
    rho = get("barrier", "rho", 1.0)
    # optional: when set, it must equal the bound of the built disturbance
    barrier_d_bar = get("barrier", "d_bar") if parser.has_option("barrier", "d_bar") else None

    controller = build("controller", StationKeepingConfig)
    integrator = build("integrator", IntegratorConfig)
    events = build("events", EventLocatorConfig)

    tau_path = get("tau", "model_path", "")
    grid = np.array([1.625, 1.68, 1.76, 1.85, 1.93, 2.0, 2.07, 2.16, 2.25, 2.33, 2.375])
    tau_grid = get("tau", "radius_grid", grid)
    tau_n = get("tau", "n_per_radius", 55)
    tau_wait = get("tau", "max_wait", DEFAULT_MAX_WAIT)

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
        pos, vel = get("initial", "position"), get("initial", "velocity")
        initial = None if pos is None or vel is None else np.concatenate([pos, vel])
        if initial is not None and (len(pos), len(vel)) != (3, 3):
            problems.append("[initial] position and velocity must be 3-vectors")
    else:
        initial = get("initial", "state")
        if initial is not None and len(initial) != 2:
            problems.append("[initial] state must be a 2-vector")

    problems += span_problems("[scenario] horizon", file_horizon)
    problems += seed_problems("[scenario] seed", file_seed)
    problems += span_problems("[scenario] hours_per_time_unit", hours)
    gamma_problems = barrier_problems(gamma=gamma)
    rho_problems = barrier_problems(rho=rho)
    problems += [f"[barrier] {p}" for p in gamma_problems + rho_problems]
    filter_config = build("filter", FilterConfig)

    # built once its inputs passed their own checks, so no rule is reported twice
    barrier = None
    if disturbance is not None and gamma is not None and not gamma_problems:
        d_bar = disturbance.d_bar
        if kind == "satellite":
            barrier = build("barrier", partial(orbital_range_barrier, gamma, d_bar), [])
        elif kind == "planar-demo" and rho is not None and not rho_problems:
            barrier = build("barrier", partial(planar_disk_barrier, rho, gamma, d_bar), [])
    band = barrier if kind == "satellite" else None
    problems += [f"[tau] {p}" for p in campaign_problems(band, tau_grid, tau_n, tau_wait)]

    if disturbance is not None and barrier_d_bar not in (None, disturbance.d_bar):
        problems.append(
            "[barrier] d_bar must equal [disturbance] d_bar "
            f"({barrier_d_bar!r} != {disturbance.d_bar!r}); the margin's robust term must "
            "use the actual disturbance bound"
        )

    if scheme == "maneuver" and not tau_path:
        problems.append("[tau] model_path is required for the maneuver scheme")

    problems += span_problems("--horizon", horizon) + seed_problems("--seed", seed)
    if problems:
        raise ConfigError(f"invalid config {path}:\n  " + "\n  ".join(problems))

    seed = file_seed if seed is None else seed
    disturbance = replace(disturbance, seed=seed)
    parts = dict(barrier=barrier, disturbance=disturbance, integrator=integrator, events=events)
    if kind == "satellite":
        scenario = SatelliteScenario(controller=controller, **initial_jump, **parts)
    else:
        scenario = PlanarScenario(filter=filter_config, **parts)
    if tau_model_path is None and tau_path:
        config_dir = os.path.dirname(os.path.abspath(path))
        tau_model_path = os.path.normpath(os.path.join(config_dir, tau_path))
    return ScenarioConfig(
        kind=kind,
        trigger_scheme=scheme,
        horizon=file_horizon if horizon is None else horizon,
        hours_per_time_unit=hours,
        initial_state=initial,
        tau_model_path=tau_model_path,
        tau_radius_grid=tau_grid,
        tau_n_per_radius=tau_n,
        tau_max_wait=tau_wait,
        scenario=scenario,
    )
