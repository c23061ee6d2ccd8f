"""Configuration parsing and validation tests."""

import configparser
import dataclasses
import io
import json
import math
import os
import re
import types

import numpy as np
import pytest

from etsafe.config import SCHEMA, ConfigError, parse_config
from etsafe.dynamics import DisturbanceModel
from etsafe.inter_event import DEFAULT_MAX_WAIT
from etsafe.numerics import EventLocatorConfig, IntegratorConfig
from etsafe.orbital import StationKeepingConfig
from etsafe.scenarios import FilterConfig

GREEDY = """
[scenario]
kind = satellite
trigger_scheme = greedy
seed = 1
horizon = 100.0

[disturbance]
kind = seeded-piecewise-constant
d_bar = 0.001
hold_time = 1.0

[barrier]
gamma = 0.1

[initial]
position = 2.2, 0.0, 0.0
velocity = 0.0, 0.6742, 0.0
"""

PLANAR = """
[scenario]
kind = planar-demo
trigger_scheme = intermittent
seed = 2
horizon = 50.0

[disturbance]
kind = seeded-piecewise-constant
d_bar = 0.01
hold_time = 0.5

[barrier]
gamma = 2.0
rho = 1.0

[filter]
goal = 1.05, 0.0

[initial]
state = 0.0, 0.0
"""


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_satellite_defaults_fill_in(self, tmp_path):
        cfg = parse_config(write(tmp_path, GREEDY))
        assert cfg.kind == "satellite"
        assert cfg.trigger_scheme == "greedy"
        assert cfg.scenario.integrator.step_size == 0.05
        assert cfg.scenario.controller.post_jump_margin == 0.01
        assert np.allclose(cfg.initial_state, [2.2, 0, 0, 0, 0.6742, 0])
        scenario = cfg.build_satellite()
        assert scenario.barrier.d_bar == 0.001

    @pytest.mark.parametrize(
        "text, dim, seed, optional",
        [(GREEDY, 3, 1, []), (PLANAR, 2, 2, ["barrier.rho", "filter.goal"])],
        ids=["satellite", "planar"],
    )
    def test_no_optional_keys_gives_the_types_defaults(self, tmp_path, text, dim, seed, optional):
        optional = ["disturbance.kind", "disturbance.d_bar", "disturbance.hold_time", *optional]
        cfg = parse_config(write(tmp_path, with_values(text, dict.fromkeys(optional))))
        scn = cfg.scenario
        # the built disturbance carries the run's seed
        assert scn.disturbance == DisturbanceModel(dim=dim, seed=seed)
        assert scn.integrator == IntegratorConfig()
        assert scn.events == EventLocatorConfig()
        assert scn.barrier.d_bar == 0.0
        assert cfg.tau_max_wait == DEFAULT_MAX_WAIT
        if dim == 3:
            assert scn.controller == StationKeepingConfig()
            assert scn.allow_initial_jump is True
        else:
            assert scn.filter == FilterConfig()

    def test_planar_builds(self, tmp_path):
        cfg = parse_config(write(tmp_path, PLANAR))
        scenario = cfg.build_planar()
        assert scenario.disturbance.dim == 2
        assert np.allclose(scenario.filter.goal, [1.05, 0.0])

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.ini")

    def test_d_bar_mismatch_rejected(self, tmp_path):
        text = GREEDY.replace("[barrier]\ngamma = 0.1", "[barrier]\ngamma = 0.1\nd_bar = 0.002")
        with pytest.raises(ConfigError, match="d_bar"):
            parse_config(write(tmp_path, text))

    def test_d_bar_match_accepted(self, tmp_path):
        text = GREEDY.replace("[barrier]\ngamma = 0.1", "[barrier]\ngamma = 0.1\nd_bar = 0.001")
        parse_config(write(tmp_path, text))

    def test_maneuver_requires_model_path(self, tmp_path):
        text = GREEDY.replace("trigger_scheme = greedy", "trigger_scheme = maneuver")
        with pytest.raises(ConfigError, match="model_path"):
            parse_config(write(tmp_path, text))

    def test_scheme_kind_compatibility(self, tmp_path):
        text = GREEDY.replace("trigger_scheme = greedy", "trigger_scheme = intermittent")
        with pytest.raises(ConfigError, match="not available"):
            parse_config(write(tmp_path, text))

    def test_negative_horizon_rejected(self, tmp_path):
        text = GREEDY.replace("horizon = 100.0", "horizon = -5.0")
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(write(tmp_path, text))

    def test_all_problems_reported_at_once(self, tmp_path):
        text = GREEDY.replace("horizon = 100.0", "horizon = -5.0").replace(
            "gamma = 0.1", "gamma = -1.0"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        message = str(err.value)
        assert "horizon" in message and "gamma" in message

    @pytest.mark.parametrize(
        "text, problem",
        [
            (GREEDY.replace("2.2, 0.0, 0.0", "2.2, abc, 0.0"), "[initial] position: '2.2, abc, 0.0'"),
            (GREEDY.replace("0.0, 0.6742, 0.0", "0.0, x, 0.0"), "[initial] velocity: '0.0, x, 0.0'"),
            (GREEDY + "\n[tau]\nradius_grid = 1.9, 2.0o\n", "[tau] radius_grid: '1.9, 2.0o'"),
            (PLANAR.replace("state = 0.0, 0.0", "state = 0.0, none"), "[initial] state: '0.0, none'"),
            (PLANAR.replace("goal = 1.05, 0.0", "goal = a, b"), "[filter] goal: 'a, b'"),
        ],
        ids=["position", "velocity", "radius_grid", "state", "goal"],
    )
    def test_malformed_vector_is_reported_with_the_rest(self, tmp_path, text, problem):
        text = text.replace("horizon = 100.0", "horizon = -5.0").replace("horizon = 50.0", "horizon = -5.0")
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        message = str(err.value)
        assert f"bad value for {problem}" in message
        assert "[scenario] horizon must be > 0" in message

    def test_tau_model_path_resolved_relative_to_config(self, tmp_path):
        text = GREEDY.replace(
            "trigger_scheme = greedy", "trigger_scheme = maneuver"
        ) + "\n[tau]\nmodel_path = model.json\n"
        cfg = parse_config(write(tmp_path, text))
        assert cfg.tau_model_path == str(tmp_path / "model.json")

    def test_shipped_configs_are_valid(self):
        import os

        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for name in (
            "greedy_satellite.ini",
            "maneuver_satellite.ini",
            "planar_intermittent.ini",
        ):
            cfg = parse_config(os.path.join(here, "configs", name))
            if cfg.kind == "satellite":
                cfg.build_satellite()
            else:
                cfg.build_planar()


def with_values(text, values):
    """``text`` with each ``"section.key"`` of ``values`` set, or removed
    where the value is None."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    for name, value in values.items():
        section, key = name.split(".")
        if value is None:
            parser.remove_option(section, key)
            continue
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


# (values, the fragment of the ConfigError that names the broken rule), for
# both the satellite and the planar text
REJECTED = [
    ({"scenario.kind": "rover"}, "[scenario] kind must be one of"),
    ({"scenario.trigger_scheme": "sporadic"}, "[scenario] trigger_scheme must be one of"),
    ({"scenario.horizon": None}, "missing [scenario] horizon"),
    ({"scenario.horizon": "0"}, "[scenario] horizon must be > 0"),
    ({"scenario.horizon": "inf"}, "[scenario] horizon must be finite"),
    ({"scenario.seed": "-1"}, "[scenario] seed must be >= 0"),
    ({"scenario.allow_initial_jump": "maybe"}, "bad value for [scenario] allow_initial_jump"),
    ({"disturbance.kind": "windy"}, "[disturbance] unknown kind 'windy'"),
    ({"disturbance.d_bar": "-0.001"}, "[disturbance] d_bar must be >= 0"),
    ({"disturbance.d_bar": "0"}, "[disturbance] kind 'seeded-piecewise-constant' requires d_bar > 0"),
    ({"disturbance.kind": "none", "disturbance.d_bar": "nan"}, "[disturbance] d_bar must be >= 0"),
    ({"disturbance.hold_time": "0"}, "[disturbance] hold_time must be > 0"),
    ({"disturbance.kind": "none", "disturbance.hold_time": "-1"}, "[disturbance] hold_time must be > 0"),
    ({"barrier.gamma": None}, "missing [barrier] gamma"),
    ({"barrier.gamma": "0"}, "[barrier] gamma must be > 0"),
    ({"barrier.gamma": "nan"}, "[barrier] gamma must be > 0"),
    ({"barrier.rho": "-1"}, "[barrier] rho must be > 0"),
    ({"barrier.d_bar": "0.5"}, "[barrier] d_bar must equal [disturbance] d_bar"),
    ({"controller.post_jump_margin": "0"}, "[controller] post_jump_margin must be > 0"),
    ({"controller.retarget_gain": "1.0"}, "[controller] retarget_gain must be in [0, 1)"),
    ({"controller.retarget_gain": "-0.1"}, "[controller] retarget_gain must be in [0, 1)"),
    ({"filter.promote_rate": "0"}, "[filter] promote_rate must be > 0"),
    ({"filter.hysteresis_gap": "0"}, "[filter] hysteresis_gap must be > 0"),
    ({"filter.recovery_level": "-1"}, "[filter] recovery_level must be > 0"),
    ({"filter.goal": "1, 2, 3"}, "[filter] goal must be a 2-vector"),
    ({"filter.goal": "nan, 0.0"}, "bad value for [filter] goal: 'nan, 0.0'"),
    ({"integrator.step_size": "0"}, "[integrator] step_size must be > 0"),
    ({"integrator.interpolation": "spline"}, "unknown key [integrator] interpolation"),
    ({"events.time_tolerance": "0"}, "[events] time_tolerance must be > 0"),
    ({"events.value_tolerance": "-1e-9"}, "[events] value_tolerance must be > 0"),
    ({"events.max_bisections": "0"}, "[events] max_bisections must be >= 1"),
    ({"tau.n_per_radius": "0"}, "[tau] n_per_radius must be >= 1"),
    ({"tau.max_wait": "0"}, "[tau] max_wait must be > 0"),
    ({"tau.max_wait": "inf"}, "[tau] max_wait must be finite"),
    ({"tau.statistic": "mode"}, "unknown key [tau] statistic"),
    ({"tau.basis": "spline"}, "unknown key [tau] basis"),
    ({"scenario.trigger_scheme": "maneuver"}, "[tau] model_path is required for the maneuver scheme"),
]
REJECTED_BY_KIND = {
    "satellite": [
        ({"initial.position": "2.2, 0.0"}, "[initial] position and velocity must be 3-vectors"),
        ({"tau.radius_grid": "1.0, 2.0"}, "[tau] radius_grid must lie strictly inside (1.6, 2.4)"),
        ({"tau.radius_grid": ""}, "[tau] radius_grid is empty"),
        ({"initial.velocity": "0.0, nan, 0.0"}, "bad value for [initial] velocity: '0.0, nan, 0.0'"),
        ({"tau.radius_grid": "2.0, nan"}, "bad value for [tau] radius_grid: '2.0, nan'"),
    ],
    "planar": [
        ({"initial.state": "0.0, 0.0, 0.0"}, "[initial] state must be a 2-vector"),
        ({"initial.state": "inf, 0.0"}, "bad value for [initial] state: 'inf, 0.0'"),
        # a deleted kind
        ({"disturbance.kind": "zonal-j2-like"}, "[disturbance] unknown kind 'zonal-j2-like'"),
    ],
}
# rules added after the table was written, on both kinds; listed after each
# kind's own rows, so the ids of the earlier rows stay as they were
ADDED_RULES = [
    ({"scenario.seed": "18446744073709551616"}, "[scenario] seed must be < 2**64"),
    ({"scenario.hours_per_time_unit": "nan"}, "[scenario] hours_per_time_unit must be > 0"),
    ({"scenario.hours_per_time_unit": "0"}, "[scenario] hours_per_time_unit must be > 0"),
    ({"scenario.hours_per_time_unit": "inf"}, "[scenario] hours_per_time_unit must be finite"),
    ({"filter.gain": "nan"}, "[filter] gain must be finite"),
    ({"filter.gain": "-inf"}, "[filter] gain must be finite"),
    ({"filter.hysteresis_gpa": "0.3"}, "unknown key [filter] hysteresis_gpa"),
    ({"tua.model_path": "tau_model.json"}, "unknown section [tua]"),
    # normalized units are constants, and their section is gone
    ({"gravity.mu": "1.0"}, "unknown section [gravity]"),
    # an integer key is not truncated from a float
    ({"scenario.seed": "1.5"}, "bad value for [scenario] seed: '1.5'"),
]
for rows in REJECTED_BY_KIND.values():
    rows += ADDED_RULES
# the satellite accepted the deleted zonal kind when the table was written
REJECTED_BY_KIND["satellite"].append(
    ({"disturbance.kind": "zonal-j2-like"}, "[disturbance] unknown kind 'zonal-j2-like'")
)
ACCEPTED = [
    {},
    {"controller.retarget_gain": "0.0"},
    {"events.max_bisections": "1"},
    {"disturbance.kind": "none", "disturbance.d_bar": "0"},
    {"disturbance.kind": "none", "disturbance.hold_time": "2.5"},
    {"barrier.d_bar": None},
]
ACCEPTED_BY_KIND = {
    # a radius grid strictly inside the band (1.6, 2.4), in the place of the
    # deleted zonal kind's row
    "satellite": [{"tau.radius_grid": "1.7, 2.0, 2.3"}],
    # sample-tau needs a satellite scenario: a planar one's grid is not checked
    "planar": [{"tau.radius_grid": "1.0, 2.0"}],
}
# the largest seed, 2**64 - 1; listed after each kind's own rows
for rows in ACCEPTED_BY_KIND.values():
    rows.append({"scenario.seed": "18446744073709551615"})
TEXTS = {"satellite": GREEDY, "planar": PLANAR}


def verdict_rows(shared, by_kind):
    return [
        pytest.param(TEXTS[kind], row, id=f"{kind}-{i}")
        for kind in TEXTS
        for i, row in enumerate(shared + by_kind[kind])
    ]


with open(os.path.join(os.path.dirname(__file__), "verdict_messages.json"), encoding="utf-8") as fh:
    VERDICT_MESSAGES = json.load(fh)


@pytest.mark.parametrize(
    "row", VERDICT_MESSAGES, ids=[f"{r['kind']}-{i}" for i, r in enumerate(VERDICT_MESSAGES)]
)
def test_verdict_message_is_unchanged(tmp_path, row):
    """The complete ConfigError text (None where the config is accepted) of
    every TestVerdictTable row as it read when the table was written, and of
    one config with a broken rule in each section.  Changes since: a
    ``[disturbance] d_bar`` the disturbance rejects (NaN) is no longer also
    compared with ``[barrier] d_bar``; ``[integrator] interpolation``,
    ``[tau] statistic`` and ``[tau] basis`` left the schema, so the rows that
    set them read ``unknown key``; the ``zonal-j2-like`` disturbance kind was
    deleted, so its rows read ``unknown kind``; the units became constants
    and ``[gravity]`` left the schema, so the rows that set it read
    ``unknown section``.  Rows added later follow the table's."""
    path = write(tmp_path, with_values(TEXTS[row["kind"]], row["values"]))
    try:
        parse_config(path)
        message = None
    except ConfigError as err:
        message = str(err).replace(path, "<path>")
    assert message == row["message"]


class TestVerdictTable:
    """Every range rule of ``parse_config`` on both scenario kinds: a broken
    rule is a ConfigError that names its ``[section] key``."""

    @pytest.mark.parametrize("text, row", verdict_rows(REJECTED, REJECTED_BY_KIND))
    def test_rejected(self, tmp_path, text, row):
        values, problem = row
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, with_values(text, values)))
        assert problem in str(err.value)

    @pytest.mark.parametrize("text, values", verdict_rows(ACCEPTED, ACCEPTED_BY_KIND))
    def test_accepted(self, tmp_path, text, values):
        parse_config(write(tmp_path, with_values(text, values)))

    @pytest.mark.parametrize("kind", TEXTS)
    def test_one_broken_rule_per_section_all_reported(self, tmp_path, kind):
        rows = [
            ({"scenario.horizon": "0", "scenario.seed": "-1"},
             ["[scenario] horizon must be > 0", "[scenario] seed must be >= 0"]),
            ({"disturbance.hold_time": "0"}, ["[disturbance] hold_time must be > 0"]),
            ({"barrier.gamma": "0", "barrier.rho": "0"},
             ["[barrier] gamma must be > 0", "[barrier] rho must be > 0"]),
            ({"controller.retarget_gain": "2"}, ["[controller] retarget_gain must be in [0, 1)"]),
            ({"filter.promote_rate": "0"}, ["[filter] promote_rate must be > 0"]),
            ({"integrator.step_size": "0"}, ["[integrator] step_size must be > 0"]),
            ({"events.max_bisections": "0"}, ["[events] max_bisections must be >= 1"]),
            ({"tau.n_per_radius": "0", "tau.basis": "spline"},
             ["[tau] n_per_radius must be >= 1", "unknown key [tau] basis"]),
        ]
        values = {k: v for broken, _ in rows for k, v in broken.items()}
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, with_values(TEXTS[kind], values)))
        message = str(err.value)
        for _, problems in rows:
            for problem in problems:
                assert problem in message


def same(a, b) -> bool:
    """Structural equality of what parse_config returns: dataclasses field by
    field, arrays by value, and functions (a barrier's h and gradient, the
    planar system's matrices) by their code and the values they close over."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, types.FunctionType):
        cells = lambda f: tuple(c.cell_contents for c in f.__closure__ or ())
        return isinstance(b, types.FunctionType) and a.__code__ is b.__code__ and same(cells(a), cells(b))
    return a == b


class TestOverrides:
    """The --seed, --horizon and --tau-model flags give the config that a
    file carrying those values gives."""

    @pytest.mark.parametrize("kind", TEXTS)
    def test_flags_equal_file_values(self, tmp_path, kind):
        model = str(tmp_path / "model.json")
        values = {"scenario.seed": "7", "scenario.horizon": "12.5", "tau.model_path": model}
        plain = write(tmp_path, TEXTS[kind])
        flagged = parse_config(plain, seed=7, horizon=12.5, tau_model_path=model)
        filed = parse_config(write(tmp_path, with_values(TEXTS[kind], values), "filed.ini"))
        assert same(flagged, filed)
        assert flagged.scenario.disturbance.seed == 7 and flagged.horizon == 12.5
        assert flagged.tau_model_path == model
        assert not same(parse_config(plain), filed)

    @pytest.mark.parametrize("kind", TEXTS)
    def test_a_config_is_frozen(self, tmp_path, kind):
        cfg = parse_config(write(tmp_path, TEXTS[kind]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.horizon = 1.0

    @pytest.mark.parametrize(
        "flags, problem",
        [
            ({"seed": -1}, "--seed must be >= 0"),
            ({"seed": 2**64}, "--seed must be < 2**64"),
            ({"horizon": math.inf}, "--horizon must be finite"),
        ],
    )
    def test_a_flag_is_held_to_its_key_rule(self, tmp_path, flags, problem):
        with pytest.raises(ConfigError, match=re.escape(problem)):
            parse_config(write(tmp_path, GREEDY), **flags)

    def test_the_kind_check_of_the_scenario(self, tmp_path):
        sat, planar = parse_config(write(tmp_path, GREEDY)), parse_config(write(tmp_path, PLANAR, "p.ini"))
        assert sat.build_satellite() is sat.scenario and planar.build_planar() is planar.scenario
        with pytest.raises(ConfigError, match="a satellite scenario is needed"):
            planar.build_satellite()
        with pytest.raises(ConfigError, match="a planar-demo scenario is needed"):
            sat.build_planar()


class TestSeedRule:
    """One seed rule, 0 <= seed < 2**64, for the file key, the flag and the
    disturbance model."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_bounds_accepted(self, tmp_path, seed):
        text = with_values(GREEDY, {"scenario.seed": str(seed)})
        scn = parse_config(write(tmp_path, text)).scenario
        assert scn.disturbance.seed == seed
        # the largest seed still keys the hashed draws
        assert len(scn.disturbance.realize(0)(0.0)) == 3

    @pytest.mark.parametrize("seed, problem", [(-1, "seed must be >= 0"), (2**64, "seed must be < 2**64")])
    def test_disturbance_model_rejects(self, seed, problem):
        with pytest.raises(ValueError, match=re.escape(problem)):
            DisturbanceModel(seed=seed)


class TestUnknownKeys:
    """A section or key that no kind reads is rejected, by its name."""

    def test_default_section_keys_are_rejected(self, tmp_path):
        # a [DEFAULT] key would be set in every section, and no key belongs to all
        text = "[DEFAULT]\nd_bar = 0.001\n" + GREEDY
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert str(err.value).endswith("\n  unknown key [DEFAULT] d_bar")

    def test_every_unknown_name_is_reported(self, tmp_path):
        text = with_values(PLANAR, {"filter.hysteresis_gpa": "0.3", "scenario.sead": "4", "tua.x": "1"})
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        for problem in ("unknown key [filter] hysteresis_gpa", "unknown key [scenario] sead",
                        "unknown section [tua]"):
            assert problem in str(err.value)

    def test_keys_match_case_insensitively(self, tmp_path):
        # configparser reads keys case-insensitively, so POST_JUMP_MARGIN is post_jump_margin
        text = GREEDY + "\n[controller]\nPOST_JUMP_MARGIN = 0.02\nRetarget_Gain = 0.25\n"
        controller = parse_config(write(tmp_path, text)).scenario.controller
        assert controller == StationKeepingConfig(post_jump_margin=0.02, retarget_gain=0.25)


def test_filter_config_rules():
    """FilterConfig owns the [filter] defaults and rules, for a config and a
    library caller alike."""
    assert FilterConfig() == FilterConfig(0.05, 0.05, 0.2, (0.0, 0.0), 1.0)
    for kwargs, problem in [
        ({"gain": math.nan}, "gain must be finite"),
        ({"gain": math.inf}, "gain must be finite"),
        ({"promote_rate": 0.0}, "promote_rate must be > 0"),
        ({"goal": (1.0, 2.0, 3.0)}, "goal must be a 2-vector"),
    ]:
        with pytest.raises(ValueError, match=problem):
            FilterConfig(**kwargs)


@pytest.mark.parametrize("goal", [(math.inf, 0.0), (math.nan, 0.0), (0.0, -math.inf)])
def test_filter_config_rejects_a_non_finite_goal(goal):
    """A library caller's non-finite goal is refused where it is built, not
    by the run's nominal-safety pre-check with a message about the gain."""
    with pytest.raises(ValueError, match="goal must be finite"):
        FilterConfig(goal=goal)


def test_readme_schema_lists_exactly_the_keys():
    """README's "Configuration schema" table has one row per key of SCHEMA,
    the list the unknown-key rule checks against."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Configuration schema\n")[1].split("\n## ")[0]
    listed = re.findall(r"^\| `\[(\w+)\] (\w+)` \|", section, re.MULTILINE)
    assert sorted(listed) == sorted((sec, key) for sec, keys in SCHEMA.items() for key in keys)
    assert len(listed) == len(set(listed))
