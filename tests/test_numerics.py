"""Integration, interpolation, and event-location tests."""

import contextlib
import dataclasses
import math
import os
import pickle
import warnings

import numpy as np
import pytest

import etsafe.scenarios as scenarios
from etsafe.config import parse_config
from etsafe.dynamics import DisturbanceModel
from etsafe.engine import _planar_fields
from etsafe.numerics import (
    BracketError,
    EventLocatorConfig,
    IntegrationFailureError,
    IntegratorConfig,
    SingularityError,
    locate_zero_crossing,
    propagate_until,
    rk4_step,
)
from etsafe.safety_filter import InfeasibleFilterError, build_constraint, filter_active

DECAY = lambda t, x: -np.asarray(x)
CONSTANT_ONE = lambda t, x: np.ones_like(x)
ZERO = lambda t, x: np.zeros_like(x)


class TestRk4Step:
    def test_decay_hand_expanded(self):
        # Four-stage expansion of xdot = -x from 1.0 with dt = 0.1:
        # k1=-1, k2=-0.95, k3=-0.9525, k4=-0.90475 -> 1 - 0.0951625
        x1 = rk4_step(DECAY, np.array([1.0]), 0.0, 0.1)
        assert x1[0] == pytest.approx(0.9048375, abs=1e-15)

    def test_zero_field_fixed_point(self):
        x0 = np.array([3.7, -1.2])
        assert np.array_equal(rk4_step(ZERO, x0, 0.0, 0.5), x0)

    def test_constant_field_exact(self):
        x1 = rk4_step(CONSTANT_ONE, np.array([0.0]), 0.0, 0.5)
        assert x1[0] == pytest.approx(0.5, abs=1e-15)

    def test_nonfinite_derivative_raises_with_context(self):
        def bad(t, x):
            return np.array([np.nan])

        with pytest.raises(IntegrationFailureError) as err:
            rk4_step(bad, np.array([1.0]), 2.5, 0.1)
        assert err.value.t == 2.5
        assert err.value.x[0] == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_third_stage_stops_before_fourth(self, bad):
        calls = []

        def field(t, x):
            calls.append(t)
            k = -np.asarray(x)
            if len(calls) == 3:
                k[4] = bad
            return k

        x0 = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -0.25])
        with pytest.raises(IntegrationFailureError) as err:
            rk4_step(field, x0, 2.5, 0.1)
        assert len(calls) == 3  # the fourth stage never ran
        assert err.value.t == 2.5
        assert np.array_equal(err.value.x, x0)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            rk4_step(DECAY, np.array([1.0]), 0.0, 0.0)

    def test_fourth_order_convergence(self):
        # Halving dt must cut the endpoint error by at least 15x (asymptotic 16).
        def endpoint_error(dt):
            x = np.array([1.0])
            t = 0.0
            for _ in range(round(1.0 / dt)):
                x = rk4_step(DECAY, x, t, dt)
                t += dt
            return abs(x[0] - np.exp(-1.0))

        ratio = endpoint_error(0.1) / endpoint_error(0.05)
        assert ratio >= 15.0

    def test_deterministic(self):
        a = rk4_step(DECAY, np.array([1.0]), 0.0, 0.1)
        b = rk4_step(DECAY, np.array([1.0]), 0.0, 0.1)
        assert a[0] == b[0]


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def numpy_rk4_step(field, x, t, dt):
    """The numpy-vector RK4 step that the float stages replaced: the oracle
    they must match bit for bit."""
    k1 = np.asarray(field(t, x))
    half = 0.5 * dt
    k2 = np.asarray(field(t + half, x + half * k1))
    k3 = np.asarray(field(t + half, x + half * k2))
    k4 = np.asarray(field(t + dt, x + dt * k3))
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# planar start states: near the disk boundary, where the promoting filter is
# on, and across the disk from the goal, where it is off
PLANAR_STARTS = {None: [0.99, 0.1], "nominal": [0.99, 0.1], "inactive": [-0.5, 0.3]}


def shipped_field(config, kind=None):
    """(field, start state, step size) of a shipped config's run: the
    satellite's disturbed field from the shipped start, with its disturbance
    kind replaced by ``kind`` if given, or a planar field from a start of
    ``PLANAR_STARTS``: the filtered field, or with ``kind`` "nominal" the
    nominal one.  (The shipped planar start, the disk center, is where the
    promoting constraint is infeasible.)"""
    cfg = parse_config(os.path.join(CONFIGS, config))
    if cfg.kind == "planar-demo":
        nominal, filtered = _planar_fields(cfg.build_planar())
        field = nominal if kind == "nominal" else filtered
        return field, np.array(PLANAR_STARTS[kind]), cfg.scenario.integrator.step_size
    x0 = np.array(cfg.initial_state, dtype=float)
    scn = cfg.build_satellite()
    if kind is not None:
        scn = dataclasses.replace(scn, disturbance=dataclasses.replace(scn.disturbance, kind=kind))
    return scn.disturbed_field(0), x0, cfg.scenario.integrator.step_size


class TestFloatStagesMatchNumpyOracle:
    STEPS = 2500

    @pytest.mark.parametrize(
        "config, kind",
        [
            ("greedy_satellite.ini", None),
            ("greedy_satellite.ini", "none"),
            ("planar_intermittent.ini", None),
            ("planar_intermittent.ini", "nominal"),
            ("planar_intermittent.ini", "inactive"),
        ],
    )
    def test_consecutive_steps_bitwise_equal(self, config, kind):
        # every shipped field steps with its own fused step, the oracle with
        # four field calls
        field, x, dt = shipped_field(config, kind)
        assert hasattr(field, "rk4")
        oracle = x.copy()
        for k in range(self.STEPS):
            new = rk4_step(field, x, k * dt, dt)
            x = np.array(new)
            oracle = numpy_rk4_step(field, oracle, k * dt, dt)
            assert x.tobytes() == oracle.tobytes(), f"step {k}"
        # the new state is a sequence of Python floats, not an array
        assert not isinstance(new, np.ndarray) and all(type(v) is float for v in new)

    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_stage_raises_with_step_start_state(self, stage, bad):
        field, x0, dt = shipped_field("greedy_satellite.ini")
        calls = []

        def poisoned(t, x):
            calls.append(t)
            k = list(field(t, x))
            if len(calls) == stage:
                k[stage % 6] = bad
            return k

        with pytest.raises(IntegrationFailureError) as err:
            rk4_step(poisoned, x0, 7.25, dt)
        assert len(calls) == stage  # no later stage ran
        assert err.value.t == 7.25
        assert err.value.x.tobytes() == x0.tobytes()


def generic(field):
    """The same field without its own step: rk4_step takes the four stages."""
    return lambda t, x: field(t, x)


def poisoned_field(monkeypatch, config, kind, stage, bad, x0, t, dt):
    """The shipped field of ``shipped_field(config, kind)`` whose disturbance
    returns ``bad`` in one component at one stage time of the step from
    ``(t, x0)``.  Both step paths reach that time with the same bits, so it
    poisons the same stage in both; stages 2 and 3 share one time."""
    times = []
    real = DisturbanceModel.realize

    def recording(self, stream=0):
        d = real(self, stream)
        return lambda t: times.append(t) or d(t)

    monkeypatch.setattr(DisturbanceModel, "realize", recording)
    field, _, _ = shipped_field(config, kind)
    with contextlib.suppress(SingularityError):
        rk4_step(generic(field), x0, t, dt)
    target = times[stage - 1]

    def poisoning(self, stream=0):
        d = real(self, stream)

        def sampler(t):
            a = list(d(t))
            if t == target:
                a[stage % len(a)] = bad
            return a

        return sampler

    monkeypatch.setattr(DisturbanceModel, "realize", poisoning)
    return shipped_field(config, kind)[0]


class TestFusedTwoBodyStep:
    """The satellite field's own step raises what the generic stages raise."""

    @pytest.mark.parametrize("kind", ["seeded-piecewise-constant"])
    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_disturbance_raises_as_generic(self, kind, stage, bad, monkeypatch):
        _, x0, dt = shipped_field("greedy_satellite.ini")
        field = poisoned_field(
            monkeypatch, "greedy_satellite.ini", kind, stage, bad, x0, 7.25, dt
        )
        errors = []
        for f in (field, generic(field)):
            # the fused step evaluates all four stages before the replay,
            # without a warning
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(IntegrationFailureError) as err:
                    rk4_step(f, x0, 7.25, dt)
            assert [str(w.message) for w in caught] == []
            errors.append((str(err.value), err.value.t, err.value.x.tobytes()))
        assert errors[0] == errors[1]
        assert errors[0][1:] == (7.25, x0.tobytes())

    # falling straight in at 1.2 per unit from these radii, the stage named
    # is the first whose radius is below the floor (0.1 R)
    @pytest.mark.parametrize("r0, stage", [(0.099, 1), (0.11, 2), (0.13, 3), (0.16, 4)])
    def test_dip_below_floor_raises_singularity(self, r0, stage):
        field, _, dt = shipped_field("greedy_satellite.ini")
        x0 = np.array([r0, 0.0, 0.0, -1.2, 0.0, 0.0])
        calls, messages = [], []
        counted = lambda t, x: calls.append(t) or field(t, x)
        for f in (field, counted):
            with pytest.raises(SingularityError) as err:
                rk4_step(f, x0, 0.0, dt)
            messages.append(str(err.value))
        assert len(calls) == stage
        assert messages[0] == messages[1]  # the message holds the stage radius
        # the field's own step stops at that stage itself, not only the replay
        with pytest.raises(SingularityError, match=messages[1].replace(".", r"\.")):
            field.rk4(0.0, dt, x0.tolist())

    def test_nonfinite_stage_before_the_floor_wins(self, monkeypatch):
        # stage 2's radius is below the floor, so the clean step raises
        # SingularityError; with stage 1's disturbance NaN the generic stages
        # stop at stage 1 first, and so must the field's own step
        field, _, dt = shipped_field("greedy_satellite.ini")
        x0 = np.array([0.11, 0.0, 0.0, -1.2, 0.0, 0.0])
        with pytest.raises(SingularityError):
            rk4_step(field, x0, 0.0, dt)
        field = poisoned_field(
            monkeypatch, "greedy_satellite.ini", "seeded-piecewise-constant", 1, np.nan, x0, 0.0, dt
        )
        for f in (field, generic(field)):
            with pytest.raises(IntegrationFailureError) as err:
                rk4_step(f, x0, 0.0, dt)
            assert err.value.t == 0.0 and err.value.x.tobytes() == x0.tobytes()

    def test_steps_take_no_field_call_but_refinement(self, monkeypatch):
        field, x0, dt = shipped_field("greedy_satellite.ini")
        calls = []
        real = scenarios.two_body_field
        monkeypatch.setattr(
            scenarios, "two_body_field", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        cfg = IntegratorConfig(step_size=dt)
        times, _, _, crossing = propagate_until(field, x0, 0.0, 200 * dt, [lambda x: 1.0], cfg)
        assert crossing is None and len(times) == 201
        assert calls == []
        # the crossing's cubic-Hermite refinement takes the field at both ends
        # of its step, and nothing else does
        _, _, _, crossing = propagate_until(field, x0, 0.0, 200 * dt, [lambda x: x[0] - 2.1], cfg)
        assert crossing is not None
        assert len(calls) == 2


class TestFusedPlanarStep:
    """The planar fields' own steps raise what the generic stages raise."""

    def test_starts_put_the_filter_on_and_off(self):
        cfg = parse_config(os.path.join(CONFIGS, "planar_intermittent.ini"))
        scn = cfg.build_planar()
        control = scn.nominal_input()
        for kind, on in ((None, True), ("inactive", False)):
            x = PLANAR_STARTS[kind]
            con = build_constraint(scn.barrier, x, "promoting", scn.filter.promote_rate)
            assert filter_active(control(*x), con) == on

    @pytest.mark.parametrize("x0", [[0.0, 0.0], [-0.0, 0.0], [1e-170, -5e-324]])
    def test_zero_row_raises_the_generic_message(self, x0):
        # at the disk center, or where the gradient's square underflows, the
        # promoting constraint's row is zero and no input satisfies it
        field, _, dt = shipped_field("planar_intermittent.ini")
        messages = []
        for step in (lambda: field.rk4(3.5, dt, x0), lambda: rk4_step(field, x0, 3.5, dt)):
            with pytest.raises(InfeasibleFilterError) as err:
                step()
            messages.append(str(err.value))
        with pytest.raises(InfeasibleFilterError) as err:
            rk4_step(generic(field), x0, 3.5, dt)
        assert messages == [str(err.value)] * 2
        assert messages[0].startswith("constraint row is zero with rhs=")

    @pytest.mark.parametrize("kind", [None, "nominal"])
    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_disturbance_raises_as_generic(self, kind, stage, bad, monkeypatch):
        _, x0, dt = shipped_field("planar_intermittent.ini", kind)
        field = poisoned_field(
            monkeypatch, "planar_intermittent.ini", kind, stage, bad, x0, 7.25, dt
        )
        errors = []
        for f in (field, generic(field)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(IntegrationFailureError) as err:
                    rk4_step(f, x0, 7.25, dt)
            assert [str(w.message) for w in caught] == []
            errors.append((str(err.value), err.value.t, err.value.x.tobytes()))
        assert errors[0] == errors[1]
        assert errors[0][1:] == (7.25, x0.tobytes())
        # the field's own step itself comes out non-finite, for the replay
        assert not all(map(math.isfinite, field.rk4(7.25, dt, x0.tolist())))


class TestLocateZeroCrossing:
    CFG = EventLocatorConfig(time_tolerance=1e-9, value_tolerance=1e-12, max_bisections=200)

    def test_linear_root(self):
        res = locate_zero_crossing(lambda t: 1.0 - t, 0.0, 2.0, self.CFG)
        assert res.time == pytest.approx(1.0, abs=1e-8)
        assert not res.degraded

    def test_cosine_root(self):
        res = locate_zero_crossing(np.cos, 0.0, 3.0, self.CFG)
        assert res.time == pytest.approx(np.pi / 2.0, abs=1e-8)

    def test_returned_point_is_post_crossing(self):
        res = locate_zero_crossing(lambda t: 1.0 - t, 0.0, 2.0, self.CFG)
        assert res.value <= 0.0

    def test_invalid_bracket_raises(self):
        with pytest.raises(BracketError):
            locate_zero_crossing(lambda t: -1.0, 0.0, 1.0, self.CFG)
        with pytest.raises(BracketError):
            locate_zero_crossing(lambda t: 1.0, 0.0, 1.0, self.CFG)

    def test_exhausted_budget_degrades(self):
        cfg = EventLocatorConfig(time_tolerance=1e-15, value_tolerance=1e-300, max_bisections=3)
        res = locate_zero_crossing(np.cos, 0.0, 3.0, cfg)  # root pi/2, never hit exactly
        assert res.degraded
        assert abs(res.time - np.pi / 2.0) < 3.0 / 2.0**3

    def test_single_crossing_bracket_finds_root(self):
        # One downward crossing (pi) inside the bracket.
        res = locate_zero_crossing(np.sin, 0.5, 4.0, self.CFG)
        assert res.time == pytest.approx(np.pi, abs=1e-7)

    def test_multi_crossing_bracket_returns_a_crossing(self):
        # With several sign changes inside, the result is still a valid
        # post-crossing point; per-step monitoring keeps brackets narrow in
        # practice.
        res = locate_zero_crossing(np.sin, 0.5, 4.0 * np.pi - 0.5, self.CFG)
        assert res.value <= 0.0
        assert 0.5 < res.time < 4.0 * np.pi - 0.5

    def test_monotone_in_time_tolerance(self):
        # Tightening the tolerance never moves the crossing later by more
        # than the old tolerance.
        g = lambda t: np.cos(3.0 * t + 0.2)
        loose = EventLocatorConfig(time_tolerance=1e-3, value_tolerance=1e-300, max_bisections=500)
        tight = EventLocatorConfig(time_tolerance=1e-10, value_tolerance=1e-300, max_bisections=500)
        t_loose = locate_zero_crossing(g, 0.0, 1.0, loose).time
        t_tight = locate_zero_crossing(g, 0.0, 1.0, tight).time
        assert t_tight <= t_loose + loose.time_tolerance


class TestPropagateUntil:
    ICFG = IntegratorConfig(step_size=0.05)
    ECFG = EventLocatorConfig(time_tolerance=1e-9, value_tolerance=1e-12)

    def test_linear_crossing(self):
        times, states, _, crossing = propagate_until(
            CONSTANT_ONE, np.array([0.0]), 0.0, 2.0,
            [lambda x: 1.0 - x[0]], self.ICFG, self.ECFG,
        )
        assert crossing is not None
        assert crossing.time == pytest.approx(1.0, abs=1e-7)
        assert crossing.state[0] == pytest.approx(1.0, abs=1e-7)
        assert times[-1] == crossing.time

    def test_no_crossing_spans_horizon(self):
        times, states, _, crossing = propagate_until(
            CONSTANT_ONE, np.array([0.0]), 0.0, 0.3,
            [lambda x: 10.0 - x[0]], self.ICFG, self.ECFG,
        )
        assert crossing is None
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.3, abs=1e-12)
        assert states[-1][0] == pytest.approx(0.3, abs=1e-12)

    def test_earliest_monitor_wins(self):
        monitors = [lambda x: 1.0 - x[0], lambda x: 0.5 - x[0]]
        _, _, _, crossing = propagate_until(
            CONSTANT_ONE, np.array([0.0]), 0.0, 2.0, monitors, self.ICFG, self.ECFG
        )
        assert crossing.monitor_index == 1
        assert crossing.time == pytest.approx(0.5, abs=1e-7)

    def test_already_negative_is_immediate_event(self):
        _, _, _, crossing = propagate_until(
            CONSTANT_ONE, np.array([5.0]), 1.0, 2.0,
            [lambda x: 1.0 - x[0]], self.ICFG, self.ECFG,
        )
        assert crossing is not None
        assert crossing.time == 1.0
        assert crossing.state[0] == 5.0

    def test_dwell_skips_initial_violation(self):
        # An unarmed segment does not report the start-time violation at t0;
        # monitoring starts at the first step end.
        _, _, _, crossing = propagate_until(
            CONSTANT_ONE, np.array([5.0]), 0.0, 2.0,
            [lambda x: 1.0 - x[0]], self.ICFG, self.ECFG, armed=False,
        )
        assert crossing is not None
        assert crossing.time == pytest.approx(self.ICFG.step_size)

    def test_monitor_values_returned(self):
        times, _, vals, _ = propagate_until(
            CONSTANT_ONE, np.array([0.0]), 0.0, 0.2,
            [lambda x: 10.0 - x[0]], self.ICFG, self.ECFG,
        )
        assert vals.shape == (len(times), 1)
        assert vals[0, 0] == pytest.approx(10.0)
        assert vals[-1, 0] == pytest.approx(9.8, abs=1e-12)

    def test_fine_scan_oracle_for_smooth_monitor(self):
        # Crossing of a smooth monitor along a rotating flow must agree with a
        # 10x-finer fixed-step sign scan.
        def spiral(t, x):
            return np.array([x[1], -x[0]])

        monitor = lambda x: x[0] - 0.2
        x0 = np.array([1.0, 0.3])

        _, _, _, crossing = propagate_until(
            spiral, x0, 0.0, 3.0, [monitor], self.ICFG, self.ECFG
        )

        fine = IntegratorConfig(step_size=self.ICFG.step_size / 10.0)
        t, x = 0.0, x0.copy()
        prev = monitor(x)
        t_bracket = None
        while t < 3.0:
            x = rk4_step(spiral, x, t, fine.step_size)
            t += fine.step_size
            val = monitor(x)
            if prev > 0.0 and val <= 0.0:
                t_bracket = t
                break
            prev = val
        assert t_bracket is not None
        assert abs(crossing.time - t_bracket) <= fine.step_size + 1e-9

    def test_deterministic(self):
        args = (CONSTANT_ONE, np.array([0.0]), 0.0, 2.0, [lambda x: 1.0 - x[0]])
        t1, s1, v1, c1 = propagate_until(*args, self.ICFG, self.ECFG)
        t2, s2, v2, c2 = propagate_until(*args, self.ICFG, self.ECFG)
        assert np.array_equal(t1, t2)
        assert np.array_equal(s1, s2)
        assert c1.time == c2.time


class TestConfigValidation:
    def test_integrator_rejects_bad_step(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step_size=0.0)

    def test_event_locator_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            EventLocatorConfig(time_tolerance=0.0)
        with pytest.raises(ValueError):
            EventLocatorConfig(value_tolerance=-1.0)
        with pytest.raises(ValueError):
            EventLocatorConfig(max_bisections=0)


class TestIntegrationFailureError:
    @pytest.mark.parametrize("message", [None, "field blew up"])
    def test_survives_a_pickle_round_trip(self, message):
        x = np.array([1.0, np.nan, -np.inf, -0.0])
        err = IntegrationFailureError(0.75, x) if message is None else IntegrationFailureError(0.75, x, message)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is IntegrationFailureError
        assert str(back) == str(err)
        assert str(err).startswith(message or "non-finite derivative")
        assert back.t == err.t
        assert back.x.tobytes() == err.x.tobytes()
