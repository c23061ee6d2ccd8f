"""propagate_until's block loop against its one-step reference.

With ``numerics._BLOCK_STEPS = 1`` every block is one step: the loop then
monitors each step before it takes the next.  The default block length must
give the same arrays, the same crossing and the same errors, bit for bit,
wherever the crossing or the error falls inside or across blocks; and so
must the same monitors stripped of their row forms, which the loop calls
after each step and keeps in lists until the segment ends.
"""

import hashlib
import os

import numpy as np
import pytest

import etsafe.numerics as numerics
from etsafe.barrier import barrier_condition_margin, barrier_condition_rows, orbital_range_barrier
from etsafe.cli import EXIT_OK, cmd_compare
from etsafe.config import parse_config
from etsafe.numerics import (
    EventLocatorConfig,
    IntegrationFailureError,
    IntegratorConfig,
    SingularityError,
    propagate_until,
)

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
B = numerics._BLOCK_STEPS
DT = 0.05
ICFG = IntegratorConfig(step_size=DT)
ECFG = EventLocatorConfig(time_tolerance=1e-12, value_tolerance=1e-14)
RAMP = lambda t, x: [1.0] * len(x)  # x(t) = x0 + t, up to rounding


class Ramp:
    """``c - x[0]`` with its row form; along RAMP from 0 its sign changes in
    step ``k`` for ``c`` between the states after ``k`` and ``k + 1`` steps."""

    def __init__(self, c):
        self.c = c
        self.rows_calls = 0

    def __call__(self, x):
        return self.c - x[0]

    def rows(self, states):
        self.rows_calls += 1
        return self.c - states[:, 0]


def ramp_c(k, frac=0.5):
    """A level the ramp from 0 passes inside step ``k``."""
    return (k + frac) * DT


def outcome(*args, **kwargs):
    """What propagate_until gave: its arrays and crossing as bytes, or the
    error it raised with its type, message, and ``t``/``x`` where it has them."""
    try:
        times, states, values, crossing = propagate_until(*args, **kwargs)
    except Exception as err:
        x = getattr(err, "x", None)
        return ("raised", type(err), str(err), getattr(err, "t", None), None if x is None else x.tobytes())
    found = None
    if crossing is not None:
        found = (
            crossing.monitor_index,
            crossing.time.hex(),
            np.array(crossing.state).tobytes(),
            float(crossing.value).hex(),
            crossing.degraded,
        )
    return ("returned", times.tobytes(), states.tobytes(), values.tobytes(), values.shape, found)


def arms(monkeypatch, field, x0, t0, horizon, monitors, *args, **kwargs):
    """(one-step reference, default block length, monitors without row
    forms) of the same call."""
    call = lambda mons: outcome(field, x0, t0, horizon, mons, *args, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(numerics, "_BLOCK_STEPS", 1)
        reference = call(monitors)
    scalar = [lambda x, mon=mon: mon(x) for mon in monitors]
    return reference, call(monitors), call(scalar)


def test_default_blocks_are_longer_than_one_step():
    assert B > 1


class TestCrossingPlacement:
    @pytest.mark.parametrize(
        "k",
        [0, 1, B - 1, B, B + 1, 2 * B - 1, 2 * B + 37],
        ids=["first-step", "second-step", "last-of-block", "first-of-next-block",
             "after-boundary", "last-of-second-block", "third-block"],
    )
    def test_crossing_matches_one_step_loop(self, monkeypatch, k):
        ref, got, scalar = arms(
            monkeypatch, RAMP, np.array([0.0, 3.0]), 0.0, (3 * B + 5) * DT, [Ramp(ramp_c(k))], ICFG, ECFG
        )
        assert ref == got == scalar
        assert got[0] == "returned" and got[5] is not None
        assert np.frombuffer(got[1])[-1] == pytest.approx(ramp_c(k), abs=1e-9)

    @pytest.mark.parametrize("k", [B - 1, B])
    def test_value_exactly_zero_at_a_row_is_a_crossing(self, monkeypatch, k):
        # c equal to the state after k + 1 steps: that row's value is 0.0
        _, states, _, _ = propagate_until(RAMP, np.array([0.0]), 0.0, (k + 1) * DT, [], ICFG)
        ref, got, scalar = arms(
            monkeypatch, RAMP, np.array([0.0]), 0.0, 3 * B * DT, [Ramp(states[-1][0])], ICFG, ECFG
        )
        assert ref == got == scalar and got[5] is not None

    @pytest.mark.parametrize("k1, k2", [(B + 9, B + 4), (B + 4, B + 4), (3, B + 3)])
    def test_earliest_of_two_monitors(self, monkeypatch, k1, k2):
        monitors = [Ramp(ramp_c(k1, 0.25)), Ramp(ramp_c(k2, 0.75))]
        ref, got, scalar = arms(monkeypatch, RAMP, np.array([0.0]), 0.0, 3 * B * DT, monitors, ICFG, ECFG)
        assert ref == got == scalar
        assert got[5][0] == (0 if k1 <= k2 else 1)  # monitor 0 crosses a quarter step in

    def test_no_crossing_spans_several_blocks(self, monkeypatch):
        ref, got, scalar = arms(monkeypatch, RAMP, np.array([0.0]), 0.0, (2 * B + 3) * DT, [Ramp(1e9)], ICFG)
        assert ref == got == scalar and got[5] is None
        assert np.frombuffer(got[1]).shape == (2 * B + 4,)

    def test_block_evaluates_the_row_form_once(self):
        monitor = Ramp(1e9)
        propagate_until(RAMP, np.array([0.0]), 0.0, (2 * B + 3) * DT, [monitor], ICFG)
        assert monitor.rows_calls == 3  # two full blocks and the rest

    def test_one_step_reference_takes_the_scalar_calls(self, monkeypatch):
        # the reference the row forms are checked against never calls them
        monitor = Ramp(1e9)
        monkeypatch.setattr(numerics, "_BLOCK_STEPS", 1)
        propagate_until(RAMP, np.array([0.0]), 0.0, (2 * B + 3) * DT, [monitor], ICFG)
        assert monitor.rows_calls == 0

    def test_monitor_without_row_form_steps_one_at_a_time(self, monkeypatch):
        steps = []
        real = numerics.rk4_step
        monkeypatch.setattr(numerics, "rk4_step", lambda *a: steps.append(a[2]) or real(*a))
        plain = Ramp(ramp_c(5))
        propagate_until(RAMP, np.array([0.0]), 0.0, 3 * B * DT, [lambda x: plain(x)], ICFG, ECFG)
        assert len(steps) == 6  # no step after the crossing's
        steps.clear()
        propagate_until(RAMP, np.array([0.0]), 0.0, 3 * B * DT, [plain], ICFG, ECFG)
        assert len(steps) == B  # the row form steps a whole block


class TestSegmentStart:
    def test_unarmed_start_fires_at_the_first_step(self, monkeypatch):
        ref, got, scalar = arms(
            monkeypatch, RAMP, np.array([5.0]), 0.0, 3 * B * DT, [Ramp(1.0)], ICFG, ECFG, armed=False
        )
        assert ref == got == scalar
        assert got[5][1] == DT.hex() and np.isnan(np.frombuffer(got[3])[0])

    @pytest.mark.parametrize("k", [1, 3, B, B + 2])
    def test_unarmed_start_then_a_crossing(self, monkeypatch, k):
        ref, got, scalar = arms(
            monkeypatch, RAMP, np.array([0.0]), 0.0, 3 * B * DT, [Ramp(ramp_c(k))], ICFG, ECFG, armed=False
        )
        assert ref == got == scalar and got[5] is not None

    def test_unarmed_start_skips_a_sign_change_in_the_first_step(self, monkeypatch):
        # the start is not monitored, so the first step's sign change is no
        # crossing, and the first row, already below zero, fires at once
        ref, got, scalar = arms(
            monkeypatch, RAMP, np.array([0.0]), 0.0, 3 * B * DT, [Ramp(ramp_c(0))], ICFG, ECFG, armed=False
        )
        assert ref == got == scalar and got[5][1] == DT.hex()

    def test_armed_start_already_nonpositive(self, monkeypatch):
        ref, got, scalar = arms(monkeypatch, RAMP, np.array([5.0]), 1.0, 2.0, [Ramp(1.0)], ICFG, ECFG)
        assert ref == got == scalar and got[5][1] == (1.0).hex()


class TestRemainderStep:
    HORIZON = (B + 10.5) * DT

    def test_no_crossing_ends_at_the_horizon(self, monkeypatch):
        ref, got, scalar = arms(monkeypatch, RAMP, np.array([0.0]), 0.0, self.HORIZON, [Ramp(1e9)], ICFG)
        assert ref == got == scalar and got[5] is None
        assert np.frombuffer(got[1]).shape == (B + 12,)

    def test_crossing_in_the_remainder_step(self, monkeypatch):
        c = (B + 10.25) * DT
        ref, got, scalar = arms(monkeypatch, RAMP, np.array([0.0]), 0.0, self.HORIZON, [Ramp(c)], ICFG, ECFG)
        assert ref == got == scalar
        assert np.frombuffer(got[1])[-1] == pytest.approx(c, abs=1e-9)


def failing_at(k_fail, error):
    """RAMP whose step ``k_fail`` fails: its derivative is NaN there
    (IntegrationFailureError), or the field raises SingularityError."""

    def field(t, x):
        if t >= (k_fail + 0.25) * DT and t < (k_fail + 1.25) * DT:
            if error is SingularityError:
                raise SingularityError(f"field singular at t={t!r}")
            return [float("nan")] * len(x)
        return [1.0] * len(x)

    return field


class TestErrors:
    @pytest.mark.parametrize("error", [IntegrationFailureError, SingularityError])
    @pytest.mark.parametrize("k_cross, k_fail", [(10, 20), (B - 3, B - 1), (B + 2, B + 90)])
    def test_step_error_after_the_crossing_is_dropped(self, monkeypatch, error, k_cross, k_fail):
        ref, got, scalar = arms(
            monkeypatch, failing_at(k_fail, error), np.array([0.0]), 0.0, 3 * B * DT,
            [Ramp(ramp_c(k_cross))], ICFG, ECFG,
        )
        assert ref == got == scalar and got[0] == "returned" and got[5] is not None

    @pytest.mark.parametrize("error", [IntegrationFailureError, SingularityError])
    @pytest.mark.parametrize("k_fail, k_cross", [(10, 20), (0, 5), (B - 1, B + 1), (B + 3, B + 4)])
    def test_step_error_before_the_crossing_is_raised(self, monkeypatch, error, k_fail, k_cross):
        ref, got, scalar = arms(
            monkeypatch, failing_at(k_fail, error), np.array([0.0, 1.0]), 0.0, 3 * B * DT,
            [Ramp(ramp_c(k_cross))], ICFG, ECFG,
        )
        assert ref == got == scalar and got[0] == "raised" and got[1] is error
        if error is IntegrationFailureError:
            # the step-start t and x of the failing step
            assert got[3] == k_fail * DT
            assert np.frombuffer(got[4])[0] == pytest.approx(k_fail * DT)

    @pytest.mark.parametrize("k_bad, k_cross, raised", [(20, 10, False), (10, 20, True), (B + 1, B + 1, True)])
    def test_monitor_row_error(self, monkeypatch, k_bad, k_cross, raised):
        # a monitor that raises on the states of step k_bad on, in its row
        # form and alone; at the crossing's own row it is raised, as the
        # one-step loop evaluates every monitor before it checks the signs
        limit = ramp_c(k_bad)

        class Fragile(Ramp):
            def __call__(self, x):
                if x[0] > limit:
                    raise SingularityError(f"state {x[0]!r} past {limit!r}")
                return super().__call__(x)

            def rows(self, states):
                if (states[:, 0] > limit).any():
                    raise SingularityError("some row past the limit")
                return super().rows(states)

        monitors = [Fragile(1e9), Ramp(ramp_c(k_cross))]
        ref, got, scalar = arms(monkeypatch, RAMP, np.array([0.0]), 0.0, 3 * B * DT, monitors, ICFG, ECFG)
        assert ref == got == scalar
        assert got[0] == ("raised" if raised else "returned")


class TestBandRowBelowFloor:
    """The orbital safety margin's row form raises where a row is below the
    singularity floor; the loop then meets the error where the one-step loop
    does, or not at all after a crossing."""

    B_SPEC = orbital_range_barrier(gamma=0.1, d_bar=1e-3)
    BALLISTIC = staticmethod(lambda t, x: (x[3], x[4], x[5], 0.0, 0.0, 0.0))
    X0 = np.array([0.3, 0.0, 0.0, -1.0, 0.0, 0.0])  # falls through the 0.1 floor at t = 0.2

    def negated_margin(self):
        b = self.B_SPEC
        flow = lambda x: x  # unused by the fused terms
        monitor = lambda x: -barrier_condition_margin(b, flow, x)
        monitor.rows = lambda states: -barrier_condition_rows(b, states)
        return monitor

    def test_floor_row_raises_as_one_step_loop(self, monkeypatch):
        monitor = self.negated_margin()
        assert monitor(self.X0) > 0.0
        ref, got, scalar = arms(monkeypatch, self.BALLISTIC, self.X0, 0.0, 2.0, [monitor], ICFG, ECFG)
        assert ref == got == scalar
        assert got[0] == "raised" and got[1] is SingularityError
        assert "below singularity floor" in got[2]

    def test_floor_row_after_a_crossing_is_dropped(self, monkeypatch):
        radius = lambda x: x[0] - 0.2
        radius.rows = lambda states: states[:, 0] - 0.2
        ref, got, scalar = arms(
            monkeypatch, self.BALLISTIC, self.X0, 0.0, 2.0, [self.negated_margin(), radius], ICFG, ECFG
        )
        assert ref == got == scalar
        assert got[0] == "returned" and got[5][0] == 1


def digests(out):
    found = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return found


@pytest.mark.parametrize("seed", [1, 3])
def test_compare_outputs_do_not_depend_on_the_block_length(monkeypatch, tmp_path, seed):
    # the greedy arm runs in a forked worker, which inherits the patch
    config = os.path.join(CONFIGS, "greedy_satellite.ini")
    model = os.path.join(CONFIGS, "tau_model.json")
    with monkeypatch.context() as m:
        m.setattr(numerics, "_BLOCK_STEPS", 1)
        assert cmd_compare(config, model, str(tmp_path / "one"), seed=seed, horizon=1250.0) == EXIT_OK
    assert cmd_compare(config, model, str(tmp_path / "block"), seed=seed, horizon=1250.0) == EXIT_OK
    one, block = digests(tmp_path / "one"), digests(tmp_path / "block")
    assert len(one) == 7 and one == block


def test_shipped_planar_run_takes_one_step_blocks(monkeypatch):
    # the planar monitors carry no row form: no step is taken past a toggle
    from etsafe.engine import run_intermittent_filter

    cfg = parse_config(os.path.join(CONFIGS, "planar_intermittent.ini"), horizon=5.0)
    steps = []
    real = numerics.rk4_step
    monkeypatch.setattr(numerics, "rk4_step", lambda *a: steps.append(a[2]) or real(*a))
    result = run_intermittent_filter(cfg.build_planar(), cfg.initial_state, 5.0)
    assert result.summary.event_count > 0
    # one step per sample that is not a segment start, and none beyond
    starts = 1 + result.summary.event_count
    assert len(steps) == len(result.trajectory.times) - starts
