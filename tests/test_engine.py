"""Hybrid run loop tests: greedy, maneuver, intermittent, bounds, audits."""

import dataclasses
import logging
import os
import pickle
import sys

import numpy as np
import pytest

from etsafe.barrier import (
    BandBarrier,
    barrier_condition_margin,
    orbital_range_barrier,
    planar_disk_barrier,
)
from etsafe.dynamics import DisturbanceModel
import etsafe.barrier
import etsafe.numerics
from etsafe.config import parse_config
from etsafe.engine import (
    AssumptionCheckError,
    RunAbortedError,
    Trajectory,
    _assumption_check_states,
    _recovery_radius,
    audit_safety,
    check_nominal_safety_assumption,
    miet_bound,
    miet_bound_formula,
    planar_region_states,
    run_greedy_impulsive,
    run_intermittent_filter,
    run_maneuver,
    satellite_region_states,
)
from etsafe.inter_event import InterEventTimeModel, load_model
from etsafe.numerics import EventLocatorConfig, IntegratorConfig, SingularityError
from etsafe.orbital import StationKeepingConfig
from etsafe.scenarios import FilterConfig, PlanarScenario, SatelliteScenario


def satellite_scenario(seed=1, kind="seeded-piecewise-constant", gamma=0.1, d_bar=1e-3):
    return SatelliteScenario(
        barrier=orbital_range_barrier(gamma=gamma, d_bar=d_bar),
        controller=StationKeepingConfig(),
        disturbance=DisturbanceModel(kind=kind, d_bar=d_bar, seed=seed, hold_time=1.0)
        if kind != "none"
        else DisturbanceModel(kind="none", d_bar=d_bar),
        integrator=IntegratorConfig(step_size=0.05),
        events=EventLocatorConfig(),
    )


def planar_scenario(
    seed=2, goal=(1.05, 0.0), gamma=2.0, d_bar=0.01, kind="seeded-piecewise-constant", gain=1.0
):
    return PlanarScenario(
        barrier=planar_disk_barrier(rho=1.0, gamma=gamma, d_bar=d_bar),
        disturbance=DisturbanceModel(kind=kind, d_bar=d_bar, seed=seed, hold_time=0.5, dim=2)
        if kind != "none"
        else DisturbanceModel(kind="none", d_bar=d_bar, dim=2),
        filter=FilterConfig(
            promote_rate=0.05, hysteresis_gap=0.05, recovery_level=0.2, goal=goal, gain=gain
        ),
        integrator=IntegratorConfig(step_size=0.01),
        events=EventLocatorConfig(),
    )


class ScalarBand(BandBarrier):
    """A band with no usable row form, so miet_bound takes each scalar margin."""

    def margin_rows(self, states):
        raise SingularityError("no row form")


def scalar_band(b):
    return ScalarBand(**dataclasses.asdict(b))


def constant_tau_model(value=50.0):
    return InterEventTimeModel(
        knots=np.array([0.0, 0.16]),
        coefficients=np.array([value, value]),
        h_min=0.0,
        h_max=0.16,
    )


def fitted_like_tau_model():
    # shape of a real campaign: short dwell near the boundary, long at center
    knots = np.array([0.0194, 0.0576, 0.1024, 0.1375, 0.16])
    values = np.array([6.0, 8.0, 12.0, 650.0, 1200.0])
    return InterEventTimeModel(
        knots=knots,
        coefficients=values,
        h_min=float(knots[0]),
        h_max=float(knots[-1]),
    )


CIRCULAR_MID = np.array([2.0, 0.0, 0.0, 0.0, np.sqrt(0.5), 0.0])
X0 = np.array([2.2, 0.0, 0.0, 0.0, np.sqrt(1.0 / 2.2), 0.0])


# Runs that several tests inspect are made once per module.
@pytest.fixture(scope="module")
def greedy_3000():
    scn = satellite_scenario(seed=1)
    return scn, run_greedy_impulsive(scn, X0, 3000.0)


@pytest.fixture(scope="module")
def maneuver_3000():
    scn = satellite_scenario(seed=1)
    model = fitted_like_tau_model()
    return scn, model, run_maneuver(scn, model, X0, 3000.0)


class TestGreedy:
    def test_no_disturbance_no_jumps(self):
        scn = satellite_scenario(kind="none")
        res = run_greedy_impulsive(scn, CIRCULAR_MID, 200.0)
        assert res.summary.jump_count == 0
        assert res.summary.min_h == pytest.approx(0.16, abs=1e-6)

    def test_disturbed_run_is_safe_with_jumps(self, greedy_3000):
        scn, res = greedy_3000
        s = res.summary
        assert s.jump_count > 0
        assert s.min_h >= -1e-9
        assert s.min_post_jump_margin >= scn.controller.post_jump_margin
        # flow-interior monitor values only graze zero at firing times
        assert s.min_xi_flow >= -(
            s.value_tolerance + 5.0 * s.time_tolerance  # margin slope is O(1)
        )

    def test_observed_dwell_beats_analytic_bound(self, greedy_3000):
        _, res = greedy_3000
        s = res.summary
        if s.min_inter_event_time is not None:
            assert s.min_inter_event_time >= s.miet_lower_bound

    def test_jump_records_are_consistent(self, greedy_3000):
        scn, res = greedy_3000
        times = [e.time for e in res.events]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        for e in res.events:
            assert e.kind == "jump"
            assert np.array_equal(e.state_before[:3], e.state_after[:3])
            assert e.h_after >= 0.0
            assert e.xi_after >= scn.controller.post_jump_margin
            assert e.impulse_magnitude > 0.0

    def test_initial_jump_when_margin_nonpositive(self):
        scn = satellite_scenario(seed=1)
        # strongly outward-moving state near the outer boundary violates the margin
        x0 = np.array([2.35, 0.0, 0.0, 0.12, np.sqrt(1.0 / 2.35), 0.0])
        assert barrier_condition_margin(scn.barrier, scn.nominal_flow(), x0) <= 0.0
        res = run_greedy_impulsive(scn, x0, 50.0)
        assert res.events[0].trigger_id == "initial"
        assert res.events[0].time == 0.0

    def test_initial_jump_disabled_aborts(self):
        scn = satellite_scenario(seed=1)
        scn = SatelliteScenario(
            barrier=scn.barrier,
            controller=scn.controller,
            disturbance=scn.disturbance,
            integrator=scn.integrator,
            events=scn.events,
            allow_initial_jump=False,
        )
        x0 = np.array([2.35, 0.0, 0.0, 0.12, np.sqrt(1.0 / 2.35), 0.0])
        with pytest.raises(RunAbortedError):
            run_greedy_impulsive(scn, x0, 50.0)

    def test_unsafe_start_aborts(self):
        scn = satellite_scenario()
        x0 = np.array([1.5, 0.0, 0.0, 0.0, 0.8, 0.0])
        with pytest.raises(RunAbortedError):
            run_greedy_impulsive(scn, x0, 10.0)

    def test_deterministic(self):
        scn = satellite_scenario(seed=1)
        r1 = run_greedy_impulsive(scn, X0, 1200.0)
        r2 = run_greedy_impulsive(scn, X0, 1200.0)
        assert [e.time for e in r1.events] == [e.time for e in r2.events]
        assert np.array_equal(r1.trajectory.states, r2.trajectory.states)


class TestManeuver:
    def test_constant_model_degenerates_to_greedy(self):
        # A flat expected-dwell model never fires the payoff trigger, so jump
        # times match the greedy run exactly; only pair labels differ.
        scn = satellite_scenario(seed=1)
        greedy = run_greedy_impulsive(scn, X0, 2000.0)
        maneuver = run_maneuver(scn, constant_tau_model(50.0), X0, 2000.0)
        t_g = [e.time for e in greedy.events]
        t_m = [e.time for e in maneuver.events]
        assert len(t_g) == len(t_m)
        assert np.allclose(t_g, t_m, atol=1e-9)
        roles = [e.pair_role for e in maneuver.events]
        assert roles == ["first", "second"] * (len(roles) // 2) + ["first"] * (len(roles) % 2)
        assert all(e.trigger_id in ("safety", "initial") for e in maneuver.events)

    def test_pair_roles_alternate(self, maneuver_3000):
        _, _, res = maneuver_3000
        roles = [e.pair_role for e in res.events]
        for i, role in enumerate(roles):
            assert role == ("first" if i % 2 == 0 else "second")

    def test_timing_events_respect_gate(self, maneuver_3000):
        # Every payoff-triggered second impulse fires no earlier than the
        # first impulse time plus the expected dwell at the first impulse.
        _, model, res = maneuver_3000
        events = res.events
        timing_seen = 0
        for i, e in enumerate(events):
            if e.trigger_id in ("timing", "deadline"):
                timing_seen += 1
                first = events[i - 1]
                assert first.pair_role == "first"
                gate = first.time + model.tau(first.h_after)
                assert e.time >= gate - 1e-9
        assert res.summary.jump_count == len(events)

    def test_maneuver_is_safe(self, maneuver_3000):
        scn, _, res = maneuver_3000
        assert res.summary.min_h >= -1e-9
        assert res.summary.min_post_jump_margin >= scn.controller.post_jump_margin

    def test_reduces_jump_count_on_paired_run(self, greedy_run):
        # The shipped greedy config is this scenario at horizon 6000, so the
        # session's run of it is the greedy half of the pair.
        cfg, shipped, greedy, _ = greedy_run
        scn = satellite_scenario(seed=1)
        assert np.array_equal(cfg.initial_state, X0) and cfg.horizon == 6000.0
        assert (shipped.disturbance, shipped.controller, shipped.integrator, shipped.events) == (
            scn.disturbance, scn.controller, scn.integrator, scn.events
        )
        assert (shipped.barrier.gamma, shipped.barrier.d_bar) == (scn.barrier.gamma, scn.barrier.d_bar)
        maneuver = run_maneuver(scn, fitted_like_tau_model(), X0, 6000.0)
        assert maneuver.summary.jump_count < greedy.summary.jump_count


class TestSecondImpulsePins:
    """Bit-for-bit event sequences of the shipped maneuver config, covering a
    deadline impulse, a timing impulse, a safety second impulse and an initial
    jump that opens a pair."""

    HOT_START = np.array([2.35, 0.0, 0.0, 0.12, np.sqrt(1.0 / 2.35), 0.0])

    @staticmethod
    def run(seed, horizon, x0=None):
        cfg = parse_config(
            os.path.join(os.path.dirname(SHIPPED_PLANAR), "maneuver_satellite.ini"), seed=seed
        )
        model = load_model(cfg.tau_model_path)
        scn = cfg.build_satellite()
        x0 = cfg.initial_state if x0 is None else x0
        return model, run_maneuver(scn, model, x0, horizon)

    def test_deadline_and_safety_second_impulses(self):
        _, res = self.run(seed=2, horizon=800.0)
        assert [(e.time, e.trigger_id, e.pair_role) for e in res.events] == [
            (133.19154205322266, "safety", "first"),
            (142.98730004094347, "deadline", "second"),
            (524.5461661603281, "safety", "first"),
            (536.1685836102793, "safety", "second"),
            (751.1659060742685, "safety", "first"),
        ]

    def test_timing_second_impulse(self):
        _, res = self.run(seed=1, horizon=1250.0)
        assert [(e.time, e.trigger_id, e.pair_role) for e in res.events] == [
            (904.2982162475585, "safety", "first"),
            (1203.4169178523646, "timing", "second"),
        ]

    def test_initial_jump_opens_a_pair(self):
        model, res = self.run(seed=1, horizon=600.0, x0=self.HOT_START)
        assert [(e.time, e.trigger_id, e.pair_role) for e in res.events] == [
            (0.0, "initial", "first"),
            (7.476409149771133, "deadline", "second"),
        ]
        # the deadline impulse fires exactly at the gate
        assert res.events[1].time == model.tau(res.events[0].h_after)


class TestDegradedCrossings:
    # a slightly hot orbit whose margin crosses zero twice within 60 time units
    HOT = np.array([2.3, 0.0, 0.0, 0.0, 1.02 * np.sqrt(1.0 / 2.3), 0.0])

    def run_hot_orbit(self, caplog, events):
        scn = dataclasses.replace(satellite_scenario(kind="none"), events=events)
        with caplog.at_level(logging.WARNING, logger="etsafe.engine"):
            res = run_greedy_impulsive(scn, self.HOT, 60.0)
        logged = [r for r in caplog.records if r.name == "etsafe.engine"]
        assert all(r.levelno == logging.WARNING for r in logged)
        return res, logged

    def test_each_degraded_crossing_logs_one_warning(self, caplog):
        res, logged = self.run_hot_orbit(caplog, EventLocatorConfig(max_bisections=1))
        located = [e.time for e in res.events if e.trigger_id == "safety"]
        assert len(located) == 2
        assert [r.args for r in logged] == [(0, t) for t in located]
        assert all("degraded crossing of monitor 0" in r.getMessage() for r in logged)

    def test_full_budget_logs_nothing(self, caplog):
        res, logged = self.run_hot_orbit(caplog, EventLocatorConfig())
        assert len(res.events) == 2
        assert logged == []


class TestIntermittent:
    def test_default_run_cycles_and_stays_safe(self):
        scn = planar_scenario()
        res = run_intermittent_filter(scn, np.zeros(2), 100.0)
        s = res.summary
        assert s.filter_on_count >= 1
        assert s.filter_off_count >= 1
        assert s.min_h >= -1e-9
        assert s.assumption_check_samples > 1000

    def test_events_alternate_strictly(self):
        scn = planar_scenario()
        res = run_intermittent_filter(scn, np.zeros(2), 60.0)
        kinds = [e.kind for e in res.events]
        for a, b in zip(kinds, kinds[1:]):
            assert a != b
        if kinds:
            assert kinds[0] == "filter_on"

    def test_on_durations_within_recovery_bound(self):
        scn = planar_scenario()
        res = run_intermittent_filter(scn, np.zeros(2), 60.0)
        events = res.events
        for i, e in enumerate(events):
            if e.kind == "filter_off":
                on = events[i - 1]
                bound = (scn.filter.recovery_level - on.h_before) / scn.filter.promote_rate
                assert e.time - on.time <= bound + scn.events.time_tolerance

    def test_barrier_rises_at_promoted_rate_during_on(self):
        scn = planar_scenario()
        res = run_intermittent_filter(scn, np.zeros(2), 60.0)
        traj = res.trajectory
        on = traj.filter_on.astype(bool)
        dt = np.diff(traj.times)
        dh = np.diff(traj.h)
        # within-ON consecutive samples (both flagged, strictly increasing time)
        inside = on[:-1] & on[1:] & (dt > 1e-12)
        rates = dh[inside] / dt[inside]
        assert len(rates) > 0
        assert np.min(rates) >= scn.filter.promote_rate - 1e-6

    def test_filter_off_margin_at_gap(self):
        scn = planar_scenario()
        res = run_intermittent_filter(scn, np.zeros(2), 60.0)
        for e in res.events:
            if e.kind == "filter_off":
                assert e.xi_after == pytest.approx(scn.filter.hysteresis_gap, abs=1e-6)

    def test_origin_goal_without_disturbance_never_filters(self):
        scn = planar_scenario(goal=(0.0, 0.0), kind="none", d_bar=0.0)
        res = run_intermittent_filter(scn, np.array([0.8, 0.3]), 50.0)
        assert res.summary.filter_on_count == 0
        assert res.summary.min_h >= -1e-9

    def test_assumption_check_rejects_weak_gain(self):
        # gamma = 0.4 cannot dominate the outward pull of the boundary goal
        # above the recovery level, so the configuration must be rejected.
        scn = planar_scenario(gamma=0.4)
        with pytest.raises(AssumptionCheckError):
            check_nominal_safety_assumption(scn)
        with pytest.raises(AssumptionCheckError):
            run_intermittent_filter(scn, np.zeros(2), 10.0)

    def test_assumption_check_rejects_a_nan_margin(self):
        # the input overflows to -inf and +inf at the disk center, where the
        # gradient is zero, so the margin is NaN, which compares False with
        # the gap
        scn = planar_scenario(goal=(-2.0, 2.0), gain=1e308)
        with pytest.raises(AssumptionCheckError, match="margin nan is not >= gap 0.05"):
            check_nominal_safety_assumption(scn)

    def test_off_periods_beat_miet_bound(self):
        scn = planar_scenario()
        res = run_intermittent_filter(scn, np.zeros(2), 100.0)
        assert res.summary.min_inter_event_time is not None
        assert res.summary.min_inter_event_time >= res.summary.miet_lower_bound


class TestMietBound:
    def test_forced_constants_closed_form(self):
        b = orbital_range_barrier(gamma=0.1, d_bar=0.01)
        got = miet_bound_formula(0.01, 0.5, 1.2, b.d_bar)
        assert abs(got - 0.01 / (0.5 * 1.21)) <= 1e-12

    def test_formula_linear_in_margin(self):
        one = miet_bound_formula(0.01, 0.7, 1.1, 0.01)
        two = miet_bound_formula(0.02, 0.7, 1.1, 0.01)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_sampled_bound_is_positive_and_small(self):
        scn = satellite_scenario()
        bound = miet_bound(
            scn.barrier,
            scn.nominal_flow(),
            satellite_region_states(scn),
            scn.controller.post_jump_margin,
        )
        assert 0.0 < bound < 1.0

    @pytest.mark.parametrize("seed", [1, 3])
    def test_row_differences_equal_the_scalar_loop(self, seed):
        # the band's 24,000 shifted states go through the row margin in one
        # call; without a row form the same band takes each scalar margin
        scn = satellite_scenario(seed=seed)
        args = (scn.nominal_flow(), satellite_region_states(scn), scn.controller.post_jump_margin)
        scalar = scalar_band(scn.barrier)
        assert miet_bound(scn.barrier, *args).hex() == miet_bound(scalar, *args).hex()

    def test_state_below_the_floor_raises_as_the_scalar_loop(self):
        scn = satellite_scenario()
        states = satellite_region_states(scn)[:50].copy()
        # the flow takes the state itself, but one shifted state is below
        # the floor, where the margin raises
        states[30, :3] = [0.1 + 5e-7, 0.0, 0.0]
        errors = []
        for b in (scn.barrier, scalar_band(scn.barrier)):
            with pytest.raises(SingularityError) as err:
                miet_bound(b, scn.nominal_flow(), states, scn.controller.post_jump_margin)
            errors.append(str(err.value))
        assert errors[0] == errors[1] and errors[0].startswith("radius 0.09999")

    def test_margin_slope_along_flow_respects_constants(self):
        # Consecutive margin samples along a flow segment can differ by at
        # most L_xi (B + d_bar) dt plus higher-order terms; the sampled
        # constants (inflated 10%) must cover the observed slope.
        scn = satellite_scenario(seed=3)
        b = scn.barrier
        flow = scn.nominal_flow()
        states = satellite_region_states(scn)[:400]
        b_sup = max(float(np.linalg.norm(flow(x))) for x in states)
        l_xi = 0.0
        eps = 1e-6
        for x in states[:200]:
            grad_sq = 0.0
            for i in range(6):
                xp, xm = x.copy(), x.copy()
                xp[i] += eps
                xm[i] -= eps
                grad_sq += (
                    (barrier_condition_margin(b, flow, xp) - barrier_condition_margin(b, flow, xm))
                    / (2 * eps)
                ) ** 2
            l_xi = max(l_xi, np.sqrt(grad_sq))
        res = run_greedy_impulsive(scn, X0, 300.0)
        traj = res.trajectory
        dt = np.diff(traj.times)
        dxi = np.abs(np.diff(traj.xi_active))
        ok = dt > 1e-12
        rate_bound = 1.1 * l_xi * (1.1 * b_sup + b.d_bar)
        assert np.all(dxi[ok] <= rate_bound * dt[ok] * (1.0 + 1e-3) + 1e-9)


class TestAuditSafety:
    def test_accepted_run_is_safe(self):
        scn = satellite_scenario(seed=1)
        res = run_greedy_impulsive(scn, X0, 500.0)
        min_h, min_xi = audit_safety(res.trajectory)
        assert res.summary.safe
        assert (min_h, min_xi) == (res.summary.min_h, res.summary.min_xi_flow)

    def test_corrupted_trajectory_flagged_unsafe(self):
        scn = satellite_scenario(seed=1)
        res = run_greedy_impulsive(scn, X0, 100.0)
        traj = res.trajectory
        bad_states = traj.states.copy()
        bad_states[-1, :3] = [2.5, 0.0, 0.0]  # outside the band: h = -0.09
        bad = Trajectory(
            times=traj.times,
            states=bad_states,
            h=np.array([scn.barrier.h(s) for s in bad_states]),
            xi_active=traj.xi_active,
            filter_on=traj.filter_on,
        )
        min_h, _ = audit_safety(bad)
        assert min_h == pytest.approx(-0.09)
        assert not dataclasses.replace(res.summary, min_h=min_h).safe


class TestRunSummary:
    @pytest.fixture(scope="class")
    def base(self):
        # no seed is passed: the summary's is the disturbance's
        return run_greedy_impulsive(satellite_scenario(seed=2), X0, 20.0).summary

    def test_seed_is_the_disturbance_seed(self, base):
        assert base.seed == 2

    def test_safe_verdict(self, base):
        tol = base.value_tolerance
        assert dataclasses.replace(base, min_h=-tol).safe
        assert not dataclasses.replace(base, min_h=np.nextafter(-tol, -1.0)).safe
        assert not dataclasses.replace(base, min_h=float("nan")).safe


class TestRunAbortedError:
    def test_survives_a_pickle_round_trip(self):
        # a worker process's abort must reach the parent as the same error
        err = RunAbortedError("margin went non-finite", 12.5, np.array([2.2, -0.0, 0.0, 0.0, 0.67, 1e-300]))
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is RunAbortedError
        assert str(back) == str(err) == "margin went non-finite (t=12.5)"
        assert back.t == err.t
        assert back.x.tobytes() == err.x.tobytes()


def bisected_radius(b, level):
    """The 200-step bisection along +x that located a disk level's radius
    before the spec carried its geometry."""
    probe = np.array([1.0, 0.0])
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if b.h(mid * probe) >= level:
            lo = mid
        else:
            hi = mid
    return lo


SHIPPED_PLANAR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "configs",
    "planar_intermittent.ini",
)


class TestSpecGeometry:
    """Radii read from the barrier spec equal the literals and bisections
    they replaced, bit for bit."""

    def test_satellite_sampler_bounds_equal_literals(self):
        scn = satellite_scenario()
        rng = np.random.default_rng(0)
        n = 2000
        radii = rng.uniform(1.6, 2.4, n)
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        vdirs = rng.normal(size=(n, 3))
        vdirs /= np.linalg.norm(vdirs, axis=1, keepdims=True)
        speeds = rng.uniform(0.0, 0.99, n) * np.sqrt(2.0 / radii)
        expected = np.hstack([radii[:, None] * dirs, speeds[:, None] * vdirs])
        assert satellite_region_states(scn).tobytes() == expected.tobytes()

    def test_shipped_recovery_radius_equals_bisection(self):
        scn = parse_config(SHIPPED_PLANAR).build_planar()
        closed = _recovery_radius(scn.barrier, scn.filter.recovery_level)
        assert closed.hex() == bisected_radius(scn.barrier, scn.filter.recovery_level).hex()
        assert closed == 0.8944271909999159

    def test_shipped_disk_radius_equals_bisection(self):
        scn = parse_config(SHIPPED_PLANAR).build_planar()
        b = scn.barrier
        assert (b.center + b.half_width).hex() == bisected_radius(b, 0.0).hex()
        assert bisected_radius(b, 0.0) == 1.0
        rng = np.random.default_rng(0)
        ang = rng.uniform(0.0, 2.0 * np.pi, 2000)
        s = 1.0 * np.sqrt(rng.uniform(size=2000))
        expected = np.stack([s * np.cos(ang), s * np.sin(ang)], axis=1)
        assert planar_region_states(scn).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("s_max", [0.8944271909999159, 1.0, 0.3, 7.25, 1e-3, 0.0])
    def test_assumption_check_states_equal_the_scalar_loop(self, s_max):
        # the point loop the array operations replaced, in its order: the
        # grid radius by radius, then angle and radius fraction drawn in turn
        points = []
        for s in np.linspace(0.0, s_max, 60):
            for ang in np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False):
                points.append([s * np.cos(ang), s * np.sin(ang)])
        rng = np.random.default_rng(0)
        for _ in range(2000):
            ang = rng.uniform(0.0, 2.0 * np.pi)
            s = s_max * np.sqrt(rng.uniform())
            points.append([s * np.cos(ang), s * np.sin(ang)])
        assert _assumption_check_states(s_max).tobytes() == np.array(points).tobytes()

    def test_recovery_level_above_barrier_maximum(self):
        # no state reaches the level: the shell collapses to the center and
        # the assumption check has nothing to sample
        scn = planar_scenario()
        scn = dataclasses.replace(scn, filter=dataclasses.replace(scn.filter, recovery_level=1.5))
        assert _recovery_radius(scn.barrier, scn.filter.recovery_level) == 0.0
        assert check_nominal_safety_assumption(scn) == 0


def test_every_step_routes_through_rk4_step_and_a_barrier_margin(monkeypatch):
    # the benchmark's per-layer trace counts steps at rk4_step and margins at
    # the public barrier functions, so each RK4 step must reach rk4_step and
    # each step's monitor value one of them: the row margin for the block's
    # steps, the scalar margin for segment starts and refinements.  Calls are
    # counted inside propagation only, where miet_bound's 24,000 rows do not
    # land.
    counts = {"margin": 0, "rows": 0, "step": 0}
    propagating = []

    def rebind(original, wrapper):
        for name, mod in list(sys.modules.items()):
            if name == "etsafe" or name.startswith("etsafe."):
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        monkeypatch.setattr(mod, attr, wrapper)

    def counted(original, key, size=lambda *args: 1):
        def wrapper(*args, **kwargs):
            counts[key] += size(*args) if propagating else 0
            return original(*args, **kwargs)

        rebind(original, wrapper)

    def propagate(*args, **kwargs):
        propagating.append(True)
        try:
            return original_propagate(*args, **kwargs)
        finally:
            propagating.pop()

    original_propagate = etsafe.numerics.propagate_until
    rebind(original_propagate, propagate)
    counted(etsafe.barrier.barrier_condition_margin, "margin")
    counted(etsafe.barrier.barrier_condition_rows, "rows", lambda b, states: len(states))
    counted(etsafe.numerics.rk4_step, "step")
    cfg = parse_config(os.path.join(os.path.dirname(SHIPPED_PLANAR), "greedy_satellite.ini"))
    run_greedy_impulsive(cfg.build_satellite(), cfg.initial_state, 150.0)
    assert counts["step"] >= 3000
    assert counts["rows"] >= counts["step"]
    assert counts["margin"] > 0


class TestTrajectoryH:
    @pytest.mark.parametrize("run", ["greedy_run", "maneuver_run", "planar_run"])
    def test_h_column_bitwise_equals_h_per_row(self, run, request):
        _, scenario, result, _ = request.getfixturevalue(run)
        states = result.trajectory.states
        per_row = np.array([scenario.barrier.h(s) for s in states])
        assert result.trajectory.h.tobytes() == per_row.tobytes()
        if run == "greedy_run":
            # numpy's square of (r - c) differs from Python's ** on some rows,
            # so the pin above sees which one the column uses
            c, hw = scenario.barrier.center, scenario.barrier.half_width
            r = np.sqrt([s[:3].dot(s[:3]) for s in states])
            assert np.any(hw * hw - np.square(r - c) != per_row)


class TestScenarioGeometry:
    """Each scenario takes the barrier of its own geometry and rejects the
    other where it is built, naming both types."""

    def test_satellite_scenario_rejects_the_disk(self):
        scn = satellite_scenario()
        disk = planar_disk_barrier(rho=1.0, gamma=0.1, d_bar=scn.barrier.d_bar)
        with pytest.raises(ValueError, match="needs a BandBarrier, got a DiskBarrier"):
            dataclasses.replace(scn, barrier=disk)

    def test_planar_scenario_rejects_the_band(self):
        scn = planar_scenario()
        band = orbital_range_barrier(gamma=2.0, d_bar=scn.barrier.d_bar)
        with pytest.raises(ValueError, match="needs a DiskBarrier, got a BandBarrier"):
            dataclasses.replace(scn, barrier=band)
