"""Vector field, jump map, and disturbance model tests."""

import math

import numpy as np
import pytest

from etsafe.barrier import orbital_range_barrier, planar_disk_barrier
from etsafe.dynamics import (
    SINGULARITY_FLOOR,
    DisturbanceModel,
    _LaneDisturbance,
    SingularityError,
    _single_integrator_rk4,
    _two_body_rk4,
    apply_impulse,
    two_body_field,
)
from etsafe.numerics import IntegratorConfig, propagate_until, rk4_step
from etsafe.orbital import StationKeepingConfig
from etsafe.scenarios import FilterConfig, PlanarScenario, SatelliteScenario


def field_test_states(n=2000):
    """Seeded states across the band, both band edges, and far in and out,
    with some -0.0 positions and zero velocities."""
    rng = np.random.default_rng(11)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.concatenate([rng.uniform(1.6, 2.4, n - 4), [1.6, 2.4, 0.2, 7.5]])
    states = np.hstack([radii[:, None] * dirs, rng.normal(scale=0.5, size=(n, 3))])
    states[:10, 2] = -0.0
    states[10:20, 3:] = 0.0
    return states


def specific_energy(s):
    r = np.linalg.norm(s[:3])
    v2 = s[3:] @ s[3:]
    return 0.5 * v2 - 1.0 / r


class TestTwoBodyField:
    def test_circular_orbit_balance(self):
        s = np.array([2.0, 0.0, 0.0, 0.0, np.sqrt(0.5), 0.0])
        deriv = two_body_field(s)
        assert deriv[3] == pytest.approx(-0.25, abs=1e-15)
        assert deriv[4] == 0.0 and deriv[5] == 0.0
        # centripetal balance |a| = v^2 / r
        assert np.linalg.norm(deriv[3:]) == pytest.approx(0.5 / 2.0, abs=1e-15)

    def test_unit_radius_rest_state(self):
        s = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert np.allclose(two_body_field(s), [0, 0, 0, -1, 0, 0], atol=1e-15)

    def test_singularity_floor(self):
        s = np.array([0.05, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(SingularityError):
            two_body_field(s)

    def test_bitwise_equal_to_numpy_scalar_formula(self):
        # The float body must run exactly the IEEE operations of the numpy
        # formula it replaced, so trajectories stay byte-identical.
        def numpy_formula(s):
            pos = s[:3]
            r = float(np.sqrt(pos[0] * pos[0] + pos[1] * pos[1] + pos[2] * pos[2]))
            out = np.empty(6)
            out[:3] = s[3:]
            out[3:] = (-1.0 / (r * r * r)) * pos
            return out

        for s in field_test_states():
            assert np.asarray(two_body_field(s)).tobytes() == numpy_formula(s).tobytes()

    @pytest.mark.parametrize("kind", ["seeded-piecewise-constant", "none"])
    def test_disturbed_field_bitwise_equal_to_in_place_add(self, kind):
        # The disturbance is added inside the field's one array construction;
        # that must be the same IEEE addition as the in-place add it replaced.
        dist = DisturbanceModel(kind=kind, d_bar=1e-3, seed=5, hold_time=1.0)
        scenario = SatelliteScenario(
            barrier=orbital_range_barrier(gamma=0.1, d_bar=1e-3),
            controller=StationKeepingConfig(),
            disturbance=dist,
        )
        states = field_test_states()
        rng = np.random.default_rng(12)
        times = np.concatenate([rng.uniform(0.0, 100.0, len(states) - 4), [0.0, 1.0, 100.0, 250.0]])
        for stream in (0, 3):
            field = scenario.disturbed_field(stream)
            sampler = dist.realize(stream)
            for t, s in zip(times.tolist(), states):
                old = np.asarray(two_body_field(s))
                old[3:] += sampler(t)
                assert np.asarray(field(t, s)).tobytes() == old.tobytes()

    def test_circular_period_returns_to_start(self):
        # Kepler's third law: T = 2 pi sqrt(r^3 / mu) = 2 pi sqrt(8) at r = 2.
        period = 2.0 * np.pi * np.sqrt(8.0)
        assert period == pytest.approx(17.7715, abs=5e-4)
        s0 = np.array([2.0, 0.0, 0.0, 0.0, np.sqrt(0.5), 0.0])
        field = lambda t, x: two_body_field(x)
        _, states, _, crossing = propagate_until(
            field, s0, 0.0, period, [], IntegratorConfig(step_size=0.05)
        )
        assert crossing is None
        assert np.linalg.norm(states[-1] - s0) < 1e-6

    def test_energy_and_momentum_conserved_over_period(self):
        s0 = np.array([2.0, 0.0, 0.0, 0.0, np.sqrt(0.5), 0.0])
        field = lambda t, x: two_body_field(x)
        period = 2.0 * np.pi * np.sqrt(8.0)
        _, states, _, _ = propagate_until(
            field, s0, 0.0, period, [], IntegratorConfig(step_size=0.05)
        )
        e0 = specific_energy(s0)
        h0 = np.cross(s0[:3], s0[3:])
        for s in states[:: len(states) // 50]:
            assert abs(specific_energy(s) - e0) / abs(e0) <= 1e-6
            h = np.cross(s[:3], s[3:])
            assert np.linalg.norm(h - h0) / np.linalg.norm(h0) <= 1e-6


class TestApplyImpulse:
    def test_velocity_incremented(self):
        s = np.array([1.0, 2.0, 3.0, 0.0, 0.7, 0.0])
        out = apply_impulse(s, np.array([0.0, 0.1, 0.0]))
        assert np.array_equal(out[:3], s[:3])
        assert out[4] == pytest.approx(0.8, abs=1e-15)

    def test_zero_impulse_identity(self):
        s = np.array([1.0, 2.0, 3.0, 0.1, 0.2, 0.3])
        assert np.array_equal(apply_impulse(s, np.zeros(3)), s)

    def test_magnitude_bookkeeping(self):
        dv = np.array([0.3, -0.4, 0.0])
        s = np.zeros(6)
        out = apply_impulse(s, dv)
        assert np.linalg.norm(out[3:] - s[3:]) == pytest.approx(np.linalg.norm(dv))

    def test_input_not_mutated(self):
        s = np.array([1.0, 0.0, 0.0, 0.0, 0.7, 0.0])
        before = s.copy()
        apply_impulse(s, np.array([0.1, 0.0, 0.0]))
        assert np.array_equal(s, before)


class TestDisturbanceModel:
    def test_none_kind_is_zero(self):
        m = DisturbanceModel(kind="none")
        assert np.array_equal(m.sample(3.7), np.zeros(3))

    def test_piecewise_constant_deterministic(self):
        m = DisturbanceModel(kind="seeded-piecewise-constant", d_bar=1e-3, seed=7)
        a = m.sample(2.4)
        b = m.sample(2.4)
        assert np.array_equal(a, b)

    def test_piecewise_constant_within_interval(self):
        m = DisturbanceModel(kind="seeded-piecewise-constant", d_bar=1e-3, seed=7, hold_time=1.0)
        assert np.array_equal(m.sample(2.1), m.sample(2.9))
        assert not np.array_equal(m.sample(2.1), m.sample(3.1))

    def test_streams_are_independent(self):
        m = DisturbanceModel(kind="seeded-piecewise-constant", d_bar=1e-3, seed=7)
        assert not np.array_equal(m.sample(0.5, stream=0), m.sample(0.5, stream=1))

    def test_bound_holds_over_monte_carlo(self):
        # 5,000 random times.  A held vector is d_bar times a rounded unit
        # vector, so |d| <= d_bar holds up to rounding, not exactly: at seed
        # 1, streams 1-200 and intervals 0-1999 (d_bar = 1e-3), 23,986 of the
        # 400,000 vectors exceed d_bar, by at most 4.3e-19 (2 ulps).
        rng = np.random.default_rng(0)
        d_bar = 1e-3
        m = DisturbanceModel(kind="seeded-piecewise-constant", d_bar=d_bar, seed=3)
        worst = 0.0
        for t in rng.uniform(0.0, 1e3, 5000):
            worst = max(worst, float(np.linalg.norm(m.sample(t))))
        assert worst <= d_bar + 1e-18

    @pytest.mark.parametrize("dim", [2, 3])
    def test_realize_matches_sample(self, dim):
        # intervals on both sides of the sampler's block edges, visited
        # forward, then back into an earlier block
        hold = 0.5
        m = DisturbanceModel(kind="seeded-piecewise-constant", d_bar=1e-3, seed=11, hold_time=hold, dim=dim)
        sampler = m.realize(stream=4)
        intervals = (0, 255, 256, 257, 512, 6001, 257, 0)
        for t in [k * hold for k in intervals] + [k * hold + 0.49 for k in intervals]:
            got = np.array(sampler(t))
            assert got.tobytes() == m.sample(t, stream=4).tobytes(), t

    @pytest.mark.parametrize("shared", [255, 256])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_fused_steps_across_a_block_edge(self, dim, shared):
        # stage 1 reads hold interval 255, the last row of the sampler's
        # first block, and a later stage (stage 4, or the shared stages 2 and
        # 3 at shared=256) refills that block in place: each stage must read
        # its vector before the refill, so the fused step equals the generic
        # step on DisturbanceModel.sample bit for bit
        hold, dt = 0.5, 0.05
        m = DisturbanceModel(kind="seeded-piecewise-constant", d_bar=1e-3, seed=1, hold_time=hold, dim=dim)
        t0 = 256 * hold - (0.7 if shared == 255 else 0.3) * dt
        times = (t0, t0 + 0.5 * dt, t0 + dt)
        assert [math.floor(t / hold) for t in times] == [255, shared, 256]
        sampler = m.realize(stream=2)
        sampler(0.0)  # the sampler holds intervals 0 .. 255
        d = lambda t: m.sample(t, stream=2).tolist()
        if dim == 3:
            step = _two_body_rk4(SINGULARITY_FLOOR, sampler)
            reference = lambda t, y: two_body_field(y, accel=d(t))
            x = [2.2, 0.1, -0.05, 0.02, 0.67, 0.03]
        else:
            scn = TestPlanarDemo.scenario(goal=(1.05, 0.0))
            flow = scn.nominal_flow()
            step = _single_integrator_rk4(scn.nominal_input(), sampler)
            reference = lambda t, y: [f + e for f, e in zip(flow(y), d(t))]
            x = [0.3, -0.4]
        got = step(t0, dt, x)
        assert np.array(got).tobytes() == np.array(rk4_step(reference, x, t0, dt)).tobytes()

    @pytest.mark.parametrize("kind", ["seeded-piecewise-constant"])
    def test_lane_columns_match_sample(self, kind):
        # the campaign's lanes, one stream each, dropped as they fire
        m = DisturbanceModel(kind=kind, d_bar=1e-3, seed=11)
        streams = np.array([1, 2, 3, 5, 8, 13], dtype=np.uint64)
        lanes = _LaneDisturbance(m, streams)
        for t in (0.0, 2.7, 15.5, 16.0, 40.25, 3.0):
            got = lanes(t)
            for j, stream in enumerate(streams.tolist()):
                expected = m.sample(t, stream=stream)
                assert got[:, j].tobytes() == expected.tobytes(), (t, j)
        keep = np.array([True, False, True, True, False, True])
        lanes.keep(keep)
        for t in (3.5, 17.0, 100.0):
            got = lanes(t)
            for j, stream in enumerate(streams[keep].tolist()):
                assert got[:, j].tobytes() == m.sample(t, stream=stream).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            DisturbanceModel(kind="windy")
        with pytest.raises(ValueError):
            DisturbanceModel(kind="seeded-piecewise-constant", d_bar=0.0)
        with pytest.raises(ValueError, match="unknown kind 'zonal-j2-like'"):
            DisturbanceModel(kind="zonal-j2-like", d_bar=1e-3)

    def test_bound_and_hold_time_checked_for_every_kind(self):
        with pytest.raises(ValueError, match="d_bar must be >= 0"):
            DisturbanceModel(d_bar=float("nan"))
        with pytest.raises(ValueError, match="hold_time must be > 0"):
            DisturbanceModel(hold_time=0.0)


class TestPlanarDemo:
    @staticmethod
    def scenario(goal=(0.0, 0.0), gain=1.0):
        return PlanarScenario(
            barrier=planar_disk_barrier(rho=1.0, gamma=1.0, d_bar=0.0),
            disturbance=DisturbanceModel(dim=2),
            integrator=IntegratorConfig(),
            filter=FilterConfig(goal=goal, gain=gain),
        )

    def test_goal_tracking_input(self):
        control = self.scenario().nominal_input()
        assert control(1.0, 0.0) == (-1.0, 0.0)
        control = self.scenario(goal=(1.0, -2.0), gain=0.5).nominal_input()
        assert control(3.0, 2.0) == (-1.0, -2.0)

    def test_single_integrator_shape(self):
        # zero drift and identity input: the closed loop is the input
        scn = self.scenario(goal=(0.5, 0.25), gain=2.0)
        flow = scn.nominal_flow()
        u = scn.nominal_input()(0.3, -0.7)
        assert flow([0.3, -0.7]) == u
        assert np.array_equal(flow(np.array([0.3, -0.7])), u)
