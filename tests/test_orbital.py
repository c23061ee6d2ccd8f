"""Keplerian conversions and station-keeping controller tests."""

import pickle

import numpy as np
import pytest

from etsafe.barrier import barrier_condition_margin, barrier_value, orbital_range_barrier
from etsafe.dynamics import GravityModel, apply_impulse, two_body_field
from etsafe.numerics import IntegratorConfig, propagate_until
from etsafe.orbital import (
    ControllerInfeasibleError,
    EscapeOrbitError,
    OrbitalElements,
    RectilinearError,
    StationKeepingConfig,
    UnreachableRadiusError,
    _placed_anomaly,
    elements_from_state,
    state_from_elements,
    station_keeping_impulse,
    verify_jump_conditions,
    vis_viva_speed,
)

GRAVITY = GravityModel()
BARRIER = orbital_range_barrier(GRAVITY, gamma=0.1, d_bar=1e-3)
CONTROLLER = StationKeepingConfig(post_jump_margin=0.01, retarget_gain=0.5)


def orbital_flow(x):
    return two_body_field(GRAVITY, x)


def propagate_orbit(s0, horizon, dt=0.02):
    _, states, _, _ = propagate_until(
        lambda t, x: orbital_flow(x), s0, 0.0, horizon, [], IntegratorConfig(step_size=dt)
    )
    return states


def random_elliptic_states(rng, n):
    states = []
    while len(states) < n:
        el = OrbitalElements(
            semi_major_axis=rng.uniform(1.5, 3.0),
            eccentricity=rng.uniform(0.0, 0.8),
            inclination=rng.uniform(0.0, np.pi - 1e-3),
            raan=rng.uniform(-np.pi, np.pi),
            arg_periapsis=rng.uniform(-np.pi, np.pi),
            true_anomaly=rng.uniform(-np.pi, np.pi),
        )
        states.append(state_from_elements(GRAVITY, el))
    return states


class TestElementsFromState:
    def test_circular_orbit(self):
        s = np.array([2.0, 0.0, 0.0, 0.0, np.sqrt(0.5), 0.0])
        el = elements_from_state(GRAVITY, s)
        assert el.semi_major_axis == pytest.approx(2.0, abs=1e-12)
        assert el.eccentricity == pytest.approx(0.0, abs=1e-12)

    def test_apoapsis_state(self):
        # vis-viva: a = 1/(2/r - v^2/mu) = 1.5625; apsis relation e = r/a - 1 = 0.28.
        s = np.array([2.0, 0.0, 0.0, 0.0, 0.6, 0.0])
        el = elements_from_state(GRAVITY, s)
        assert el.semi_major_axis == pytest.approx(1.5625, abs=1e-12)
        assert el.eccentricity == pytest.approx(0.28, abs=1e-12)
        # apsides also show up as the radius extremes along the orbit
        # (2e-5 tolerance: the dense grid does not land exactly on an apsis)
        states = propagate_orbit(s, 12.0)
        radii = np.linalg.norm(states[:, :3], axis=1)
        assert radii.max() == pytest.approx(2.0, abs=2e-5)
        assert radii.min() == pytest.approx(el.semi_major_axis * (1 - el.eccentricity), abs=2e-5)

    def test_round_trip_1000_random_states(self):
        rng = np.random.default_rng(0)
        for s in random_elliptic_states(rng, 1000):
            el = elements_from_state(GRAVITY, s)
            back = state_from_elements(GRAVITY, el)
            err = np.linalg.norm(back - s) / max(np.linalg.norm(s), 1.0)
            assert err <= 1e-9

    def test_equatorial_round_trip(self):
        s = np.array([2.0, 0.0, 0.0, 0.0, 0.6, 0.0])
        back = state_from_elements(GRAVITY, elements_from_state(GRAVITY, s))
        assert np.linalg.norm(back - s) <= 1e-12

    def test_escape_orbit_rejected(self):
        s = np.array([2.0, 0.0, 0.0, 0.0, 1.5, 0.0])  # v > escape speed at r=2
        with pytest.raises(EscapeOrbitError):
            elements_from_state(GRAVITY, s)

    def test_rectilinear_rejected(self):
        s = np.array([2.0, 0.0, 0.0, 0.3, 0.0, 0.0])  # purely radial motion
        with pytest.raises(RectilinearError):
            elements_from_state(GRAVITY, s)


class TestVisViva:
    def test_circular_speed(self):
        assert vis_viva_speed(GRAVITY, 2.0, 2.0) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_transfer_orbit_speed(self):
        # Half-transfer from 2.2 toward 2.1: a = 2.15.
        v = vis_viva_speed(GRAVITY, 2.2, 2.15)
        assert v == pytest.approx(0.66631, abs=1e-5)
        # Cross-check against the propagated orbit with that apsis pair.
        s0 = np.array([2.2, 0.0, 0.0, 0.0, v, 0.0])
        states = propagate_orbit(s0, 22.0)
        radii = np.linalg.norm(states[:, :3], axis=1)
        assert radii.max() == pytest.approx(2.2, abs=1e-6)
        assert radii.min() == pytest.approx(2.1, abs=1e-6)

    def test_escape_speed_is_supremum(self):
        escape = np.sqrt(2.0 * GRAVITY.mu / 2.0)
        for a in (2.0, 5.0, 50.0, 5000.0):
            assert vis_viva_speed(GRAVITY, 2.0, a) < escape
        assert vis_viva_speed(GRAVITY, 2.0, 5000.0) == pytest.approx(escape, rel=1e-3)

    def test_unreachable_radius(self):
        with pytest.raises(UnreachableRadiusError):
            vis_viva_speed(GRAVITY, 2.0, 0.9)


class TestStationKeepingImpulse:
    def test_outer_band_apsis_targeting(self):
        # From r = 2.2 with tangential velocity: target apsis 2.1, same plane.
        s = np.array([2.2, 0.0, 0.0, 0.0, 0.65, 0.0])
        dv = station_keeping_impulse(CONTROLLER, BARRIER, GRAVITY, s)
        post = apply_impulse(s, dv)
        el = elements_from_state(GRAVITY, post)
        periapsis = el.semi_major_axis * (1.0 - el.eccentricity)
        assert periapsis == pytest.approx(2.1, abs=1e-9)
        # cross-check the osculating apsis against the propagated extreme
        states = propagate_orbit(post, 25.0)
        radii = np.linalg.norm(states[:, :3], axis=1)
        assert radii.min() == pytest.approx(2.1, abs=2e-5)
        # plane preservation
        h_pre = np.cross(s[:3], s[3:])
        h_post = np.cross(post[:3], post[3:])
        cross = np.cross(h_pre / np.linalg.norm(h_pre), h_post / np.linalg.norm(h_post))
        assert np.linalg.norm(cross) <= 1e-9

    def test_inner_band_targets_apoapsis(self):
        s = np.array([1.8, 0.0, 0.0, 0.0, 0.75, 0.0])
        dv = station_keeping_impulse(CONTROLLER, BARRIER, GRAVITY, s)
        post = apply_impulse(s, dv)
        el = elements_from_state(GRAVITY, post)
        apoapsis = el.semi_major_axis * (1.0 + el.eccentricity)
        # target radius 2R + 0.5 (r - 2R) = 1.9
        assert apoapsis == pytest.approx(1.9, abs=1e-9)
        states = propagate_orbit(post, 25.0)
        radii = np.linalg.norm(states[:, :3], axis=1)
        assert radii.max() == pytest.approx(1.9, abs=2e-5)

    def test_next_apsis_equals_target_across_band(self):
        # The first apsis reached along the post-impulse motion is the
        # blended target radius, to 1e-6 R everywhere in the band: inner
        # states fly outward to an apoapsis at the target, outer states fly
        # inward to a periapsis there.
        rng = np.random.default_rng(9)
        for _ in range(200):
            r = rng.uniform(1.62, 2.38)
            v_t = np.sqrt(GRAVITY.mu / r) * rng.uniform(0.9, 1.1)
            s = np.array([r, 0.0, 0.0, rng.normal(0.0, 0.03), v_t, 0.0])
            if barrier_value(BARRIER, s) < 0.0:
                continue
            dv = station_keeping_impulse(CONTROLLER, BARRIER, GRAVITY, s)
            post = apply_impulse(s, dv)
            el = elements_from_state(GRAVITY, post)
            rdot_post = float(post[:3] @ post[3:]) / np.linalg.norm(post[:3])
            if abs(r - 2.0) < 1e-12:
                continue
            if r < 2.0:
                assert rdot_post >= 0.0  # outbound, next apsis is apoapsis
                next_apsis = el.semi_major_axis * (1.0 + el.eccentricity)
            else:
                assert rdot_post <= 0.0  # inbound, next apsis is periapsis
                next_apsis = el.semi_major_axis * (1.0 - el.eccentricity)
            r_target = 2.0 + CONTROLLER.retarget_gain * (r - 2.0)
            assert next_apsis == pytest.approx(r_target, abs=1e-6)

    def test_plane_preserved_for_inclined_orbits(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = rng.uniform(1.65, 2.35)
            el = OrbitalElements(
                semi_major_axis=r,
                eccentricity=rng.uniform(0.0, 0.05),
                inclination=rng.uniform(0.0, np.pi - 0.1),
                raan=rng.uniform(-np.pi, np.pi),
                arg_periapsis=rng.uniform(-np.pi, np.pi),
                true_anomaly=rng.uniform(-np.pi, np.pi),
            )
            s = state_from_elements(GRAVITY, el)
            if barrier_value(BARRIER, s) < 0.0:
                continue
            dv = station_keeping_impulse(CONTROLLER, BARRIER, GRAVITY, s)
            post = apply_impulse(s, dv)
            h_pre = np.cross(s[:3], s[3:])
            h_post = np.cross(post[:3], post[3:])
            cross = np.cross(
                h_pre / np.linalg.norm(h_pre), h_post / np.linalg.norm(h_post)
            )
            assert np.linalg.norm(cross) <= 1e-9
            # rotation sense preserved too
            assert float(h_pre @ h_post) > 0.0

    def test_post_jump_margin_on_trigger_surface(self):
        # 500 states sampled on the trigger surface (margin = 0): after the
        # impulse the margin must be at least the configured buffer, with no
        # violations at all.
        rng = np.random.default_rng(2)
        count = 0
        while count < 500:
            r = rng.uniform(1.62, 2.38)
            if abs(r - 2.0) < 0.02:
                continue  # margin = 0 needs unbounded radial speed near center
            h = BARRIER.h(np.array([r, 0, 0, 0, 0, 0]))
            delta = r - 2.0
            # solve the radial rate putting the state exactly on the surface
            rdot = (BARRIER.gamma * h - 2.0 * abs(delta) * BARRIER.d_bar) / (2.0 * delta)
            v_t = rng.uniform(0.8, 1.1) * np.sqrt(GRAVITY.mu / r)
            v2 = rdot**2 + v_t**2
            if v2 >= 2.0 * GRAVITY.mu / r:  # not elliptic-capturable
                continue
            # random orientation
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            w = rng.normal(size=3)
            w -= (w @ u) * u
            w /= np.linalg.norm(w)
            s = np.concatenate([r * u, rdot * u + v_t * w])
            assert abs(barrier_condition_margin(BARRIER, orbital_flow, s)) < 1e-10
            dv = station_keeping_impulse(CONTROLLER, BARRIER, GRAVITY, s)
            post = apply_impulse(s, dv)
            check = verify_jump_conditions(BARRIER, GRAVITY, post, CONTROLLER.post_jump_margin)
            assert check.ok, f"violation at r={r}: {check}"
            count += 1

    def test_outside_band_rejected(self):
        s = np.array([1.5, 0.0, 0.0, 0.0, 0.8, 0.0])
        with pytest.raises(ControllerInfeasibleError):
            station_keeping_impulse(CONTROLLER, BARRIER, GRAVITY, s)

    def test_rectilinear_rejected(self):
        s = np.array([2.0, 0.0, 0.0, 0.2, 0.0, 0.0])
        with pytest.raises(RectilinearError):
            station_keeping_impulse(CONTROLLER, BARRIER, GRAVITY, s)

    def test_impulse_magnitude_bounded(self):
        # The correction should never exceed the local escape speed scale.
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = rng.uniform(1.65, 2.35)
            v_c = np.sqrt(GRAVITY.mu / r)
            s = np.array([r, 0.0, 0.0, rng.normal(0, 0.05), v_c * rng.uniform(0.9, 1.1), 0.0])
            if barrier_value(BARRIER, s) < 0:
                continue
            dv = station_keeping_impulse(CONTROLLER, BARRIER, GRAVITY, s)
            assert np.linalg.norm(dv) < 2.0 * v_c


class TestPlacedAnomaly:
    def test_band_from_spec_equals_literal_rule(self):
        # the rule with the 2R / 0.4R literals it used before reading the spec
        R = GRAVITY.R

        def literal(r):
            frac = min(abs(r - 2.0 * R) / (0.4 * R), 1.0)
            if r >= 2.0 * R:
                return -np.pi + frac * (np.pi / 2.0)
            return frac * (np.pi / 2.0)

        radii = np.concatenate([[1.6, 2.0, 2.4, 1.5, 2.5], np.linspace(1.6, 2.4, 101)])
        for r in radii:
            assert _placed_anomaly(r, BARRIER.center, BARRIER.half_width) == literal(r)


class TestVerifyJumpConditions:
    def test_mid_band_circular_ok(self):
        s = np.array([2.0, 0.0, 0.0, 0.0, np.sqrt(0.5), 0.0])
        check = verify_jump_conditions(BARRIER, GRAVITY, s, 0.01)
        assert check.ok
        assert check.xi_value == pytest.approx(BARRIER.gamma * 0.16, abs=1e-12)

    def test_outside_band_violated(self):
        s = np.array([1.5, 0.0, 0.0, 0.0, 0.8, 0.0])
        check = verify_jump_conditions(BARRIER, GRAVITY, s, 0.01)
        assert not check.ok
        assert check.h_value < 0.0

    def test_zero_margin_reduces_to_barrier_condition(self):
        s = np.array([2.0, 0.0, 0.0, 0.0, np.sqrt(0.5), 0.0])
        check = verify_jump_conditions(BARRIER, GRAVITY, s, 0.0)
        assert check.ok == (check.h_value >= 0.0 and check.xi_value >= 0.0)


class TestStationKeepingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StationKeepingConfig(post_jump_margin=0.0)
        with pytest.raises(ValueError):
            StationKeepingConfig(retarget_gain=1.0)


class TestControllerInfeasibleError:
    @pytest.mark.parametrize("state", [None, np.array([2.2, 0.0, -0.0, 0.0, 0.65, 0.0])])
    def test_survives_a_pickle_round_trip(self, state):
        err = ControllerInfeasibleError("no elliptic retarget", state)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is ControllerInfeasibleError
        assert str(back) == str(err) == "no elliptic retarget"
        if state is None:
            assert back.state is None
        else:
            assert back.state.tobytes() == err.state.tobytes()
