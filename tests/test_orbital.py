"""Station-keeping impulse and post-jump check tests.

The post-jump orbit is checked through its apsides, from the energy and the
eccentricity vector, and against the propagated radius extremes."""

import pickle

import numpy as np
import pytest

from etsafe.barrier import barrier_condition_margin, orbital_range_barrier
from etsafe.dynamics import GravityModel, apply_impulse, two_body_field
from etsafe.numerics import IntegratorConfig, propagate_until
from etsafe.orbital import (
    ControllerInfeasibleError,
    StationKeepingConfig,
    _placed_anomaly,
    station_keeping_impulse,
    verify_jump_conditions,
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


def apsides(s):
    """(periapsis, apoapsis) radii of the osculating orbit at state s."""
    r, v, mu = s[:3], s[3:], GRAVITY.mu
    v2, mu_r = float(v @ v), mu / np.linalg.norm(r)
    a = -mu / (2.0 * (0.5 * v2 - mu_r))  # from the specific energy
    e = np.linalg.norm(((v2 - mu_r) * r - float(r @ v) * v) / mu)  # eccentricity vector
    return a * (1.0 - e), a * (1.0 + e)


def oriented_state(rng, r, rdot, v_t):
    """State at radius r with radial rate rdot and tangential speed v_t, in a
    random plane at a random phase."""
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    w = rng.normal(size=3)
    w -= (w @ u) * u
    w /= np.linalg.norm(w)
    return np.concatenate([r * u, rdot * u + v_t * w])


class TestStationKeepingImpulse:
    def test_outer_band_apsis_targeting(self):
        # From r = 2.2 with tangential velocity: target apsis 2.1, same plane.
        s = np.array([2.2, 0.0, 0.0, 0.0, 0.65, 0.0])
        dv = station_keeping_impulse(CONTROLLER, BARRIER, GRAVITY, s)
        post = apply_impulse(s, dv)
        assert apsides(post)[0] == pytest.approx(2.1, abs=1e-9)
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
        # target radius 2R + 0.5 (r - 2R) = 1.9
        assert apsides(post)[1] == pytest.approx(1.9, abs=1e-9)
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
            if BARRIER.h(s) < 0.0:
                continue
            dv = station_keeping_impulse(CONTROLLER, BARRIER, GRAVITY, s)
            post = apply_impulse(s, dv)
            periapsis, apoapsis = apsides(post)
            rdot_post = float(post[:3] @ post[3:]) / np.linalg.norm(post[:3])
            if abs(r - 2.0) < 1e-12:
                continue
            if r < 2.0:
                assert rdot_post >= 0.0  # outbound, next apsis is apoapsis
                next_apsis = apoapsis
            else:
                assert rdot_post <= 0.0  # inbound, next apsis is periapsis
                next_apsis = periapsis
            r_target = 2.0 + CONTROLLER.retarget_gain * (r - 2.0)
            assert next_apsis == pytest.approx(r_target, abs=1e-6)

    def test_plane_preserved_for_inclined_orbits(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = rng.uniform(1.65, 2.35)
            v_c = np.sqrt(GRAVITY.mu / r)
            s = oriented_state(rng, r, rng.normal(0.0, 0.03), v_c * rng.uniform(0.95, 1.05))
            if BARRIER.h(s) < 0.0:
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
            s = oriented_state(rng, r, rdot, v_t)
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
        with pytest.raises(ControllerInfeasibleError, match="orbital plane undefined") as err:
            station_keeping_impulse(CONTROLLER, BARRIER, GRAVITY, s)
        assert err.value.state.tobytes() == s.tobytes()

    def test_impulse_magnitude_bounded(self):
        # The correction should never exceed the local escape speed scale.
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = rng.uniform(1.65, 2.35)
            v_c = np.sqrt(GRAVITY.mu / r)
            s = np.array([r, 0.0, 0.0, rng.normal(0, 0.05), v_c * rng.uniform(0.9, 1.1), 0.0])
            if BARRIER.h(s) < 0:
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
