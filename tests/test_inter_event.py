"""Inter-event-time sampling campaign and model fitting tests."""

import dataclasses
import json
import logging
import multiprocessing
import os
import re
import signal

import numpy as np
import pytest

import etsafe.inter_event as inter_event
from etsafe.barrier import (
    _band_terms,
    _condition_margin,
    barrier_condition_margin,
    barrier_condition_rows,
    orbital_range_barrier,
)
from etsafe.dynamics import DisturbanceModel, _LaneDisturbance, apply_impulse
from etsafe.inter_event import (
    FitError,
    InterEventSampleSet,
    InterEventTimeModel,
    LaneFailureError,
    _BATCH_BLOCK,
    _MAX_SHARDS,
    _TAIL_WIDTH,
    _LaneBlock,
    _finish_lane,
    _initial_states,
    _norm3,
    _propagate_batch_until_trigger,
    _refine_sample_crossing,
    _scan_block,
    _shard_count,
    collect_inter_event_samples,
    fit_inter_event_model,
    load_model,
    load_samples,
    margin_batch,
    save_model,
    save_samples,
)
from etsafe.numerics import (
    EventLocatorConfig,
    IntegrationFailureError,
    IntegratorConfig,
    rk4_step,
)
from etsafe.orbital import StationKeepingConfig, station_keeping_impulse
from etsafe.scenarios import SatelliteScenario


def make_scenario(seed=1, gamma=0.1, d_bar=1e-3, kind="seeded-piecewise-constant"):
    return SatelliteScenario(
        barrier=orbital_range_barrier(gamma=gamma, d_bar=d_bar),
        controller=StationKeepingConfig(),
        disturbance=DisturbanceModel(kind=kind, d_bar=d_bar, seed=seed, hold_time=1.0),
        integrator=IntegratorConfig(step_size=0.05),
        events=EventLocatorConfig(),
    )


def two_level_samples():
    # hand-built set with levels (h, tau) = (0, 1) and (0.16, 9)
    return InterEventSampleSet(
        radius=np.array([2.4, 2.4, 2.0, 2.0]),
        h=np.array([0.0, 0.0, 0.16, 0.16]),
        inter_event_time=np.array([1.0, 1.0, 9.0, 9.0]),
        censored=np.zeros(4, dtype=bool),
        seed=0,
        n_per_radius=2,
        max_wait=100.0,
    )


class TestFit:
    def test_two_point_line(self):
        model = fit_inter_event_model(two_level_samples())
        assert model.tau(0.0) == pytest.approx(1.0)
        assert model.tau(0.16) == pytest.approx(9.0)
        assert model.evaluate(0.08).derivative == pytest.approx(50.0)

    def test_linear_model_interior_value(self):
        model = fit_inter_event_model(two_level_samples())
        assert model.tau(0.1) == pytest.approx(6.0)
        assert model.evaluate(0.1).derivative == pytest.approx(50.0)

    def test_constant_data_zero_slope(self):
        s = InterEventSampleSet(
            radius=np.array([2.0, 2.2, 2.35]),
            h=np.array([0.16, 0.12, 0.0375]),
            inter_event_time=np.array([5.0, 5.0, 5.0]),
            censored=np.zeros(3, dtype=bool),
            seed=0,
            n_per_radius=1,
            max_wait=10.0,
        )
        model = fit_inter_event_model(s)
        for h in (0.05, 0.1, 0.15):
            assert model.tau(h) == pytest.approx(5.0)
            assert model.evaluate(h).derivative == pytest.approx(0.0)

    def test_piecewise_linear_interpolates_level_medians(self):
        rng = np.random.default_rng(0)
        h = np.repeat([0.02, 0.08, 0.16], 21)
        times = np.concatenate(
            [rng.uniform(1, 3, 21), rng.uniform(5, 9, 21), rng.uniform(20, 40, 21)]
        )
        s = InterEventSampleSet(
            radius=np.repeat([2.37, 2.28, 2.0], 21),
            h=h,
            inter_event_time=times,
            censored=np.zeros(63, dtype=bool),
            seed=0,
            n_per_radius=21,
            max_wait=100.0,
        )
        model = fit_inter_event_model(s)
        levels, stats = s.level_statistics()
        for lv, st in zip(levels, stats):
            assert model.tau(float(lv)) == pytest.approx(float(st), rel=1e-12)
        assert np.array_equal(model.coefficients, stats)  # residual 0

    def test_single_level_rejected(self):
        s = InterEventSampleSet(
            radius=np.array([2.0, 2.0]),
            h=np.array([0.16, 0.16]),
            inter_event_time=np.array([3.0, 4.0]),
            censored=np.zeros(2, dtype=bool),
            seed=0,
            n_per_radius=2,
            max_wait=10.0,
        )
        with pytest.raises(FitError):
            fit_inter_event_model(s)

    def test_censored_records_excluded(self):
        s = InterEventSampleSet(
            radius=np.array([2.0, 2.0, 2.2, 2.2]),
            h=np.array([0.16, 0.16, 0.12, 0.12]),
            inter_event_time=np.array([5.0, 500.0, 2.0, 2.0]),
            censored=np.array([False, True, False, False]),
            seed=0,
            n_per_radius=2,
            max_wait=500.0,
        )
        model = fit_inter_event_model(s)
        assert model.tau(0.16) == pytest.approx(5.0)  # censored 500 dropped


class TestModelRules:
    """A model whose evaluation would be wrong is rejected when it is made."""

    def make(self, **fields):
        base = dict(
            knots=np.array([0.0, 0.08, 0.16]), coefficients=np.array([1.0, 5.0, 9.0]),
            h_min=0.0, h_max=0.16,
        )
        return InterEventTimeModel(**{**base, **fields})

    @pytest.mark.parametrize(
        "fields, problem",
        [
            ({"knots": np.array([0.16, 0.08, 0.0])}, "knots must be a non-empty, strictly increasing"),
            ({"knots": np.array([0.0, 0.08, 0.08])}, "knots must be a non-empty, strictly increasing"),
            ({"knots": np.array([0.0, np.nan, 0.16])}, "knots must be a non-empty, strictly increasing"),
            ({"knots": np.array([])}, "knots must be a non-empty, strictly increasing"),
            ({"knots": np.array(0.1)}, "knots must be a non-empty, strictly increasing"),
            ({"knots": np.array([0.0, 0.08, np.inf])}, "knots must be finite"),
            ({"knots": np.array([-np.inf, 0.08, 0.16])}, "knots must be finite"),
            ({"coefficients": np.array([1.0, 9.0])}, "one coefficient per knot (3)"),
            ({"coefficients": np.array([1.0, np.nan, 9.0])}, "coefficients must be finite"),
            ({"coefficients": np.array([1.0, 5.0, np.inf])}, "coefficients must be finite"),
            ({"h_min": np.nan}, "h_min <= h_max must be finite, got nan and 0.16"),
            ({"h_max": np.inf}, "h_min <= h_max must be finite, got 0.0 and inf"),
            ({"h_min": 1.0, "h_max": 0.0}, "h_min <= h_max must be finite, got 1.0 and 0.0"),
        ],
    )
    def test_rejected(self, fields, problem):
        with pytest.raises(ValueError, match=re.escape(problem)):
            self.make(**fields)


class TestModelEvaluation:
    MODEL = InterEventTimeModel(
        knots=np.array([0.0, 0.16]),
        coefficients=np.array([1.0, 9.0]),
        h_min=0.0,
        h_max=0.16,
    )

    def test_clamped_below_range_with_flag(self):
        ev = self.MODEL.evaluate(-0.05)
        assert ev.extrapolated
        assert ev.value == pytest.approx(1.0)
        assert ev.derivative == pytest.approx(50.0)

    def test_clamped_above_range_with_flag(self):
        ev = self.MODEL.evaluate(0.3)
        assert ev.extrapolated
        assert ev.value == pytest.approx(9.0)

    def test_in_range_not_flagged(self):
        assert not self.MODEL.evaluate(0.1).extrapolated

    def test_derivative_matches_finite_difference(self):
        levels = np.array([0.0, 0.03, 0.09, 0.16])
        vals = np.array([2.0, 10.0, 11.0, 40.0])
        model = InterEventTimeModel(
            knots=levels,
            coefficients=vals,
            h_min=0.0,
            h_max=0.16,
        )
        eps = 1e-9
        rng = np.random.default_rng(1)
        for _ in range(200):
            h = rng.uniform(0.001, 0.159)
            if min(abs(h - k) for k in levels) < 10 * eps:
                continue
            fd = (model.tau(h + eps) - model.tau(h - eps)) / (2 * eps)
            assert model.evaluate(h).derivative == pytest.approx(fd, rel=1e-6)


class TestCampaign:
    def test_bookkeeping_and_determinism(self):
        scn = make_scenario()
        grid = np.array([1.9, 2.0, 2.1])
        a = collect_inter_event_samples(scn, grid, 4, seed=5, max_wait=400.0)
        b = collect_inter_event_samples(scn, grid, 4, seed=5, max_wait=400.0)
        assert len(a.radius) == 12
        assert np.array_equal(a.inter_event_time, b.inter_event_time)
        assert np.array_equal(a.censored, b.censored)
        assert np.all(a.inter_event_time[~a.censored] > 0.0)

    def test_symmetric_radii_pool_into_one_level(self):
        scn = make_scenario()
        s = collect_inter_event_samples(scn, np.array([1.8, 2.2]), 3, seed=5, max_wait=200.0)
        levels, _ = s.level_statistics()
        assert len(levels) == 1  # h(1.8) == h(2.2) after rounding

    def test_center_dwell_beats_boundary_dwell(self):
        # The qualitative shape the maneuver scheme relies on: expected dwell
        # near the band center far exceeds dwell near the boundary.
        scn = make_scenario()
        s = collect_inter_event_samples(
            scn, np.array([2.0, 2.35]), 16, seed=7, max_wait=4000.0
        )
        levels, stats = s.level_statistics()
        assert stats[-1] >= stats[0]  # levels sorted by h; center level is last
        assert stats[-1] / stats[0] >= 1.5

    def test_radius_outside_band_rejected(self):
        scn = make_scenario()
        with pytest.raises(ValueError):
            collect_inter_event_samples(scn, np.array([1.5]), 2, seed=0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            collect_inter_event_samples(make_scenario(), np.empty(0), 2, seed=0)

    def test_batch_margin_matches_scalar(self):
        scn = make_scenario()
        b = scn.barrier
        flow = scn.nominal_flow()
        rng = np.random.default_rng(2)
        radii = rng.uniform(1.61, 2.39, 100)
        dirs = rng.normal(size=(100, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        states = np.hstack([radii[:, None] * dirs, rng.normal(0, 0.3, (100, 3))])
        batch = margin_batch(states, b, _norm3(states.T[:3]))
        for i in range(100):
            scalar = barrier_condition_margin(b, flow, states[i])
            assert batch[i] == pytest.approx(scalar, rel=1e-12, abs=1e-14)


def band_states(n, seed):
    """(n, 6) C-contiguous states inside the band with random velocities."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(1.61, 2.39, n)
    return np.hstack([radii[:, None] * dirs, rng.normal(0.0, 0.5, (n, 3))])


def row_major_margin(states, gamma, d_bar):
    """The campaign's margin formula before the component-major kernel,
    evaluated as it was: on C-contiguous (n, 6) rows."""
    rows = np.ascontiguousarray(states)
    pos, vel = rows[:, :3], rows[:, 3:]
    r = np.linalg.norm(pos, axis=1)
    rdot = np.einsum("ij,ij->i", pos, vel) / r
    delta = r - 2.0
    h = 0.4 ** 2 - delta * delta
    return -2.0 * delta * rdot - 2.0 * np.abs(delta) * d_bar + gamma * h


def lane_field(x, accel):
    """The batch's stage derivative before it stepped in blocks: the
    two-body derivative of component-major lanes ``x`` (6, n) plus
    ``accel``, on fresh arrays."""
    pos = x[:3]
    r = _norm3(pos)
    a = (-1.0 / (r * r * r)) * pos
    a += accel
    return np.concatenate((x[3:], a))


def per_step_lanes(x, accel_at, k, steps, dt):
    """The batch's steps before it stepped in blocks, each on fresh arrays:
    the states after steps ``k .. k+steps-1`` of lanes ``x`` (6, n)."""
    rows = []
    for i in range(k, k + steps):
        t0 = i * dt
        k1 = lane_field(x, accel_at(t0))
        d_half = accel_at(t0 + 0.5 * dt)
        k2 = lane_field(x + 0.5 * dt * k1, d_half)
        k3 = lane_field(x + 0.5 * dt * k2, d_half)
        k4 = lane_field(x + dt * k3, accel_at(t0 + dt))
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows.append(x)
    return np.array(rows)


def scalar_lane_tau(scn, x, stream, max_wait):
    """One lane stepped by the scalar rk4_step on the scenario's disturbed
    field, fired and refined with the campaign's semantics."""
    fld = scn.disturbed_field(stream)
    dt = scn.integrator.step_size
    b = scn.barrier

    def margin(y):
        return margin_batch(y[None, :], b, _norm3(y[:3, None]))[0]

    m = margin(x)
    for k in range(int(np.ceil(max_wait / dt))):
        t0 = k * dt
        x1 = np.array(rk4_step(fld, x, t0, dt))
        m1 = margin(x1)
        if m > 0.0 and m1 <= 0.0:
            ends = (scn.disturbance.sample(t0, stream), scn.disturbance.sample(t0 + dt, stream))
            return _refine_sample_crossing(scn, x, x1, t0, dt, stream, *ends)
        x, m = x1, m1
    return None


# repr of every tau of a small campaign (grid 1.65, 2.0, 2.3; 4 per radius;
# seed 3; max_wait 400), recorded with the row-major batch loop that the
# component-major kernel replaced.  The 2.0 lanes are censored at max_wait.
PINNED_TAUS = {
    "seeded-piecewise-constant": [
        "5.506772136688232", "5.317196941375734", "5.513541269302368", "5.745864677429199",
        "400.0", "400.0", "400.0", "400.0",
        "10.034429740905761", "10.403713798522947", "9.059029006958008", "9.645128250122074",
    ],
    "none": [
        "5.503020143508912", "5.503020143508912", "5.503020143508912", "5.503020143508912",
        "400.0", "400.0", "400.0", "400.0",
        "9.63900375366211", "9.63900375366211", "9.63900375366211", "9.63900375366211",
    ],
}


# gamma = 0.1, d_bar = 1e-3: the arguments row_major_margin is given
BAND = orbital_range_barrier(gamma=0.1, d_bar=1e-3)

DISTURBANCE_KINDS = ("none", "seeded-piecewise-constant")


@pytest.fixture(params=["batch", "tail"])
def kernel(request, monkeypatch):
    """Run a campaign test on both kernels: the numpy batch alone (tail width
    0), and at the module's tail width, where a campaign of at most that many
    lanes runs entirely in _finish_lane."""
    if request.param == "batch":
        monkeypatch.setattr(inter_event, "_TAIL_WIDTH", 0)
    return request.param


class TestComponentMajorKernel:
    WIDTHS = (1, 2, 7, 55, 605)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_margin_batch_bitwise_equals_row_major_formula(self, n):
        states = band_states(n, seed=n)
        expected = row_major_margin(states, 0.1, 1e-3).tobytes()
        component_major = np.ascontiguousarray(states.T)
        r = _norm3(component_major[:3])
        assert margin_batch(states, BAND, r).tobytes() == expected
        assert margin_batch(component_major.T, BAND, r).tobytes() == expected

    @pytest.mark.parametrize("n", WIDTHS)
    def test_lane_margin_bitwise_equals_margin_batch(self, n):
        # one margin at its four sites, radius included: the campaign's batch
        # and its float tail (no floor), and the engine's scalar margin and
        # its row form (with the floor, which no state here is below)
        states = band_states(n, seed=n)
        r = _norm3(np.ascontiguousarray(states.T)[:3])
        batch = margin_batch(states, BAND, r).tobytes()
        lanes = [_condition_margin(BAND, _band_terms(BAND, x, 0.0)) for x in states.tolist()]
        assert np.array(lanes).tobytes() == batch
        scalar = [barrier_condition_margin(BAND, None, x) for x in states]
        assert np.array(scalar).tobytes() == batch
        assert barrier_condition_rows(BAND, states).tobytes() == batch

    @pytest.mark.parametrize("n", WIDTHS)
    def test_lane_field_with_handed_radii_changes_no_bit(self, n):
        # a block takes each step's radii once, for the margin and the next
        # step's first stage, and writes every stage through its buffers:
        # its rows and radii equal, bit for bit, the steps on fresh arrays
        # that took the radii again
        x = np.ascontiguousarray(band_states(n, seed=n).T)
        dist = DisturbanceModel(kind="seeded-piecewise-constant", d_bar=1e-3, seed=n, hold_time=1.0)
        streams = np.arange(1, n + 1, dtype=np.uint64)
        block, k, dt = _LaneBlock(x, _norm3(x[:3])), 37, 0.05  # 37 dt crosses a hold interval
        ends = block.run(_LaneDisturbance(dist, streams), k, _BATCH_BLOCK, dt)
        expected = per_step_lanes(x, _LaneDisturbance(dist, streams), k, _BATCH_BLOCK, dt)
        assert block.states[1:].tobytes() == expected.tobytes()
        assert block.radii[1:].tobytes() == _norm3(expected.transpose(1, 0, 2)[:3]).tobytes()
        # the disturbances handed to a refinement: the table's, at each
        # step's start and end
        for i, (d0, d1) in enumerate(ends):
            t0 = (k + i) * dt
            for j in (0, n - 1):
                assert d0[:, j].tobytes() == dist.sample(t0, j + 1).tobytes()
                assert d1[:, j].tobytes() == dist.sample(t0 + dt, j + 1).tobytes()

    @pytest.mark.parametrize("n", WIDTHS)
    def test_stage_norm_bitwise_equals_linalg_norm(self, n):
        states = band_states(n, seed=n)
        expected = np.linalg.norm(states[:, :3], axis=1).tobytes()
        assert _norm3(np.ascontiguousarray(states.T)[:3]).tobytes() == expected
        assert _norm3(states.T[:3]).tobytes() == expected

    def test_pins_see_the_association(self):
        # a left-to-right dot product differs from einsum's in the last bit on
        # some of these rows, so the pins above would catch a wrong order
        states = band_states(605, seed=605)
        pos, vel = states[:, :3], states[:, 3:]
        left_to_right = (pos[:, 0] * vel[:, 0] + pos[:, 1] * vel[:, 1]) + pos[:, 2] * vel[:, 2]
        assert np.any(left_to_right != np.einsum("ij,ij->i", pos, vel))

    @pytest.mark.parametrize("kind", sorted(PINNED_TAUS))
    def test_small_campaign_taus_pinned(self, kind, kernel):
        scn = make_scenario(seed=3, kind=kind)
        s = collect_inter_event_samples(scn, np.array([1.65, 2.0, 2.3]), 4, seed=3, max_wait=400.0)
        assert [repr(float(t)) for t in s.inter_event_time] == PINNED_TAUS[kind]

    def test_lane_matches_scalar_rk4(self, kernel):
        # each lane steps as the scalar rk4_step on the scenario's disturbed
        # field, whose stages 2 and 3 take the disturbance twice
        scn = make_scenario(seed=3)
        grid, n, max_wait = np.array([2.3, 1.7]), 3, 400.0
        s = collect_inter_event_samples(scn, grid, n, seed=3, max_wait=max_wait)
        assert not s.censored.any()
        streams = np.arange(1, len(grid) * n + 1, dtype=np.uint64)
        starts = _initial_states(np.repeat(grid, n), 3, streams)
        for i, stream in enumerate(streams):
            dv = station_keeping_impulse(scn.controller, scn.barrier, starts[i])
            x0 = apply_impulse(starts[i], dv)
            assert s.inter_event_time[i] == scalar_lane_tau(scn, x0, int(stream), max_wait)

    @pytest.mark.parametrize(
        "poison, fails_at_start",
        [
            ((2.0, 0.0, 0.0, 0.0, np.nan, 0.0), True),  # non-finite from the start
            ((3.0, 0.0, 0.0, 1e153, 0.0, 0.0), False),  # unarmed runaway: overflows
        ],
    )
    def test_non_finite_lane_raises(self, poison, fails_at_start, kernel):
        scn = make_scenario()
        streams = np.array([7, 8], dtype=np.uint64)
        healthy = _initial_states(np.array([2.2]), 3, streams[:1])[0]
        states = np.array([healthy, poison])
        with np.errstate(all="ignore"), pytest.raises(IntegrationFailureError) as info:
            _propagate_batch_until_trigger(scn, states, streams, 50.0)
        err = info.value
        assert "stream 8" in str(err)
        if fails_at_start:
            assert err.t == 0.0
            assert np.array_equal(err.x, states[1], equal_nan=True)
        else:
            assert err.t > 0.0 and np.all(np.isfinite(err.x))
            assert err.x[3] == 1e153  # the lane's state at the start of the failing step


# lanes per radius of the hand-off campaigns: the 3n lanes start in the
# batch, and the 2n left when the 1.65 lanes have fired go to the tail
HAND_OFF_N = _TAIL_WIDTH // 2


@pytest.fixture
def one_shard(monkeypatch):
    """Keep a campaign in this process, so that spies on its calls see them
    all; a forked worker would make its calls on its own copies."""
    monkeypatch.setattr(inter_event, "_shard_count", lambda n_lanes: 1)


def shards(monkeypatch, k):
    monkeypatch.setattr(inter_event, "_shard_count", lambda n_lanes: k)


class TestTailHandOff:
    @pytest.mark.parametrize("kind", DISTURBANCE_KINDS)
    def test_mid_run_hand_off_changes_no_bit(self, kind, monkeypatch, one_shard):
        # 3n lanes start in the batch; the 1.65 lanes fire first, which
        # leaves 2n <= _TAIL_WIDTH, and the rest are finished in the tail,
        # some firing and the 2.0 ones censored
        scn = make_scenario(seed=3, kind=kind)
        grid, n, max_wait = np.array([1.65, 2.0, 2.3]), HAND_OFF_N, 30.0
        assert len(grid) * n > _TAIL_WIDTH
        finish, refine = inter_event._finish_lane, inter_event._refine_sample_crossing
        entries, crossings = [], {}

        def spy_finish(*args):
            entries.append(args[4])  # the step at which the lane entered
            return finish(*args)

        def spy_refine(scenario, x0, x1, t0, dt, stream, accel0, accel1):
            # the step's start and end and their disturbances, to the bit: a
            # crossing time alone rarely shows a last-bit difference
            ends = np.array([accel0, accel1]).tobytes()
            crossings[stream] = (t0, np.array(x0).tobytes(), np.array(x1).tobytes(), ends)
            return refine(scenario, x0, x1, t0, dt, stream, accel0, accel1)

        monkeypatch.setattr(inter_event, "_refine_sample_crossing", spy_refine)
        monkeypatch.setattr(inter_event, "_finish_lane", spy_finish)
        handed = collect_inter_event_samples(scn, grid, n, seed=3, max_wait=max_wait)
        handed_crossings, crossings = crossings, {}
        monkeypatch.setattr(inter_event, "_finish_lane", finish)
        monkeypatch.setattr(inter_event, "_TAIL_WIDTH", 0)
        batch = collect_inter_event_samples(scn, grid, n, seed=3, max_wait=max_wait)

        assert len(entries) <= _TAIL_WIDTH and min(entries) > 0
        hand_off = min(entries) * scn.integrator.step_size
        taus = handed.inter_event_time
        assert np.any((taus > hand_off) & ~handed.censored)
        assert handed.censored.any()
        assert [t.hex() for t in taus] == [t.hex() for t in batch.inter_event_time]
        assert handed_crossings == crossings

    def test_zero_radius_raises_integration_failure(self):
        # the batch divides by the zero radius into a non-finite margin; on
        # Python floats the ZeroDivisionError must not escape
        scn = make_scenario()
        x = [0.0, 0.0, 0.0, 0.1, 0.0, 0.0]
        with pytest.raises(IntegrationFailureError) as info:
            _finish_lane(scn, x, 1.0, 8, 4, 10)
        assert "stream 8" in str(info.value)
        assert info.value.t == 4 * scn.integrator.step_size
        assert info.value.x.tolist() == x


def per_step_verdicts(m0, m):
    """The per-step loop's verdicts on margins ``m0`` (n,) then ``m``
    (steps, n): at each step the live lanes' margins are tested first, and a
    non-finite one fails its lane; then the live lanes whose margin went from
    > 0 to <= 0 fire and leave.  Returns (fired (step, lane) pairs in order,
    the failing (step, lane) or None)."""
    live, prev, fired = list(range(len(m0))), m0, []
    for i, row in enumerate(m):
        bad = [j for j in live if not np.isfinite(row[j])]
        if bad:
            return fired, (i, bad[0])
        now = [j for j in live if prev[j] > 0.0 and row[j] <= 0.0]
        fired += [(i, j) for j in now]
        live = [j for j in live if j not in now]
        prev = row
    return fired, None


BLOCKS = (1, 2, 7, _BATCH_BLOCK)


class TestBatchBlocks:
    """The batch steps _BATCH_BLOCK steps at a time and scans each block's
    margins once, by the per-step rule."""

    NAN, INF = np.nan, np.inf
    # lanes 0-7 over 4 steps, from margins M0: lane 0 fires at step 1 and goes
    # NaN after; lane 1 fails at step 2 (+inf) after firing at none; lane 2
    # fires at step 2 with -inf (a failure, tested first); lane 3 fails at
    # step 2 with NaN; lane 4 fires at step 3, after the failure; lane 5 fires
    # at step 0; lane 6 never fires; lane 7 starts at <= 0 and never fires
    M0 = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0]
    M = [
        [0.5, 0.9, 0.8, 0.7, 0.9, -0.1, 1.0, -2.0],
        [-0.5, 0.8, 0.7, 0.6, 0.8, NAN, 1.0, -3.0],
        [NAN, INF, -INF, NAN, 0.7, NAN, 1.0, 1.0],
        [NAN, NAN, NAN, NAN, -0.2, NAN, 1.0, 2.0],
    ]

    def test_scan_follows_the_per_step_rule(self):
        m0, m = np.array(self.M0), np.array(self.M)
        fired, failed = _scan_block(m0, m)
        assert (fired, failed) == per_step_verdicts(m0, m)
        assert fired == [(0, 5), (1, 0)] and failed == (2, 1)
        # without the failing lanes, the fires after that step are listed
        ok = [0, 4, 5, 6, 7]
        assert _scan_block(m0[ok], m[:, ok]) == ([(0, 2), (1, 0), (3, 1)], None)

    def test_scan_on_random_margins(self):
        rng = np.random.default_rng(24)
        values = [-1.0, 0.0, 1.0, 2.0, np.nan, np.inf, -np.inf]
        for _ in range(500):
            steps, n = rng.integers(1, 9), rng.integers(1, 7)
            m0 = rng.choice([-1.0, 0.0, 1.0], n)
            m = rng.choice(values, (steps, n), p=[0.3, 0.1, 0.3, 0.2, 0.04, 0.03, 0.03])
            assert _scan_block(m0, m) == per_step_verdicts(m0, m), (m0, m)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("kind", DISTURBANCE_KINDS)
    def test_cap_inside_a_block_changes_no_bit(self, kind, block, monkeypatch):
        # the batch alone, to a cap of 7,999 steps, which ends inside a block
        # of 2, 7 and 16 steps; the lanes that fire keep their pinned times
        monkeypatch.setattr(inter_event, "_TAIL_WIDTH", 0)
        monkeypatch.setattr(inter_event, "_BATCH_BLOCK", block)
        scn = make_scenario(seed=3, kind=kind)
        max_wait = 399.95
        n_steps = int(np.ceil(max_wait / scn.integrator.step_size))
        assert n_steps == 7999 and all(n_steps % b for b in BLOCKS[1:])
        s = collect_inter_event_samples(scn, np.array([1.65, 2.0, 2.3]), 4, seed=3, max_wait=max_wait)
        expected = [t if t != "400.0" else repr(max_wait) for t in PINNED_TAUS[kind]]
        assert [repr(float(t)) for t in s.inter_event_time] == expected

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("kind", DISTURBANCE_KINDS)
    def test_hand_off_inside_a_block_changes_no_bit(self, kind, block, monkeypatch, one_shard):
        # the tail takes the lanes at the end of the block in which the live
        # width fell to _TAIL_WIDTH; it is the same lanes' times at any block
        scn = make_scenario(seed=3, kind=kind)
        grid, n, max_wait = np.array([1.65, 2.0, 2.3]), HAND_OFF_N, 30.0
        assert len(grid) * n > _TAIL_WIDTH
        finish = inter_event._finish_lane
        entries = []

        def spy_finish(*args):
            entries.append(args[4])  # the step at which the lane entered
            return finish(*args)

        monkeypatch.setattr(inter_event, "_finish_lane", spy_finish)
        taus, starts = {}, {}
        for b in (1, block):
            monkeypatch.setattr(inter_event, "_BATCH_BLOCK", b)
            taus[b] = collect_inter_event_samples(scn, grid, n, seed=3, max_wait=max_wait)
            (starts[b],) = set(entries)  # every lane entered the tail at one step
            entries.clear()
        width_step, hand_off = starts[1], starts[block]  # the width fell at width_step
        assert hand_off % block == 0 and hand_off - block < width_step <= hand_off
        if block in (7, _BATCH_BLOCK):
            assert hand_off > width_step  # the width fell inside the block
        assert [t.hex() for t in taus[block].inter_event_time] == [
            t.hex() for t in taus[1].inter_event_time
        ]
        assert taus[1].censored.any() and not taus[1].censored.all()

    @pytest.mark.parametrize("kernel_width", [0, None], ids=["batch", "tail"])
    @pytest.mark.parametrize("kind", DISTURBANCE_KINDS)
    def test_one_margin_call_per_block_and_no_disturbance_hash(self, kind, kernel_width, monkeypatch, one_shard):
        # the batch evaluates margins once at the start and once per block,
        # and the refinements read the disturbance the kernels read: the lane
        # table's rows and the tail's sampler, never DisturbanceModel.sample
        if kernel_width is not None:
            monkeypatch.setattr(inter_event, "_TAIL_WIDTH", kernel_width)
        scn = make_scenario(seed=3, kind=kind)
        margin, finish, refine = inter_event.margin_batch, inter_event._finish_lane, inter_event._refine_sample_crossing
        shapes, entries, ends = [], [], []

        def spy_margin(states, b, r):
            shapes.append(np.shape(r))
            return margin(states, b, r)

        def spy_finish(*args):
            entries.append(args[4])
            return finish(*args)

        def spy_refine(scenario, x0, x1, t0, dt, stream, accel0, accel1):
            ends.append((t0, dt, stream, accel0, accel1))
            return refine(scenario, x0, x1, t0, dt, stream, accel0, accel1)

        def no_sample(self, t, stream=0):
            raise AssertionError("DisturbanceModel.sample called")

        monkeypatch.setattr(inter_event, "margin_batch", spy_margin)
        monkeypatch.setattr(inter_event, "_finish_lane", spy_finish)
        monkeypatch.setattr(inter_event, "_refine_sample_crossing", spy_refine)
        monkeypatch.setattr(DisturbanceModel, "sample", no_sample)
        grid, n, max_wait = np.array([1.65, 2.0, 2.3]), 8, 30.0
        s = collect_inter_event_samples(scn, grid, n, seed=3, max_wait=max_wait)
        monkeypatch.undo()

        steps = min(entries) if entries else int(np.ceil(max_wait / scn.integrator.step_size))
        assert len(set(entries)) <= 1
        assert shapes[0] == (len(grid) * n,)  # the start call
        assert len(shapes) == 1 + -(-steps // _BATCH_BLOCK)
        assert sum(shape[0] for shape in shapes[1:]) == steps
        if kernel_width is None:
            assert entries and steps > 0  # both kernels ran
        assert len(ends) == np.count_nonzero(~s.censored) > 0
        for t0, dt, stream, accel0, accel1 in ends:
            # each end's vector, bit for bit the reference's; for the none
            # kind a zero vector, which the field adds as +0.0
            assert np.array(accel0).tobytes() == scn.disturbance.sample(t0, stream).tobytes()
            assert np.array(accel1).tobytes() == scn.disturbance.sample(t0 + dt, stream).tobytes()
            assert len(accel0) == len(accel1) == 3

    @pytest.mark.parametrize("block", [_BATCH_BLOCK, 400])
    def test_lanes_fired_before_a_failure_are_refined_first(self, block, monkeypatch, caplog, one_shard):
        # the 1.65 lanes (streams 1-4) fire near t = 5.5, stream 5 fails in
        # the step into hold interval 7, and the 2.3 lanes would fire after
        # it; in a block of 400 steps all three fall in one block
        monkeypatch.setattr(inter_event, "_TAIL_WIDTH", 0)
        monkeypatch.setattr(inter_event, "_BATCH_BLOCK", block)
        poison_streams(monkeypatch, {5: 7})
        scn = dataclasses.replace(make_scenario(seed=3), events=EventLocatorConfig(max_bisections=1))
        with caplog.at_level(logging.WARNING, logger="etsafe.inter_event"), pytest.raises(
            LaneFailureError
        ) as info:
            collect_inter_event_samples(scn, np.array([1.65, 2.0, 2.3]), 4, seed=3, max_wait=400.0)
        assert (info.value.stream, info.value.t) == (5, 6.95)
        logged = [r.args[0] for r in caplog.records if r.name == "etsafe.inter_event"]
        assert sorted(logged) == [1, 2, 3, 4]


def poison_streams(monkeypatch, first_bad):
    """From hold interval ``first_bad[stream]`` on, the held disturbance of
    each stream named is NaN, in this process and in forked workers."""
    real = DisturbanceModel.held

    def poisoned(self, streams, k, count):
        held = real(self, streams, k, count)
        for i, stream in enumerate(streams.tolist()):
            if stream in first_bad:
                held[i, max(first_bad[stream] - k, 0):] = np.nan
        return held

    monkeypatch.setattr(DisturbanceModel, "held", poisoned)


class TestShards:
    """Lanes split across processes, lane i in shard i mod k."""

    GRID, N, MAX_WAIT = np.array([1.65, 2.0, 2.3]), 4, 400.0

    @pytest.mark.parametrize(
        "cpus, n_lanes, expected",
        # a shard needs more than _TAIL_WIDTH lanes: 2 (w + 1) - 1 lanes make one
        [
            (2, 605, 2), (4, 605, 2), (28, 605, 2), (1, 605, 1),
            (2, 2 * (_TAIL_WIDTH + 1) - 1, 1), (2, 2 * (_TAIL_WIDTH + 1), 2),
            (3, 3 * (_TAIL_WIDTH + 1) - 1, 2), (2, 5, 1),
        ],
    )
    def test_one_shard_per_cpu_none_starting_in_the_tail(self, cpus, n_lanes, expected, monkeypatch):
        monkeypatch.setattr(inter_event, "_usable_cpus", lambda: cpus)
        assert _MAX_SHARDS == 2 and 5 <= _TAIL_WIDTH < 604 // 2
        assert _shard_count(n_lanes) == expected

    @pytest.mark.parametrize("kind", DISTURBANCE_KINDS)
    def test_taus_do_not_depend_on_shard_count(self, kind, kernel, monkeypatch):
        scn = make_scenario(seed=3, kind=kind)
        taus = {}
        for k in (1, 2, 3):
            shards(monkeypatch, k)
            s = collect_inter_event_samples(scn, self.GRID, self.N, seed=3, max_wait=self.MAX_WAIT)
            taus[k] = [repr(float(t)) for t in s.inter_event_time]
        assert taus[2] == taus[1] and taus[3] == taus[1]
        if kind in PINNED_TAUS:
            assert taus[1] == PINNED_TAUS[kind]
        assert multiprocessing.active_children() == []

    def test_failure_in_a_worker_shard_names_its_stream(self, monkeypatch):
        # stream 2 is lane 1, in the first worker's shard
        scn = make_scenario(seed=3)
        shards(monkeypatch, 2)
        poison_streams(monkeypatch, {2: 3})
        with pytest.raises(LaneFailureError) as info:
            collect_inter_event_samples(scn, self.GRID, self.N, seed=3, max_wait=self.MAX_WAIT)
        err = info.value
        assert err.stream == 2 and "campaign stream 2" in str(err)
        assert err.t == 2.95  # the step whose last stage is in interval 3
        assert err.x.shape == (6,) and np.all(np.isfinite(err.x))
        assert multiprocessing.active_children() == []

    # streams 5-8 are the 2.0 lanes, quiet to max_wait: 5 and 7 in this
    # process's shard, 6 and 8 in the worker's
    @pytest.mark.parametrize(
        "first_bad, named",
        [
            ({5: 6, 8: 3}, 8),  # the worker's failure is the earlier one
            ({6: 6, 7: 3}, 7),  # this process's failure is the earlier one
            ({7: 3, 6: 3}, 6),  # equal times: the lower stream, the worker's
            ({5: 3, 6: 3}, 5),  # equal times: the lower stream, this process's
        ],
    )
    def test_earliest_failure_then_lowest_stream_is_raised(self, first_bad, named, monkeypatch):
        scn = make_scenario(seed=3)
        shards(monkeypatch, 2)
        poison_streams(monkeypatch, first_bad)
        with pytest.raises(LaneFailureError) as info:
            collect_inter_event_samples(scn, self.GRID, self.N, seed=3, max_wait=self.MAX_WAIT)
        assert info.value.stream == named
        assert info.value.t == first_bad[named] - 0.05

    def test_killed_worker_raises_with_its_exit_code(self, monkeypatch):
        scn = make_scenario(seed=3)
        shards(monkeypatch, 3)
        here, refine = os.getpid(), inter_event._refine_sample_crossing

        def killed_in_a_worker(*args):
            if os.getpid() != here:
                os.kill(os.getpid(), signal.SIGKILL)
            return refine(*args)

        monkeypatch.setattr(inter_event, "_refine_sample_crossing", killed_in_a_worker)
        with pytest.raises(ChildProcessError, match="campaign worker 1 exited with code -9"):
            collect_inter_event_samples(scn, self.GRID, self.N, seed=3, max_wait=self.MAX_WAIT)
        assert multiprocessing.active_children() == []


class TestDegradedCampaignCrossings:
    """Each campaign crossing whose bisection budget ran out logs one WARNING
    on etsafe.inter_event, as the engine does for its own."""

    def collect(self, caplog, events):
        scn = dataclasses.replace(make_scenario(seed=3), events=events)
        with caplog.at_level(logging.WARNING, logger="etsafe.inter_event"):
            s = collect_inter_event_samples(scn, np.array([1.65, 2.3]), 2, seed=3, max_wait=400.0)
        return s, [r for r in caplog.records if r.name == "etsafe.inter_event"]

    def test_each_degraded_crossing_logs_one_warning(self, caplog):
        s, logged = self.collect(caplog, EventLocatorConfig(max_bisections=1))
        fired = np.flatnonzero(~s.censored)
        assert len(fired) == 4
        assert sorted(r.args[0] for r in logged) == [int(i) + 1 for i in fired]  # stream = lane + 1
        assert all(r.levelno == logging.WARNING for r in logged)
        assert all("degraded crossing of campaign stream" in r.getMessage() for r in logged)

    def test_full_budget_logs_nothing(self, caplog):
        _, logged = self.collect(caplog, EventLocatorConfig())
        assert logged == []


class TestSerialization:
    def test_samples_round_trip(self, tmp_path):
        scn = make_scenario()
        s = collect_inter_event_samples(scn, np.array([2.0, 2.2]), 3, seed=9, max_wait=300.0)
        path = str(tmp_path / "samples.csv")
        save_samples(s, path)
        loaded = load_samples(path)
        assert np.array_equal(loaded.radius, s.radius)
        assert np.array_equal(loaded.h, s.h)
        assert np.array_equal(loaded.inter_event_time, s.inter_event_time)
        assert np.array_equal(loaded.censored, s.censored)
        assert loaded.seed == 9 and loaded.n_per_radius == 3

    def test_model_round_trip(self, tmp_path):
        model = fit_inter_event_model(two_level_samples())
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        doc = json.load(open(path))
        assert (doc["basis"], doc["residual"], doc["statistic"]) == ("piecewise-linear", 0.0, "median")
        assert np.array_equal(loaded.knots, model.knots)
        assert np.array_equal(loaded.coefficients, model.coefficients)
        assert loaded.h_min == model.h_min and loaded.h_max == model.h_max

    def test_saved_files_byte_identical_across_runs(self, tmp_path):
        scn = make_scenario()
        s1 = collect_inter_event_samples(scn, np.array([2.0]), 3, seed=9, max_wait=300.0)
        s2 = collect_inter_event_samples(scn, np.array([2.0]), 3, seed=9, max_wait=300.0)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save_samples(s1, p1)
        save_samples(s2, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
