"""Barrier function and trigger margin tests."""

import dataclasses
import math
import os

import numpy as np
import pytest

from etsafe.barrier import (
    BandBarrier,
    DiskBarrier,
    GradientMismatchError,
    barrier_condition_margin,
    barrier_condition_rows,
    barrier_problems,
    check_gradient,
    filter_off_margin,
    maneuver_timing_margin,
    maneuver_timing_rows,
    orbital_range_barrier,
    planar_disk_barrier,
)
from etsafe.dynamics import GravityModel, SingularityError, two_body_field
from etsafe.engine import satellite_region_states
from etsafe.inter_event import InterEventTimeModel, load_model

GRAVITY = GravityModel()


def orbital_flow(x):
    return two_body_field(GRAVITY, x)


def random_shell_states(rng, n):
    """States with radius uniform in the safe band and bounded random velocity."""
    radii = rng.uniform(1.61, 2.39, n)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vels = rng.normal(scale=0.4, size=(n, 3))
    return np.hstack([radii[:, None] * dirs, vels])


def closed_form_terms(b, x):
    """The band's margin terms as the closed form states them, on Python
    floats: with r = sqrt((x0*x0 + x1*x1) + x2*x2) and d = r - center,
    (hw*hw - d*d, -2d * (((x0*v0 + x2*v2) + x1*v1) / r), |-2d|)."""
    x0, x1, x2, v0, v1, v2 = np.asarray(x, dtype=float).tolist()
    r = math.sqrt((x0 * x0 + x1 * x1) + x2 * x2)
    d = r - b.center
    hw = b.half_width
    return hw * hw - d * d, -2.0 * d * (((x0 * v0 + x2 * v2) + x1 * v1) / r), abs(-2.0 * d)


def closed_form_margin(b, x):
    h, lfh, grad_norm = closed_form_terms(b, x)
    return lfh - grad_norm * b.d_bar + b.gamma * h


# the closed form and the generic formulas (grad_h and np.linalg.norm, whose
# 3-element dots take BLAS's fused multiply-add) round differently: at most a
# few units in the last place of values of order one
ROUNDING = 2e-15


class TestOrbitalRangeBarrier:
    B = orbital_range_barrier(GRAVITY, gamma=1.0, d_bar=0.01)

    def test_value_at_band_center(self):
        s = np.array([2.0, 0.0, 0.0, 0.0, 0.7, 0.0])
        assert self.B.h(s) == pytest.approx(0.16, abs=1e-15)

    def test_zero_exactly_on_boundaries(self):
        for r in (1.6, 2.4):
            s = np.array([r, 0.0, 0.0, 0.0, 0.0, 0.0])
            assert self.B.h(s) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_2p2(self):
        s = np.array([0.0, 2.2, 0.0, 0.0, 0.0, 0.0])
        assert self.B.h(s) == pytest.approx(0.12, abs=1e-14)

    def test_positive_strictly_inside(self):
        rng = np.random.default_rng(1)
        for s in random_shell_states(rng, 200):
            assert self.B.h(s) > 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        worst = check_gradient(self.B, random_shell_states(rng, 1000))
        assert worst <= 1e-5


class TestLieDerivative:
    B = orbital_range_barrier(GRAVITY, gamma=1.0, d_bar=0.01)

    def test_zero_radial_velocity(self):
        s = np.array([2.2, 0.0, 0.0, 0.0, 0.6, 0.0])
        assert self.B.margin_terms(None, s)[1] == pytest.approx(0.0, abs=1e-15)

    def test_chain_rule_value(self):
        # dh/dt = -2 (r - 2R) rdot with rdot = rhat . v = 0.1 here.
        s = np.array([2.2, 0.0, 0.0, 0.1, 0.6, 0.0])
        assert self.B.margin_terms(None, s)[1] == pytest.approx(-0.04, abs=1e-14)

    def test_matches_flow_finite_difference(self):
        from etsafe.numerics import rk4_step

        rng = np.random.default_rng(3)
        eps = 1e-6
        for s in random_shell_states(rng, 100):
            lfh = self.B.margin_terms(None, s)[1]
            s_eps = np.array(rk4_step(lambda t, x: orbital_flow(x), s, 0.0, eps))
            fd = (self.B.h(s_eps) - self.B.h(s)) / eps
            assert lfh == pytest.approx(fd, abs=1e-4)


class TestBarrierConditionMargin:
    B = orbital_range_barrier(GRAVITY, gamma=1.0, d_bar=0.01)

    def test_composed_value(self):
        # L_F h - |grad| d_bar + gamma h = -0.04 - 0.4*0.01 + 0.12
        s = np.array([2.2, 0.0, 0.0, 0.1, 0.6, 0.0])
        assert barrier_condition_margin(self.B, orbital_flow, s) == pytest.approx(
            0.076, abs=1e-14
        )

    def test_center_with_no_radial_velocity(self):
        # Gradient norm vanishes at the band center, leaving alpha(h) only.
        s = np.array([2.0, 0.0, 0.0, 0.0, 0.7, 0.0])
        assert barrier_condition_margin(self.B, orbital_flow, s) == pytest.approx(
            1.0 * 0.16, abs=1e-14
        )

    def test_zero_dbar_drops_robust_term(self):
        b0 = orbital_range_barrier(GRAVITY, gamma=1.0, d_bar=0.0)
        s = np.array([2.2, 0.0, 0.0, 0.1, 0.6, 0.0])
        lfh = b0.margin_terms(None, s)[1]
        expected = lfh + 1.0 * b0.h(s)
        assert barrier_condition_margin(b0, orbital_flow, s) == pytest.approx(
            expected, abs=1e-15
        )

    def test_boundary_soundness(self):
        # At h = 0 the class-K term vanishes exactly.
        for r in (1.6, 2.4):
            s = np.array([r, 0.0, 0.0, 0.05, 0.6, 0.0])
            grad = self.B.grad_h(s)
            expected = float(grad @ orbital_flow(s)) - np.linalg.norm(grad) * self.B.d_bar
            assert barrier_condition_margin(self.B, orbital_flow, s) == pytest.approx(
                expected, abs=1e-15
            )


class TestBitwiseAgainstNormFormulas:
    """h, grad_h and the margin equal, bit for bit, the np.linalg.norm
    formulas they replaced, so every output stays byte-identical."""

    GAMMA, D_BAR = 0.1, 1e-3

    @staticmethod
    def norm_orbital(x, hw=0.4, c=2.0):
        """(h, grad_h) of the orbital barrier through np.linalg.norm."""
        pos = x[:3]
        r = float(np.linalg.norm(pos))
        grad = np.zeros(6)
        grad[:3] = (-2.0 * (r - c) / r) * pos
        return hw * hw - (r - c) ** 2, grad

    @staticmethod
    def norm_margin(b, flow, x, h, grad):
        lfh = float(grad @ np.asarray(flow(x)))
        return lfh - float(np.linalg.norm(grad)) * b.d_bar + b.gamma * h

    def orbital_states(self):
        rng = np.random.default_rng(5)
        n = 2000
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # both band edges and the band center exactly, the rest spread over the band
        radii = np.concatenate([[1.6, 2.4, 2.0] * 20, rng.uniform(1.6, 2.4, n - 60)])
        states = np.hstack([radii[:, None] * dirs, rng.normal(scale=0.4, size=(n, 3))])
        edges = np.array([[1.6, 0.0, 0.0], [0.0, -2.4, 0.0], [0.0, 0.0, 2.0], [-0.0, 2.4, -0.0]])
        states[: len(edges), :3] = edges
        return states

    def test_orbital_h_grad_and_margin(self):
        # h and grad_h keep the norm formulas bit for bit; the margin is the
        # closed form, which agrees with the norm formula up to rounding
        b = orbital_range_barrier(GRAVITY, gamma=self.GAMMA, d_bar=self.D_BAR)
        for x in self.orbital_states():
            h_ref, grad_ref = self.norm_orbital(x)
            assert b.h(x).hex() == h_ref.hex()
            assert b.grad_h(x).tobytes() == grad_ref.tobytes()
            margin = barrier_condition_margin(b, orbital_flow, x)
            assert margin.hex() == closed_form_margin(b, x).hex()
            norm_margin = self.norm_margin(b, orbital_flow, x, h_ref, grad_ref)
            assert margin == pytest.approx(norm_margin, rel=0.0, abs=ROUNDING)

    def test_disk_h_and_margin_are_python_floats(self):
        # a zero coordinate takes the dot's zero-addend step, which returned
        # the ndarray's numpy float unconverted
        b = planar_disk_barrier(1.0, gamma=2.0, d_bar=0.01)
        flow = lambda x: [-v for v in x]
        for x in ([0.0, 0.5], [0.3, 0.5], [0.3, 0.0], [0.0, 0.0], [-0.0, 2.0]):
            state = np.array(x)
            assert type(b.h(state)) is float and b.h(state).hex() == b.h(x).hex()
            margin = barrier_condition_margin(b, flow, state)
            assert type(margin) is float and margin.hex() == barrier_condition_margin(b, flow, x).hex()

    def test_disk_margin(self):
        rho = 1.0
        b = planar_disk_barrier(rho, gamma=2.0, d_bar=0.01)
        goal = np.array([1.05, 0.0])
        flow = lambda x: -(x - goal)
        rng = np.random.default_rng(6)
        n = 2000
        ang = rng.uniform(0.0, 2.0 * np.pi, n)
        radii = np.concatenate([[0.0, rho, rho], rho * np.sqrt(rng.uniform(size=n - 3))])
        states = np.stack([radii * np.cos(ang), radii * np.sin(ang)], axis=1)
        for x in states:
            margin = barrier_condition_margin(b, flow, x)
            assert margin.hex() == self.norm_margin(b, flow, x, b.h(x), b.grad_h(x)).hex()


class TestFilterMargins:
    RHO = 1.0

    def test_off_margin_is_shifted_on_margin(self):
        b = planar_disk_barrier(self.RHO, gamma=1.0, d_bar=0.01)
        k_nom = lambda x: -x
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.uniform(-0.9, 0.9, 2)
            on = barrier_condition_margin(b, k_nom, x)
            off = filter_off_margin(b, k_nom, x, gap=0.3)
            assert off == on - 0.3

    def test_zero_gap_reduces_to_on_margin(self):
        b = planar_disk_barrier(self.RHO, gamma=1.0, d_bar=0.0)
        k_nom = lambda x: -x
        x = np.array([0.4, -0.2])
        assert filter_off_margin(b, k_nom, x, gap=0.0) == barrier_condition_margin(
            b, k_nom, x
        )

    def test_negative_gap_rejected(self):
        b = planar_disk_barrier(self.RHO, gamma=1.0, d_bar=0.0)
        with pytest.raises(ValueError):
            filter_off_margin(b, lambda x: -x, np.zeros(2), gap=-0.1)

    def test_origin_controller_never_triggers(self):
        # With k_nom = -x and no disturbance the on-margin is
        # 2|x|^2 + gamma (rho^2 - |x|^2), strictly positive inside the disk.
        gamma = 1.5
        b = planar_disk_barrier(self.RHO, gamma=gamma, d_bar=0.0)
        k_nom = lambda x: -x
        rng = np.random.default_rng(5)
        for _ in range(300):
            x = rng.uniform(-0.99, 0.99, 2)
            if x @ x >= self.RHO**2:
                continue
            margin = barrier_condition_margin(b, k_nom, x)
            expected = 2.0 * float(x @ x) + gamma * (self.RHO**2 - float(x @ x))
            assert margin == pytest.approx(expected, rel=1e-12)
            assert margin > 0.0


class TestManeuverTimingMargin:
    B = orbital_range_barrier(GRAVITY, gamma=1.0, d_bar=0.01)

    @staticmethod
    def _linear_model(slope, intercept=1.0, h_range=(0.0, 0.16)):
        from etsafe.inter_event import InterEventTimeModel

        return InterEventTimeModel(
            knots=np.array(h_range),
            coefficients=np.array(
                [intercept + slope * h_range[0], intercept + slope * h_range[1]]
            ),
            h_min=h_range[0],
            h_max=h_range[1],
        )

    def test_threshold_at_rate_minus_one(self):
        # model slope chosen so slope * L_F h = -1 exactly => margin 0.
        s = np.array([2.2, 0.0, 0.0, 0.1, 0.6, 0.0])  # L_F h = -0.04
        model = self._linear_model(slope=25.0)
        assert maneuver_timing_margin(model, self.B, s) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_fires_when_expectation_decays_fast(self):
        s = np.array([2.2, 0.0, 0.0, 0.1, 0.6, 0.0])  # L_F h = -0.04
        model = self._linear_model(slope=50.0)
        assert maneuver_timing_margin(model, self.B, s) == pytest.approx(
            -0.5, abs=1e-12
        )

    def test_never_fires_while_h_improves(self):
        model = self._linear_model(slope=50.0)
        rng = np.random.default_rng(6)
        for s in (
            np.array([2.2, 0.0, 0.0, -0.1, 0.6, 0.0]),
            np.array([1.8, 0.0, 0.0, 0.1, 0.7, 0.0]),
        ):
            lfh = self.B.margin_terms(None, s)[1]
            assert lfh >= 0.0
            assert maneuver_timing_margin(model, self.B, s) >= 0.5


class TestValidationHelpers:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan")])
    def test_spec_requires_positive_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be > 0"):
            planar_disk_barrier(1.0, gamma=gamma, d_bar=0.0)
        with pytest.raises(ValueError, match="gamma must be > 0"):
            orbital_range_barrier(GRAVITY, gamma=gamma, d_bar=0.0)

    @pytest.mark.parametrize("rho", [0.0, -1.0, float("nan")])
    def test_disk_requires_positive_radius(self, rho):
        with pytest.raises(ValueError, match="rho must be > 0"):
            planar_disk_barrier(rho, gamma=1.0, d_bar=0.0)

    def test_infinite_settings_rejected(self):
        assert barrier_problems(gamma=float("inf"), rho=float("inf")) == [
            "gamma must be finite",
            "rho must be finite",
        ]
        with pytest.raises(ValueError, match="d_bar must be finite"):
            planar_disk_barrier(1.0, gamma=1.0, d_bar=float("inf"))

    def test_one_rule_for_gamma_and_rho(self):
        # the spec, the disk and parse_config all report through barrier_problems
        assert barrier_problems(gamma=0.0, rho=float("nan")) == [
            "gamma must be > 0",
            "rho must be > 0",
        ]
        assert barrier_problems(gamma=2.0, rho=1.0) == []
        assert barrier_problems() == []

    def test_gradient_check_catches_wrong_gradient(self):
        class HalfGradientDisk(DiskBarrier):
            def grad_h(self, x):
                return [-1.0 * v for v in x]  # off by factor 2

        bad = HalfGradientDisk(gamma=1.0, d_bar=0.0, half_width=1.0)
        with pytest.raises(GradientMismatchError):
            check_gradient(bad, np.array([[0.5, 0.2]]))


SHIPPED_MODEL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "tau_model.json"
)


def generic_lfh(b, g, x):
    """dh/dt as the 6-element dot of grad_h with the full two-body flow."""
    grad = np.asarray(b.grad_h(x), dtype=float)
    return float(grad @ np.asarray(two_body_field(g, x))), grad


def generic_timing_margin(model, b, g, x):
    """maneuver_timing_margin's formula for a spec without margin terms."""
    lfh, _ = generic_lfh(b, g, x)
    return 0.5 * (1.0 + model.evaluate(b.h(x)).derivative * lfh)


class TestFusedMargin:
    """Both margins of the orbital spec, through its fused terms, equal bit
    for bit the closed form, and up to rounding the generic formulas along
    the two-body flow, on every state family the runs and the dwell bound
    evaluate."""

    GAMMA, D_BAR = 0.1, 1e-3
    MODEL = load_model(SHIPPED_MODEL)

    def assert_fused_equal(self, b, g, states):
        flow = lambda x: two_body_field(g, x)
        fused = [barrier_condition_margin(b, flow, x) for x in states]
        assert [m.hex() for m in fused] == [closed_form_margin(b, x).hex() for x in states]
        norm_margin = TestBitwiseAgainstNormFormulas.norm_margin
        generic = [norm_margin(b, flow, x, b.h(x), b.grad_h(x)) for x in states]
        assert fused == pytest.approx(generic, rel=0.0, abs=ROUNDING)
        timing = [maneuver_timing_margin(self.MODEL, b, x) for x in states]
        closed_timing = []
        for x in states:
            h, lfh, _ = closed_form_terms(b, x)
            closed_timing.append(0.5 * (1.0 + self.MODEL.evaluate(h).derivative * lfh))
        assert [m.hex() for m in timing] == [m.hex() for m in closed_timing]
        for x, t in zip(states, timing):
            # the model's slope scales the rounding of dh/dt
            slope = self.MODEL.evaluate(b.h(x)).derivative
            generic = generic_timing_margin(self.MODEL, b, g, x)
            assert t == pytest.approx(generic, rel=0.0, abs=(1.0 + abs(slope)) * ROUNDING)
        for x in states[:50]:
            terms = b.margin_terms(None, x)
            assert [t.hex() for t in terms] == [t.hex() for t in closed_form_terms(b, x)]
            lfh_ref, grad = generic_lfh(b, g, x)
            generic_terms = (b.h(x), lfh_ref, float(np.linalg.norm(grad)))
            assert terms == pytest.approx(generic_terms, rel=0.0, abs=ROUNDING)

    def test_only_the_orbital_spec_is_fused(self):
        def no_flow(x):
            raise AssertionError("flow called")

        band = orbital_range_barrier(GRAVITY, self.GAMMA, self.D_BAR)
        assert isinstance(band, BandBarrier)
        band.margin_terms(no_flow, np.array([2.1, 0.0, 0.0, 0.1, 0.6, 0.0]))
        disk = planar_disk_barrier(1.0, gamma=2.0, d_bar=0.01)
        assert isinstance(disk, DiskBarrier) and not hasattr(disk, "margin_rows")
        with pytest.raises(AssertionError, match="flow called"):
            disk.margin_terms(no_flow, [0.3, -0.4])

    def test_band_edges_and_center(self):
        b = orbital_range_barrier(GRAVITY, gamma=self.GAMMA, d_bar=self.D_BAR)
        states = []
        for r in (1.6, 2.4, 2.0):
            for axis in range(3):
                for vel in ((0.0, 0.0, 0.0), (0.05, 0.6, 0.0), (-0.3, 0.1, 0.7)):
                    x = np.zeros(6)
                    x[axis] = r
                    x[3:] = vel
                    states.append(x)
                    states.append(-x)
        self.assert_fused_equal(b, GRAVITY, states)

    def test_seeded_shell_states(self):
        b = orbital_range_barrier(GRAVITY, gamma=self.GAMMA, d_bar=self.D_BAR)
        self.assert_fused_equal(b, GRAVITY, random_shell_states(np.random.default_rng(8), 2000))

    def test_shipped_greedy_run_states(self, greedy_run):
        _, scenario, result, _ = greedy_run
        states = result.trajectory.states[:20000]
        assert len(states) == 20000
        self.assert_fused_equal(scenario.barrier, scenario.gravity, states)

    def test_miet_bound_perturbed_states(self, greedy_run):
        # the states miet_bound differences: 2,000 samples, each component +-1e-6
        _, scenario, _, _ = greedy_run
        states = []
        for x in satellite_region_states(scenario):
            for i in range(6):
                for sign in (1.0, -1.0):
                    xe = np.array(x)
                    xe[i] += sign * 1e-6
                    states.append(xe)
        self.assert_fused_equal(scenario.barrier, scenario.gravity, states)

    @pytest.mark.parametrize("r", [0.0, 0.05, 0.0999])
    def test_below_singularity_floor_raises(self, r):
        b = orbital_range_barrier(GRAVITY, gamma=self.GAMMA, d_bar=self.D_BAR)
        x = np.array([0.0, r, 0.0, 1.0, 0.0, 0.0])
        with pytest.raises(SingularityError):
            barrier_condition_margin(b, orbital_flow, x)
        with pytest.raises(SingularityError):
            maneuver_timing_margin(self.MODEL, b, x)


class TestRadialGeometry:
    def test_band_at_unit_radius_equals_literals(self):
        b = orbital_range_barrier(GRAVITY, gamma=0.1, d_bar=1e-3)
        R = GRAVITY.R
        assert b.center.hex() == (2.0 * R).hex()
        assert b.half_width.hex() == (0.4 * R).hex()
        assert (b.center - b.half_width).hex() == (1.6 * R).hex()
        assert (b.center + b.half_width).hex() == (2.4 * R).hex()
        assert (b.half_width ** 2).hex() == ((0.4 * R) ** 2).hex()

    def test_band_scales_with_radius(self):
        b = orbital_range_barrier(GravityModel(mu=1.0, R=3.0), gamma=0.1, d_bar=1e-3)
        assert (b.center, b.half_width) == (6.0, 0.4 * 3.0)

    def test_disk_is_centered_band(self):
        b = planar_disk_barrier(1.5, gamma=2.0, d_bar=0.01)
        assert (b.center, b.half_width) == (0.0, 1.5)

    def test_spec_without_geometry_is_rejected(self):
        parts = dict(gamma=1.0, d_bar=0.0)
        with pytest.raises(TypeError, match="center"):
            BandBarrier(**parts, floor=0.1)
        b = BandBarrier(**parts, center=2.0, half_width=0.4, floor=0.1)
        with pytest.raises(ValueError, match="radial geometry"):
            dataclasses.replace(b, half_width=float("nan"))
        with pytest.raises(ValueError, match="radial geometry"):
            dataclasses.replace(b, center=float("inf"))
        with pytest.raises(ValueError, match="radial geometry"):
            DiskBarrier(**parts, half_width=float("nan"))

    def test_disk_is_centered_and_band_keeps_its_terms(self):
        # the disk's formulas take center 0, which it cannot be given; the
        # band's terms are methods, not settings
        b = planar_disk_barrier(1.5, gamma=2.0, d_bar=0.01)
        assert b.center == 0.0
        with pytest.raises(ValueError, match="center"):
            dataclasses.replace(b, center=2.0)
        band = orbital_range_barrier(GRAVITY, gamma=0.1, d_bar=1e-3)
        with pytest.raises(TypeError, match="margin_terms"):
            dataclasses.replace(band, margin_terms=None)

    def test_fields_are_the_geometry_alone(self):
        # no callable field: each geometry states its formulas as methods
        geometry = ["gamma", "d_bar", "center", "half_width"]
        disk = planar_disk_barrier(1.5, gamma=2.0, d_bar=0.01)
        band = orbital_range_barrier(GRAVITY, gamma=0.1, d_bar=1e-3)
        assert [f.name for f in dataclasses.fields(disk)] == geometry
        assert [f.name for f in dataclasses.fields(band)] == geometry + ["floor"]
        assert band.floor == GRAVITY.singularity_floor


class TestGradientCheckCoversFusedTerms:
    """check_gradient holds an orbital spec's margin_terms to the same finite
    differences as grad_h, so a wrong fused term fails at construction."""

    B = orbital_range_barrier(GRAVITY, gamma=0.1, d_bar=1e-3)
    STATES = random_shell_states(np.random.default_rng(3), 20)

    def test_shipped_terms_pass(self):
        assert check_gradient(self.B, self.STATES) < 1e-5

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda h, lfh, n: (h, 1.01 * lfh, n),  # dh/dt: gradient off by 1%
            lambda h, lfh, n: (h, lfh, 1.01 * n),  # |grad h| off by 1%
            lambda h, lfh, n: (h + 1e-3, lfh, n),  # h shifted
        ],
        ids=["lfh", "grad_norm", "h"],
    )
    def test_wrong_fused_term_is_caught(self, mutate):
        class MutatedBand(BandBarrier):
            def margin_terms(self, flow, x):
                return mutate(*super().margin_terms(flow, x))

        bad = MutatedBand(**dataclasses.asdict(self.B))
        with pytest.raises(GradientMismatchError):
            check_gradient(bad, self.STATES)


def random_band_states(rng, n):
    """States around the band (radius 1.5 to 2.5, so h of either sign) with
    velocities over six decades, and one in 50 with a zero component or a
    zero velocity, where the sign of a zero could show."""
    radii = rng.uniform(1.5, 2.5, n)
    dirs = rng.normal(size=(n, 3))
    vels = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-4.0, 2.0, size=(n, 1))
    zeroed = rng.random(n) < 0.02
    dirs[zeroed, rng.integers(0, 3, zeroed.sum())] = 0.0
    zeroed = rng.random(n) < 0.02
    vels[zeroed, rng.integers(0, 3, zeroed.sum())] = 0.0
    vels[rng.random(n) < 0.02] = 0.0
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return np.hstack([radii[:, None] * dirs, vels])


def segment_slope(model, h):
    """The slope of one value, one segment at a time: the scalar reference
    for ``InterEventTimeModel.slopes``."""
    hc = min(max(float(h), model.h_min), model.h_max)
    seg = int(np.searchsorted(model.knots, hc, side="right")) - 1
    seg = min(max(seg, 0), len(model.knots) - 2)
    dh = model.knots[seg + 1] - model.knots[seg]
    return float((model.coefficients[seg + 1] - model.coefficients[seg]) / dh)


class TestRowMargins:
    """The row forms the block loop evaluates equal the scalar margins row
    by row, bit for bit (compared as bytes, so the sign of a zero counts)."""

    N = 100_000
    B = orbital_range_barrier(GRAVITY, gamma=0.1, d_bar=1e-3)

    @pytest.fixture(scope="class")
    def states(self):
        return random_band_states(np.random.default_rng(19), self.N)

    def test_margin_rows_equal_margin_terms(self, states):
        rows = self.B.margin_rows(states)
        scalar = np.array([self.B.margin_terms(None, x) for x in states])
        for k in range(3):
            assert rows[k].tobytes() == np.ascontiguousarray(scalar[:, k]).tobytes(), f"term {k}"

    def test_barrier_condition_rows_equal_the_margin(self, states):
        rows = barrier_condition_rows(self.B, states)
        scalar = np.array([barrier_condition_margin(self.B, orbital_flow, x) for x in states])
        assert rows.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("model", ["shipped", "steep"])
    def test_maneuver_timing_rows_equal_the_margin(self, states, model):
        if model == "shipped":
            tau = load_model(os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs", "tau_model.json"))
        else:
            # knots inside the range, so the clamp picks the end segments
            tau = InterEventTimeModel(
                knots=np.array([-0.05, 0.0, 0.07, 0.12]),
                coefficients=np.array([3.0, 9.5, 40.25, 12.0]),
                h_min=-0.02,
                h_max=0.1,
            )
        rows = maneuver_timing_rows(tau, self.B, states)
        scalar = np.array([maneuver_timing_margin(tau, self.B, x) for x in states])
        assert rows.tobytes() == scalar.tobytes()

    def test_slopes_equal_the_segment_formula(self):
        tau = InterEventTimeModel(
            knots=np.array([0.0, 0.04, 0.09, 0.15]),
            coefficients=np.array([12.0, 30.5, 27.0, 80.0]),
            h_min=0.01,
            h_max=0.15,
        )
        h = np.concatenate(
            [np.random.default_rng(4).uniform(-0.1, 0.3, 5000), tau.knots, [0.01, 0.15, -0.0, np.nan]]
        )
        assert tau.slopes(h).tobytes() == np.array([segment_slope(tau, v) for v in h.tolist()]).tobytes()
        assert [tau.evaluate(v).derivative for v in h.tolist()] == tau.slopes(h).tolist()
        single = InterEventTimeModel(knots=np.array([0.1]), coefficients=np.array([5.0]), h_min=0.1, h_max=0.1)
        assert single.slopes(h).tolist() == [0.0] * len(h)

    def test_row_below_the_floor_raises_like_the_scalar_terms(self, states):
        low = states[:300].copy()
        low[250, :3] = [0.05, 0.02, 0.0]  # radius below 0.1 R
        with pytest.raises(SingularityError, match="below singularity floor") as rows_err:
            self.B.margin_rows(low)
        with pytest.raises(SingularityError) as one_err:
            self.B.margin_terms(None, low[250])
        assert str(rows_err.value) == str(one_err.value)

    def test_h_column_of_the_rows_is_h_rows(self, states):
        # the h column is the closed form's, on the plain radius; h_rows
        # keeps the BLAS radius of h, so the two agree up to rounding
        h = self.B.margin_rows(states)[0]
        assert h.tobytes() == np.array([closed_form_terms(self.B, x)[0] for x in states]).tobytes()
        assert np.abs(h - self.B.h_rows(states)).max() <= ROUNDING
