"""Closed-form safety filter tests, including the brute-force grid oracle."""

import numpy as np
import pytest

from etsafe.barrier import planar_disk_barrier
from etsafe.safety_filter import (
    HalfspaceConstraint,
    InfeasibleFilterError,
    build_constraint,
    filter_active,
    project,
)


from conftest import grid_projection_oracle, oracle_deviation


class TestProject:
    def test_feasible_nominal_unchanged_bit_exact(self):
        u = np.array([2.0, 0.0])
        con = HalfspaceConstraint(a=np.array([1.0, 0.0]), rhs=1.0)
        out = project(u, con)
        assert out[0] == u[0] and out[1] == u[1]

    def test_projection_onto_boundary(self):
        con = HalfspaceConstraint(a=np.array([1.0, 1.0]), rhs=2.0)
        out = project(np.zeros(2), con)
        assert np.allclose(out, [1.0, 1.0], atol=1e-15)

    def test_active_constraint_tight(self):
        con = HalfspaceConstraint(a=np.array([0.3, -1.2]), rhs=0.7)
        out = project(np.array([-1.0, 2.0]), con)
        assert float(con.a @ out) == pytest.approx(con.rhs, abs=1e-12)

    def test_minimal_deviation_distance(self):
        # For an active filter the deviation equals the distance to the halfspace.
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.normal(size=2)
            u = rng.normal(size=2)
            rhs = float(a @ u) + rng.uniform(0.1, 2.0)  # force violation
            con = HalfspaceConstraint(a=a, rhs=rhs)
            out = project(u, con)
            expected = (rhs - float(a @ u)) / np.linalg.norm(a)
            assert np.linalg.norm(out - u) == pytest.approx(expected, rel=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.normal(size=3)
            u = rng.normal(size=3)
            con = HalfspaceConstraint(a=a, rhs=rng.normal())
            once = project(u, con)
            twice = project(once, con)
            assert np.allclose(once, twice, atol=1e-12)

    def test_degenerate_feasible(self):
        con = HalfspaceConstraint(a=np.zeros(2), rhs=-1.0)
        u = np.array([0.4, 0.5])
        assert np.array_equal(project(u, con), u)

    def test_degenerate_infeasible_raises(self):
        con = HalfspaceConstraint(a=np.zeros(2), rhs=0.5)
        with pytest.raises(InfeasibleFilterError):
            project(np.zeros(2), con)

    def test_overflowing_step_raises(self):
        # a subnormal row square: (rhs - a . u) / (a . a) overflows
        con = HalfspaceConstraint(a=np.array([1e-160, 0.0]), rhs=1.0)
        with pytest.raises(InfeasibleFilterError, match="projection step overflows with row square"):
            project(np.zeros(2), con)

    def test_matches_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            a = rng.normal(size=2)
            while np.linalg.norm(a) < 1e-3:
                a = rng.normal(size=2)
            u = rng.normal(size=2)
            rhs = float(rng.normal())
            con = HalfspaceConstraint(a=a, rhs=rhs)
            out = project(u, con)
            oracle, resolution = grid_projection_oracle(u, con)
            assert oracle_deviation(u, out, oracle, con) <= resolution


class TestFilterActive:
    def test_feasible_inactive(self):
        con = HalfspaceConstraint(a=np.array([1.0, 0.0]), rhs=1.0)
        assert not filter_active(np.array([2.0, 0.0]), con)

    def test_infeasible_active_and_tight_after_projection(self):
        con = HalfspaceConstraint(a=np.array([1.0, 0.0]), rhs=1.0)
        u = np.array([0.0, 0.0])
        assert filter_active(u, con)
        out = project(u, con)
        assert float(con.a @ out) == pytest.approx(con.rhs, abs=1e-15)

    def test_boundary_is_inactive_by_convention(self):
        con = HalfspaceConstraint(a=np.array([1.0, 0.0]), rhs=1.0)
        assert not filter_active(np.array([1.0, 0.0]), con)


class TestBuildConstraint:
    def test_row_is_barrier_gradient_for_identity_input(self):
        b = planar_disk_barrier(rho=np.sqrt(2.0), gamma=1.0, d_bar=0.0)
        con = build_constraint(b, np.array([1.0, 0.0]), mode="standard")
        assert np.allclose(con.a, [-2.0, 0.0], atol=1e-15)

    def test_promoting_rhs_for_driftless_system(self):
        b = planar_disk_barrier(rho=1.0, gamma=1.0, d_bar=0.0)
        con = build_constraint(
            b, np.array([0.3, 0.1]), mode="promoting", promote_rate=0.05
        )
        assert con.rhs == pytest.approx(0.05, abs=1e-15)

    def test_standard_rhs_at_boundary(self):
        # alpha(h) = 0 at the boundary, leaving the robust term only.
        b = planar_disk_barrier(rho=1.0, gamma=1.0, d_bar=0.02)
        x = np.array([1.0, 0.0])
        con = build_constraint(b, x, mode="standard")
        grad_norm = np.linalg.norm(b.grad_h(x))
        assert con.rhs == pytest.approx(grad_norm * 0.02, abs=1e-14)

    def test_feasible_inputs_satisfy_barrier_condition(self):
        # Projected input must satisfy the robust barrier condition exactly.
        b = planar_disk_barrier(rho=1.0, gamma=2.0, d_bar=0.01)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(-0.7, 0.7, 2)
            con = build_constraint(b, x, mode="standard")
            u = project(rng.normal(size=2), con)
            grad = b.grad_h(x)
            lhs = float(grad @ u) - np.linalg.norm(grad) * b.d_bar
            assert lhs >= -b.gamma * b.h(x) - 1e-10

    def test_promoting_requires_rate(self):
        b = planar_disk_barrier(rho=1.0, gamma=1.0, d_bar=0.0)
        with pytest.raises(ValueError):
            build_constraint(b, np.zeros(2), mode="promoting")

    def test_unknown_mode_rejected(self):
        b = planar_disk_barrier(rho=1.0, gamma=1.0, d_bar=0.0)
        with pytest.raises(ValueError):
            build_constraint(b, np.zeros(2), mode="soft")

    def test_oracle_equivalence_for_both_modes(self):
        b = planar_disk_barrier(rho=1.0, gamma=2.0, d_bar=0.01)
        rng = np.random.default_rng(4)
        for mode, kwargs in (("standard", {}), ("promoting", {"promote_rate": 0.05})):
            for _ in range(100):
                x = rng.uniform(-0.7, 0.7, 2)
                con = build_constraint(b, x, mode=mode, **kwargs)
                if np.linalg.norm(con.a) < 1e-6:
                    continue
                u = rng.normal(size=2)
                out = project(u, con)
                oracle, resolution = grid_projection_oracle(u, con)
                assert oracle_deviation(u, out, oracle, con) <= resolution
