"""The planar loop on Python floats against the numpy expressions it
replaced, bit for bit: the disk barrier, its margin, both filter
constraints, the projection and the promoting filter on named floats, the
single integrator and both flow fields, on run, region and edge states."""

import dataclasses
import math
import os

import numpy as np
import pytest

from etsafe.barrier import DiskBarrier, barrier_condition_margin
from etsafe.config import parse_config
from etsafe.engine import _planar_fields, planar_region_states, run_intermittent_filter
from etsafe.numerics import _dot
from etsafe.scenarios import FilterConfig
from etsafe.safety_filter import (
    InfeasibleFilterError,
    _promoting_filter,
    build_constraint,
    project,
)

CONFIG = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "planar_intermittent.ini"
)
EYE = np.eye(2)


# --- the numpy expressions of the planar loop before it moved to floats ---


def numpy_h(b, x):
    return b.half_width * b.half_width - float(x @ x)


def numpy_h_rows(b, states):
    dots = np.matmul(states[:, None, :], states[:, :, None])[:, 0, 0]
    return b.half_width * b.half_width - dots


def numpy_k_nom(scenario):
    goal = np.array(scenario.filter.goal, dtype=float)
    gain = scenario.filter.gain
    return lambda x: -gain * (x - goal)


def numpy_closed_loop(x, u):
    return np.zeros(2) + EYE @ u


def numpy_margin(b, k_nom, x):
    grad = -2.0 * x
    lfh = float(grad @ np.asarray(numpy_closed_loop(x, k_nom(x))))
    return lfh - math.sqrt(grad.dot(grad)) * b.d_bar + b.gamma * numpy_h(b, x)


def numpy_constraint(b, x, mode, promote_rate=None):
    grad = -2.0 * x
    a = grad @ EYE
    robust = float(np.linalg.norm(grad)) * b.d_bar
    lfh_drift = float(grad @ np.zeros(2))
    if mode == "standard":
        rhs = -b.gamma * numpy_h(b, x) + robust - lfh_drift
    else:
        rhs = promote_rate + robust - lfh_drift
    return np.asarray(a, dtype=float), float(rhs)


def numpy_project(u_nom, a, rhs):
    dot = float(a @ u_nom)
    if dot >= rhs:
        return u_nom.copy()
    a_sq = float(a @ a)
    if a_sq == 0.0:
        raise InfeasibleFilterError("zero row")
    return u_nom + ((rhs - dot) / a_sq) * a


def numpy_fields(scenario):
    b, rate = scenario.barrier, scenario.filter.promote_rate
    k_nom = numpy_k_nom(scenario)
    dist = scenario.disturbance.realize(stream=0)

    def nominal(t, x):
        return numpy_closed_loop(x, k_nom(x)) + dist(t)

    def filtered(t, x):
        a, rhs = numpy_constraint(b, x, "promoting", rate)
        return numpy_closed_loop(x, numpy_project(k_nom(x), a, rhs)) + dist(t)

    return nominal, filtered


def bits(v):
    return np.asarray(v, dtype=float).tobytes()


def outcome(f, *args):
    """The bytes of ``f(*args)``, or the filter error it raises: at the disk
    center the promoting constraint's row is zero."""
    try:
        return bits(f(*args))
    except InfeasibleFilterError:
        return InfeasibleFilterError


# --- the states they are compared on ---


@pytest.fixture(scope="module")
def scenario():
    return parse_config(CONFIG).build_planar()


@pytest.fixture(scope="module")
def run_states():
    """Times and states of a short planar run at another seed."""
    cfg = parse_config(CONFIG, seed=5, horizon=20.0)
    traj = run_intermittent_filter(cfg.build_planar(), cfg.initial_state, cfg.horizon).trajectory
    return traj.times, traj.states


def assert_planar_loop_matches_numpy(scenario, times, states):
    """Every float path equals its numpy expression on each state; returns
    how many states each filter mode's projection moved."""
    b, rate = scenario.barrier, scenario.filter.promote_rate
    promote = _promoting_filter(b, rate)
    control, k_ref = scenario.nominal_input(), numpy_k_nom(scenario)
    flow = scenario.nominal_flow()
    nominal, filtered = _planar_fields(scenario)
    nominal_ref, filtered_ref = numpy_fields(scenario)
    active = {"standard": 0, "promoting": 0}
    for t, x in zip(times.tolist(), states):
        p = x.tolist()
        assert b.h(p).hex() == numpy_h(b, x).hex()
        assert bits(b.grad_h(p)) == bits(-2.0 * x)
        assert bits(control(*p)) == bits(k_ref(x))
        assert barrier_condition_margin(b, flow, p).hex() == numpy_margin(b, k_ref, x).hex()
        for mode, kwargs in (("standard", {}), ("promoting", {"promote_rate": rate})):
            con = build_constraint(b, p, mode=mode, **kwargs)
            a_ref, rhs_ref = numpy_constraint(b, x, mode, **kwargs)
            assert con.a.tobytes() == a_ref.tobytes()
            assert con.rhs.hex() == rhs_ref.hex()
            u = outcome(project, control(*p), con)
            assert u == outcome(numpy_project, k_ref(x), a_ref, rhs_ref)
            active[mode] += u != bits(k_ref(x))
            if mode == "promoting":
                # the fused steps' filter, on the state's and the input's floats
                assert outcome(promote, *p, *control(*p)) == u
        assert bits(nominal(t, p)) == bits(nominal_ref(t, x))
        assert outcome(filtered, t, p) == outcome(filtered_ref, t, x)
    assert b.h_rows(states).tobytes() == numpy_h_rows(b, states).tobytes()
    return active


def test_region_states_match_numpy(scenario):
    states = planar_region_states(scenario)
    assert len(states) == 2000
    active = assert_planar_loop_matches_numpy(scenario, np.zeros(len(states)), states)
    assert active["standard"] > 0 and active["promoting"] > 0


def test_run_states_match_numpy(scenario, run_states):
    times, states = run_states
    active = assert_planar_loop_matches_numpy(scenario, times, states)
    # the run spends stretches with the filter on, where its projection acts
    assert active["promoting"] > 100 and active["standard"] > 0


# states no run or region sample reaches, rho = 1 in the shipped config
EDGE_STATES = [
    [0.0, 0.0],  # the shipped start, where the promoting row is zero
    [-0.0, 0.0],
    [0.0, -0.0],
    [-0.0, -0.0],
    [5e-324, -5e-324],  # subnormal coordinates
    [-1e-310, 2.2e-308],
    [1e-160, -3e-170],  # normal coordinates, subnormal products
    [1.0, 0.0],  # on the circle
    [-0.0, -1.0],
    [1.05, 0.0],  # the goal, outside the disk
    [-2.0, 3.0],
    [1e3, -7e2],
    [1e200, -1e200],  # products that overflow
]


def test_edge_states_match_numpy(scenario):
    states = np.array(EDGE_STATES)
    b, flow, k_ref = scenario.barrier, scenario.nominal_flow(), numpy_k_nom(scenario)
    margins = [barrier_condition_margin(b, flow, x) for x in EDGE_STATES]
    with np.errstate(over="ignore"):
        reference = [numpy_margin(b, k_ref, x) for x in states]
    assert [m.hex() for m in margins] == [m.hex() for m in reference]
    assert margins[0] > 0.0 and margins[7] < 0.0 and math.isnan(margins[-1])
    # the rest of the loop, save where the gradient's square is subnormal
    subnormal = [1e-160, -3e-170]
    finite = states[[i for i, x in enumerate(EDGE_STATES) if x != subnormal]]
    with np.errstate(over="ignore", invalid="ignore"):
        assert_planar_loop_matches_numpy(scenario, np.zeros(len(finite)), finite)
    # there the promoting projection's step overflows, which numpy's
    # projection returns as an infinite input, and every path of the filter
    # raises instead
    rate = scenario.filter.promote_rate
    u = scenario.nominal_input()(*subnormal)
    con = build_constraint(b, subnormal, mode="promoting", promote_rate=rate)
    a_ref, rhs_ref = numpy_constraint(b, np.array(subnormal), "promoting", rate)
    with np.errstate(over="ignore"):
        assert np.isinf(numpy_project(np.array(u), a_ref, rhs_ref)).any()
    _, filtered = _planar_fields(scenario)
    for call in (
        lambda: project(u, con),
        lambda: _promoting_filter(b, rate)(*subnormal, *u),
        lambda: filtered(0.0, subnormal),
    ):
        with pytest.raises(InfeasibleFilterError, match="projection step overflows with row square"):
            call()


def test_overflowing_row_square_raises_on_both_filter_paths(scenario):
    # a finite state whose gradient's square overflows, with an input the
    # constraint rejects: the step (rhs - a . u) / (a . a) would come out NaN
    b, rate = scenario.barrier, scenario.filter.promote_rate
    x, u = [1e160, -1e160], [0.0, 0.0]
    con = build_constraint(b, x, mode="promoting", promote_rate=rate)
    for call in (lambda: project(u, con), lambda: _promoting_filter(b, rate)(*x, *u)):
        with pytest.raises(InfeasibleFilterError, match="square overflows"):
            call()
    # a non-finite state keeps its NaN input
    assert all(map(math.isnan, _promoting_filter(b, rate)(math.nan, 1.0, *u)))


def test_single_integrator_is_the_generic_identity_product(scenario):
    """The single integrator's shortcut products, the closed loop ``0.0 + u``
    and the filter row ``0.0 + grad`` with the drift term ``+0.0``, equal
    numpy's products with its explicit identity input and zero drift, on
    signed zeros and subnormals too."""
    # gain -1 toward the origin makes the nominal input the state itself
    identity = dataclasses.replace(scenario, filter=FilterConfig(gain=-1.0))
    control, flow = identity.nominal_input(), identity.nominal_flow()
    rate = scenario.filter.promote_rate
    rng = np.random.default_rng(11)
    vectors = (rng.normal(size=(500, 2)) * 10.0 ** rng.uniform(-3, 3, size=(500, 1))).tolist()
    vectors += [[0.0, -0.0], [-0.0, -0.0], [-0.0, 1.5], [5e-324, -5e-324], [-1e-310, 2.0]]
    x = [0.3, -0.4]  # the state of the constraint's h; its gradient is stubbed
    for v in vectors:
        ref = np.array(v)
        assert bits(control(*v)) == bits(v)
        assert bits(flow(v)) == bits(numpy_closed_loop(None, ref))
        class StubbedGradient(DiskBarrier):
            def grad_h(self, _, v=v):
                return v

        disk = scenario.barrier
        b = StubbedGradient(gamma=disk.gamma, d_bar=disk.d_bar, half_width=disk.half_width)
        robust = float(np.linalg.norm(ref)) * b.d_bar
        lfh_drift = float(ref @ np.zeros(2))
        assert lfh_drift.hex() == (0.0).hex()  # the drift term build_constraint takes
        for mode, kwargs, rhs_ref in (
            ("standard", {}, -b.gamma * b.h(x) + robust - lfh_drift),
            ("promoting", {"promote_rate": rate}, rate + robust - lfh_drift),
        ):
            con = build_constraint(b, x, mode=mode, **kwargs)
            assert con.a.tobytes() == bits(ref @ EYE)
            assert con.rhs.hex() == rhs_ref.hex()


def test_promoting_row_squares_to_the_gradient_square():
    """``a = 0.0 + grad`` differs from ``grad`` only in the sign of a zero,
    so ``a . a`` is bitwise ``grad . grad`` and the promoting filter divides
    by the robust term's dot: on random magnitudes, signed zeros and
    subnormals, where the products underflow, round or overflow."""
    rng = np.random.default_rng(17)
    grads = (rng.normal(size=(4000, 2)) * 10.0 ** rng.uniform(-170, 170, size=(4000, 2))).tolist()
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.5, -3.0, 1e300]
    grads += [[p, q] for p in specials for q in specials]
    for grad in grads:
        a = [0.0 + g for g in grad]
        assert _dot(a, a).hex() == _dot(grad, grad).hex(), grad
