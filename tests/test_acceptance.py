"""Acceptance suite: every shipped criterion, one pass/fail line each.

Runs the three shipped default configurations end to end (plus a fresh
sampling campaign; the session fixtures live in ``conftest.py``) and checks
each criterion at its stated tolerance.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import os

import numpy as np
import pytest
from conftest import grid_projection_oracle, oracle_deviation

from etsafe.barrier import barrier_condition_margin, check_gradient
from etsafe.cli import (
    EXIT_OK,
    cmd_compare,
    cmd_fit_tau,
    cmd_sample_tau,
    cmd_simulate,
)
from etsafe.config import parse_config
from etsafe.dynamics import GravityModel, apply_impulse, two_body_field
from etsafe.engine import miet_bound_formula
from etsafe.numerics import IntegratorConfig, propagate_until, rk4_step
from etsafe.orbital import station_keeping_impulse, verify_jump_conditions
from etsafe.safety_filter import HalfspaceConstraint, project

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")

RUN_BUDGET_S = 60.0
PAIR_BUDGET_S = 180.0
CAMPAIGN_BUDGET_S = 600.0


def _load(name):
    return parse_config(os.path.join(CONFIGS, name))


def test_criterion_1_safety_invariant(greedy_run, maneuver_run, planar_run):
    """Minimum h over the full horizon >= -1e-9 for all three default schemes."""
    for label, (cfg, scenario, result, seconds) in (
        ("greedy satellite", greedy_run),
        ("maneuver satellite", maneuver_run),
        ("planar intermittent", planar_run),
    ):
        assert result.summary.min_h >= -1e-9, f"{label}: min_h={result.summary.min_h}"
        assert seconds <= RUN_BUDGET_S, f"{label}: runtime {seconds:.1f}s over budget"
    print(
        "PASS criterion 1 (safety invariant): min_h "
        f"greedy={greedy_run[2].summary.min_h:.3e}, "
        f"maneuver={maneuver_run[2].summary.min_h:.3e}, "
        f"planar={planar_run[2].summary.min_h:.3e}; runtimes "
        f"{greedy_run[3]:.1f}/{maneuver_run[3]:.1f}/{planar_run[3]:.1f} s (budget 60 s)"
    )


def test_criterion_2_post_jump_buffer(greedy_run, maneuver_run):
    """All logged jumps buffered, and a 500-state trigger-surface sweep passes."""
    margin_cfg = None
    for cfg, scenario, result, _ in (greedy_run, maneuver_run):
        margin_cfg = scenario.controller.post_jump_margin
        jumps = [e for e in result.events if e.kind == "jump"]
        assert jumps, "expected jumps in the default runs"
        for e in jumps:
            assert e.xi_after >= margin_cfg, f"jump at t={e.time}: margin {e.xi_after}"
            assert e.h_after >= 0.0

    cfg, scenario, _, _ = greedy_run
    b, g = scenario.barrier, scenario.gravity
    flow = lambda x: two_body_field(g, x)
    rng = np.random.default_rng(2)
    violations = 0
    count = 0
    while count < 500:
        r = rng.uniform(1.62, 2.38)
        if abs(r - 2.0) < 0.02:
            continue  # the trigger surface needs unbounded radial speed here
        h = b.h(np.array([r, 0, 0, 0, 0, 0]))
        delta = r - 2.0
        rdot = (b.gamma * h - 2.0 * abs(delta) * b.d_bar) / (2.0 * delta)
        v_t = rng.uniform(0.8, 1.1) * np.sqrt(g.mu / r)
        if rdot**2 + v_t**2 >= 2.0 * g.mu / r:
            continue
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        w = rng.normal(size=3)
        w -= (w @ u) * u
        w /= np.linalg.norm(w)
        s = np.concatenate([r * u, rdot * u + v_t * w])
        assert abs(barrier_condition_margin(b, flow, s)) < 1e-10
        dv = station_keeping_impulse(scenario.controller, b, g, s)
        check = verify_jump_conditions(b, g, apply_impulse(s, dv), margin_cfg)
        if not check.ok:
            violations += 1
        count += 1
    assert violations == 0
    print(
        "PASS criterion 2 (post-jump buffer): all logged jumps >= "
        f"{margin_cfg}, 500-state trigger-surface sweep 0 violations"
    )


def test_criterion_3_miet(greedy_run):
    """Dwell bound: closed form exact; every observed gap above the bound."""
    cfg, scenario, result, _ = greedy_run
    from etsafe.barrier import orbital_range_barrier

    assert abs(miet_bound_formula(0.01, 0.5, 1.2, 0.01) - 0.01 / (0.5 * 1.21)) <= 1e-12
    b_example = orbital_range_barrier(GravityModel(), gamma=1.0, d_bar=0.01)
    got = miet_bound_formula(0.01, 0.5, 1.2, b_example.d_bar)
    assert abs(got - 0.01 / (0.5 * 1.21)) <= 1e-12

    bound = result.summary.miet_lower_bound
    jumps = [e.time for e in result.events if e.kind == "jump"]
    gaps = np.diff(jumps)
    assert len(gaps) >= 1, "need at least two jumps to observe a gap"
    assert np.min(gaps) >= bound
    print(
        "PASS criterion 3 (minimum inter-event time): closed form to 1e-12; "
        f"min observed gap {np.min(gaps):.3f} >= bound {bound:.2e}"
    )


def test_criterion_4_maneuver_reduction(greedy_run, maneuver_run):
    """Strictly fewer jumps for the maneuver scheme on the paired default."""
    g_cfg, _, greedy, g_secs = greedy_run
    m_cfg, _, maneuver, m_secs = maneuver_run
    assert g_cfg.scenario.disturbance.seed == m_cfg.scenario.disturbance.seed
    assert g_cfg.horizon == m_cfg.horizon
    assert np.array_equal(g_cfg.initial_state, m_cfg.initial_state)
    assert maneuver.summary.jump_count < greedy.summary.jump_count
    assert g_secs + m_secs <= PAIR_BUDGET_S
    reduction = 1.0 - maneuver.summary.jump_count / greedy.summary.jump_count
    print(
        "PASS criterion 4 (maneuver reduction): "
        f"{maneuver.summary.jump_count} < {greedy.summary.jump_count} jumps "
        f"(reduction {100.0 * reduction:.1f}%, reported not asserted beyond strictness)"
    )


def test_criterion_5_dwell_shape(campaign):
    """Expected dwell near the band center exceeds the near-boundary dwell."""
    samples, seconds = campaign
    assert seconds <= CAMPAIGN_BUDGET_S
    assert samples.censored_count / len(samples.radius) < 0.05
    levels, stats = samples.level_statistics()
    assert len(levels) >= 7
    # every level must carry at least 50 accepted samples
    h_acc, _ = samples.accepted()
    keys = np.round(h_acc, 9)
    for lv in levels:
        assert np.sum(keys == lv) >= 50
    near_boundary = stats[levels <= 0.02]
    center = stats[levels >= 0.15]
    assert len(near_boundary) >= 1 and len(center) >= 1
    ratio = float(np.min(center) / np.max(near_boundary))
    assert ratio >= 1.5
    print(
        "PASS criterion 5 (dwell-vs-h shape): "
        f"{len(levels)} levels, center/boundary median ratio {ratio:.1f} >= 1.5, "
        f"campaign {seconds:.1f} s, censored {samples.censored_count}/{len(samples.radius)}"
    )


def test_criterion_6_recovery_bounds(planar_run):
    """On periods end within the recovery bound with the promised h rate."""
    cfg, scenario, result, _ = planar_run
    events = result.events
    on_events = [e for e in events if e.kind == "filter_on"]
    off_events = [e for e in events if e.kind == "filter_off"]
    assert len(on_events) >= 1
    assert len(off_events) == len(on_events), "every filter_on needs its filter_off"
    worst_slack = np.inf
    for i, e in enumerate(events):
        if e.kind == "filter_off":
            on = events[i - 1]
            assert on.kind == "filter_on"
            bound = (scenario.filter.recovery_level - on.h_before) / scenario.filter.promote_rate
            duration = e.time - on.time
            assert duration <= bound + scenario.events.time_tolerance
            worst_slack = min(worst_slack, bound - duration)

    traj = result.trajectory
    on = traj.filter_on.astype(bool)
    dt = np.diff(traj.times)
    dh = np.diff(traj.h)
    inside = on[:-1] & on[1:] & (dt > 1e-12)
    rates = dh[inside] / dt[inside]
    assert len(rates) > 0
    assert np.min(rates) >= scenario.filter.promote_rate - 1e-6
    print(
        "PASS criterion 6 (recovery bounds): "
        f"{len(on_events)} on/off cycles, min duration slack {worst_slack:.3f}, "
        f"min dh/dt during on {np.min(rates):.4f} >= {scenario.filter.promote_rate} - 1e-6"
    )


def test_criterion_7_filter_exactness():
    """Closed-form projection vs the 201^2 grid oracle on 1000 instances."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        a = rng.normal(size=2)
        while np.linalg.norm(a) < 1e-3:
            a = rng.normal(size=2)
        u = rng.normal(size=2)
        con = HalfspaceConstraint(a=a, rhs=float(rng.normal()))
        out = project(u, con)
        if float(con.a @ u) >= con.rhs:
            assert out[0] == u[0] and out[1] == u[1]  # bit-exact passthrough
        else:
            assert abs(float(con.a @ out) - con.rhs) <= 1e-12
        oracle, resolution = grid_projection_oracle(u, con)
        dev = oracle_deviation(u, out, oracle, con)
        worst = max(worst, dev)
        assert dev <= resolution
    print(
        "PASS criterion 7 (filter exactness): 1000 instances, "
        f"max objective deviation {worst:.2e} <= grid cell diagonal; "
        "inactive bit-exact, active tight to 1e-12"
    )


def test_criterion_8_numerical_hygiene():
    """Integrator order, gradients, energy drift."""
    # RK4 order: halving the step cuts the endpoint error by >= 15
    def endpoint_error(dt):
        x, t = np.array([1.0]), 0.0
        for _ in range(round(1.0 / dt)):
            x = rk4_step(lambda t_, y: -np.asarray(y), x, t, dt)
            t += dt
        return abs(x[0] - np.exp(-1.0))

    ratio = endpoint_error(0.1) / endpoint_error(0.05)
    assert ratio >= 15.0

    # barrier gradient vs finite differences on 1000 safe-band states
    g = GravityModel()
    cfg = _load("greedy_satellite.ini")
    b = cfg.build_satellite().barrier
    rng = np.random.default_rng(8)
    radii = rng.uniform(1.61, 2.39, 1000)
    dirs = rng.normal(size=(1000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    states = np.hstack([radii[:, None] * dirs, rng.normal(0, 0.3, (1000, 3))])
    worst_grad = check_gradient(b, states)

    # two-body energy drift over one circular period at the default step
    s0 = np.array([2.0, 0.0, 0.0, 0.0, np.sqrt(0.5), 0.0])
    period = 2.0 * np.pi * np.sqrt(8.0)
    _, states_t, _, _ = propagate_until(
        lambda t, x: two_body_field(g, x), s0, 0.0, period, [],
        IntegratorConfig(step_size=cfg.scenario.integrator.step_size),
    )
    r = np.linalg.norm(states_t[:, :3], axis=1)
    v2 = np.sum(states_t[:, 3:] ** 2, axis=1)
    energy = 0.5 * v2 - g.mu / r
    drift = float(np.max(np.abs(energy - energy[0]) / abs(energy[0])))
    assert drift <= 1e-6
    print(
        "PASS criterion 8 (numerical hygiene): RK4 ratio "
        f"{ratio:.1f} >= 15, grad err {worst_grad:.1e} <= 1e-5, "
        f"energy drift {drift:.1e} <= 1e-6"
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Byte-identical outputs for repeated CLI invocations of every command."""
    sat = tmp_path / "sat.ini"
    sat.write_text(
        open(os.path.join(CONFIGS, "greedy_satellite.ini")).read().replace(
            "horizon = 6000.0", "horizon = 60.0"
        )
    )
    planar = tmp_path / "planar.ini"
    planar.write_text(
        open(os.path.join(CONFIGS, "planar_intermittent.ini")).read().replace(
            "horizon = 100.38", "horizon = 10.1"
        )
    )

    def bytes_of(path):
        with open(path, "rb") as fh:
            return fh.read()

    checked = 0
    for cfg_path in (str(sat), str(planar)):
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"sim_{os.path.basename(cfg_path)}_{tag}")
            assert cmd_simulate(cfg_path, out) == EXIT_OK
            outs.append(out)
        for fname in ("trajectory.csv", "events.csv", "summary.json"):
            assert bytes_of(os.path.join(outs[0], fname)) == bytes_of(
                os.path.join(outs[1], fname)
            )
            checked += 1

    s1, s2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
    for out in (s1, s2):
        assert cmd_sample_tau(str(sat), out, grid="1.65,2.3,2.35", n=4) == EXIT_OK
    assert bytes_of(s1) == bytes_of(s2)
    m1, m2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
    for pair in ((s1, m1), (s2, m2)):
        assert cmd_fit_tau(pair[0], pair[1]) == EXIT_OK
    assert bytes_of(m1) == bytes_of(m2)
    c1, c2 = str(tmp_path / "c1"), str(tmp_path / "c2")
    for out in (c1, c2):
        assert cmd_compare(str(sat), m1, out, horizon=120.0) == EXIT_OK
    assert bytes_of(os.path.join(c1, "comparison.json")) == bytes_of(
        os.path.join(c2, "comparison.json")
    )
    checked += 3
    print(
        "PASS criterion 9 (determinism): "
        f"{checked} repeated-invocation artifacts byte-identical across "
        "simulate, sample-tau, fit-tau, compare"
    )
