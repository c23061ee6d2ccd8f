"""Shared test helpers and the session-wide runs of the shipped configs.

The full-horizon runs are the slowest part of the suite, so each is made
once per session and shared by the acceptance criteria and the engine tests.
"""

import os
import time

import numpy as np
import pytest

from etsafe.config import parse_config
from etsafe.engine import run_greedy_impulsive, run_intermittent_filter, run_maneuver
from etsafe.inter_event import collect_inter_event_samples, load_model

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _load(name):
    return parse_config(os.path.join(CONFIGS, name))


@pytest.fixture(scope="session")
def greedy_run():
    cfg = _load("greedy_satellite.ini")
    scenario = cfg.build_satellite()
    start = time.perf_counter()
    result = run_greedy_impulsive(scenario, cfg.initial_state, cfg.horizon)
    return cfg, scenario, result, time.perf_counter() - start


@pytest.fixture(scope="session")
def maneuver_run():
    cfg = _load("maneuver_satellite.ini")
    scenario = cfg.build_satellite()
    model = load_model(cfg.tau_model_path)
    start = time.perf_counter()
    result = run_maneuver(scenario, model, cfg.initial_state, cfg.horizon)
    return cfg, scenario, result, time.perf_counter() - start


@pytest.fixture(scope="session")
def planar_run():
    cfg = _load("planar_intermittent.ini")
    scenario = cfg.build_planar()
    start = time.perf_counter()
    result = run_intermittent_filter(scenario, cfg.initial_state, cfg.horizon)
    return cfg, scenario, result, time.perf_counter() - start


@pytest.fixture(scope="session")
def campaign():
    cfg = _load("greedy_satellite.ini")
    scenario = cfg.build_satellite()
    start = time.perf_counter()
    samples = collect_inter_event_samples(
        scenario,
        cfg.tau_radius_grid,
        cfg.tau_n_per_radius,
        seed=3,
        max_wait=cfg.tau_max_wait,
    )
    return samples, time.perf_counter() - start


def grid_projection_oracle(u_nom, con, n=201):
    """Brute-force argmin over an n x n grid on a box containing u_nom and the
    analytic projection.

    Returns (best feasible grid point, grid resolution) with resolution the
    cell diagonal.  The distance objective is flat along the constraint
    boundary, so the oracle pins the optimal objective value to within one
    cell, not the optimal point; comparisons are made in the objective.
    """
    candidates = [u_nom]
    a_sq = float(con.a @ con.a)
    if a_sq > 0.0:
        candidates.append(u_nom + ((con.rhs - float(con.a @ u_nom)) / a_sq) * con.a)
    pts = np.array(candidates)
    lo = pts.min(axis=0) - 0.5
    hi = pts.max(axis=0) + 0.5
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    gx, gy = np.meshgrid(xs, ys)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    feasible = grid @ con.a >= con.rhs
    grid = grid[feasible]
    dists = np.sum((grid - u_nom) ** 2, axis=1)
    best = grid[np.argmin(dists)]
    resolution = float(np.linalg.norm((hi - lo) / (n - 1)))
    return best, resolution


def oracle_deviation(u_nom, u_closed_form, u_grid, con):
    """Objective-space deviation between the closed form and the grid oracle.

    The closed form must be feasible and must not lose to any feasible grid
    point; the grid's best must not be more than one cell diagonal worse.
    Returns the absolute objective gap.
    """
    d_cf = float(np.linalg.norm(u_closed_form - u_nom))
    d_grid = float(np.linalg.norm(u_grid - u_nom))
    assert float(con.a @ u_closed_form) >= con.rhs - 1e-9
    assert d_cf <= d_grid + 1e-12  # grid never beats the closed form
    return abs(d_grid - d_cf)
