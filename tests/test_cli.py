"""CLI subcommand tests: exit codes, output schemas, determinism."""

import json
import os

import numpy as np
import pytest

from etsafe.atomic_io import atomic_write
from etsafe.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUN,
    cmd_compare,
    cmd_fit_tau,
    cmd_sample_tau,
    cmd_simulate,
    cmd_validate_config,
    main,
    write_trajectory_csv,
)
from etsafe.engine import RunResult, Trajectory

SAT_SMALL = """
[scenario]
kind = satellite
trigger_scheme = greedy
seed = 1
horizon = 60.0

[disturbance]
kind = seeded-piecewise-constant
d_bar = 0.001
hold_time = 1.0

[barrier]
gamma = 0.1

[initial]
position = 2.2, 0.0, 0.0
velocity = 0.0, 0.674199862463242, 0.0

[tau]
radius_grid = 1.9, 2.0, 2.1
n_per_radius = 3
max_wait = 60.0
"""

PLANAR_SMALL = """
[scenario]
kind = planar-demo
trigger_scheme = intermittent
seed = 2
horizon = 10.1

[disturbance]
kind = seeded-piecewise-constant
d_bar = 0.01
hold_time = 0.5

[barrier]
gamma = 2.0
rho = 1.0

[filter]
promote_rate = 0.05
hysteresis_gap = 0.05
recovery_level = 0.2
goal = 1.05, 0.0

[integrator]
step_size = 0.01

[initial]
state = 0.0, 0.0
"""


@pytest.fixture
def sat_config(tmp_path):
    path = tmp_path / "sat.ini"
    path.write_text(SAT_SMALL)
    return str(path)


@pytest.fixture
def planar_config(tmp_path):
    path = tmp_path / "planar.ini"
    path.write_text(PLANAR_SMALL)
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestValidateConfig:
    def test_ok(self, sat_config):
        assert cmd_validate_config(sat_config) == EXIT_OK

    def test_bad_config(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(SAT_SMALL.replace("gamma = 0.1", "gamma = -3"))
        assert cmd_validate_config(str(path)) == EXIT_CONFIG

    def test_d_bar_mismatch_is_config_error(self, tmp_path):
        text = SAT_SMALL.replace("[barrier]\ngamma = 0.1", "[barrier]\ngamma = 0.1\nd_bar = 0.5")
        path = tmp_path / "mismatch.ini"
        path.write_text(text)
        assert cmd_validate_config(str(path)) == EXIT_CONFIG


class TestSimulate:
    def test_greedy_writes_outputs(self, sat_config, tmp_path):
        out = str(tmp_path / "out")
        assert cmd_simulate(sat_config, out) == EXIT_OK
        assert os.path.exists(os.path.join(out, "trajectory.csv"))
        assert os.path.exists(os.path.join(out, "events.csv"))
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["scheme"] == "greedy"
        assert summary["min_h"] >= -1e-9
        with open(os.path.join(out, "trajectory.csv")) as fh:
            header = fh.readline().strip()
        assert header == "t,rx,ry,rz,vx,vy,vz,r,h,xi_active_monitor,filter_state"

    def test_planar_intermittent(self, planar_config, tmp_path):
        out = str(tmp_path / "out")
        assert cmd_simulate(planar_config, out) == EXIT_OK
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["filter_on_count"] >= 1
        with open(os.path.join(out, "trajectory.csv")) as fh:
            header = fh.readline().strip()
        assert header == "t,x1,x2,h,xi_active_monitor,filter_state"
        with open(os.path.join(out, "events.csv")) as fh:
            header = fh.readline().strip()
        assert header == "t,kind,trigger_id,h_before,h_after,xi_after,dv_mag"

    def test_exit_2_on_bad_config(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(SAT_SMALL.replace("kind = satellite", "kind = rover"))
        assert cmd_simulate(str(path), str(tmp_path / "out")) == EXIT_CONFIG

    def test_exit_3_on_run_abort(self, tmp_path):
        # start outside the safe band: the run aborts with a diagnostic
        text = SAT_SMALL.replace("position = 2.2, 0.0, 0.0", "position = 1.5, 0.0, 0.0")
        path = tmp_path / "abort.ini"
        path.write_text(text)
        out = str(tmp_path / "out")
        assert cmd_simulate(str(path), out) == EXIT_RUN
        assert not os.path.exists(os.path.join(out, "trajectory.csv"))

    def test_seed_and_horizon_overrides(self, sat_config, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert cmd_simulate(sat_config, out1, seed=9, horizon=30.0) == EXIT_OK
        summary = json.load(open(os.path.join(out1, "summary.json")))
        assert summary["seed"] == 9 and summary["horizon"] == 30.0
        assert cmd_simulate(sat_config, out2, seed=9, horizon=30.0) == EXIT_OK
        assert read_bytes(os.path.join(out1, "trajectory.csv")) == read_bytes(
            os.path.join(out2, "trajectory.csv")
        )

    def test_byte_identical_reruns(self, sat_config, planar_config, tmp_path):
        for cfg, name in ((sat_config, "sat"), (planar_config, "planar")):
            out1 = str(tmp_path / f"{name}1")
            out2 = str(tmp_path / f"{name}2")
            assert cmd_simulate(cfg, out1) == EXIT_OK
            assert cmd_simulate(cfg, out2) == EXIT_OK
            for fname in ("trajectory.csv", "events.csv", "summary.json"):
                assert read_bytes(os.path.join(out1, fname)) == read_bytes(
                    os.path.join(out2, fname)
                ), f"{name}/{fname} differs between reruns"


def joined_trajectory_csv(traj, kind):
    """The trajectory CSV as one "\\n".join of per-row repr(float(...)) lines."""
    fmt = lambda x: repr(float(x))
    if kind == "satellite":
        lines = ["t,rx,ry,rz,vx,vy,vz,r,h,xi_active_monitor,filter_state"]
        radii = np.linalg.norm(traj.states[:, :3], axis=1)
        for i in range(len(traj.times)):
            lines.append(
                ",".join(
                    [fmt(traj.times[i])]
                    + [fmt(v) for v in traj.states[i]]
                    + [fmt(radii[i]), fmt(traj.h[i]), fmt(traj.xi_active[i])]
                    + [str(int(traj.filter_on[i]))]
                )
            )
    else:
        lines = ["t,x1,x2,h,xi_active_monitor,filter_state"]
        for i in range(len(traj.times)):
            s = traj.states[i]
            lines.append(
                ",".join(
                    [fmt(traj.times[i]), fmt(s[0]), fmt(s[1])]
                    + [fmt(traj.h[i]), fmt(traj.xi_active[i])]
                    + [str(int(traj.filter_on[i]))]
                )
            )
    return "\n".join(lines) + "\n"


def odd_trajectory(n, dim):
    """n rows with -0.0, nan, inf, tiny and huge values and both filter flags."""
    rng = np.random.default_rng(n + dim)
    states = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-150, 150, size=(n, dim))
    states[::7, 0] = -0.0
    states[::11, 1] = 0.0
    xi = rng.normal(size=n)
    xi[::5] = np.nan
    xi[3::13] = -np.inf
    flags = (rng.uniform(size=n) < 0.5).astype(np.int8)
    return Trajectory(
        times=np.cumsum(rng.uniform(0.0, 0.05, n)),
        states=states,
        h=-(states[:, 0] ** 2),
        xi_active=xi,
        filter_on=flags,
    )


class TestWriters:
    # more rows than one streamed chunk, so chunk boundaries are exercised
    @pytest.mark.parametrize("kind,dim", [("satellite", 6), ("planar", 2)])
    @pytest.mark.parametrize("n", [0, 1, 9000])
    def test_trajectory_csv_matches_joined_formatting(self, tmp_path, kind, dim, n):
        traj = odd_trajectory(n, dim)
        path = str(tmp_path / "trajectory.csv")
        write_trajectory_csv(path, RunResult(events=[], trajectory=traj, summary=None), kind)
        assert read_bytes(path) == joined_trajectory_csv(traj, kind).encode("utf-8")
        if n > 1:
            text = read_bytes(path).decode()
            assert "-0.0," in text and "nan," in text and ",1\n" in text and ",0\n" in text
        assert os.listdir(tmp_path) == ["trajectory.csv"]  # no .tmp left behind

    def test_failed_write_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "out.csv")

        def chunks():
            yield "first chunk\n"
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            atomic_write(path, chunks())
        assert os.listdir(tmp_path) == []

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = str(tmp_path / "out.csv")
        atomic_write(path, ["old\n"])

        def chunks():
            yield "new\n"
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError):
            atomic_write(path, chunks())
        assert read_bytes(path) == b"old\n"
        assert os.listdir(tmp_path) == ["out.csv"]


class TestSampleAndFit:
    def test_sample_row_count_and_rerun_identical(self, sat_config, tmp_path):
        out1 = str(tmp_path / "s1.csv")
        out2 = str(tmp_path / "s2.csv")
        assert cmd_sample_tau(sat_config, out1) == EXIT_OK
        assert cmd_sample_tau(sat_config, out2) == EXIT_OK
        rows = [
            line
            for line in open(out1).read().splitlines()
            if line and not line.startswith("#") and not line.startswith("radius")
        ]
        assert len(rows) == 9  # 3 radii x 3 samples, censored rows kept with flag
        assert read_bytes(out1) == read_bytes(out2)

    def test_fit_round_trip_and_determinism(self, sat_config, tmp_path):
        # near-boundary radii trigger again within the short max_wait
        samples = str(tmp_path / "samples.csv")
        assert cmd_sample_tau(sat_config, samples, grid="1.65,2.3,2.35", n=4) == EXIT_OK
        m1 = str(tmp_path / "m1.json")
        m2 = str(tmp_path / "m2.json")
        assert cmd_fit_tau(samples, m1) == EXIT_OK
        assert cmd_fit_tau(samples, m2) == EXIT_OK
        assert read_bytes(m1) == read_bytes(m2)
        doc = json.load(open(m1))
        assert doc["basis"] == "piecewise-linear"
        assert len(doc["knots"]) == len(doc["coefficients"])

    def test_fit_two_level_synthetic_reproduces_slope(self, tmp_path):
        samples = tmp_path / "synthetic.csv"
        samples.write_text(
            "# etsafe inter-event samples\n"
            "# seed=0 n_per_radius=2 max_wait=100.0\n"
            "radius,h,inter_event_time,censored\n"
            "2.4,0.0,1.0,0\n"
            "2.4,0.0,1.0,0\n"
            "2.0,0.16,9.0,0\n"
            "2.0,0.16,9.0,0\n"
        )
        out = str(tmp_path / "model.json")
        assert cmd_fit_tau(str(samples), out) == EXIT_OK
        doc = json.load(open(out))
        slope = (doc["coefficients"][1] - doc["coefficients"][0]) / (
            doc["knots"][1] - doc["knots"][0]
        )
        assert slope == pytest.approx(50.0)

    def test_fit_error_exit_3(self, tmp_path):
        samples = tmp_path / "one_level.csv"
        samples.write_text(
            "radius,h,inter_event_time,censored\n2.0,0.16,9.0,0\n2.0,0.16,8.0,0\n"
        )
        assert cmd_fit_tau(str(samples), str(tmp_path / "m.json")) == EXIT_RUN

    def test_sample_tau_rejects_planar(self, planar_config, tmp_path):
        assert cmd_sample_tau(planar_config, str(tmp_path / "s.csv")) == EXIT_CONFIG


class TestCompare:
    def test_compare_report_fields(self, sat_config, tmp_path):
        samples = str(tmp_path / "samples.csv")
        model = str(tmp_path / "model.json")
        assert cmd_sample_tau(sat_config, samples, grid="1.65,2.3,2.35", n=4) == EXIT_OK
        assert cmd_fit_tau(samples, model) == EXIT_OK
        out = str(tmp_path / "cmp")
        assert cmd_compare(sat_config, model, out, horizon=120.0) == EXIT_OK
        doc = json.load(open(os.path.join(out, "comparison.json")))
        assert os.path.exists(os.path.join(out, "greedy", "summary.json"))
        assert os.path.exists(os.path.join(out, "maneuver", "summary.json"))
        if doc["greedy_jump_count"] > 0:
            expected = 1.0 - doc["maneuver_jump_count"] / doc["greedy_jump_count"]
            assert doc["reduction"] == pytest.approx(expected, rel=1e-12)
        else:
            assert doc["reduction"] is None

    def test_constant_model_gives_equal_counts(self, sat_config, tmp_path):
        model = tmp_path / "flat.json"
        model.write_text(
            json.dumps(
                {
                    "basis": "piecewise-linear",
                    "knots": [0.0, 0.16],
                    "coefficients": [10.0, 10.0],
                    "h_min": 0.0,
                    "h_max": 0.16,
                    "residual": 0.0,
                    "statistic": "median",
                }
            )
        )
        out = str(tmp_path / "cmp")
        assert cmd_compare(sat_config, str(model), out, horizon=150.0) == EXIT_OK
        doc = json.load(open(os.path.join(out, "comparison.json")))
        assert doc["greedy_jump_count"] == doc["maneuver_jump_count"]


class TestMainEntry:
    def test_main_dispatches(self, sat_config, tmp_path):
        assert main(["validate-config", "--config", sat_config]) == EXIT_OK
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", sat_config, "--out", out]) == EXIT_OK

    def test_log_level_env(self, sat_config, monkeypatch):
        monkeypatch.setenv("ETSAFE_LOG_LEVEL", "debug")
        assert main(["validate-config", "--config", sat_config]) == EXIT_OK
