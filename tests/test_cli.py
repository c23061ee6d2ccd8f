"""CLI subcommand tests: exit codes, output schemas, determinism."""

import hashlib
import itertools
import json
import logging
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import etsafe.cli
import etsafe.inter_event
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
from etsafe.config import ConfigError
from etsafe.dynamics import DisturbanceModel
from etsafe.engine import AssumptionCheckError, RunAbortedError, RunResult, Trajectory
from etsafe.inter_event import FitError, LaneFailureError
from etsafe.numerics import IntegrationFailureError, SingularityError, _dot, _dot2, _fma, _fma_exact
from etsafe.safety_filter import InfeasibleFilterError

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


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
SHIPPED_MODEL = os.path.join(CONFIGS, "tau_model.json")
# the benchmark's reference outputs, read and never written here
BENCHMARK_REFERENCE = os.path.join(os.path.dirname(CONFIGS), "perfbench", "reference.json")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(etsafe.__file__)))
# the greedy arm's failures are injected by patching the parent before the
# worker is forked, so those tests need the fork start method
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="worker inherits the patch only under fork"
)


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

    @pytest.mark.parametrize(
        "old, new",
        [
            ("position = 2.2, 0.0, 0.0", "position = 2.2, abc, 0.0"),
            ("velocity = 0.0, 0.674199862463242, 0.0", "velocity = 0.0, 0.67.4, 0.0"),
            ("radius_grid = 1.9, 2.0, 2.1", "radius_grid = 1.9, abc"),
        ],
        ids=["position", "velocity", "radius_grid"],
    )
    def test_malformed_vector_is_config_error(self, tmp_path, caplog, old, new):
        path = tmp_path / "malformed.ini"
        path.write_text(SAT_SMALL.replace(old, new))
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
        assert "bad value for" in caplog.text

    @pytest.mark.parametrize(
        "grid, problem",
        [
            ("1.0, 2.0", "[tau] radius_grid must lie strictly inside (1.6, 2.4)"),
            ("", "[tau] radius_grid is empty"),
        ],
        ids=["outside_band", "empty"],
    )
    def test_radius_grid_rule_is_config_error(self, tmp_path, caplog, grid, problem):
        # the rule sample-tau applies to its grid holds for the key itself
        path = tmp_path / "grid.ini"
        path.write_text(SAT_SMALL.replace("radius_grid = 1.9, 2.0, 2.1", f"radius_grid = {grid}"))
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
        assert problem in caplog.text
        out = tmp_path / "s.csv"
        assert cmd_sample_tau(str(path), str(out)) == EXIT_CONFIG
        assert not out.exists()

    def test_zonal_planar_is_config_error(self, tmp_path, caplog):
        assert_zonal_rejected(tmp_path, caplog, PLANAR_SMALL, ["validate-config"])

    def test_zonal_satellite_is_config_error(self, tmp_path, caplog):
        assert_zonal_rejected(tmp_path, caplog, SAT_SMALL, ["validate-config"])


def assert_zonal_rejected(tmp_path, caplog, text, command):
    """``command`` on ``text`` with the deleted zonal-j2-like kind exits 2
    with one ERROR line naming the kind, and writes nothing."""
    path = tmp_path / "zonal.ini"
    path.write_text(text.replace("seeded-piecewise-constant", "zonal-j2-like"))
    out = tmp_path / "out"
    argv = command + ["--config", str(path)]
    if command == ["simulate"]:
        argv += ["--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1
    assert "[disturbance] unknown kind 'zonal-j2-like'" in errors[0].getMessage()
    assert not out.exists()


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

    def test_zonal_planar_exits_2_and_writes_nothing(self, tmp_path, caplog):
        assert_zonal_rejected(tmp_path, caplog, PLANAR_SMALL, ["simulate"])

    def test_zonal_satellite_exits_2_and_writes_nothing(self, tmp_path, caplog):
        assert_zonal_rejected(tmp_path, caplog, SAT_SMALL, ["simulate"])

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

    @pytest.mark.parametrize(
        "flag", [["--basis", "polynomial"], ["--statistic", "mean"], ["--degree", "-1"]]
    )
    def test_fit_options_are_gone(self, tmp_path, flag):
        # the model is always the piecewise-linear curve through the level medians
        samples = tmp_path / "two_levels.csv"
        samples.write_text(
            "radius,h,inter_event_time,censored\n2.4,0.0,1.0,0\n2.0,0.16,9.0,0\n"
        )
        out = tmp_path / "m.json"
        argv = ["fit-tau", "--samples", str(samples), "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == EXIT_CONFIG
        assert not out.exists()

    def test_sample_tau_rejects_planar(self, planar_config, tmp_path):
        assert cmd_sample_tau(planar_config, str(tmp_path / "s.csv")) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "grid, problem",
        [
            ("1.7,abc", "bad value for --grid"),
            (" , ", "radius_grid is empty"),
            ("", "radius_grid is empty"),
            ("1.0,2.0", "radius_grid must lie strictly inside"),
            ("nan", "bad value for --grid"),
        ],
        ids=["malformed", "empty", "empty_flag", "outside_band", "non_finite"],
    )
    def test_sample_tau_rejects_a_bad_grid(self, sat_config, tmp_path, caplog, grid, problem):
        out = tmp_path / "s.csv"
        assert main(["sample-tau", "--config", sat_config, "--out", str(out), "--grid", grid]) == EXIT_CONFIG
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and problem in errors[0].getMessage()
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, problem",
        [
            (["--n", "0"], "n_per_radius must be >= 1"),
            (["--max-wait", "0"], "max_wait must be > 0"),
            (["--max-wait", "-5"], "max_wait must be > 0"),
            (["--max-wait", "nan"], "max_wait must be > 0"),
            (["--max-wait", "inf"], "max_wait must be finite"),
        ],
        ids=["n_zero", "max_wait_zero", "max_wait_negative", "max_wait_nan", "max_wait_inf"],
    )
    def test_sample_tau_flags_obey_the_tau_rules(self, sat_config, tmp_path, caplog, flags, problem):
        out = tmp_path / "s.csv"
        argv = ["sample-tau", "--config", sat_config, "--out", str(out)]
        assert main(argv + flags) == EXIT_CONFIG
        assert problem in caplog.text
        assert not out.exists()

    def test_sample_tau_rejects_an_empty_config_grid(self, tmp_path):
        path = tmp_path / "empty_grid.ini"
        path.write_text(SAT_SMALL.replace("radius_grid = 1.9, 2.0, 2.1", "radius_grid ="))
        out = tmp_path / "s.csv"
        assert cmd_sample_tau(str(path), str(out)) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("tail_width", [0, 9], ids=["batch", "tail"])
    def test_non_finite_lane_exit_3(self, sat_config, tmp_path, monkeypatch, caplog, tail_width):
        # poison every held disturbance vector from hold interval 3 on, which
        # the 9 lanes reach mid-run: on the numpy batch alone (tail width 0),
        # and on the float tail, which takes all 9 at width 9
        monkeypatch.setattr(etsafe.inter_event, "_TAIL_WIDTH", tail_width)
        real = DisturbanceModel.held

        def poisoned(self, streams, k, count):
            held = real(self, streams, k, count)
            held[:, max(3 - k, 0):] = np.nan
            return held

        monkeypatch.setattr(DisturbanceModel, "held", poisoned)
        out = tmp_path / "s.csv"
        assert cmd_sample_tau(sat_config, str(out)) == EXIT_RUN
        assert not out.exists()
        assert "non-finite barrier margin" in caplog.text


class TestSampleTauShards:
    """sample-tau's lanes run in shards across worker processes; a failure in
    any of them exits 3, writes no file and leaves no process."""

    @pytest.fixture(autouse=True)
    def two_shards(self, monkeypatch):
        monkeypatch.setattr(etsafe.inter_event, "_shard_count", lambda n_lanes: 2)

    def test_two_shards_write_what_one_writes(self, sat_config, tmp_path, monkeypatch):
        # near-boundary radii fire within the wait
        sharded = tmp_path / "two.csv"
        assert cmd_sample_tau(sat_config, str(sharded), grid="1.65,2.3,2.35", n=4) == EXIT_OK
        monkeypatch.setattr(etsafe.inter_event, "_shard_count", lambda n_lanes: 1)
        single = tmp_path / "one.csv"
        assert cmd_sample_tau(sat_config, str(single), grid="1.65,2.3,2.35", n=4) == EXIT_OK
        assert read_bytes(sharded) == read_bytes(single)

    def test_non_finite_lane_in_a_worker_exit_3(self, sat_config, tmp_path, monkeypatch, caplog):
        # stream 2 is lane 1, in the worker's shard, and only there is it
        # poisoned, so the error must cross the process boundary
        here, real = os.getpid(), DisturbanceModel.held

        def poisoned(self, streams, k, count):
            held = real(self, streams, k, count)
            if os.getpid() != here:
                held[streams == 2, max(3 - k, 0):] = np.nan
            return held

        monkeypatch.setattr(DisturbanceModel, "held", poisoned)
        out = tmp_path / "s.csv"
        assert cmd_sample_tau(sat_config, str(out)) == EXIT_RUN
        assert not out.exists()
        assert "non-finite barrier margin in campaign stream 2 " in caplog.text
        assert multiprocessing.active_children() == []

    def test_worker_killed_mid_run_exit_3(self, sat_config, tmp_path, monkeypatch, caplog):
        here, refine = os.getpid(), etsafe.inter_event._refine_sample_crossing

        def killed_in_a_worker(*args):
            if os.getpid() != here:
                os.kill(os.getpid(), signal.SIGKILL)
            return refine(*args)

        monkeypatch.setattr(etsafe.inter_event, "_refine_sample_crossing", killed_in_a_worker)
        out = tmp_path / "s.csv"
        # the worker is killed at its first crossing
        assert cmd_sample_tau(sat_config, str(out), grid="1.65,2.3,2.35", n=4) == EXIT_RUN
        assert not out.exists()
        assert "campaign worker 1 exited with code -9" in caplog.text
        assert multiprocessing.active_children() == []


def test_sample_and_fit_regenerate_the_shipped_tau_files(tmp_path):
    # the shipped campaign, sharded as this host shards it
    samples, model = str(tmp_path / "tau_samples.csv"), str(tmp_path / "tau_model.json")
    assert cmd_sample_tau(os.path.join(CONFIGS, "greedy_satellite.ini"), samples, seed=3) == EXIT_OK
    assert cmd_fit_tau(samples, model) == EXIT_OK
    assert read_bytes(samples) == read_bytes(os.path.join(CONFIGS, "tau_samples.csv"))
    assert read_bytes(model) == read_bytes(SHIPPED_MODEL)


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


def assert_nothing_left(out, before):
    """A failed compare adds nothing under ``out`` and leaves no process."""
    assert sorted(os.listdir(out)) == before
    assert multiprocessing.active_children() == []


def sleeping_greedy_arm(*args, **kwargs):
    time.sleep(120.0)


def aborting_greedy_arm(scenario, x0, horizon):
    raise RunAbortedError("injected greedy abort", 4.5, x0)


def killed_greedy_arm(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


class TestCompareFailures:
    """A failed compare returns EXIT_RUN promptly and leaves no partial output:
    no greedy/, maneuver/, comparison.json, staging directory or temp file."""

    @pytest.fixture
    def out(self, tmp_path):
        path = tmp_path / "cmp"
        path.mkdir()
        (path / "previous.txt").write_text("kept\n")
        return str(path)

    @needs_fork
    def test_missing_tau_model_stops_the_running_worker(self, sat_config, out, tmp_path, monkeypatch):
        # the maneuver arm fails at once; the greedy worker, still asleep,
        # must be stopped rather than waited for
        monkeypatch.setattr(etsafe.cli, "run_greedy_impulsive", sleeping_greedy_arm)
        start = time.perf_counter()
        assert cmd_compare(sat_config, str(tmp_path / "missing.json"), out) == EXIT_RUN
        assert time.perf_counter() - start < 60.0
        assert_nothing_left(out, ["previous.txt"])

    def test_missing_tau_model_creates_no_out_dir(self, sat_config, tmp_path):
        out = str(tmp_path / "fresh")
        assert cmd_compare(sat_config, str(tmp_path / "missing.json"), out) == EXIT_RUN
        assert not os.path.exists(out)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_greedy_arm_abort(self, sat_config, out, monkeypatch, caplog):
        monkeypatch.setattr(etsafe.cli, "run_greedy_impulsive", aborting_greedy_arm)
        assert cmd_compare(sat_config, SHIPPED_MODEL, out, horizon=30.0) == EXIT_RUN
        assert_nothing_left(out, ["previous.txt"])
        # the worker's error crossed the process boundary intact
        assert "injected greedy abort (t=4.5)" in caplog.text

    @needs_fork
    def test_worker_killed_mid_run(self, sat_config, out, monkeypatch, caplog):
        monkeypatch.setattr(etsafe.cli, "run_greedy_impulsive", killed_greedy_arm)
        assert cmd_compare(sat_config, SHIPPED_MODEL, out, horizon=30.0) == EXIT_RUN
        assert_nothing_left(out, ["previous.txt"])
        assert "greedy worker exited with code -9" in caplog.text


def start_method_argv(method):
    """Interpreter arguments that run the etsafe CLI, under ``method`` unless
    it is None (the platform default)."""
    if method is None:
        return ["-m", "etsafe.cli"]
    script = (
        "import multiprocessing, sys\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "from etsafe.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    return ["-c", script]


needs_forkserver = pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="platform has no forkserver start method",
)


def descendants(pid):
    """Every process below ``pid`` (under forkserver the worker is a child of
    the fork server, not of compare)."""
    found, todo = [], [pid]
    while todo:
        parent = todo.pop()
        try:
            with open(f"/proc/{parent}/task/{parent}/children") as fh:
                children = [int(child) for child in fh.read().split()]
        except FileNotFoundError:
            children = []
        found += children
        todo += children
    return found


def process_gone(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="finds the worker through /proc",
)
@pytest.mark.parametrize("method", [None, pytest.param("forkserver", marks=needs_forkserver)])
def test_worker_exits_when_compare_is_killed(sat_config, tmp_path, method):
    # SIGKILL runs no cleanup in the parent; the worker must not go on with
    # its arm.  At this horizon the arm runs for well over a minute, so only
    # a worker that notices its parent's death is gone within the deadline.
    proc = subprocess.Popen(
        [sys.executable, *start_method_argv(method), "compare", "--config", sat_config,
         "--tau-model", SHIPPED_MODEL, "--out", str(tmp_path / "cmp"), "--horizon", "60000"],
        env=dict(os.environ, PYTHONPATH=SRC, ETSAFE_LOG_LEVEL="error"),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = set()
    try:
        # wait until the set of processes below compare has settled for 1 s
        deadline = time.monotonic() + 60.0
        last, since = set(), time.monotonic()
        while proc.poll() is None and time.monotonic() < deadline:
            now = set(descendants(proc.pid))
            workers |= now
            if now != last or not now:
                last, since = now, time.monotonic()
            elif time.monotonic() - since > 1.0:
                break
            time.sleep(0.05)
        assert proc.poll() is None, "compare ended before it was killed"
        assert workers, "compare started no worker"
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 20.0
        while not all(map(process_gone, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert all(map(process_gone, workers))
    finally:
        proc.kill()
        for pid in workers:
            if not process_gone(pid):
                os.kill(pid, signal.SIGKILL)


def settled_descendants(proc):
    """The processes below ``proc`` once their set has not changed for 1 s
    (60 s at most)."""
    found = set()
    deadline = time.monotonic() + 60.0
    last, since = set(), time.monotonic()
    while proc.poll() is None and time.monotonic() < deadline:
        now = set(descendants(proc.pid))
        found |= now
        if now != last or not now:
            last, since = now, time.monotonic()
        elif time.monotonic() - since > 1.0:
            break
        time.sleep(0.05)
    return found


needs_two_cpus = pytest.mark.skipif(
    etsafe.inter_event._usable_cpus() < 2, reason="sample-tau forks no worker on one CPU"
)


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="finds the worker through /proc",
)
@needs_two_cpus
@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_no_worker_outlives_a_signalled_sample_tau(sat_config, tmp_path, sig):
    # 90 lanes make two shards, and at this wait the 2.0 lanes of both run
    # for minutes.  SIGKILL runs no cleanup, so the worker must notice its
    # parent's death; SIGTERM is an interrupt, which kills the worker
    out = tmp_path / "s.csv"
    proc = subprocess.Popen(
        [sys.executable, "-m", "etsafe.cli", "sample-tau", "--config", sat_config,
         "--out", str(out), "--n", "30", "--max-wait", "100000"],
        env=dict(os.environ, PYTHONPATH=SRC, ETSAFE_LOG_LEVEL="error"),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = set()
    try:
        workers = settled_descendants(proc)
        assert proc.poll() is None, "sample-tau ended before it was signalled"
        assert workers, "sample-tau started no worker"
        proc.send_signal(sig)
        code = proc.wait(timeout=30)
        assert code == (-signal.SIGKILL if sig == signal.SIGKILL else EXIT_RUN)
        deadline = time.monotonic() + 20.0
        while not all(map(process_gone, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert all(map(process_gone, workers))
        assert os.listdir(tmp_path) == ["sat.ini"]
    finally:
        proc.kill()
        proc.wait()
        for pid in workers:
            if not process_gone(pid):
                os.kill(pid, signal.SIGKILL)


def test_sigterm_removes_staging_directories(sat_config, tmp_path):
    # main() turns SIGTERM into KeyboardInterrupt, so compare's cleanup runs
    out = tmp_path / "cmp"
    out.mkdir()
    (out / "previous.txt").write_text("kept\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "etsafe.cli", "compare", "--config", sat_config,
         "--tau-model", SHIPPED_MODEL, "--out", str(out), "--horizon", "60000"],
        env=dict(os.environ, PYTHONPATH=SRC, ETSAFE_LOG_LEVEL="error"),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60.0
        staged = False
        while not staged and proc.poll() is None and time.monotonic() < deadline:
            names = os.listdir(out)
            staged = all(any(n.startswith(f".{arm}-") for n in names) for arm in ("greedy", "maneuver"))
            time.sleep(0.02)
        assert staged, "compare made no staging directories"
        assert proc.poll() is None, "compare ended before it was signalled"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == EXIT_RUN
    finally:
        proc.kill()
        proc.wait()
    assert sorted(os.listdir(out)) == ["previous.txt"]


class TestCompareMatchesSimulate:
    """compare's arms write exactly what simulate writes for each scheme."""

    SEED, HORIZON = 4, 150.0

    @pytest.fixture(scope="class")
    def simulated(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("simulate")
        outs = {}
        for arm in ("greedy", "maneuver"):
            outs[arm] = str(base / arm)
            config = os.path.join(CONFIGS, f"{arm}_satellite.ini")
            assert cmd_simulate(config, outs[arm], self.SEED, self.HORIZON) == EXIT_OK
        return outs

    def assert_arms_match(self, out, simulated):
        assert sorted(os.listdir(out)) == ["comparison.json", "greedy", "maneuver"]
        for arm, sim_out in simulated.items():
            names = sorted(os.listdir(os.path.join(out, arm)))
            assert names == ["events.csv", "summary.json", "trajectory.csv"]
            for name in names:
                assert read_bytes(os.path.join(out, arm, name)) == read_bytes(
                    os.path.join(sim_out, name)
                ), f"{arm}/{name} differs from simulate"

    def test_in_process(self, simulated, tmp_path):
        out = str(tmp_path / "cmp")
        config = os.path.join(CONFIGS, "maneuver_satellite.ini")
        assert cmd_compare(config, SHIPPED_MODEL, out, self.SEED, self.HORIZON) == EXIT_OK
        self.assert_arms_match(out, simulated)

    def run_cli(self, method, out):
        config = os.path.join(CONFIGS, "greedy_satellite.ini")
        proc = subprocess.run(
            [sys.executable, *start_method_argv(method), "compare", "--config", config,
             "--tau-model", SHIPPED_MODEL, "--out", out,
             "--seed", str(self.SEED), "--horizon", repr(self.HORIZON)],
            env=dict(os.environ, PYTHONPATH=SRC, ETSAFE_LOG_LEVEL="error"),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == EXIT_OK, proc.stderr

    def test_cli_entry_point(self, simulated, tmp_path):
        out = str(tmp_path / "cmp")
        self.run_cli(None, out)
        self.assert_arms_match(out, simulated)

    def test_spawn_start_method(self, simulated, tmp_path):
        # the worker gets only picklable arguments, so a worker that starts
        # from a fresh interpreter writes the same files
        out = str(tmp_path / "cmp")
        self.run_cli("spawn", out)
        self.assert_arms_match(out, simulated)

    @needs_forkserver
    def test_forkserver_start_method(self, simulated, tmp_path):
        # under forkserver the worker's OS parent is the fork server, not
        # compare; the worker must still run its arm to the end
        out = str(tmp_path / "cmp")
        self.run_cli("forkserver", out)
        self.assert_arms_match(out, simulated)


# SHA-256 of every output of two short shipped runs, so drift anywhere in the
# scalar stack fails here and not only in the benchmark.  The planar pins were
# recorded before the RK4 stages moved to Python floats; the satellite runs'
# margin columns and keys were recorded again when the band's margin became
# its closed form (their event times, states and h did not move).  Horizon 1250 takes in the first safety
# jump (t = 904.3) and the maneuver arm's first timing jump (t = 1203.4), so
# the located crossings are pinned too; the planar run has 41 filter events.
OUTPUT_DIGESTS = {
    "compare": {
        "comparison.json": "815f7b1c4fda512a2e500c93aeea1c4428ee03e82969eaeded9f9db3ba81bb27",
        "greedy/events.csv": "910343dcbb60ae680b6ff4e04099e2d2ce9b85d6f1aea23c3a9f1ac70622c9f8",
        "greedy/summary.json": "947ef1b29574fb125805ef335406e9306b5d2944281d04a1fa4a2800ee5fbe9e",
        "greedy/trajectory.csv": "77129b9801828abef952d3b5a3f71600e9a93bcbfbb525ea5791eb5446a12abf",
        "maneuver/events.csv": "bac107242bb48fa4f27a0a8f43954e418171bd2f2d891492d1861266708aaf1e",
        "maneuver/summary.json": "f68c0476c97715a6b588f6ce583a3cad1e5a32261286116648f978e1fa2c88a4",
        "maneuver/trajectory.csv": "ca2dd0001ff39a52273a57686b48eecc6038ed90f99025c207fe63c1c27c862d",
    },
    "planar": {
        "events.csv": "fae5bb4d3e9adcdd57512a25f53134de1e9f0d5a35b63402d27f9b6ff446f442",
        "summary.json": "b673895029260c6ad4f0f49fda3d5748bba88bc85f90d62c48ca9b89c6a24d4d",
        "trajectory.csv": "b712b310a1e890980e67ea491b731dc29b4883040e24fbc47e22d15f47e2bf2b",
    },
}


def output_digests(out):
    """SHA-256 of every file under ``out``, keyed by its relative path."""
    return {
        os.path.relpath(os.path.join(root, name), out):
            hashlib.sha256(read_bytes(os.path.join(root, name))).hexdigest()
        for root, _, names in os.walk(out)
        for name in names
    }


class TestOutputDigests:
    def test_compare(self, tmp_path):
        out = str(tmp_path / "cmp")
        config = os.path.join(CONFIGS, "greedy_satellite.ini")
        assert cmd_compare(config, SHIPPED_MODEL, out, horizon=1250.0) == EXIT_OK
        assert output_digests(out) == OUTPUT_DIGESTS["compare"]

    def test_planar_simulate(self, tmp_path):
        out = str(tmp_path / "planar")
        config = os.path.join(CONFIGS, "planar_intermittent.ini")
        assert cmd_simulate(config, out, horizon=20.0) == EXIT_OK
        assert output_digests(out) == OUTPUT_DIGESTS["planar"]

    # two of the benchmark's planar seeds, run to the shipped horizon: the
    # fused planar steps take every step there, the filter on and off
    @pytest.mark.parametrize("seed", [5, 13])
    def test_planar_simulate_at_benchmark_seed(self, tmp_path, seed):
        with open(BENCHMARK_REFERENCE, encoding="utf-8") as fh:
            pinned = json.load(fh)["planar"][str(seed)]["digests"]
        out = str(tmp_path / "planar")
        config = os.path.join(CONFIGS, "planar_intermittent.ini")
        assert cmd_simulate(config, out, seed=seed) == EXIT_OK
        assert output_digests(out) == pinned


def fma(a, b, c):
    """``a * b + c`` rounded once, computed exactly."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def fma_chain(a, b):
    """The dot product of ``a`` and ``b`` as ``fma`` steps from +0.0, plus
    +0.0: the reference for :func:`etsafe.numerics._dot`."""
    s = 0.0
    for x, y in zip(a, b):
        s = fma(x, y, s)
    return s + 0.0


def dots(p, q):
    """The dot of ``p`` and ``q`` from each helper that takes the pair:
    ``_dot``, and ``_dot2`` on named floats where the pair has two elements."""
    return [_dot(p, q)] + ([_dot2(*p, *q)] if len(p) == 2 else [])


def random_vectors(rng, n, dim, lo, hi):
    """``n`` pairs of ``dim``-vectors, each pair's two scaled by magnitudes
    drawn log-uniformly from [10**lo, 10**hi]."""
    scale = lambda: 10.0 ** rng.uniform(lo, hi, size=(n, 1))
    return (rng.normal(size=(n, dim)) * scale()).tolist(), (rng.normal(size=(n, dim)) * scale()).tolist()


class TestDigestPlatform:
    def test_three_element_dot_is_an_fma_chain(self):
        # the band's h takes the 3-element ndarray.dot pos . pos, so the bytes
        # of the satellite outputs rest on how the BLAS library rounds it;
        # the margins take plain products, and the planar loop its dots with
        # _dot, on floats
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3000, 3)) * 10.0 ** rng.integers(-3, 4, size=(3000, 1))
        b = rng.normal(size=(3000, 3))
        chains = [fma(p[2], q[2], fma(p[1], q[1], p[0] * q[0])) for p, q in zip(a.tolist(), b.tolist())]
        dots = [p.dot(q) for p, q in zip(a, b)]
        mismatched = sum(d != c for d, c in zip(dots, chains))
        assert mismatched == 0, (
            f"ndarray.dot of 3 floats differs from fma(a2, b2, fma(a1, b1, a0*b0)) "
            f"on {mismatched} of 3000 vectors: this BLAS rounds differently from the "
            "one the output digests were pinned on, so the satellite digests of "
            "TestOutputDigests and perfbench/reference.json do not apply on this "
            "host (the planar outputs take no BLAS product)"
        )
        # a plain left-to-right sum rounds differently on many of them
        plain = [(p[0] * q[0] + p[1] * q[1]) + p[2] * q[2] for p, q in zip(a.tolist(), b.tolist())]
        assert sum(d != s for d, s in zip(dots, plain)) > 100

    def test_stacked_matmul_is_ndarray_dot_row_by_row(self):
        # the band's h_rows takes each row's pos . pos as stacked
        # (K, 1, 3) @ (K, 3, 1) products, so its bytes rest on np.matmul
        # calling the same BLAS ddot for each row as ndarray.dot does
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3000, 6)) * 10.0 ** rng.integers(-3, 4, size=(3000, 1))
        pos = a[:, None, :3]
        stacked = np.matmul(pos, pos.transpose(0, 2, 1))[:, 0, 0]
        dots = np.array([x[:3].dot(x[:3]) for x in a])
        mismatched = int((stacked != dots).sum())
        assert mismatched == 0, (
            f"np.matmul of stacked 3-vectors differs from ndarray.dot on {mismatched} "
            "of 3000 rows: the trajectory's h column would not be the scalar h, "
            "so the satellite digests do not apply on this host"
        )

    def test_dot_helper_is_ndarray_dot_here(self):
        # where the premise above holds, _dot and _dot2 are ndarray.dot bit
        # for bit, so the planar loop kept its bytes when it moved to floats
        rng = np.random.default_rng(1)
        for dim in (2, 3, 6):
            a, b = random_vectors(rng, 3000, dim, -3, 3)
            for p, q in zip(a, b):
                ref = float(np.array(p).dot(np.array(q))).hex()
                assert [d.hex() for d in dots(p, q)] == [ref] * len(dots(p, q))
        for p, q in SIGNED_ZEROS + [OVERFLOW_RESCUED]:
            ref = float(np.array(p).dot(np.array(q))).hex()
            assert [d.hex() for d in dots(p, q)] == [ref] * len(dots(p, q))


# pairs whose dot is zero with factors of either sign: +0.0 every time
SIGNED_ZEROS = [
    ([-0.0, 0.0], [1.0, -1.0]),
    ([-0.0, -0.0], [1.0, 1.0]),
    ([-1.0, 0.0], [0.0, -0.0]),
    ([2.0, -2.0], [3.0, 3.0]),
    ([-0.0, -0.0, -0.0], [-0.0, 5.0, 0.0]),
]
# the second product overflows alone, but with the first its sum is 2**971
OVERFLOW_RESCUED = ([1.0, 2.0**600], [-sys.float_info.max, 2.0**424])


class TestFmaDot:
    """``_dot`` is the exact FMA chain from +0.0 (plus +0.0), checked
    against the same chain on exact rationals; ``_dot2`` is checked beside
    it on every two-element pair (see :func:`dots`)."""

    @staticmethod
    def assert_chain(p, q):
        ref = fma_chain(p, q).hex()
        found = [d.hex() for d in dots(p, q)]
        assert found == [ref] * len(found), (p, q)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_vectors_match_the_fraction_chain(self, dim):
        rng = np.random.default_rng(dim)
        a, b = random_vectors(rng, 5000, dim, -3, 3)
        for p, q in zip(a, b):
            self.assert_chain(p, q)

    def test_cancelling_sums_match_the_fraction_chain(self):
        # sums that cancel to their last bits, where one rounding too many shows
        rng = np.random.default_rng(7)
        a, b = random_vectors(rng, 3000, 2, -3, 3)
        for p, q in zip(a, b):
            q[1] = -p[0] * q[0] / p[1]
            self.assert_chain(p, q)

    def test_zero_sums_are_positive_zero(self):
        for p, q in SIGNED_ZEROS:
            assert [d.hex() for d in dots(p, q)] == [(0.0).hex()] * len(dots(p, q))
        assert _dot([], []).hex() == (0.0).hex()

    @pytest.mark.parametrize(
        "lo, hi",
        [(-165.0, -150.0), (299.0, 305.0)],
        ids=["subnormal-products", "factors-beyond-the-split"],
    )
    def test_fallback_ranges_match_the_fraction_chain(self, lo, hi):
        # tiny factors make subnormal or underflowing products; factors above
        # 2**995 would overflow the split, so the other factor is made small
        rng = np.random.default_rng(8)
        for dim in (2, 3):
            a, b = random_vectors(rng, 500, dim, lo, hi)
            if lo > 0.0:
                b = (np.array(b) * 1e-300 * 1e-304).tolist()
                assert min(abs(v) for q in b for v in q) > 0.0
            for p, q in zip(a, b):
                self.assert_chain(p, q)

    def test_signed_zero_and_tiny_grid_matches_the_fraction_chain(self):
        # every position takes signed zeros, subnormals, products below
        # 2**-960 and exact ones: _dot2 adds its first product, not the
        # chain's first step, so a zero's sign must not show
        values = [0.0, -0.0, 5e-324, -1e-310, 2.0**-500, -3e-170, 1.0, -1.5, 1e153]
        for p0, p1, q0, q1 in itertools.product(values, repeat=4):
            self.assert_chain([p0, p1], [q0, q1])

    def test_overflow(self):
        # the exact sum is finite although one product overflows alone
        assert dots(*OVERFLOW_RESCUED) == [2.0**971] * 2
        assert dots([1e308, 1.0], [1.0, 1e308]) == [math.inf] * 2
        assert dots([-1e308, 1e300], [1e10, 1e300]) == [-math.inf] * 2

    def test_every_branch_returns_a_python_float(self):
        # operands unpacked from an ndarray are numpy floats; each branch,
        # the zero addend's and the exact fallback's included, converts
        values = [0.0, -0.0, 5e-324, 2.0**-500, 1.5, -3e-170, 1e308, math.inf, math.nan]
        for x, y, s in itertools.product(values, repeat=3):
            for fma_step in (_fma, _fma_exact):
                with np.errstate(all="ignore"):
                    found = fma_step(np.float64(x), np.float64(y), np.float64(s))
                assert type(found) is float, (fma_step.__name__, x, y, s)
                assert found.hex() == fma_step(x, y, s).hex()

    def test_non_finite_factors_and_sums(self):
        inf, nan = math.inf, math.nan
        assert dots([inf, 1.0], [1.0, 2.0]) == [inf] * 2
        assert dots([1.0, inf], [1.0, -1.0]) == [-inf] * 2
        for p, q in (
            ([inf, 1.0], [0.0, 2.0]),
            ([inf, -inf], [1.0, 1.0]),
            ([nan, 1.0], [1.0, 1.0]),
            ([1.0, 2.0], [1.0, nan]),
        ):
            found = dots(p, q)
            assert len(found) == 2 and all(math.isnan(d) for d in found)


class TestDebugEventLog:
    def test_one_debug_line_per_event(self, tmp_path, caplog):
        out = str(tmp_path / "greedy")
        config = os.path.join(CONFIGS, "greedy_satellite.ini")
        with caplog.at_level(logging.DEBUG, logger="etsafe.engine"):
            assert cmd_simulate(config, out, horizon=1250.0) == EXIT_OK
        engine = [r for r in caplog.records if r.name == "etsafe.engine"]
        event_lines = [r for r in engine if r.getMessage().startswith("event ")]
        rows = read_bytes(os.path.join(out, "events.csv")).decode().splitlines()[1:]
        assert len(rows) >= 1
        assert len(event_lines) == len(rows)
        assert all(r.levelno == logging.DEBUG for r in event_lines)
        assert not any(r.levelno == logging.INFO for r in engine)
        pinned = {
            name[len("greedy/"):]: digest
            for name, digest in OUTPUT_DIGESTS["compare"].items()
            if name.startswith("greedy/")
        }
        assert output_digests(out) == pinned


class TestMainEntry:
    def test_main_dispatches(self, sat_config, tmp_path):
        assert main(["validate-config", "--config", sat_config]) == EXIT_OK
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", sat_config, "--out", out]) == EXIT_OK

    def test_log_level_env(self, sat_config, monkeypatch):
        monkeypatch.setenv("ETSAFE_LOG_LEVEL", "debug")
        assert main(["validate-config", "--config", sat_config]) == EXIT_OK


# every failure class a command can meet, with the exit code it must give
FAILURES = {
    "ConfigError": (lambda: ConfigError("injected"), EXIT_CONFIG),
    "AssumptionCheckError": (lambda: AssumptionCheckError("injected"), EXIT_CONFIG),
    "RunAbortedError": (lambda: RunAbortedError("injected", 1.0, np.zeros(6)), EXIT_RUN),
    "IntegrationFailureError": (lambda: IntegrationFailureError(1.0, np.zeros(6)), EXIT_RUN),
    "LaneFailureError": (lambda: LaneFailureError(1.0, np.zeros(6), 4), EXIT_RUN),
    "SingularityError": (lambda: SingularityError("injected"), EXIT_RUN),
    "InfeasibleFilterError": (lambda: InfeasibleFilterError("injected"), EXIT_RUN),
    "FitError": (lambda: FitError("injected"), EXIT_RUN),
    "OSError": (lambda: OSError("injected"), EXIT_RUN),
    "ChildProcessError": (lambda: ChildProcessError("injected"), EXIT_RUN),
    "ValueError": (lambda: ValueError("injected"), EXIT_RUN),
    "KeyboardInterrupt": (KeyboardInterrupt, EXIT_RUN),
}

# the step of each subcommand the failure is injected into
INJECTED_STEP = {
    "validate-config": "parse_config",
    "simulate": "_execute",
    "sample-tau": "collect_inter_event_samples",
    "fit-tau": "fit_inter_event_model",
    "compare": "_run_arms",
}


class TestExitPolicy:
    """One failure policy for every subcommand: exit 2 or 3, one ERROR line,
    no traceback, nothing written."""

    def argv(self, command, sat_config, tmp_path):
        out = str(tmp_path / "out")
        if command == "validate-config":
            return [command, "--config", sat_config]
        if command == "fit-tau":
            samples = tmp_path / "samples.csv"
            samples.write_text("radius,h,inter_event_time,censored\n2.4,0.0,1.0,0\n2.0,0.16,9.0,0\n")
            return [command, "--samples", str(samples), "--out", out]
        if command == "compare":
            return [command, "--config", sat_config, "--tau-model", SHIPPED_MODEL, "--out", out]
        return [command, "--config", sat_config, "--out", out]

    @pytest.mark.parametrize("failure", list(FAILURES))
    @pytest.mark.parametrize("command", list(INJECTED_STEP))
    def test_injected_failure(self, sat_config, tmp_path, monkeypatch, caplog, capsys, command, failure):
        make, code = FAILURES[failure]

        def fail(*args, **kwargs):
            raise make()

        monkeypatch.setattr(etsafe.cli, INJECTED_STEP[command], fail)
        assert main(self.argv(command, sat_config, tmp_path)) == code
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert multiprocessing.active_children() == []


class TestNonFiniteInput:
    """A non-finite number is rejected where it enters, with exit 2, before a
    run starts (the config's own rules are in test_config's verdict table)."""

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_nan_velocity(self, tmp_path, caplog, command):
        path = tmp_path / "nan.ini"
        path.write_text(SAT_SMALL.replace("velocity = 0.0, 0.674199862463242, 0.0", "velocity = 0.0, nan, 0.0"))
        out = tmp_path / "out"
        argv = [command, "--config", str(path), "--out", str(out)]
        if command == "compare":
            argv += ["--tau-model", SHIPPED_MODEL]
        assert main(argv) == EXIT_CONFIG
        assert "bad value for [initial] velocity: '0.0, nan, 0.0'" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_infinite_horizon_flag(self, sat_config, tmp_path, caplog, command):
        out = tmp_path / "out"
        argv = [command, "--config", sat_config, "--out", str(out), "--horizon", "inf"]
        if command == "compare":
            argv += ["--tau-model", SHIPPED_MODEL]
        assert main(argv) == EXIT_CONFIG
        assert "--horizon must be finite" in caplog.text
        assert not out.exists()

    def test_infinite_gamma(self, tmp_path, caplog):
        # the planar loop once toggled its filter forever at a gamma of inf
        path = tmp_path / "planar.ini"
        with open(os.path.join(CONFIGS, "planar_intermittent.ini")) as fh:
            path.write_text(fh.read().replace("gamma = 2.0", "gamma = inf"))
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(path), "--out", str(out), "--horizon", "5"]
        assert main(argv) == EXIT_CONFIG
        assert "[barrier] gamma must be finite" in caplog.text
        assert not out.exists()


class TestTauModelWithoutKnots:
    """A τ model that lacks a key fails the run with exit 3, naming the key."""

    @pytest.fixture
    def model(self, tmp_path):
        doc = json.load(open(SHIPPED_MODEL))
        del doc["knots"]
        path = tmp_path / "no_knots.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_simulate(self, tmp_path, caplog, model):
        path = tmp_path / "maneuver.ini"
        path.write_text(
            SAT_SMALL.replace("trigger_scheme = greedy", "trigger_scheme = maneuver")
            .replace("[tau]", f"[tau]\nmodel_path = {model}")
        )
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_RUN
        assert "has no 'knots' key" in caplog.text

    def test_compare(self, sat_config, tmp_path, caplog, model):
        out = tmp_path / "out"
        assert main(["compare", "--config", sat_config, "--tau-model", model, "--out", str(out)]) == EXIT_RUN
        assert "has no 'knots' key" in caplog.text
        assert not out.exists()


class TestMalformedTauModel:
    """A τ model that breaks a model rule fails the run with exit 3, naming
    the problem, before any step is taken."""

    CASES = {
        "not-an-object": (lambda doc: [1, 2], "is not a JSON object"),
        "length-mismatch": (
            lambda doc: {**doc, "coefficients": doc["coefficients"][:-1]}, "one coefficient per knot"
        ),
        "unknown-basis": (
            lambda doc: {**doc, "basis": "spline"}, "basis must be piecewise-linear, got 'spline'"
        ),
        "polynomial-basis": (
            lambda doc: {**doc, "basis": "polynomial", "coefficients": []},
            "basis must be piecewise-linear, got 'polynomial'",
        ),
        "reversed-knots": (
            lambda doc: {**doc, "knots": doc["knots"][::-1]}, "knots must be a non-empty, strictly increasing"
        ),
        "unknown-statistic": (
            lambda doc: {**doc, "statistic": "p10"}, "statistic must be median, got 'p10'"
        ),
        "mean-statistic": (lambda doc: {**doc, "statistic": "mean"}, "statistic must be median, got 'mean'"),
        "infinite-knot": (
            lambda doc: {**doc, "knots": doc["knots"][:-1] + [math.inf]}, "knots must be finite"
        ),
        "nan-coefficient": (
            lambda doc: {**doc, "coefficients": [math.nan] + doc["coefficients"][1:]},
            "coefficients must be finite",
        ),
        "nan-h-min": (lambda doc: {**doc, "h_min": math.nan}, "got nan and 0.16"),
        "inverted-range": (
            lambda doc: {**doc, "h_min": 1.0, "h_max": 0.0}, "h_min <= h_max must be finite, got 1.0 and 0.0"
        ),
    }

    @pytest.fixture(params=list(CASES))
    def model(self, request, tmp_path):
        make, problem = self.CASES[request.param]
        with open(SHIPPED_MODEL) as fh:
            doc = make(json.load(fh))
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(doc))
        return str(path), problem

    def test_simulate(self, tmp_path, caplog, model):
        path, problem = model
        config = tmp_path / "maneuver.ini"
        config.write_text(
            SAT_SMALL.replace("trigger_scheme = greedy", "trigger_scheme = maneuver")
            .replace("[tau]", f"[tau]\nmodel_path = {path}")
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_RUN
        assert f"tau model {path}" in caplog.text and problem in caplog.text
        assert "Traceback" not in caplog.text
        assert not out.exists()

    def test_compare(self, sat_config, tmp_path, caplog, model):
        path, problem = model
        out = tmp_path / "out"
        assert main(["compare", "--config", sat_config, "--tau-model", path, "--out", str(out)]) == EXIT_RUN
        assert f"tau model {path}" in caplog.text and problem in caplog.text
        assert not out.exists()
        assert multiprocessing.active_children() == []


class TestSeedFlag:
    """One seed rule, 0 <= seed < 2**64, for the --seed of every command that
    takes it and for [scenario] seed: exit 2, one ERROR line naming the
    source, nothing written."""

    def argv(self, command, config, out, seed):
        argv = [command, "--config", config, "--out", out, "--seed", seed]
        return argv + ["--tau-model", SHIPPED_MODEL] if command == "compare" else argv

    @pytest.mark.parametrize(
        "seed, problem", [("-1", "--seed must be >= 0"), ("18446744073709551616", "--seed must be < 2**64")]
    )
    @pytest.mark.parametrize("command", ["simulate", "compare", "sample-tau"])
    def test_flag_rejected(self, sat_config, tmp_path, caplog, capsys, command, seed, problem):
        out = tmp_path / "out"
        assert main(self.argv(command, sat_config, str(out), seed)) == EXIT_CONFIG
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and problem in errors[0].getMessage()
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare", "sample-tau"])
    def test_file_key_rejected(self, tmp_path, caplog, command):
        config = tmp_path / "big_seed.ini"
        config.write_text(SAT_SMALL.replace("seed = 1", "seed = 18446744073709551616"))
        out = tmp_path / "out"
        assert main(self.argv(command, str(config), str(out), "3")) == EXIT_CONFIG
        assert "[scenario] seed must be < 2**64" in caplog.text
        assert not out.exists()

    def test_largest_seed_runs(self, sat_config, tmp_path):
        out = tmp_path / "out"
        argv = self.argv("simulate", sat_config, str(out), str(2**64 - 1)) + ["--horizon", "5"]
        assert main(argv) == EXIT_OK
        assert sorted(os.listdir(out)) == ["events.csv", "summary.json", "trajectory.csv"]


class TestRadiusGridScale:
    """The default [tau] radius_grid is in units of [gravity] R."""

    def test_default_grid_follows_R(self, tmp_path):
        text = read_bytes(os.path.join(CONFIGS, "greedy_satellite.ini")).decode()
        text = text.replace("R = 1.0", "R = 3.0")
        text = "\n".join(line for line in text.splitlines() if not line.startswith("radius_grid"))
        path = tmp_path / "r3.ini"
        path.write_text(text)
        assert main(["validate-config", "--config", str(path)]) == EXIT_OK
        out = tmp_path / "s.csv"
        argv = ["sample-tau", "--config", str(path), "--out", str(out), "--n", "1", "--max-wait", "5"]
        assert main(argv) == EXIT_OK
        radii = np.loadtxt(out, delimiter=",", skiprows=3, usecols=0)
        assert len(radii) == 11 and np.all((radii > 4.8) & (radii < 7.2))
