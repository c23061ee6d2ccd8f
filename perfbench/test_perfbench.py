"""The benchmark's own checks (about 40 s): ``python3 -m pytest perfbench -q``.

Work counts must repeat exactly, the traced run must see every layer it
expects, BENCHMARK.json must match the harness, and the harness must refuse
to run where the program is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from layers import LAYER_METRICS, LAYER_NAMES  # noqa: E402
from workloads import EVENT_TIME_TOL, WORKLOADS, gate, inspect_outputs  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), ETSAFE_LOG_LEVEL="error")


def _cli_counts(workload, argvs, out):
    stdout = ""
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "etsafe.cli", *argv], env=ENV, capture_output=True, text=True, check=True
        )
        stdout += proc.stdout
    return inspect_outputs(ROOT, workload, out, stdout)[0]


def test_small_runs_repeat_their_counts(tmp_path):
    cfg = os.path.join(ROOT, "configs", "greedy_satellite.ini")
    model = os.path.join(ROOT, "configs", "tau_model.json")
    for i in range(2):
        out = str(tmp_path / f"cmp{i}")
        counts = _cli_counts(
            WORKLOADS["compare"],
            [["compare", "--config", cfg, "--tau-model", model, "--out", out, "--horizon", "200"]],
            out,
        )
        if i == 0:
            first = counts
    assert counts == first and counts["steps"] > 0

    for i in range(2):
        out = str(tmp_path / f"camp{i}")
        samples = os.path.join(out, "tau_samples.csv")
        os.makedirs(out)
        counts = _cli_counts(
            WORKLOADS["campaign"],
            [
                ["sample-tau", "--config", cfg, "--out", samples, "--grid", "1.68,2.33", "--n", "4", "--seed", "3", "--max-wait", "200"],
                ["fit-tau", "--samples", samples, "--out", os.path.join(out, "tau_model.json")],
            ],
            out,
        )
        if i == 0:
            first = counts
    assert counts == first and counts["lane_steps"] > 0 and counts["samples"] == 8


def test_planar_invocations_repeat_counts_and_pass_the_gate():
    runner = run.Runner(ROOT)
    try:
        workload = WORKLOADS["planar"]
        reference = run.load_reference(workload, workload.shipped_seed)
        a = run.invoke(runner, workload, workload.shipped_seed, reference)
        b = run.invoke(runner, workload, workload.shipped_seed, reference)
    finally:
        runner.close()
    assert a["problems"] == [] and b["problems"] == []
    assert a["counts"] == b["counts"] == reference["counts"]
    assert a["counts"]["events.filter_on.safety"] == 116
    assert a["outputs_identical"] and b["outputs_identical"]


def test_campaign_gate_checks_every_inter_event_time():
    workload = WORKLOADS["campaign"]
    reference = run.load_reference(workload, workload.shipped_seed)
    taus = list(reference["taus"])
    facts = {"stdout": "", "taus": taus}
    assert gate(workload, [0, 0], reference["counts"], facts, reference) == []
    taus[100] += EVENT_TIME_TOL / 10  # an ulp-level shift passes
    assert gate(workload, [0, 0], reference["counts"], facts, reference) == []
    taus[100] += 0.05  # one batch step (dt) late
    assert gate(workload, [0, 0], reference["counts"], facts, reference) != []


def test_campaign_seeds_keep_the_shipped_shape():
    workload = WORKLOADS["campaign"]
    shipped = run.load_reference(workload, workload.shipped_seed)["counts"]
    for seed in workload.seeds:
        counts = run.load_reference(workload, seed)["counts"]
        assert (counts["batch_iterations"], counts["censored"]) == (120000, 1), seed
        assert abs(counts["lane_steps"] / shipped["lane_steps"] - 1) < 0.003, seed


def test_traced_planar_run_reports_every_layer(capsys):
    assert run.main(["--workload", "planar", "--seed", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == LAYER_NAMES
    for m in LAYER_METRICS:
        if "planar" in m.called_in:
            assert metrics[m.name]["value"] > 0, m.name
    assert metrics["safety_filter.project.calls"]["value"] == metrics["safety_filter.build_constraint.calls"]["value"]
    assert metrics["dynamics.two_body_field.calls"]["value"] == 0


def test_tracer_rebinds_every_namespace_that_imported_by_name():
    script = (
        "import etsafe.cli, etsafe.engine as e, etsafe.numerics as n, etsafe.scenarios as s, "
        "etsafe.dynamics as d, etsafe.inter_event as ie, etsafe.orbital as o, tracer\n"
        "orig = n.propagate_until\n"
        "tracer.install(tracer.Tracer())\n"
        "assert e.propagate_until is n.propagate_until is not orig\n"
        "assert s.two_body_field is d.two_body_field is ie.two_body_field\n"
        "assert ie.locate_zero_crossing is n.locate_zero_crossing\n"
        "assert ie.station_keeping_impulse is o.station_keeping_impulse is e.station_keeping_impulse\n"
    )
    subprocess.run([sys.executable, "-c", script], env=dict(ENV, PYTHONPATH=f"{ENV['PYTHONPATH']}:{HERE}"), check=True)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == run.benchmark_json()
    assert len(set(LAYER_NAMES)) == len(LAYER_NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planar", "--seed", "0", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
