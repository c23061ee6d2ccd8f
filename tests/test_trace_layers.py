"""The benchmark's tracer sees every layer it requires on a compare run
and on a planar run.

``perfbench/layers.py`` marks the layers that must record work on each
workload, and a traced benchmark run fails when one reads zero.  This runs
the tracer of ``perfbench/tracer.py`` (read, not changed) in a fresh process
on a short-horizon ``compare`` and ``simulate``, as the benchmark's traced
child does, so a loop that bypassed ``rk4_step``, the scalar margins or the
filter's reference path fails here first.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
HORIZON = 1250.0  # the maneuver arm jumps by safety, then by timing
PLANAR_HORIZON = 20.0  # 20 filter on/off cycles

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer as tracing
from layers import LAYER_METRICS
import etsafe.cli

tracer = tracing.Tracer()
tracing.install(tracer)
code = etsafe.cli.main(sys.argv[3:])
doc = tracer.document()
print(json.dumps({
    "code": code,
    "calls": {name: s["calls"] for name, s in doc["stats"].items()},
    "counters": doc["counters"],
    "required": [m.name for m in LAYER_METRICS if sys.argv[2] in m.called_in],
}))
"""


def traced(workload, argv):
    """The tracer's document of ``etsafe argv`` in a fresh process, with the
    layers ``workload`` requires."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), ETSAFE_LOG_LEVEL="error")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, PERFBENCH, workload, *argv],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["code"] == 0
    return doc


def events_and_rows(run_dir):
    """The (kind, trigger) of each event and the number of trajectory rows
    of a run."""
    with open(os.path.join(run_dir, "events.csv"), encoding="utf-8") as fh:
        events = [tuple(line.split(",")[1:3]) for line in fh.read().splitlines()[1:]]
    with open(os.path.join(run_dir, "trajectory.csv"), encoding="utf-8") as fh:
        rows = len(fh.read().splitlines()) - 1
    return events, rows


def assert_every_required_layer_worked(doc, events, rows):
    """Each layer the workload requires reads > 0, its calls from the
    tracer and its derived counts from the run's ``events`` and ``rows``."""
    calls, counters = doc["calls"], doc["counters"]
    values = {
        name: calls.get(name[: -len(".calls")], 0)
        for name in doc["required"]
        if name.endswith(".calls")
    }
    values.update(
        {
            "numerics.bisection_evals": counters.get("bisection_evals", 0),
            "numerics.evals_per_crossing": counters.get("bisection_evals", 0),
            "numerics.steps": rows,
            "cli.write_trajectory_csv.bytes": counters.get("trajectory_bytes", 0),
            "cli.write_mb_per_s": counters.get("trajectory_bytes", 0),
        }
    )
    values.update(
        {
            name: events.count(tuple(name.split(".")[2:]))
            for name in doc["required"]
            if name.startswith("engine.events.")
        }
    )
    unchecked = sorted(set(doc["required"]) - set(values))
    assert unchecked == [], f"layers this test does not read: {unchecked}"
    silent = sorted(name for name in doc["required"] if not values[name] > 0)
    assert silent == [], f"layers that recorded no work: {silent}"


def test_traced_compare_records_every_required_layer(tmp_path):
    out = tmp_path / "cmp"
    argv = [
        "compare",
        "--config", os.path.join(ROOT, "configs", "greedy_satellite.ini"),
        "--tau-model", os.path.join(ROOT, "configs", "tau_model.json"),
        "--out", str(out),
        "--seed", "1",
        "--horizon", str(HORIZON),
    ]
    doc = traced("compare", argv)

    # the tracer sees the calling process, which runs the maneuver arm
    events, rows = events_and_rows(out / "maneuver")
    assert_every_required_layer_worked(doc, events, rows)
    calls = doc["calls"]
    # every step goes through the traced rk4_step
    assert calls["numerics.rk4_step"] >= HORIZON / 0.05
    assert ("jump", "timing") in events


def test_traced_planar_records_every_required_layer(tmp_path):
    out = tmp_path / "planar"
    argv = [
        "simulate",
        "--config", os.path.join(ROOT, "configs", "planar_intermittent.ini"),
        "--out", str(out),
        "--horizon", str(PLANAR_HORIZON),
    ]
    doc = traced("planar", argv)

    events, rows = events_and_rows(out)
    assert_every_required_layer_worked(doc, events, rows)
    calls = doc["calls"]
    # every step goes through the traced rk4_step
    assert calls["numerics.rk4_step"] >= PLANAR_HORIZON / 0.01
    # the fused steps take the filter on floats; its reference path still
    # builds the in-step interpolant's ends, one constraint per projection
    assert calls["safety_filter.project"] == calls["safety_filter.build_constraint"]
    assert calls["dynamics.two_body_field"] == 0
