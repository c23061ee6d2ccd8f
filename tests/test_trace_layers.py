"""The benchmark's tracer sees every layer it requires on a compare run.

``perfbench/layers.py`` marks the layers that must record work on each
workload, and a traced benchmark run fails when one reads zero.  This runs
the tracer of ``perfbench/tracer.py`` (read, not changed) in a fresh process
on a short-horizon ``compare``, as the benchmark's traced child does, so a
loop that bypassed ``rk4_step`` or the scalar margins fails here first.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
HORIZON = 1250.0  # the maneuver arm jumps by safety, then by timing

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer as tracing
from layers import LAYER_METRICS
import etsafe.cli

tracer = tracing.Tracer()
tracing.install(tracer)
code = etsafe.cli.main(sys.argv[2:])
doc = tracer.document()
print(json.dumps({
    "code": code,
    "calls": {name: s["calls"] for name, s in doc["stats"].items()},
    "counters": doc["counters"],
    "required": [m.name for m in LAYER_METRICS if "compare" in m.called_in],
}))
"""


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
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), ETSAFE_LOG_LEVEL="error")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, PERFBENCH, *argv],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["code"] == 0

    # the tracer sees the calling process, which runs the maneuver arm
    with open(out / "maneuver" / "events.csv", encoding="utf-8") as fh:
        triggers = [line.split(",")[2] for line in fh.read().splitlines()[1:]]
    with open(out / "maneuver" / "trajectory.csv", encoding="utf-8") as fh:
        rows = len(fh.read().splitlines()) - 1
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
            "engine.events.jump.safety": triggers.count("safety"),
            "cli.write_trajectory_csv.bytes": counters.get("trajectory_bytes", 0),
            "cli.write_mb_per_s": counters.get("trajectory_bytes", 0),
        }
    )
    unchecked = sorted(set(doc["required"]) - set(values))
    assert unchecked == [], f"layers this test does not read: {unchecked}"
    silent = sorted(name for name in doc["required"] if not values[name] > 0)
    assert silent == [], f"layers that recorded no work: {silent}"
    # every step goes through the traced rk4_step
    assert calls["numerics.rk4_step"] >= HORIZON / 0.05
    assert "timing" in triggers
