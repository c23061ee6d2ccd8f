"""etsafe benchmark: real CLI runs, timed from outside, one process at a time.

    python3 perfbench/run.py --workload compare|campaign|planar --seed N \
        --seconds S --trace 0|1

Run from the repository root (stdlib only; the children need numpy).  Each
workload invocation is a fresh ``python3 -m etsafe.cli`` process with
``PYTHONPATH=src`` and ``ETSAFE_LOG_LEVEL=error``; the next starts when the
previous one has exited (closed loop, one client).  Outputs go to
``.perfbench_tmp/`` and are deleted after each invocation; a record of every
run (metrics, work counts, gate verdicts, provenance, and for traced runs the
spans) is kept in ``.perfbench_results/``.

``--trace 0`` reports the end-to-end metrics, medians over the invocations of
the run:

* ``wall_s``: spawn of the CLI process to its exit (sum of both processes
  for ``campaign``).
* ``setup_s``: a fresh interpreter importing etsafe, parsing the workload's
  config and building its scenario; median of ``SETUP_PROBES`` processes.
* ``steps_per_s``: RK4 steps (``compare``, ``planar``) or lane-steps
  (``campaign``) per second of the stepping process's wall time minus
  ``setup_s``; the stepping process is the first one, ``sample-tau`` for
  ``campaign``.
* ``peak_rss_mb``: peak resident memory of that invocation's own process,
  read with ``os.wait4`` on that child alone.

Before timing, one untimed setup probe warms the page cache and bytecode of
the import path; a full warm-up invocation (30 s for compare) would not fit
the run budget, and every invocation is a fresh process anyway.

``--trace 1`` makes pairs of one untraced and one traced in-process run
(``child.py run`` and ``child.py traced``; campaign runs both of its commands
in that one process), back to back until the next pair would overrun.  It
reports the per-layer metrics of ``layers.py`` from the first traced run,
the tracing overhead (median traced over median untraced wall, minus one) and
the uncovered time (traced wall minus the import and the self times of the
functions the layer table names).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts invocations
that failed the correctness gate of ``workloads.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, cli_seed, commands, digests, gate, inspect_outputs, observed  # noqa: E402

RUN_SECONDS = 25
SETUP_PROBES = 9
PROCESS_TIMEOUT_S = 170.0
MAX_INVOCATIONS = 500
# bound: share of the parent's median a metric may worsen by.  wall_s and
# steps_per_s vary with the seed's inputs: campaign runs 85k-120k batch
# iterations depending on whether a lane is censored.
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run or its instrumentation is broken."""


class Runner:
    """Spawns etsafe processes from one checkout and keeps their scratch space."""

    def __init__(self, root: str):
        self.root = root
        self.tmp = os.path.join(root, ".perfbench_tmp", f"run-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["ETSAFE_LOG_LEVEL"] = "error"
        self._serial = itertools.count(1)

    def scratch(self, label: str) -> str:
        path = os.path.join(self.tmp, f"{next(self._serial):04d}-{label}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        parent = os.path.dirname(self.tmp)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    def spawn(self, argv: list[str], log_dir: str) -> tuple[float, float, int, str]:
        """Run one process to exit: (wall_s, peak_rss_mb, exit_code, stdout)."""
        out_path = os.path.join(log_dir, "stdout.txt")
        err_path = os.path.join(log_dir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(PROCESS_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"[perfbench] {' '.join(argv[1:4])} exited {proc.returncode}: {tail}", file=sys.stderr)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout

    def setup_probe(self, workload) -> tuple[float, int, str]:
        """(wall_s, exit code, numpy version) of one ``child.py setup``."""
        log_dir = self.scratch("setup")
        try:
            cfg = os.path.join(self.root, workload.config)
            argv = [sys.executable, os.path.join(HERE, "child.py"), "setup", self.root, cfg, workload.kind]
            wall, _, code, stdout = self.spawn(argv, log_dir)
        finally:
            shutil.rmtree(log_dir, ignore_errors=True)
        return wall, code, stdout.strip()


def invoke(runner: Runner, workload, seed: int, reference, child: str | None = None) -> dict:
    """One workload invocation, gated; its outputs are deleted afterwards.

    With ``child=None`` each command is its own ``python3 -m etsafe.cli``
    process; with ``child="run"`` or ``"traced"`` all of them run in one
    ``child.py`` process, untraced or traced.  With ``reference=None`` the
    run is gated against what it observed itself (exit codes, safety,
    censoring and consistency checks only); that is how ``make_reference.py``
    records new references.
    """
    out = runner.scratch(workload.name)
    try:
        argvs = commands(runner.root, workload, seed, out)
        walls, rsss, codes, stdout = [], [], [], ""
        trace_doc = None
        if child:
            argv_path = os.path.join(out, "argv.json")
            trace_path = os.path.join(out, "trace.json")
            with open(argv_path, "w", encoding="utf-8") as fh:
                json.dump(argvs, fh)
            cmd = [sys.executable, os.path.join(HERE, "child.py"), child, runner.root, trace_path, argv_path]
            wall, rss, code, stdout = runner.spawn(cmd, out)
            walls, rsss, codes = [wall], [rss], [code]
            if os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    trace_doc = json.load(fh)
        else:
            for argv in argvs:
                wall, rss, code, text = runner.spawn([sys.executable, "-m", "etsafe.cli", *argv], out)
                walls.append(wall)
                rsss.append(rss)
                codes.append(code)
                stdout += text
                if code != 0:
                    break
        record = {"wall_s": sum(walls), "walls_s": walls, "peak_rss_mb": max(rsss), "exit_codes": codes}
        try:
            counts, facts = inspect_outputs(runner.root, workload, out, stdout)
            record["observed"] = observed(counts, facts, digests(out, workload))
            problems = gate(workload, codes, counts, facts, reference or record["observed"])
            record["outputs_identical"] = reference is not None and (
                record["observed"]["digests"] == reference["digests"]
            )
        except (OSError, ValueError, KeyError, TypeError) as err:
            counts, problems = {}, [f"missing or unparseable output: {err!r}"] + [
                f"exit code {c}" for c in codes if c != 0
            ]
            record["outputs_identical"] = False
        record.update(counts=counts, problems=problems, trace=trace_doc)
        return record
    finally:
        shutil.rmtree(out, ignore_errors=True)


def work_units(workload, counts: dict) -> int:
    return counts.get("lane_steps" if workload.name == "campaign" else "steps", 0)


def measure(runner: Runner, workload, seed: int, reference: dict, seconds: float) -> tuple[dict, list, list]:
    """Closed loop: invocations back to back until the next would overrun."""
    setups = []
    for _ in range(SETUP_PROBES):
        wall, code, _ = runner.setup_probe(workload)
        if code != 0:
            raise BenchmarkError(f"setup probe exited {code}")
        setups.append(wall)
    setup_s = statistics.median(setups)

    records = []
    start = time.perf_counter()
    while len(records) < MAX_INVOCATIONS:
        rec = invoke(runner, workload, seed, reference)
        records.append(rec)
        elapsed = time.perf_counter() - start
        if elapsed + rec["wall_s"] > seconds:
            break

    passed = [r for r in records if not r["problems"]] or records
    rates = [work_units(workload, r["counts"]) / (r["walls_s"][0] - setup_s) for r in passed]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in passed),
        "setup_s": setup_s,
        "steps_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passed),
    }
    return metrics, records, setups


def measure_traced(runner: Runner, workload, seed: int, reference: dict, seconds: float) -> list:
    """Closed loop of (untraced, traced) in-process pairs."""
    pairs = []
    start = time.perf_counter()
    while len(pairs) < MAX_INVOCATIONS // 2:
        pair = (invoke(runner, workload, seed, reference, child="run"),
                invoke(runner, workload, seed, reference, child="traced"))
        pairs.append(pair)
        if time.perf_counter() - start + sum(r["wall_s"] for r in pair) > seconds:
            break
    first = pairs[0][0]["counts"]
    for rec in (r for pair in pairs for r in pair):
        if not rec["problems"] and rec["counts"] != first:
            rec["problems"].append("work counts differ between the untraced and traced runs")
    return pairs


def layer_metrics(workload, pairs: list) -> dict:
    """Per-layer values from the first traced run; raises BenchmarkError when
    a layer the table expects to be exercised recorded nothing."""
    untraced, traced = pairs[0]
    doc = traced["trace"]
    if doc is None:
        raise BenchmarkError("traced run wrote no trace")
    stats = doc["stats"]
    ctr = doc["counters"]
    counts = untraced["counts"]

    def stat(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    named = set()  # the wrapped functions the table names
    for m in LAYER_METRICS:
        stem, _, field = m.name.rpartition(".")
        if field in ("calls", "self_s", "total_s"):
            values[m.name] = stat(stem, field)
            named.add(stem)

    lane_steps = counts.get("lane_steps", 0)
    batch_iterations = counts.get("batch_iterations", 0)
    trajectory_bytes = ctr.get("trajectory_bytes", 0)
    layer_self_s = sum(s["self_s"] for name, s in stats.items() if name in named)
    values.update(
        {
            "numerics.bisection_evals": ctr.get("bisection_evals", 0),
            "numerics.evals_per_crossing": ratio(ctr.get("bisection_evals", 0), ctr.get("crossings", 0)),
            "numerics.degraded_crossings": ctr.get("degraded_crossings", 0),
            "numerics.steps": counts.get("steps", 0),
            "orbital.infeasible": ctr.get("infeasible", 0),
            "safety_filter.active_frac": ratio(ctr.get("filter_active", 0), stat("safety_filter.project", "calls")),
            "inter_event.lane_steps": lane_steps,
            "inter_event.batch_iterations": batch_iterations,
            "inter_event.mean_batch_width": ratio(lane_steps, batch_iterations),
            "inter_event.lane_steps_per_s": ratio(
                lane_steps, stat("inter_event.collect_inter_event_samples", "total_s")
            ),
            "inter_event.censored_frac": ratio(counts.get("censored", 0), counts.get("samples", 0)),
            "etsafe.import_s": doc["import_s"],
            "cli.write_trajectory_csv.bytes": trajectory_bytes,
            "cli.write_mb_per_s": ratio(trajectory_bytes / 1e6, stat("cli.write_trajectory_csv", "total_s")),
            "cli.outputs_identical": 1 if untraced["outputs_identical"] and traced["outputs_identical"] else 0,
            "trace.overhead_frac": statistics.median(t["wall_s"] for _, t in pairs)
            / statistics.median(u["wall_s"] for u, _ in pairs)
            - 1.0,
            "trace.uncovered_s": traced["wall_s"] - doc["import_s"] - layer_self_s,
        }
    )
    for m in LAYER_METRICS:
        if m.name.startswith("engine.events."):
            values[m.name] = counts.get(m.name[len("engine."):], 0)
    missing = [m.name for m in LAYER_METRICS if m.name not in values]
    if missing:
        raise BenchmarkError(f"no value for layer metrics {missing}")
    silent = [m.name for m in LAYER_METRICS if workload.name in m.called_in and not values[m.name] > 0]
    if silent:
        raise BenchmarkError(f"layers recorded no work on {workload.name}: {silent}")
    return {m.name: values[m.name] for m in LAYER_METRICS}


def provenance(root: str, workload, bench_seed: int, seed: int, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"  # a checkout without .git has no commit to report
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload.name,
        "bench_seed": bench_seed,
        "cli_seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def check_program(root: str) -> None:
    needed = [os.path.join("src", "etsafe", "cli.py"), os.path.join("configs", "tau_model.json")]
    needed += sorted({w.config for w in WORKLOADS.values()})
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        raise BenchmarkError(f"program not found in {root}: missing {missing}")


def load_reference(workload, seed: int) -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    try:
        return table[workload.name][str(seed)]
    except KeyError:
        raise BenchmarkError(f"reference.json has no {workload.name} entry for seed {seed}") from None


def benchmark_json() -> dict:
    """The BENCHMARK.json this harness implements."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    workload = WORKLOADS[args.workload]
    seed = cli_seed(workload, args.seed)
    try:
        check_program(root)
        reference = load_reference(workload, seed)
    except BenchmarkError as err:
        print(f"[perfbench] {err}", file=sys.stderr)
        return 2

    runner = Runner(root)
    try:
        # untimed warm-up: page cache and bytecode for the import path
        _, code, numpy_version = runner.setup_probe(workload)
        if code != 0:
            raise BenchmarkError(f"warm-up setup probe exited {code}")
        if args.trace:
            pairs = measure_traced(runner, workload, seed, reference, args.seconds)
            records = [r for pair in pairs for r in pair]
            metrics = layer_metrics(workload, pairs)
            units = {m.name: m.unit for m in LAYER_METRICS}
            extra = {}
        else:
            metrics, records, setups = measure(runner, workload, seed, reference, args.seconds)
            units = {m["name"]: m["unit"] for m in END_TO_END}
            extra = {"setup_probes_s": setups}
    except BenchmarkError as err:
        print(f"[perfbench] {err}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    failed = sum(1 for r in records if r["problems"])
    for r in records:
        for problem in r["problems"]:
            print(f"[perfbench] FAILED {workload.name} seed {seed}: {problem}", file=sys.stderr)

    results_dir = os.path.join(root, ".perfbench_results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record_path = os.path.join(results_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    prov = provenance(root, workload, args.seed, seed, numpy_version)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "provenance": prov,
                "metrics": metrics,
                "invocations": records,
                **extra,
            },
            fh,
            indent=1,
        )

    print(f"workload={workload.name} seed={args.seed} (etsafe --seed {seed}) trace={args.trace} "
          f"invocations={len(records)} failed={failed} record={os.path.relpath(record_path, root)}")
    print(f"provenance: {json.dumps(prov)}")
    print(f"work counts: {json.dumps(records[0]['counts'], sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
