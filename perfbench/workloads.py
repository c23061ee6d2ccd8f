"""The three workloads: their CLI calls, work counts and correctness gate.

Every workload is one real ``etsafe`` CLI invocation (two for ``campaign``)
on a shipped config.  The benchmark seed ``n`` selects the CLI seed
``seeds[n % len(seeds)]`` of its workload, so seed 0 is the shipped run and
every seed has stored reference outputs in ``reference.json``.

Counts are derived from the written outputs only, so they repeat exactly:

* ``steps`` (compare, planar): trajectory rows minus the first row and minus
  the rows that repeat the previous timestamp (post-jump states and filter
  toggles), i.e. the RK4 steps the scalar stack took.
* ``lane_steps`` (campaign): sum of ceil(tau_i / dt) over the sample CSV,
  the batch-steps each sampled craft was propagated; ``batch_iterations`` is
  the largest of them and ``mean_batch_width`` their ratio.

The gate compares event times with the reference to ``EVENT_TIME_TOL``: the
``t`` of every (``kind``, ``trigger_id``) event for compare and planar, and
every sampled inter-event time tau_i, in sample order, for campaign.  Shifts
of a few ulps pass; a crossing fired a step early or late does not.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
from dataclasses import dataclass

# The campaign's CLI seeds are those of 3..18 at which the campaign does the
# shipped seed's work: one lane is censored, so the batch runs all
# max_wait / dt = 120,000 iterations, and the lane-steps agree within 0.3%
# (6.57M-6.59M).  At the other seeds the batch stops after 85k-116k
# iterations or takes 4-8% fewer lane-steps, and the wall time changes by up
# to a third with the seed, which would drown a regression of the bound's size.
CAMPAIGN_SEEDS = (3, 5, 14)
# |t - t_ref| allowed for an event time; crossings are located to 1e-9.
EVENT_TIME_TOL = 1e-6
MIN_H_TOL = 1e-9
CENSOR_LIMIT = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    kind: str
    seeds: tuple[int, ...]  # CLI seeds; the first is the shipped one
    why: str

    @property
    def shipped_seed(self) -> int:
        return self.seeds[0]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare",
            "configs/greedy_satellite.ini",
            "satellite",
            tuple(range(1, 17)),
            "paired greedy vs maneuver runs at horizon 6000: the scalar propagate_until stack and the trajectory writers",
        ),
        Workload(
            "campaign",
            "configs/greedy_satellite.ini",
            "satellite",
            CAMPAIGN_SEEDS,
            "sample-tau then fit-tau: batched numpy propagation over 605 lanes, bypassing propagate_until and the writers",
        ),
        Workload(
            "planar",
            "configs/planar_intermittent.ini",
            "planar",
            tuple(range(2, 18)),
            "intermittent filter run: the only user of safety_filter, event-dense (one crossing per ~44 steps)",
        ),
    )
}


def cli_seed(workload: Workload, bench_seed: int) -> int:
    return workload.seeds[bench_seed % len(workload.seeds)]


def commands(root: str, workload: Workload, seed: int, out: str) -> list[list[str]]:
    """Argument lists for ``etsafe`` (after the program name), run in order."""
    cfg = os.path.join(root, workload.config)
    if workload.name == "compare":
        model = os.path.join(root, "configs", "tau_model.json")
        return [["compare", "--config", cfg, "--tau-model", model, "--out", out, "--seed", str(seed)]]
    if workload.name == "campaign":
        samples = os.path.join(out, "tau_samples.csv")
        return [
            ["sample-tau", "--config", cfg, "--out", samples, "--seed", str(seed)],
            ["fit-tau", "--samples", samples, "--out", os.path.join(out, "tau_model.json")],
        ]
    return [["simulate", "--config", cfg, "--out", out, "--seed", str(seed)]]


def output_files(workload: Workload) -> list[str]:
    if workload.name == "compare":
        runs = [f"{run}/{f}" for run in ("greedy", "maneuver") for f in ("trajectory.csv", "events.csv", "summary.json")]
        return runs + ["comparison.json"]
    if workload.name == "campaign":
        return ["tau_samples.csv", "tau_model.json"]
    return ["trajectory.csv", "events.csv", "summary.json"]


def digests(out: str, workload: Workload) -> dict[str, str]:
    result = {}
    for rel in output_files(workload):
        with open(os.path.join(out, rel), "rb") as fh:
            result[rel] = hashlib.sha256(fh.read()).hexdigest()
    return result


def step_size(root: str, workload: Workload) -> float:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(os.path.join(root, workload.config))
    return float(parser["integrator"]["step_size"])


# --- Output readers; each raises ValueError on a malformed file ---


def read_events(path: str) -> list[tuple[float, str, str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "t,kind,trigger_id,h_before,h_after,xi_after,dv_mag":
        raise ValueError(f"{path}: bad header")
    events = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 7:
            raise ValueError(f"{path}: bad row {line!r}")
        for v in fields[3:6]:
            float(v)
        events.append((float(fields[0]), fields[1], fields[2]))
    return events


def read_trajectory(path: str) -> tuple[int, int, float]:
    """(rows, rows repeating the previous timestamp, min of the h column)."""
    rows = dups = 0
    min_h = math.inf
    prev_t = None
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[0] != "t" or "h" not in header:
            raise ValueError(f"{path}: bad header")
        h_col = header.index("h")
        width = len(header)
        for line in fh:
            fields = line.rstrip("\n").split(",")
            if len(fields) != width:
                raise ValueError(f"{path}: bad row {rows + 2}")
            values = [float(v) for v in fields]
            rows += 1
            if fields[0] == prev_t:
                dups += 1
            prev_t = fields[0]
            min_h = min(min_h, values[h_col])
    if rows == 0:
        raise ValueError(f"{path}: no rows")
    return rows, dups, min_h


def read_samples(path: str) -> list[tuple[float, bool]]:
    """(inter_event_time, censored) per sample row."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("radius,"):
                continue
            fields = line.rstrip("\n").split(",")
            if len(fields) != 4:
                raise ValueError(f"{path}: bad row {line!r}")
            float(fields[0])
            float(fields[1])
            rows.append((float(fields[2]), fields[3] == "1"))
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    return rows


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- Counts and the correctness gate ---


def inspect_outputs(root: str, workload: Workload, out: str, stdout: str) -> tuple[dict, dict]:
    """Read every output; return (counts, facts) for the gate and the metrics.

    Raises ValueError (or OSError) when an output is missing or unparseable.
    """
    counts: dict = {}
    facts: dict = {"stdout": stdout.strip()}
    if workload.name == "campaign":
        dt = step_size(root, workload)
        samples = read_samples(os.path.join(out, "tau_samples.csv"))
        per_lane = [math.ceil(tau / dt) for tau, _ in samples]
        counts["lane_steps"] = sum(per_lane)
        counts["batch_iterations"] = max(per_lane)
        counts["samples"] = len(samples)
        counts["censored"] = sum(1 for _, c in samples if c)
        facts["taus"] = [tau for tau, _ in samples]
        model = read_json(os.path.join(out, "tau_model.json"))
        knots = [float(k) for k in model["knots"]]
        coefficients = [float(c) for c in model["coefficients"]]
        if len(knots) < 2 or not all(math.isfinite(v) for v in knots + coefficients):
            raise ValueError("tau_model.json: fewer than 2 levels or non-finite values")
        counts["levels"] = len(knots)
        return counts, facts

    runs = ("greedy", "maneuver") if workload.name == "compare" else ("",)
    steps = 0
    events: dict[str, list] = {}
    for run in runs:
        run_dir = os.path.join(out, run)
        rows, dups, traj_min_h = read_trajectory(os.path.join(run_dir, "trajectory.csv"))
        steps += rows - 1 - dups
        ev = read_events(os.path.join(run_dir, "events.csv"))
        summary = read_json(os.path.join(run_dir, "summary.json"))
        events[run or "run"] = ev
        facts[f"{run or 'run'}.summary"] = {
            k: summary[k] for k in ("min_h", "jump_count", "filter_on_count", "filter_off_count", "event_count")
        }
        facts[f"{run or 'run'}.trajectory_min_h"] = traj_min_h
    if workload.name == "compare":
        facts["comparison"] = read_json(os.path.join(out, "comparison.json"))
    counts["steps"] = steps
    for name, ev in events.items():
        for _, kind, trigger in ev:
            key = f"events.{kind}.{trigger}"
            counts[key] = counts.get(key, 0) + 1
    facts["events"] = events
    return counts, facts


def observed(counts: dict, facts: dict, output_digests: dict) -> dict:
    """What a run produced, in the form ``reference.json`` stores per seed."""
    entry = {"events": facts.get("events", {}), "counts": counts, "digests": output_digests}
    if "taus" in facts:
        entry["taus"] = facts["taus"]
    return entry


def gate(workload: Workload, exit_codes: list[int], counts: dict, facts: dict, reference: dict) -> list[str]:
    """Reasons the run failed; an empty list means it passed."""
    problems = [f"exit code {c}" for c in exit_codes if c != 0]
    stdout = facts.get("stdout", "")
    if "safe=False" in stdout:
        problems.append("safe=False on stdout")
    if workload.name == "campaign":
        if counts["censored"] >= CENSOR_LIMIT * counts["samples"]:
            problems.append(f"censored {counts['censored']} of {counts['samples']}")
        if counts["censored"] != reference["counts"]["censored"]:
            problems.append(f"censored {counts['censored']}, reference {reference['counts']['censored']}")
        taus, ref_taus = facts["taus"], reference["taus"]
        if len(taus) != len(ref_taus):
            problems.append(f"{len(taus)} samples, reference {len(ref_taus)}")
        else:
            worst = max(abs(t - rt) for t, rt in zip(taus, ref_taus))
            if worst > EVENT_TIME_TOL:
                problems.append(f"inter-event time off the reference by {worst!r} > {EVENT_TIME_TOL}")
        return problems

    for run, ev in facts["events"].items():
        summary = facts[f"{run}.summary"]
        if summary["min_h"] is None or summary["min_h"] < -MIN_H_TOL:
            problems.append(f"{run}: min_h {summary['min_h']!r} < -{MIN_H_TOL}")
        if summary["min_h"] != facts[f"{run}.trajectory_min_h"]:
            problems.append(f"{run}: summary min_h disagrees with the trajectory")
        if summary["event_count"] != len(ev):
            problems.append(f"{run}: summary event_count {summary['event_count']} != {len(ev)} rows")
        ref = reference["events"][run]
        if [(k, tr) for _, k, tr in ev] != [(k, tr) for _, k, tr in ref]:
            problems.append(f"{run}: event sequence differs from the reference ({len(ev)} vs {len(ref)} events)")
        else:
            worst = max((abs(t - rt) for (t, _, _), (rt, _, _) in zip(ev, ref)), default=0.0)
            if worst > EVENT_TIME_TOL:
                problems.append(f"{run}: event time off the reference by {worst!r} > {EVENT_TIME_TOL}")
    if workload.name == "compare":
        cmp_doc = facts["comparison"]
        for run in ("greedy", "maneuver"):
            if cmp_doc[f"{run}_jump_count"] != facts[f"{run}.summary"]["jump_count"]:
                problems.append(f"comparison.json {run}_jump_count disagrees with summary.json")
    return problems
