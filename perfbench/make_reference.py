"""Regenerate ``reference.json``: what each workload produces at each seed.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs every workload at every CLI seed the benchmark can select (its
``seeds``) and stores its event sequences, work counts and output digests.  A run that fails the gate (exit
code, ``safe=False``, ``min_h``, censoring, consistency) is reported and no
reference is written.  The shipped seeds must reproduce the shipped facts:
compare gives 18 greedy and 6 maneuver jumps, planar 116 filter on/off
cycles, and campaign regenerates ``configs/tau_samples.csv`` and
``configs/tau_model.json`` byte for byte.

Regenerate only when a change alters the outputs on purpose, and say so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import Runner, invoke  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def shipped_fact_problems(root: str, name: str, entry: dict) -> list[str]:
    counts = entry["counts"]
    if name == "compare":
        jumps = tuple(sum(1 for e in entry["events"][run] if e[1] == "jump") for run in ("greedy", "maneuver"))
        if jumps != (18, 6):
            return [f"compare jumps greedy/maneuver {jumps}, shipped 18/6"]
    elif name == "planar":
        cycles = (counts.get("events.filter_on.safety", 0), counts.get("events.filter_off.safety", 0))
        if cycles != (116, 116):
            return [f"planar filter on/off {cycles}, shipped 116/116"]
    else:
        problems = []
        for rel in ("tau_samples.csv", "tau_model.json"):
            with open(os.path.join(root, "configs", rel), "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != entry["digests"][rel]:
                    problems.append(f"campaign {rel} differs from configs/{rel}")
        return problems
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    root = os.path.dirname(HERE)
    path = os.path.join(HERE, "reference.json")
    table = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)

    runner = Runner(root)
    problems = []
    new = {}
    try:
        for name in args.workload or list(WORKLOADS):
            workload = WORKLOADS[name]
            for seed in workload.seeds:
                record = invoke(runner, workload, seed, None)
                print(f"{name} seed {seed}: {record['wall_s']:.1f} s {record['problems'] or 'ok'}", flush=True)
                problems += [f"{name} seed {seed}: {p}" for p in record["problems"]]
                entry = record.get("observed")
                if entry is None:
                    continue
                if seed == workload.shipped_seed:
                    problems += shipped_fact_problems(root, name, entry)
                new.setdefault(name, {})[str(seed)] = entry
    finally:
        runner.close()
    if problems:
        print("no reference written:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    table.update(new)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
