"""Child-process entry points of the benchmark; run with PYTHONPATH=<root>/src.

``child.py setup <root> <config> <kind>``
    Import etsafe the way the CLI does, parse the config and build its
    scenario (barrier gradient and class-K self-checks included), print the
    numpy version and exit.  The parent times the whole process: this is what
    every CLI call pays before its first integration step.

``child.py run|traced <root> <trace.json> <argv.json>``
    Run ``etsafe.cli.main`` on each argument list in ``argv.json`` (a JSON
    list of lists) in this one process and write the import time and exit
    codes to ``trace.json``.  ``traced`` installs the tracer first and adds
    its aggregates and spans; ``run`` is the untraced baseline that the
    tracing overhead is measured against.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _import_etsafe(root: str):
    start = time.perf_counter()
    import etsafe.cli

    import_s = time.perf_counter() - start
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(etsafe.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"etsafe imported from {etsafe.cli.__file__}, not from {src}")
    return import_s


def setup(root: str, config_path: str, kind: str) -> int:
    _import_etsafe(root)
    from etsafe.config import parse_config

    cfg = parse_config(config_path)
    if kind == "satellite":
        cfg.build_satellite()
    else:
        cfg.build_planar()
    import numpy

    print(numpy.__version__)
    return 0


def in_process(root: str, trace_path: str, argv_path: str, trace: bool) -> int:
    import_s = _import_etsafe(root)
    import etsafe.cli

    doc = {}
    if trace:
        import tracer as tracing  # perfbench/ is sys.path[0] when run as a script

        tracer = tracing.Tracer()
        doc["rebound"] = tracing.install(tracer)
    with open(argv_path, encoding="utf-8") as fh:
        commands = json.load(fh)
    codes = [etsafe.cli.main(argv) for argv in commands]
    if trace:
        doc.update(tracer.document())
    doc.update(import_s=import_s, exit_codes=codes)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0 if all(code == 0 for code in codes) else 3


if __name__ == "__main__":
    mode, root, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup(root, *rest))
    if mode in ("run", "traced"):
        sys.exit(in_process(root, *rest, trace=mode == "traced"))
    raise SystemExit(f"unknown mode {mode!r}")
