"""Command-line front end: scenario runs, sampling campaigns, comparisons.

Subcommands: simulate, sample-tau, fit-tau, compare, validate-config.
Exit codes: 0 success (and safety verdict passed), 2 configuration error,
3 run or fit failure or an unsafe verdict; :func:`_exit_policy` maps every
failure to its code.

Output files are written atomically (temp file + rename); a failed command
leaves no partial files.  compare runs its two arms in two processes at the
same time (greedy in a worker, maneuver in the calling process), each writing
into a staging directory under --out; the outputs are moved into place only
when both arms succeed; a compare interrupted by SIGINT or SIGTERM exits 3
and removes its staging directories.  sample-tau steps its lanes in one
process per usable CPU, at most two; a failing lane, a dead worker or an
interrupt makes it exit 3 and write nothing.  Identical config and seed
reproduce outputs byte-for-byte.  ETSAFE_LOG_LEVEL (error | info | debug)
controls stderr logging.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import math
import os
import shutil
import signal
import sys
import tempfile
import threading
from typing import Callable, Iterator, Optional

import numpy as np

from .atomic_io import atomic_write
from .config import ConfigError, ScenarioConfig, _parse_vector, parse_config
from .engine import (
    AssumptionCheckError,
    RunAbortedError,
    RunResult,
    RunSummary,
    Trajectory,
    run_greedy_impulsive,
    run_intermittent_filter,
    run_maneuver,
)
from .inter_event import (
    campaign_problems,
    collect_inter_event_samples,
    fit_inter_event_model,
    load_model,
    load_samples,
    save_model,
    save_samples,
)
from .numerics import IntegrationFailureError, SingularityError
from .safety_filter import InfeasibleFilterError
from .workers import started_workers

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3

log = logging.getLogger("etsafe")


def _setup_logging() -> None:
    level = os.environ.get("ETSAFE_LOG_LEVEL", "info").lower()
    mapping = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        stream=sys.stderr,
        level=mapping.get(level, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )


# --- Writers ---


def _fmt(x) -> str:
    return repr(float(x))


_CHUNK_ROWS = 4096


def write_trajectory_csv(path: str, result: RunResult, kind: str) -> None:
    """Satellite columns: t,rx,ry,rz,vx,vy,vz,r,h,xi_active_monitor,filter_state.
    Planar columns: t,x1,x2,h,xi_active_monitor,filter_state."""
    atomic_write(path, _trajectory_chunks(result.trajectory, kind))


def _trajectory_chunks(traj: Trajectory, kind: str) -> Iterator[str]:
    """The CSV text, a chunk of rows at a time, each value as ``repr`` of a
    Python float (the flag as an int), so memory stays flat in the row count."""
    if kind == "satellite":
        yield "t,rx,ry,rz,vx,vy,vz,r,h,xi_active_monitor,filter_state\n"
        states = traj.states
        tail = (np.linalg.norm(states[:, :3], axis=1), traj.h, traj.xi_active, traj.filter_on)
    else:
        yield "t,x1,x2,h,xi_active_monitor,filter_state\n"
        states = traj.states[:, :2]
        tail = (traj.h, traj.xi_active, traj.filter_on)
    for lo in range(0, len(traj.times), _CHUNK_ROWS):
        rows = slice(lo, lo + _CHUNK_ROWS)
        yield "".join(
            f"{t!r},{','.join(map(repr, s))},{','.join(map(repr, rest))}\n"
            for t, s, *rest in zip(
                traj.times[rows].tolist(),
                states[rows].tolist(),
                *(c[rows].tolist() for c in tail),
            )
        )


def write_events_csv(path: str, result: RunResult) -> None:
    """Columns: t,kind,trigger_id,h_before,h_after,xi_after,dv_mag
    (dv_mag empty for filter toggles)."""
    lines = ["t,kind,trigger_id,h_before,h_after,xi_after,dv_mag"]
    for e in result.events:
        dv = "" if e.impulse_magnitude is None else _fmt(e.impulse_magnitude)
        lines.append(
            ",".join(
                [
                    _fmt(e.time),
                    e.kind,
                    e.trigger_id,
                    _fmt(e.h_before),
                    _fmt(e.h_after),
                    _fmt(e.xi_after),
                    dv,
                ]
            )
        )
    atomic_write(path, ["\n".join(lines) + "\n"])


def _jsonable(value):
    if value is None:
        return None
    if isinstance(value, (bool, int, str)):
        return value
    value = float(value)
    return value if math.isfinite(value) else None


def summary_document(result: RunResult, cfg: ScenarioConfig) -> dict:
    """Every ``RunSummary`` field in declaration order, with ``scenario_kind``
    after ``scheme`` and the hours annotation last."""
    s = result.summary
    fields = {f.name: _jsonable(getattr(s, f.name)) for f in dataclasses.fields(s)}
    return {
        "scheme": fields.pop("scheme"),
        "scenario_kind": cfg.kind,
        **fields,
        "hours_per_time_unit": _jsonable(cfg.hours_per_time_unit),
        "horizon_hours": _jsonable(s.horizon * cfg.hours_per_time_unit),
    }


def write_summary_json(path: str, result: RunResult, cfg: ScenarioConfig) -> None:
    atomic_write(path, [json.dumps(summary_document(result, cfg), indent=2) + "\n"])


def _write_run_outputs(out_dir: str, result: RunResult, cfg: ScenarioConfig) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), result, cfg.kind)
    write_events_csv(os.path.join(out_dir, "events.csv"), result)
    write_summary_json(os.path.join(out_dir, "summary.json"), result, cfg)


# --- Run helpers ---


def _run_arm(
    config_path: str,
    scheme: Optional[str],
    seed: Optional[int],
    horizon: Optional[float],
    tau_model_path: Optional[str],
    out_dir: str,
) -> RunSummary:
    """simulate, or one arm of compare: parse and build the config, run one
    scheme (the config's own when None), write its three files into
    ``out_dir``.  Takes only picklable arguments, so it can run in a worker
    process under any start method."""
    cfg = parse_config(config_path, seed, horizon, tau_model_path)
    result = _execute(cfg, scheme or cfg.trigger_scheme)
    _write_run_outputs(out_dir, result, cfg)
    return result.summary


def _run_arms(
    config_path: str,
    tau_model_path: str,
    seed: Optional[int],
    horizon: Optional[float],
    stages: dict[str, str],
) -> tuple[RunSummary, RunSummary]:
    """Run the greedy arm in a worker process while the maneuver arm runs
    here; the worker has exited, or been killed, before this returns."""
    greedy_call = (
        "greedy worker",
        _run_arm,
        (config_path, "greedy", seed, horizon, None, stages["greedy"]),
    )
    with started_workers([greedy_call], "its arm") as (worker,):
        maneuver = _run_arm(
            config_path, "maneuver", seed, horizon, tau_model_path, stages["maneuver"]
        )
        return worker.result(), maneuver


def _execute(cfg: ScenarioConfig, scheme: str) -> RunResult:
    x0, horizon = cfg.initial_state, cfg.horizon
    if scheme == "greedy":
        return run_greedy_impulsive(cfg.scenario, x0, horizon)
    if scheme == "maneuver":
        return run_maneuver(cfg.scenario, load_model(cfg.tau_model_path), x0, horizon)
    return run_intermittent_filter(cfg.scenario, x0, horizon)


def _campaign_settings(
    cfg: ScenarioConfig, grid: Optional[str], n: Optional[int], max_wait: Optional[float]
) -> tuple[np.ndarray, int, float]:
    """sample-tau's grid, samples per radius and wait cap: each flag, else its
    [tau] key, held to the campaign's rules."""
    try:
        radius_grid = _parse_vector(grid) if grid is not None else cfg.tau_radius_grid
    except ValueError:
        raise ConfigError(f"bad value for --grid: {grid!r}") from None
    n_per_radius = n if n is not None else cfg.tau_n_per_radius
    wait = max_wait if max_wait is not None else cfg.tau_max_wait
    problems = campaign_problems(cfg.scenario.barrier, radius_grid, n_per_radius, wait)
    if problems:
        raise ConfigError("sample-tau: " + "; ".join(problems))
    return radius_grid, n_per_radius, wait


# --- Subcommands ---


def _exit_policy(cmd: Callable[..., int]) -> Callable[..., int]:
    """``cmd`` under the one failure policy of the subcommands: one ERROR line,
    no traceback; exit 2 when the config or the pre-run check rejects the
    run, 3 when the run, campaign, fit or output fails or is interrupted."""
    command = cmd.__name__.removeprefix("cmd_").replace("_", "-")

    @functools.wraps(cmd)
    def run(*args, **kwargs) -> int:
        try:
            return cmd(*args, **kwargs)
        except (ConfigError, AssumptionCheckError) as err:
            log.error("%s", err)
            return EXIT_CONFIG
        # these cover FitError (a ValueError), a dead worker's ChildProcessError
        # (an OSError) and a campaign's LaneFailureError
        except (
            RunAbortedError, IntegrationFailureError, SingularityError, InfeasibleFilterError,
            OSError, ValueError,
        ) as err:
            log.error("%s failed: %s", command, err)
            return EXIT_RUN
        except KeyboardInterrupt:
            log.error("%s interrupted", command)
            return EXIT_RUN

    return run


@_exit_policy
def cmd_validate_config(config_path: str) -> int:
    parse_config(config_path)
    print(f"config ok: {config_path}")
    return EXIT_OK


@_exit_policy
def cmd_simulate(
    config_path: str,
    out_dir: str,
    seed: Optional[int] = None,
    horizon: Optional[float] = None,
) -> int:
    s = _run_arm(config_path, None, seed, horizon, None, out_dir)
    print(
        f"scheme={s.scheme} events={s.event_count} min_h={s.min_h!r} "
        f"safe={s.safe} out={out_dir}"
    )
    return EXIT_OK if s.safe else EXIT_RUN


@_exit_policy
def cmd_sample_tau(
    config_path: str,
    out_path: str,
    grid: Optional[str] = None,
    n: Optional[int] = None,
    seed: Optional[int] = None,
    max_wait: Optional[float] = None,
) -> int:
    cfg = parse_config(config_path, seed)
    scenario = cfg.build_satellite()
    radius_grid, n_per_radius, wait = _campaign_settings(cfg, grid, n, max_wait)
    samples = collect_inter_event_samples(
        scenario, radius_grid, n_per_radius, seed=scenario.disturbance.seed, max_wait=wait
    )
    save_samples(samples, out_path)
    frac = samples.censored_count / max(len(samples.radius), 1)
    print(
        f"samples={len(samples.radius)} censored={samples.censored_count} "
        f"({100.0 * frac:.1f}%) out={out_path}"
    )
    if frac >= 0.05:
        log.warning("censoring fraction %.1f%% exceeds the 5%% budget", 100.0 * frac)
    return EXIT_OK


@_exit_policy
def cmd_fit_tau(samples_path: str, out_path: str) -> int:
    try:
        samples = load_samples(samples_path)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot load samples: {err}") from err
    model = fit_inter_event_model(samples)
    save_model(model, out_path)
    print(
        f"model basis=piecewise-linear levels={len(model.knots)} "
        f"range=[{model.h_min!r}, {model.h_max!r}] residual=0.0 out={out_path}"
    )
    return EXIT_OK


@_exit_policy
def cmd_compare(
    config_path: str,
    tau_model_path: str,
    out_dir: str,
    seed: Optional[int] = None,
    horizon: Optional[float] = None,
) -> int:
    cfg = parse_config(config_path, seed, horizon)
    scenario = cfg.build_satellite()
    fresh = not os.path.exists(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    stages: dict[str, str] = {}
    try:
        # made inside the try, so an interrupt right after one is made
        # still removes it
        for arm in ("greedy", "maneuver"):
            stages[arm] = tempfile.mkdtemp(prefix=f".{arm}-", dir=out_dir)
        g, m = _run_arms(config_path, tau_model_path, seed, horizon, stages)
        for arm, stage in stages.items():
            os.makedirs(os.path.join(out_dir, arm), exist_ok=True)
            for name in sorted(os.listdir(stage)):
                os.replace(os.path.join(stage, name), os.path.join(out_dir, arm, name))
    finally:
        for stage in stages.values():
            shutil.rmtree(stage, ignore_errors=True)
        if fresh and not os.listdir(out_dir):
            os.rmdir(out_dir)

    reduction = None
    if g.jump_count > 0:
        reduction = 1.0 - m.jump_count / g.jump_count
    doc = {
        "greedy_jump_count": g.jump_count,
        "maneuver_jump_count": m.jump_count,
        "reduction": _jsonable(reduction),
        "greedy_mean_inter_event_time": _jsonable(g.mean_inter_event_time),
        "maneuver_mean_inter_event_time": _jsonable(m.mean_inter_event_time),
        "greedy_median_inter_event_time": _jsonable(g.median_inter_event_time),
        "maneuver_median_inter_event_time": _jsonable(m.median_inter_event_time),
        "greedy_min_h": _jsonable(g.min_h),
        "maneuver_min_h": _jsonable(m.min_h),
        "seed": scenario.disturbance.seed,
        "horizon": _jsonable(cfg.horizon),
    }
    atomic_write(os.path.join(out_dir, "comparison.json"), [json.dumps(doc, indent=2) + "\n"])

    both_safe = g.safe and m.safe
    print(
        f"greedy={g.jump_count} maneuver={m.jump_count} "
        f"reduction={reduction!r} safe={both_safe} out={out_dir}"
    )
    return EXIT_OK if both_safe else EXIT_RUN


# --- Entry point ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etsafe",
        description="Event-triggered safety simulations: impulsive orbit keeping "
        "and intermittent safety filtering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and write outputs")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override [scenario] seed")
    sim.add_argument("--horizon", type=float, default=None, help="override [scenario] horizon")

    smp = sub.add_parser("sample-tau", help="collect inter-event-time samples")
    smp.add_argument("--config", required=True)
    smp.add_argument("--out", required=True, help="output CSV path")
    smp.add_argument("--grid", default=None, help="comma-separated radii")
    smp.add_argument("--n", type=int, default=None, help="samples per radius")
    smp.add_argument("--seed", type=int, default=None)
    smp.add_argument("--max-wait", type=float, default=None)

    fit = sub.add_parser("fit-tau", help="fit the inter-event-time model")
    fit.add_argument("--samples", required=True)
    fit.add_argument("--out", required=True, help="output JSON path")

    cmp_ = sub.add_parser("compare", help="paired greedy vs maneuver runs")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--tau-model", required=True)
    cmp_.add_argument("--out", required=True, help="output directory")
    cmp_.add_argument("--seed", type=int, default=None)
    cmp_.add_argument("--horizon", type=float, default=None)

    val = sub.add_parser("validate-config", help="check a config file")
    val.add_argument("--config", required=True)

    return parser


@contextlib.contextmanager
def _sigterm_interrupts() -> Iterator[None]:
    """Inside the block, SIGTERM raises KeyboardInterrupt, so the cleanup of a
    running command (compare's staging directories, a writer's temp file)
    runs as it does on Ctrl-C.  Only the main thread can set a handler;
    elsewhere this does nothing.  The previous handler is restored after."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def main(argv: Optional[list[str]] = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    with _sigterm_interrupts():
        return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "simulate":
        return cmd_simulate(args.config, args.out, args.seed, args.horizon)
    if args.command == "sample-tau":
        return cmd_sample_tau(
            args.config, args.out, args.grid, args.n, args.seed, args.max_wait
        )
    if args.command == "fit-tau":
        return cmd_fit_tau(args.samples, args.out)
    if args.command == "compare":
        return cmd_compare(args.config, args.tau_model, args.out, args.seed, args.horizon)
    if args.command == "validate-config":
        return cmd_validate_config(args.config)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
