"""Command-line front door, and the one writer of files in the package.

One binary, four subcommands:

  simulate-lookdown   event log + MRCA point process + observable samples
  simulate-particles  particle trajectory + exit times + gap statistics
  tables              exact law tables (L, LI, K, Z, pi, Tc)
  verify              the acceptance suite (quick or full profile)

Library calls return arrays, tables and results; every file format lives
here, behind one CSV writer and one JSON writer.  The JSON-lines rows of
events and trajectories are streamed as the text json.dumps writes.

``main`` runs every command the same way.  The command validates its
configuration, runs, writes its data files and returns its configuration,
outputs, metrics and exit code; ``main`` counts the warnings it raised,
adds the peak RSS to its metrics, writes manifest.json and prints the
written paths.  The out directory is made with the first file written, so
a usage error leaves nothing behind.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error,
4 internal error (a fault in the package: an engine invariant failed, or
a table the package built is invalid).
Every run writes a manifest.json echoing the full configuration, the seed,
versions, wall clock, output paths, metrics and warnings; re-running the
recorded argv reproduces the data files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import platform
import resource
import secrets
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np
import scipy

from . import __version__, engine, laws, particles, verify, zlaw
from .errors import (ConfigurationError, InternalError, LookdownError,
                     ValidationError, warning_summary)
from .seeding import rng_from

ENV_OUT = "LOOKDOWN_OUT"

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _resolve_seed(args) -> int:
    if args.seed is None:
        args.seed = secrets.randbits(63)
    return args.seed


def _create(path: Path) -> TextIO:
    """Open path for writing text, making its directory first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="")


def _write_csv(path: Path, header: list[str], rows: Iterable) -> Path:
    with _create(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_json(path: Path, payload) -> Path:
    with _create(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def _float(x: float) -> str:
    """17 significant digits: the float round-trips."""
    return format(x, ".17g")


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss    # on Linux
    return round(kib / 1024, 1)


# ---------------------------------------------------------------------------
# simulate-lookdown

def _write_events(path: Path, stream: engine.EventStream) -> Path:
    """One row per event in [t_start, t_end] (burn-in left out),
    {"t": float, "i": src, "j": dst}, time-sorted, as json.dumps writes
    it: the times are finite, and repr is json's float format."""
    cfg = stream.config
    with _create(path) as fh:
        for times, srcs, dsts in stream.iter_chunks(cfg.t_start, cfg.t_end):
            fh.write("".join(
                f'{{"t": {t!r}, "i": {i}, "j": {j}}}\n'
                for t, i, j in zip(times.tolist(), srcs.tolist(),
                                   dsts.tolist())))
    return path


def cmd_simulate_lookdown(args, out: Path):
    if args.sample_spacing <= 0:
        raise ConfigurationError("--sample-spacing must be positive")
    _resolve_seed(args)
    cfg = engine.EngineConfig(level_cap=args.levels, t_start=args.t_start,
                              t_end=args.t_end, burn_in=args.burn_in,
                              seed=args.seed)
    sim_started = time.perf_counter()
    stream = engine.generate_event_stream(cfg)
    points = engine.mrca_point_process(stream)
    grid = np.arange(cfg.t_start, cfg.t_end, args.sample_spacing)
    obs = [engine.observables_at(stream, float(t)) for t in grid]
    sim_seconds = time.perf_counter() - sim_started
    outputs = [_write_csv(out / "mrca_points.csv", ["E", "B"], (
        [_float(e), _float(b)] for e, b in zip(points.establishment.tolist(),
                                               points.living.tolist())))]

    rows = [(o.time, o.mrca_time, o.fixation_level,
             "inf" if o.curve_count == 0 else int(o.coalescent_level),
             o.curve_count) for o in obs]
    if args.format == "jsonl":
        outputs.append(out / "observables.jsonl")
        with _create(outputs[-1]) as fh:
            fh.writelines(json.dumps(dict(zip("tALIZ", row))) + "\n"
                          for row in rows)
    else:
        outputs.append(_write_csv(out / "observables.csv", list("tALIZ"), (
            [_float(t), _float(a), *rest] for t, a, *rest in rows)))
    if not args.no_events:
        outputs.append(_write_events(out / "events.jsonl", stream))

    print(f"simulate-lookdown: levels={cfg.level_cap} window="
          f"[{cfg.t_start}, {cfg.t_end}] seed={args.seed}")
    print(f"  MRCA points in window: {points.establishment.size} "
          f"(open curves at window end: {points.n_open})")
    if rows:
        print(f"  observable samples: {len(rows)}, mean depth t-A = "
              f"{np.mean([t - a for t, a, *_ in rows]):.3f}")
    metrics = {**stream.counters(), "simulate_seconds": round(sim_seconds, 3)}
    return {
        "level_cap": cfg.level_cap, "t_start": cfg.t_start,
        "t_end": cfg.t_end, "burn_in": cfg.burn_in,
        "sample_spacing": args.sample_spacing, "format": args.format,
    }, outputs, metrics, EXIT_OK


# ---------------------------------------------------------------------------
# simulate-particles

def cmd_simulate_particles(args, out: Path):
    _resolve_seed(args)
    cfg = particles.ParticleSimConfig(
        particle_cap=args.cap, horizon=args.horizon, seed=args.seed,
        burn_in=args.burn_in)
    if args.init == "stationary":
        # pi has unbounded support; a capped system starts below its cap
        cfg = dataclasses.replace(cfg, init=particles.sample_stationary(
            rng_from(args.seed, "cli-init"), below=cfg.particle_cap))
    exits_path = out / "exits.csv"
    outputs = [exits_path]
    sim_started = time.perf_counter()
    if args.no_trajectory:
        run = particles.simulate(cfg)
    else:
        outputs.append(out / "trajectory.jsonl")
        with _create(outputs[-1]) as fh:
            def write(ev: particles.TransitionEvent) -> None:
                # the text json.dumps writes, without its per-row cost
                k = "null" if ev.k is None else ev.k
                fh.write(f'{{"t": {ev.time!r}, "kind": "{ev.kind}", '
                         f'"k": {k}, "levels": {list(ev.levels)}}}\n')
            run = particles.simulate(cfg, trajectory=write)
    sim_seconds = time.perf_counter() - sim_started
    _write_csv(exits_path, ["E"], ([_float(e)] for e in run.exits.tolist()))

    summary = None
    if run.exits.size >= 100:
        summary = particles.exit_gap_statistics(run.exits)
        outputs.append(_write_json(out / "gap_summary.json",
                                   summary.to_dict()))

    print(f"simulate-particles: cap={cfg.particle_cap} horizon={cfg.horizon} "
          f"seed={args.seed} init={args.init}{list(cfg.init.levels)}")
    print(f"  exits: {run.exits.size}, transitions drawn: "
          f"{run.n_transitions} (leaders in flight: {run.n_flights}), "
          f"per-exit truncation bias: {run.exit_time_bias:g}")
    if summary is not None:
        print(f"  mean gap {summary.mean_gap:.4f}, KS vs Exp(1) "
              f"p={summary.ks_report.p_value:.4f}, lag-1 "
              f"{summary.lag1_autocorrelation:+.4f}, dispersion "
              f"{summary.dispersion:.4f}")
    metrics = {**run.counters(), "simulate_seconds": round(sim_seconds, 3)}
    return {
        "particle_cap": cfg.particle_cap, "horizon": cfg.horizon,
        "burn_in": cfg.burn_in, "init": args.init,
        "init_levels": list(cfg.init.levels),
        "exit_time_bias": run.exit_time_bias,
    }, outputs, metrics, EXIT_OK


# ---------------------------------------------------------------------------
# tables

def _build_table(args):
    """(table, summary) for args.which; the summary may be empty."""
    which = args.which
    extra: dict = {}
    if which == "L":
        table = laws.pmf_L_table(args.max_level)
    elif which == "LI":
        table = laws.pmf_LI_table(args.max_level, args.max_blocks)
    elif which == "K":
        table = laws.K_table(args.j)
    elif which == "Z":
        table = zlaw.pmf_Z_table(args.max_z)
        mean, var = zlaw.mean_var_Z()
        extra = {"mean": mean, "variance": var,
                 "pgf": {str(u): zlaw.pgf_Z(u)
                         for u in (0.0, 0.25, 0.5, 0.75, 1.0)}}
    elif which == "pi":
        table = laws.pi_table(args.max_level, 3)
    elif which == "Tc":
        table = laws.pmf_Tc_mixture(args.max_level)
        extra = {"expected_Tc": laws.expected_Tc(),
                 "component": "value i labels the hypoexponential S_i^inf"}
    else:  # pragma: no cover - argparse restricts choices
        raise LookdownError(f"unknown table {which}")
    return table, extra


def _render_value(v) -> str:
    """A support value; a configuration of levels as "(5 3 2)"."""
    if isinstance(v, tuple):
        return "(" + " ".join(str(x) for x in v) + ")"
    return str(v)


def _render_weight(w: Fraction | float) -> str:
    """A weight exactly: "num/den" where rational, else the float's repr."""
    if isinstance(w, Fraction):
        return f"{w.numerator}/{w.denominator}"
    return repr(float(w))


def cmd_tables(args, out: Path):
    which = args.which
    try:
        table, extra = _build_table(args)
    except ValidationError as exc:
        # the arguments were valid: the package built a table it rejects
        raise InternalError(f"table {which}: {exc}") from exc

    tail = float(table.tail_bound)
    if args.format == "json":
        outputs = [_write_json(out / f"table_{which}.json", {
            "name": table.name, "tail_bound": tail, "n": table.n,
            "rows": [{"value": _render_value(v), "weight": _render_weight(w),
                      "weight_float": float(w), "tail_bound": tail}
                     for v, w in table.items()]})]
    else:
        outputs = [_write_csv(
            out / f"table_{which}.csv", ["value", "weight", "tail_bound"],
            ([_render_value(v), _render_weight(w), repr(tail)]
             for v, w in table.items()))]
    if extra:
        outputs.append(_write_json(out / f"table_{which}_summary.json",
                                   extra))

    print(f"table {which}: {len(table.support)} rows, tail bound "
          f"{tail:.3g}")
    if which == "Tc":
        print(f"  E[T_c] = {laws.expected_Tc():.10g}")
    if which == "Z":
        print(f"  E[Z] = {extra['mean']}, Var[Z] = {extra['variance']:.7f}")
    return {"which": which, "format": args.format}, outputs, {}, EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args, out: Path):
    suite = verify.run_suite(args.profile, seed=args.seed, only=args.criteria,
                             echo=print)
    report = _write_json(out / "verify_report.json", suite.to_dict())
    print(f"verify: profile={args.profile} seed={args.seed} -> "
          f"{'PASS' if suite.all_passed else 'FAIL'}")
    config = {"profile": args.profile, "criteria": args.criteria}
    code = EXIT_OK if suite.all_passed else EXIT_CHECK_FAILURE
    return config, [report], {}, code


# ---------------------------------------------------------------------------

def criteria(text: str) -> list[int]:
    """Criterion numbers from "3,5" (argparse names the type in its error)."""
    return [int(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lookdown",
        description="MRCA process of an evolving coalescent: simulation "
                    "and exact analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-lookdown",
                       help="simulate the look-down graph and export "
                            "events, MRCA points and observables")
    p.add_argument("--levels", type=int, default=1000)
    p.add_argument("--t-start", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--burn-in", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv",
                   help="observables format (events are always JSONL, "
                        "points always CSV)")
    p.add_argument("--sample-spacing", type=float, default=2.0)
    p.add_argument("--no-events", action="store_true",
                   help="skip the event-log export (large at high --levels)")
    p.set_defaults(func=cmd_simulate_lookdown)

    p = sub.add_parser("simulate-particles",
                       help="simulate the fixation-curve particle system")
    p.add_argument("--cap", type=int, default=10_000)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--init", choices=["empty", "stationary"], default="empty")
    p.add_argument("--burn-in", type=float, default=0.0)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--no-trajectory", action="store_true")
    p.set_defaults(func=cmd_simulate_particles)

    p = sub.add_parser("tables", help="dump exact law tables")
    p.add_argument("--which", choices=["L", "LI", "K", "Z", "pi", "Tc"],
                   required=True)
    p.add_argument("--max-level", type=int, default=20,
                   help="level range for L/LI/pi/Tc tables")
    p.add_argument("--max-blocks", type=int, default=12,
                   help="coalescent-level range for the LI table")
    p.add_argument("--j", type=int, default=10, help="K^j marginal index")
    p.add_argument("--max-z", type=int, default=12)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_tables, seed=None)   # tables draw nothing

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--profile", choices=["quick", "full"], default="quick")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--criteria", type=criteria, default=None,
                   help="comma-separated criterion numbers to run")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    out = Path(args.out or os.environ.get(ENV_OUT) or ".")
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config, outputs, metrics, code = args.func(args, out)
        outputs.append(_write_json(out / "manifest.json", {
            "command": args.command,
            "argv": sys.argv[1:] if argv is None else list(argv),
            "config": config,
            "seed": args.seed,
            "versions": {
                "lookdown": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "wall_clock_seconds": round(time.time() - started, 3),
            "outputs": [str(p) for p in outputs],
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "metrics": {**metrics, "peak_rss_mb": _peak_rss_mb()},
            "warnings": warning_summary(caught),
        }))
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except LookdownError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for p in outputs:
        print(f"  wrote {p}")
    return code

if __name__ == "__main__":
    sys.exit(main())
