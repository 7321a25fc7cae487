"""Command-line front door.

One binary, four subcommands:

  simulate-lookdown   event log + MRCA point process + observable samples
  simulate-particles  particle trajectory + exit times + gap statistics
  tables              exact law tables (L, LI, K, Z, pi, Tc)
  verify              the acceptance suite (quick or full profile)

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error,
4 internal error (a fault in the package: an engine invariant failed, or
a table the package built is invalid).
Every run writes a manifest.json echoing the full configuration, the seed,
versions, wall clock and output paths; re-running the recorded argv
reproduces the output files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import platform
import secrets
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy

from . import __version__, engine, laws, mutations, particles, verify, zlaw
from .errors import (InternalError, LookdownError, StationarityWarning,
                     ValidationError)
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


def _out_dir(args) -> Path:
    import os
    base = args.out or os.environ.get(ENV_OUT) or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out: Path, command: str, args: argparse.Namespace,
                    config: dict, outputs: list[Path], started: float,
                    **extra) -> Path:
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
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
        **extra,
    }
    path = out / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _warning_summary(caught) -> dict:
    """Count and first message per warning category; StationarityWarning
    is always listed."""
    out = {StationarityWarning.__name__: {"count": 0, "first": None}}
    for w in caught:
        entry = out.setdefault(w.category.__name__, {"count": 0, "first": None})
        entry["count"] += 1
        if entry["first"] is None:
            entry["first"] = str(w.message)
    return out


# ---------------------------------------------------------------------------
# simulate-lookdown

def cmd_simulate_lookdown(args) -> int:
    started = time.time()
    _resolve_seed(args)
    out = _out_dir(args)
    cfg = engine.EngineConfig(level_cap=args.levels, t_start=args.t_start,
                              t_end=args.t_end, burn_in=args.burn_in,
                              seed=args.seed)
    stream = engine.generate_event_stream(cfg)
    outputs: list[Path] = []

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = engine.mrca_point_process(stream)
        sample_times = np.arange(cfg.t_start, cfg.t_end, args.sample_spacing)
        obs = [engine.observables_at(stream, float(t)) for t in sample_times]
    points_path = out / "mrca_points.csv"
    engine.export_points_csv(points, points_path)
    outputs.append(points_path)

    obs_rows = [{"t": o.time, "A": o.mrca_time, "L": o.fixation_level,
                 "I": "inf" if o.curve_count == 0 else int(o.coalescent_level),
                 "Z": o.curve_count} for o in obs]
    if args.format == "jsonl":
        obs_path = out / "observables.jsonl"
        with open(obs_path, "w") as fh:
            for row in obs_rows:
                fh.write(json.dumps(row) + "\n")
    else:
        obs_path = out / "observables.csv"
        with open(obs_path, "w") as fh:
            fh.write("t,A,L,I,Z\n")
            for row in obs_rows:
                fh.write(f"{row['t']:.17g},{row['A']:.17g},{row['L']},"
                         f"{row['I']},{row['Z']}\n")
    outputs.append(obs_path)

    if not args.no_events:
        events_path = out / "events.jsonl"
        engine.export_events_jsonl(stream, events_path,
                                   window=(cfg.t_start, cfg.t_end))
        outputs.append(events_path)

    outputs.append(_write_manifest(out, "simulate-lookdown", args, {
        "level_cap": cfg.level_cap, "t_start": cfg.t_start,
        "t_end": cfg.t_end, "burn_in": cfg.burn_in,
        "sample_spacing": args.sample_spacing, "format": args.format,
    }, outputs, started, metrics=stream.counters(),
        warnings=_warning_summary(caught)))
    depth = [row["t"] - row["A"] for row in obs_rows]
    print(f"simulate-lookdown: levels={cfg.level_cap} window="
          f"[{cfg.t_start}, {cfg.t_end}] seed={args.seed}")
    print(f"  MRCA points in window: {points.establishment.size} "
          f"(open curves at window end: {points.n_open})")
    if depth:
        print(f"  observable samples: {len(depth)}, mean depth t-A = "
              f"{np.mean(depth):.3f}")
    for p in outputs:
        print(f"  wrote {p}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate-particles

def cmd_simulate_particles(args) -> int:
    started = time.time()
    _resolve_seed(args)
    out = _out_dir(args)
    if args.init == "stationary":
        init = particles.sample_stationary(rng_from(args.seed, "cli-init"))
    else:
        init = particles.ParticleConfig.empty()
    cfg = particles.ParticleSimConfig(
        particle_cap=args.cap, horizon=args.horizon, seed=args.seed,
        init=init, burn_in=args.burn_in)
    run = particles.simulate(cfg, record_trajectory=not args.no_trajectory)
    outputs: list[Path] = []

    exits_path = out / "exits.csv"
    particles.export_exits_csv(run.exits, exits_path)
    outputs.append(exits_path)
    if run.trajectory is not None:
        traj_path = out / "trajectory.jsonl"
        particles.export_trajectory_jsonl(run.trajectory, traj_path)
        outputs.append(traj_path)

    summary = None
    if run.exits.size >= 100:
        summary = particles.exit_gap_statistics(run.exits)
        gaps_path = out / "gap_summary.json"
        with open(gaps_path, "w") as fh:
            json.dump(summary.to_dict(), fh, indent=2)
            fh.write("\n")
        outputs.append(gaps_path)

    outputs.append(_write_manifest(out, "simulate-particles", args, {
        "particle_cap": cfg.particle_cap, "horizon": cfg.horizon,
        "burn_in": cfg.burn_in, "init": args.init,
        "init_levels": list(init.levels),
        "exit_time_bias": run.exit_time_bias,
    }, outputs, started))
    print(f"simulate-particles: cap={cfg.particle_cap} horizon={cfg.horizon} "
          f"seed={args.seed} init={args.init}{list(init.levels)}")
    print(f"  exits: {run.exits.size}, transitions: {run.n_transitions}, "
          f"per-exit truncation bias: {run.exit_time_bias:g}")
    if summary is not None:
        print(f"  mean gap {summary.mean_gap:.4f}, KS vs Exp(1) "
              f"p={summary.ks_report.p_value:.4f}, lag-1 "
              f"{summary.lag1_autocorrelation:+.4f}, dispersion "
              f"{summary.dispersion:.4f}")
    for p in outputs:
        print(f"  wrote {p}")
    return EXIT_OK


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
        mix = laws.pmf_Tc_mixture(args.max_level)
        from .tables import table_from_pairs
        table = table_from_pairs(
            [(i, w) for w, i in mix.terms], tail_bound=mix.tail_bound,
            name="Tc")
        extra = {"expected_Tc": laws.expected_Tc(),
                 "component": "value i labels the hypoexponential S_i^inf"}
    else:  # pragma: no cover - argparse restricts choices
        raise LookdownError(f"unknown table {which}")
    return table, extra


def cmd_tables(args) -> int:
    started = time.time()
    args.seed = args.seed if args.seed is not None else 0
    out = _out_dir(args)
    which = args.which
    try:
        table, extra = _build_table(args)
    except ValidationError as exc:
        # the arguments were valid: the package built a table it rejects
        raise InternalError(f"table {which}: {exc}") from exc

    outputs: list[Path] = []
    if args.format == "json":
        path = out / f"table_{which}.json"
        table.write_json(path)
    else:
        path = out / f"table_{which}.csv"
        table.write_csv(path)
    outputs.append(path)
    if extra:
        side = out / f"table_{which}_summary.json"
        with open(side, "w") as fh:
            json.dump(extra, fh, indent=2)
            fh.write("\n")
        outputs.append(side)

    outputs.append(_write_manifest(out, "tables", args, {
        "which": which, "format": args.format}, outputs, started))
    print(f"table {which}: {len(table.support)} rows, tail bound "
          f"{float(table.tail_bound):.3g}")
    if which == "Tc":
        print(f"  E[T_c] = {laws.expected_Tc():.10g}")
    if which == "Z":
        print(f"  E[Z] = {extra['mean']}, Var[Z] = {extra['variance']:.7f}")
    for p in outputs:
        print(f"  wrote {p}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    started = time.time()
    _resolve_seed(args)
    out = _out_dir(args)
    only = [int(x) for x in args.criteria.split(",")] if args.criteria else None
    suite = verify.run_suite(args.profile, seed=args.seed, only=only,
                             echo=print)
    report_path = out / "verify_report.json"
    with open(report_path, "w") as fh:
        fh.write(suite.to_json())
        fh.write("\n")
    outputs = [report_path]
    outputs.append(_write_manifest(out, "verify", args, {
        "profile": args.profile, "criteria": args.criteria}, outputs, started))
    print(f"verify: profile={args.profile} seed={args.seed} -> "
          f"{'PASS' if suite.all_passed else 'FAIL'}")
    print(f"  wrote {report_path}")
    return EXIT_OK if suite.all_passed else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------

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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--profile", choices=["quick", "full"], default="quick")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--criteria", type=str, default=None,
                   help="comma-separated criterion numbers to run")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except LookdownError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
