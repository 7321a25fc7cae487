"""Benchmark of the lookdown package, end to end and per layer.

    python3 bench/run.py --workload lookdown-cold --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Each workload runs fixed-size rounds for ``--seconds``
(at least a workload-defined number of rounds), checks the outputs and prints
its metrics, one per line with its unit, then one JSON object as the last
line: the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  ``--workload all`` runs every workload in a
process of its own.  A record of the run (context, checks, metrics and, when
traced, every span) is written under ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("lookdown-cold", "lookdown-grid", "particles-equilibrium")
SETUP_REPEATS = 3
# counters that must repeat exactly when a round is traced twice
REPEATED_COUNTS = ("stream.events_delivered", "particles.transitions",
                   "genealogy.mrca_points")


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json declares; the run must report exactly these."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at a toy size (tests)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# run context


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lookdown").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, timeout=30)
    return res.stdout.strip() if res.returncode == 0 else None


def run_context(args) -> dict:
    import numpy
    import scipy

    import lookdown
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "commit": _commit(), "src_sha256": _src_digest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "lookdown": lookdown.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(args) -> list[float]:
    """Wall seconds of SETUP_REPEATS fresh interpreters that each import
    the package and build the first round's inputs."""
    code = ("import sys, pathlib; sys.path[:0] = [%r, %r]; import workloads; "
            "workloads.WORKLOADS[%r](%d, %r, pathlib.Path(%r)).setup()"
            % (str(SRC), str(BENCH), args.workload, args.seed, args.size,
               str(OUT)))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       timeout=120)
        times.append(time.perf_counter() - start)
    return times


def run_rounds(wl, seconds: float, traced: bool):
    """Rounds 0, 1, ... until both the time and the round minimum are met.
    Traced, each round runs twice on the same inputs, untraced first, so the
    pair gives the tracing overhead; returns (plain, traced, tracers)."""
    from tracer import Tracer
    plain, traced_rounds, tracers = [], [], []
    start = time.perf_counter()
    r = 0
    while r < wl.p["min_rounds"] or time.perf_counter() - start < seconds:
        plain.append(wl.round(r))
        if traced:
            tracer = Tracer()
            with tracer.installed():
                traced_rounds.append(wl.round(r))
            tracers.append(tracer)
        r += 1
    return plain, traced_rounds, tracers


def _fingerprint(obj) -> str:
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, dict):
            for k in sorted(o):
                h.update(repr(k).encode())
                feed(o[k])
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for x in o:
                feed(x)
            h.update(b"]")
        elif hasattr(o, "tobytes"):
            h.update(o.tobytes())
        else:
            h.update(repr(o).encode())
    feed(obj)
    return h.hexdigest()


def output_checks(wl, rounds) -> tuple[list, list[str]]:
    """Every round's exact checks plus the pooled statistical checks."""
    from workloads import Check
    checks, errors = [], []
    try:
        for rnd in rounds:
            checks.extend(wl.check_round(rnd))
        checks.extend(wl.check_pooled(rounds))
    except Exception:  # a check that raises is a failed check
        errors.append(traceback.format_exc())
        checks.append(Check("checks_ran", False, "a check raised"))
    return checks, errors


def end_to_end_metrics(rounds, setup: list[float]) -> dict[str, float]:
    import numpy as np
    busy = sum(r.wall for r in rounds)
    latencies = [x for r in rounds for x in r.latencies]
    p50, p95 = np.percentile(latencies, [50, 95]) * 1000.0
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall for r in rounds),
        "queries_per_s": sum(r.queries for r in rounds) / busy,
        "query_p50_ms": float(p50),
        "query_p95_ms": float(p95),
        "model_time_per_s": sum(r.model_time for r in rounds) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(plain, traced, tracers) -> dict[str, float]:
    total, own, counts = {}, {}, {}
    for tracer in tracers:
        t, s = tracer.layer_seconds()
        for d, src in ((total, t), (own, s), (counts, tracer.counts)):
            for k, v in src.items():
                d[k] = d.get(k, 0) + v
    busy = sum(r.wall for r in traced)

    def pct(name, table=total):
        return 100.0 * table.get(name, 0.0) / busy

    def ratio(a, b):
        return a / b if b else 0.0

    events = counts.get("stream.events_delivered", 0)
    transitions = counts.get("particles.transitions", 0)
    wall_plain = statistics.median(r.wall for r in plain)
    wall_traced = statistics.median(r.wall for r in traced)
    return {
        "stream.chunks_pct": pct("stream.iter_chunks"),
        "stream.events_delivered": events,
        "stream.events_per_query": ratio(events, sum(r.queries for r in traced)),
        "stream.events_per_s": ratio(events, total.get("stream.iter_chunks", 0.0)),
        "genealogy.observables_at_pct": pct("genealogy.observables_at"),
        "genealogy.observables_at_self_pct": pct("genealogy.observables_at", own),
        "genealogy.mrca_point_process_pct": pct("genealogy.mrca_point_process"),
        "genealogy.mrca_point_process_self_pct":
            pct("genealogy.mrca_point_process", own),
        "genealogy.mrca_points": counts.get("genealogy.mrca_points", 0),
        "cli.main_self_pct": pct("cli.main", own),
        "particles.simulate_pct": pct("particles.simulate"),
        "particles.transitions": transitions,
        "particles.transitions_per_s":
            ratio(transitions, total.get("particles.simulate", 0.0)),
        "particles.transitions_per_exit":
            ratio(transitions, counts.get("particles.exits", 0)),
        "particles.sample_stationary_pct": pct("particles.sample_stationary"),
        "laws.sample_S_batch_pct": pct("laws.sample_S_batch"),
        "laws.exact_pct": pct("laws.exact"),
        "zlaw.pmf_Z_table_pct": pct("zlaw.pmf_Z_table"),
        "stats.gof_pct": pct("stats.gof"),
        "trace.wall_s": wall_traced,
        "trace.overhead_s": wall_traced - wall_plain,
        "trace.overhead_pct": 100.0 * (wall_traced - wall_plain) / wall_plain,
        "trace.spans": sum(len(t.spans) for t in tracers),
    }


# ---------------------------------------------------------------------------
# one workload


def run_one(args) -> int:
    import workloads
    from tracer import Tracer
    from workloads import Check

    context = run_context(args)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        setup = [] if args.trace else measure_setup(args)
        wl.warmup()
        plain, traced, tracers = run_rounds(wl, args.seconds, bool(args.trace))
        checked = traced if args.trace else plain
        checks, check_errors = output_checks(wl, checked)
        if args.trace:
            # tracing must not change any output, and counts must repeat
            same = all(_fingerprint(a.outputs) == _fingerprint(b.outputs)
                       for a, b in zip(plain, traced))
            checks.append(Check("trace_leaves_outputs_unchanged", same,
                                f"{len(traced)} rounds compared"))
            again = Tracer()
            with again.installed():
                rerun = wl.round(0)
            first = {k: tracers[0].counts.get(k, 0) for k in REPEATED_COUNTS}
            second = {k: again.counts.get(k, 0) for k in REPEATED_COUNTS}
            repeat = (first == second and _fingerprint(rerun.outputs)
                      == _fingerprint(traced[0].outputs))
            checks.append(Check("trace_counts_repeat", repeat,
                                f"round 0 traced twice: {first} vs {second}"))
            metrics = layer_metrics(plain, traced, tracers)
        else:
            metrics = end_to_end_metrics(plain, setup)
        units = metric_units("per_layer" if args.trace else "end_to_end")
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(metrics)} differ from the "
                               f"ones BENCHMARK.json declares {sorted(units)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced + ([rerun] if args.trace else [])
    errors = [e for r in rounds for e in r.errors] + check_errors
    attempted = sum(r.ops for r in rounds) + len(checks)
    failed = sum(len(r.errors) for r in rounds) + sum(not c.passed for c in checks)
    record = {
        "context": context,
        "rounds": len(plain),
        "queries": sum(r.queries for r in checked),
        "query": wl.query,
        "setup_seconds": setup,
        "round_walls": [r.wall for r in plain],
        "traced_round_walls": [r.wall for r in traced],
        "checks": [vars(c) for c in checks],
        "errors": errors,
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.trace:
        record["spans"] = [t.spans for t in tracers]
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w") as fh:
        json.dump(record, fh)

    for err in errors:
        print(err, file=sys.stderr)
    print(f"{args.workload}: seed={args.seed} trace={args.trace} "
          f"rounds={len(plain)} queries={record['queries']} ({wl.query})")
    print("context: " + json.dumps(context, sort_keys=True))
    by_name: dict[str, list] = {}
    for c in checks:
        by_name.setdefault(c.name, []).append(c)
    for name, group in by_name.items():
        bad = [c for c in group if not c.passed]
        print(f"  check {name}: {'FAIL' if bad else 'PASS'} "
              f"({len(group) - len(bad)} of {len(group)}) "
              f"{(bad or group)[-1].detail}")
    for k, v in metrics.items():
        print(f"  {k:40s} {v:.6g} {units[k]}")
    print(f"  {'fail_ratio':40s} {record['fail_ratio']:.6g} "
          f"({failed} of {attempted})")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


# ---------------------------------------------------------------------------
# all workloads, one process each


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        res = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if res.returncode != 0 or not lines:
            print(f"{name}: exit code {res.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}/{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lookdown" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'lookdown'}; run from a "
              "lookdown source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
