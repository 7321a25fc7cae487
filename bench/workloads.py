"""The three benchmark workloads.

Each workload turns the run seed into inputs (configs and seeds the package
receives), runs fixed-size rounds of work, and checks the outputs.  A round
returns its wall time, one latency per query, the model time it covered and
the outputs the checks need.  Checks that are exact run on every round;
statistical checks run once per run, on the outputs of all rounds pooled, so
that each run makes a fixed number of tests at the verify suite's alpha.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lookdown import cli, engine, laws, particles, stats, zlaw
from lookdown.verify import ALPHA, _config_cell

# Full sizes are the benchmark; tiny sizes exist for the smoke tests.
SIZES = {
    "lookdown-cold": {
        "full": dict(levels=1000, per_round=16, min_rounds=7),
        "tiny": dict(levels=100, per_round=16, min_rounds=7),
    },
    "lookdown-grid": {
        "full": dict(levels=1000, t_end=10.0, spacing=0.05, min_rounds=3),
        "tiny": dict(levels=100, t_end=10.0, spacing=0.1, min_rounds=3),
    },
    "particles-equilibrium": {
        "full": dict(cap=10_000, per_round=75, horizon=100.0, draws=10_000,
                     min_rounds=1),
        "tiny": dict(cap=100, per_round=8, horizon=100.0, draws=2_000,
                     min_rounds=1),
    },
}


# round index whose inputs feed the untimed warm-up
WARMUP = 2**32
# An exit gap counts only if it starts this long before the horizon.  Gaps
# that must also end inside the window are biased short (by about 1/horizon
# in the mean); selecting on the start alone keeps them Exp(1), up to e^-30.
GAP_EDGE = 30.0


def input_seeds(seed: int, tag: str, r: int, n: int) -> list[int]:
    """n seeds for round r, derived from the run seed without package code."""
    key = [seed & (2**64 - 1), int.from_bytes(tag.encode(), "little"), r]
    return [int(s) for s in
            np.random.default_rng(key).integers(0, 2**63 - 1, size=n)]


@dataclass
class Round:
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    queries: int = 0
    model_time: float = 0.0
    outputs: dict = field(default_factory=dict)
    ops: int = 0
    errors: list[str] = field(default_factory=list)

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; an exception is recorded as a failed one."""
        self.ops += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # the run goes on and reports the failure
            self.errors.append(traceback.format_exc())
            return None


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# lookdown-cold: one observables_at query on each of many fresh streams


class LookdownCold:
    name = "lookdown-cold"
    query = "one observables_at(stream, 0.0) on a fresh stream"

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.p = SIZES[self.name][size]

    def inputs(self, r: int) -> list[engine.EngineConfig]:
        return [engine.EngineConfig(level_cap=self.p["levels"], t_start=0.0,
                                    t_end=0.5, burn_in=40.0, seed=s)
                for s in input_seeds(self.seed, "cold", r,
                                     self.p["per_round"])]

    def setup(self) -> None:
        for cfg in self.inputs(0):
            engine.generate_event_stream(cfg)

    def warmup(self) -> None:
        self._query(self.inputs(WARMUP)[0])

    def round(self, r: int) -> Round:
        configs = self.inputs(r)
        out = Round(queries=len(configs))
        obs = []
        start = time.perf_counter()
        for cfg in configs:
            q0 = time.perf_counter()
            o = out.attempt(self._query, cfg)
            out.latencies.append(time.perf_counter() - q0)
            obs.append(o)
        out.wall = time.perf_counter() - start
        done = [o for o in obs if o is not None]
        out.model_time = sum(o.time - o.mrca_time for o in done)
        out.outputs = {"obs": [(o.mrca_time, o.fixation_level,
                                str(o.coalescent_level), o.curve_count)
                               for o in done]}
        return out

    @staticmethod
    def _query(cfg):
        return engine.observables_at(engine.generate_event_stream(cfg), 0.0)

    def check_round(self, rnd: Round) -> list[Check]:
        return []

    def check_pooled(self, rounds: list[Round]) -> list[Check]:
        n_levels = self.p["levels"]
        obs = [o for rnd in rounds for o in rnd.outputs["obs"]]
        ls = [o[1] for o in obs]
        depth = [-o[0] for o in obs]   # queries sit at t = 0
        rep = stats.chi_square_gof(stats.empirical_pmf(ls),
                                   laws.K_table(n_levels, 30), alpha=ALPHA,
                                   name="L_vs_K_marginal")
        target = 2.0 * (1.0 - 1.0 / n_levels)
        band = stats.moment_band(depth, target_mean=target, name="depth_mean")
        return [
            Check("L_vs_K_marginal", rep.passed,
                  f"n={rep.n} chi2 p={rep.p_value:.4g} (> {ALPHA})"),
            Check("depth_mean", band.passed,
                  f"mean t-A {np.mean(depth):.4f} vs 2(1-1/N)={target:.4f}, "
                  f"|z|={band.statistic:.2f} (<= 4)"),
        ]


def _read_csv(path: Path, columns: tuple[str, ...]) -> np.ndarray:
    """Named float columns of a CSV file, parsed exactly."""
    with open(path, newline="") as fh:
        rows = [[float(row[c]) for c in columns] for row in csv.DictReader(fh)]
    return np.asarray(rows, dtype=np.float64).reshape(-1, len(columns))


# ---------------------------------------------------------------------------
# lookdown-grid: simulate-lookdown through cli.main on one shared stream


class LookdownGrid:
    name = "lookdown-grid"
    query = "one observables row of simulate-lookdown"

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.p = SIZES[self.name][size]
        self.out = workdir / "grid"

    def inputs(self, r: int, t_end: float | None = None,
               spacing: float | None = None) -> list[str]:
        (s,) = input_seeds(self.seed, "grid", r, 1)
        return ["simulate-lookdown", "--levels", str(self.p["levels"]),
                "--t-start", "0", "--t-end", str(t_end or self.p["t_end"]),
                "--sample-spacing", str(spacing or self.p["spacing"]),
                "--no-events", "--seed", str(s), "--out", str(self.out)]

    def setup(self) -> None:
        cli.build_parser().parse_args(self.inputs(0))

    def warmup(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self.inputs(WARMUP, t_end=1.0, spacing=0.5))

    def round(self, r: int) -> Round:
        argv = self.inputs(r)
        out = Round(model_time=self.p["t_end"])
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = out.attempt(cli.main, argv)
        out.wall = time.perf_counter() - start
        out.outputs = {"code": code}
        if code != 0:
            return out
        obs_path, pts_path = self.out / "observables.csv", self.out / "mrca_points.csv"
        obs = _read_csv(obs_path, ("t", "A", "Z"))
        pts = _read_csv(pts_path, ("E", "B"))
        out.queries = len(obs)
        out.latencies = [out.wall / max(len(obs), 1)]
        digest = hashlib.sha256(obs_path.read_bytes() + pts_path.read_bytes())
        out.outputs.update(obs=obs, points=pts, digest=digest.hexdigest())
        return out

    def check_round(self, rnd: Round) -> list[Check]:
        code = rnd.outputs["code"]
        if code is None:   # cli.main raised: already a failed operation
            return []
        checks = [Check("exit_code", code == 0, f"exit code {code}")]
        if code != 0:
            return checks
        obs, pts = rnd.outputs["obs"], rnd.outputs["points"]
        expected_rows = len(np.arange(0.0, self.p["t_end"], self.p["spacing"]))
        checks.append(Check("rows", len(obs) == expected_rows,
                            f"{len(obs)} rows, expected {expected_rows}"))
        if len(pts) == 0:
            return checks   # no MRCA established in the window: nothing to compare
        pp = engine.MrcaPointProcess(establishment=pts[:, 0], living=pts[:, 1],
                                     window=(0.0, self.p["t_end"]), n_open=0)
        t, a, z = obs[:, 0], obs[:, 1], obs[:, 2]
        a_pp, _, _ = pp.path_at(t)
        known = ~np.isnan(a_pp)
        # before the first establishment in the window the current MRCA is
        # older than the exported points, so path_at has no value there
        a_ok = (np.array_equal(known, t >= pts[0, 0])
                and np.array_equal(a[known], a_pp[known]))
        checks.append(Check("A_equals_path_at", bool(a_ok),
                            f"{int(known.sum())} sample times compared"))
        sel = t <= pts[-1, 1]
        z_pp = np.array([pp.z_at(float(x)) for x in t[sel]])
        checks.append(Check("Z_equals_z_at",
                            bool(np.array_equal(z[sel], z_pp)),
                            f"{int(sel.sum())} sample times compared"))
        return checks

    def check_pooled(self, rounds: list[Round]) -> list[Check]:
        return []


# ---------------------------------------------------------------------------
# particles-equilibrium: particle climb, exact samplers, exact laws, GoF


class ParticlesEquilibrium:
    name = "particles-equilibrium"
    query = "one particles.simulate run from an exact stationary start"

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.p = SIZES[self.name][size]

    def inputs(self, r: int):
        n = self.p["per_round"]
        seeds = input_seeds(self.seed, "particles", r, 2 * n + 1)
        configs = [(np.random.default_rng(seeds[n + q]),
                    dict(particle_cap=self.p["cap"], horizon=self.p["horizon"],
                         seed=seeds[q]))
                   for q in range(n)]
        return configs, np.random.default_rng(seeds[-1])

    def setup(self) -> None:
        for _, cfg in self.inputs(0)[0]:
            particles.ParticleSimConfig(**cfg)

    def warmup(self) -> None:
        init_rng, cfg = self.inputs(WARMUP)[0][0]
        self._query(init_rng, dict(cfg, horizon=5.0))
        self._tables()

    @staticmethod
    def _query(init_rng, cfg):
        # pi has unbounded support; a capped system must start below its cap
        init = particles.sample_stationary(init_rng)
        while init.levels and init.levels[0] >= cfg["particle_cap"]:
            init = particles.sample_stationary(init_rng)
        return particles.simulate(
            particles.ParticleSimConfig(init=init, **cfg), sample_spacing=5.0)

    @staticmethod
    def _tables():
        pi = laws.pi_table(10, 3)
        z_table = zlaw.pmf_Z_table(6)
        k_exact = all(laws.K_marginal_forward(j)
                      == {k: laws.K_marginal(j, k) for k in range(1, j)}
                      for j in range(2, 51))
        return pi, z_table, k_exact

    def round(self, r: int) -> Round:
        configs, rng = self.inputs(r)
        out = Round(queries=len(configs))
        occ, zs, gaps = [], [], []
        start = time.perf_counter()
        for init_rng, cfg in configs:
            q0 = time.perf_counter()
            run = out.attempt(self._query, init_rng, cfg)
            out.latencies.append(time.perf_counter() - q0)
            if run is not None:
                occ.extend(_config_cell(c) for c in run.sample_configs)
                zs.extend(len(c) for c in run.sample_configs)
                e = run.exits
                gaps.append(np.diff(e)[e[:-1] <= cfg["horizon"] - GAP_EDGE])
                out.model_time += cfg["horizon"]
        draws = out.attempt(particles.sample_stationary_many, rng,
                            self.p["draws"])
        mixture = out.attempt(laws.sample_S_batch,
                              laws.sample_L(rng, self.p["draws"]), rng)
        tables = out.attempt(self._tables)
        outputs = {"occupation": occ, "z": zs,
                   "gaps": np.concatenate(gaps or [[]]),
                   "stationary": [_config_cell(c) for c in draws or []],
                   "mixture": mixture, "tables": tables}
        if tables is not None and draws is not None and mixture is not None:
            outputs["p_values"] = out.attempt(self._gof, outputs)
        out.wall = time.perf_counter() - start
        out.outputs = outputs
        return out

    @staticmethod
    def _gof(o) -> dict[str, float]:
        pi, z_table, _ = o["tables"]
        reps = [
            stats.chi_square_gof(stats.empirical_pmf(o["occupation"]), pi,
                                 alpha=ALPHA, name="occupation_vs_pi"),
            stats.chi_square_gof(stats.empirical_pmf(o["z"]), z_table,
                                 alpha=ALPHA, name="Z_vs_pmf_Z"),
            stats.chi_square_gof(stats.empirical_pmf(o["stationary"]), pi,
                                 alpha=ALPHA, name="sampler_vs_pi"),
            stats.ks_test_exp1(o["gaps"], alpha=ALPHA, name="exit_gaps_vs_exp1"),
            stats.ks_test_exp1(o["mixture"], alpha=ALPHA,
                               name="S_mixture_vs_exp1"),
        ]
        return {rep.name: rep.p_value for rep in reps}

    def check_round(self, rnd: Round) -> list[Check]:
        tables = rnd.outputs.get("tables")
        if tables is None:
            return []
        return [Check("K_chain_exact", tables[2],
                      "K marginals by forward recursion equal the closed "
                      "form for j <= 50")]

    def check_pooled(self, rounds: list[Round]) -> list[Check]:
        pooled = {
            "occupation": [c for r in rounds for c in r.outputs["occupation"]],
            "z": [z for r in rounds for z in r.outputs["z"]],
            "stationary": [c for r in rounds for c in r.outputs["stationary"]],
            "gaps": np.concatenate([r.outputs["gaps"] for r in rounds]),
            "mixture": np.concatenate([r.outputs["mixture"] for r in rounds]),
            "tables": rounds[0].outputs["tables"],
        }
        return [Check(name, p > ALPHA, f"p={p:.4g} (> {ALPHA})")
                for name, p in self._gof(pooled).items()]


WORKLOADS = {w.name: w for w in (LookdownCold, LookdownGrid,
                                 ParticlesEquilibrium)}
