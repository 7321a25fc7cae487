"""Acceptance suite: every criterion as a named, seeded, self-reporting check.

``run_suite`` executes the checks at the "full" profile sizes (the stated
acceptance scale) or the reduced "quick" profile, and is what both the CLI
verify subcommand and tests/test_acceptance.py drive.  All tolerances are
pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import functools
import json
import math
import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import engine, laws, mutations, particles, stats, zlaw
from .errors import ConfigurationError, warning_summary
from .seeding import child_seed, rng_from

DEFAULT_SEED = 20260809
ALPHA = 0.001
# grid spacing of the occupation samples of criteria 3 and 5
SAMPLE_SPACING = 5.0

PROFILES = {
    "full": dict(
        c3_draws=100_000, c3_horizon=200_000.0,
        c6_n=5_000, c6_levels=1_000,
        c7_min_bin=300,
        c8_draws=100_000,
        c9_reps=100,
        c10_draws=100_000,
    ),
    "quick": dict(
        c3_draws=20_000, c3_horizon=8_000.0,
        c6_n=500, c6_levels=300,
        c7_min_bin=50,
        c8_draws=20_000,
        c9_reps=15,
        c10_draws=20_000,
    ),
}


@dataclass
class CheckResult:
    passed: bool
    detail: str
    reports: list[dict] = field(default_factory=list)
    # the counters of the runs the check read, particle or engine; a run
    # an earlier check made is in both reports
    work: dict = field(default_factory=dict)
    # run_suite sets the rest: number and name from the check's place in
    # CHECKS and its function's name; the seconds the check spent itself,
    # near zero when it reads an earlier check's run; its warnings, counted
    name: str = ""
    criterion: int = 0
    seconds: float = 0.0
    warnings: dict = field(default_factory=dict)

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.criterion:2d} [{self.name}] {flag} "
                f"({self.seconds:.1f}s): {self.detail}")

    def to_dict(self) -> dict:
        return {"name": self.name, "criterion": self.criterion,
                "pass": self.passed, "detail": self.detail,
                "seconds": self.seconds, "work": self.work,
                "warnings": self.warnings, "reports": self.reports}


@dataclass
class SuiteResult:
    profile: str
    seed: int
    results: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> str:
        return json.dumps({
            "profile": self.profile, "seed": self.seed,
            "pass": self.all_passed,
            "checks": [r.to_dict() for r in self.results]}, indent=2)


# ---------------------------------------------------------------------------
# criterion 1: exact constants

def check_exact_constants(p: dict, seed: int) -> CheckResult:
    # each moment is computed by a route that does not use its closed form:
    # E[Z] from the weights, Var[Z] and E[T_c] by series summation
    tol = 1e-9
    pi2 = math.pi**2
    targets = {
        "pmf_Z(0)": (zlaw.pmf_Z(0), 1.0 / 3.0),
        "pmf_Z(1)": (zlaw.pmf_Z(1), 11.0 / 27.0),
        "pmf_Z(2)": (zlaw.pmf_Z(2), 107.0 / 243.0 - 2.0 * pi2 / 81.0),
        "pmf_Z(3)": (zlaw.pmf_Z(3), 1003.0 / 2187.0 - 10.0 * pi2 / 243.0),
        "E[Z]": (sum(z * zlaw.pmf_Z(z) for z in range(15)), 1.0),
        "Var[Z]": (zlaw.var_Z_series(), 14.0 - 4.0 * pi2 / 3.0),
        "E[Tc]": (laws.expected_Tc_series(), 2.0 * pi2 / 3.0 - 6.0),
    }
    errs = {k: abs(a - b) for k, (a, b) in targets.items()}
    worst = max(errs, key=errs.get)
    return CheckResult(
        passed=max(errs.values()) < tol,
        detail=f"worst |err| = {errs[worst]:.2e} at {worst} (tol {tol:.0e})")


# ---------------------------------------------------------------------------
# criterion 2: dual-method identities

def check_dual_method_identities(p: dict, seed: int) -> CheckResult:
    x_err = max(abs(zlaw.x_k_series(k) - float(zlaw.x_k_closed(k)))
                for k in range(1, 11))
    p_err = max(abs(float(zlaw.p_z_recursive(z))
                    - float(zlaw.p_z_partition(z))) for z in range(16))
    pgf_err = max(abs(zlaw.pgf_Z(u) - zlaw.pgf_Z_series(u))
                  for u in (0.0, 0.25, 0.5, 0.75, 1.0))
    norm_err = abs(zlaw.pgf_Z(1.0) - 1.0)
    ok = x_err < 1e-9 and p_err < 1e-10 and pgf_err < 1e-8 and norm_err < 1e-9
    return CheckResult(passed=ok, detail=(
        f"x_k {x_err:.2e} (<1e-9), p_z {p_err:.2e} (<1e-10), "
        f"pgf {pgf_err:.2e} (<1e-8), pgf(1)-1 {norm_err:.2e} (<1e-9)"))


# ---------------------------------------------------------------------------
# criterion 3: particle-system equilibrium

# one shared tuple per cell, so a list of n cells holds n pointers; the
# cells are bounded (131 with "other"), and so is this dict
_CELLS: dict[tuple[int, ...], tuple[int, ...]] = {}


def _config_cell(levels):
    # the cells of pi_table(10, 3), and "other" for the rest
    if len(levels) <= 3 and (not levels or levels[0] <= 10):
        cell = tuple(levels)
        return _CELLS.setdefault(cell, cell)
    return "other"


@functools.lru_cache(maxsize=1)
def _equilibrium_run(horizon: float, seed: int) -> tuple[
        particles.ParticleRunResult, engine.MrcaPointProcess]:
    """The stationary particle run at cap 10^4 that criteria 3, 4, 5, 7
    and 11 read, and its (E, B) pairs: each exit and its particle's
    arrival; run_suite keeps them for one call."""
    cfg = particles.ParticleSimConfig(
        particle_cap=10_000, horizon=horizon,
        seed=child_seed(seed, "c3", "sim"), burn_in=50.0)
    run = particles.simulate(cfg, sample_spacing=SAMPLE_SPACING)
    return run, engine.MrcaPointProcess(run.exits, run.living,
                                        (0.0, horizon), run.n_alive)


def check_particle_equilibrium(p: dict, seed: int) -> CheckResult:
    exact = laws.pi_table(10, 3)
    rng = rng_from(seed, "c3", "stationary")
    draws = [_config_cell(c) for c in
             particles.sample_stationary_many(rng, p["c3_draws"])]
    rep1 = stats.chi_square_gof(stats.empirical_pmf(draws), exact,
                                alpha=ALPHA, name="sample_stationary_vs_pi")

    run, _ = _equilibrium_run(p["c3_horizon"], seed)
    occ = [_config_cell(c) for c in run.sample_configs]
    rep2 = stats.chi_square_gof(stats.empirical_pmf(occ), exact,
                                alpha=ALPHA, name="occupation_vs_pi")
    # a new MRCA is established in equilibrium too; successive post-exit
    # configurations share particles, so keep the exits at least
    # SAMPLE_SPACING after the last one kept
    post_exit, last = [], -math.inf
    for e, c in zip(run.exits.tolist(), run.exit_configs):
        if e - last >= SAMPLE_SPACING:
            post_exit.append(_config_cell(c))
            last = e
    rep3 = stats.chi_square_gof(stats.empirical_pmf(post_exit), exact,
                                alpha=ALPHA, name="post_exit_vs_pi")
    ok = rep1.passed and rep2.passed and rep3.passed
    return CheckResult(passed=ok, detail=(
        f"chi2 stationary-sampler p={rep1.p_value:.4f}, "
        f"occupation (n={rep2.n}) p={rep2.p_value:.4f}, "
        f"post-exit (n={rep3.n}) p={rep3.p_value:.4f} (all > {ALPHA})"),
        reports=[rep1.to_dict(), rep2.to_dict(), rep3.to_dict()],
        work=run.counters())


# ---------------------------------------------------------------------------
# criterion 4: Poisson exit process

def check_poisson_exit_process(p: dict, seed: int) -> CheckResult:
    run, _ = _equilibrium_run(p["c3_horizon"], seed)
    summary = particles.exit_gap_statistics(run.exits)
    n = summary.n_gaps
    lag_band = 4.0 / math.sqrt(n)
    disp_band = 4.0 * math.sqrt(2.0 / summary.n_windows)
    ok = (summary.ks_report.passed
          and abs(summary.lag1_autocorrelation) <= lag_band
          and abs(summary.dispersion - 1.0) <= disp_band)
    return CheckResult(passed=ok, detail=(
        f"n={n} gaps: KS p={summary.ks_report.p_value:.4f}, "
        f"lag1 {summary.lag1_autocorrelation:+.4f} (|.|<={lag_band:.4f}), "
        f"dispersion {summary.dispersion:.4f} (1 +- {disp_band:.4f})"),
        reports=[summary.to_dict()], work=run.counters())


# ---------------------------------------------------------------------------
# criterion 5: Z law by simulation

def check_z_law_by_simulation(p: dict, seed: int) -> CheckResult:
    run, _ = _equilibrium_run(p["c3_horizon"], seed)
    zs = [len(c) for c in run.sample_configs]
    rep = stats.chi_square_gof(stats.empirical_pmf(zs), zlaw.pmf_Z_table(6),
                               alpha=ALPHA, name="Z_vs_pmf_Z")
    band = stats.moment_band(zs, target_mean=1.0, name="Z_mean")
    ok = rep.passed and band.passed
    return CheckResult(passed=ok, detail=(
        f"n={len(zs)}: chi2 p={rep.p_value:.4f} (> {ALPHA}), "
        f"mean {np.mean(zs):.4f} z={band.statistic:.2f} (<4)"),
        reports=[rep.to_dict(), band.to_dict()], work=run.counters())


# ---------------------------------------------------------------------------
# criterion 6: look-down observables

def _add_work(work: dict, stream) -> None:
    """Add an engine stream's ``counters()`` into work."""
    for k, v in stream.counters().items():
        work[k] = work.get(k, 0) + v


def _lookdown_LI_samples(levels: int, n: int, seed: int, work: dict):
    ls, iis = [], []
    for r in range(n):
        cfg = engine.EngineConfig(level_cap=levels, t_start=0.0, t_end=0.5,
                                  burn_in=40.0, seed=child_seed(seed, "rep", r))
        stream = engine.generate_event_stream(cfg)
        obs = engine.observables_at(stream, 0.0)
        _add_work(work, stream)
        ls.append(obs.fixation_level)
        iis.append(obs.coalescent_level)
    return ls, iis


def check_lookdown_observables(p: dict, seed: int) -> CheckResult:
    n, levels = p["c6_n"], p["c6_levels"]
    work: dict = {}
    ls, iis = _lookdown_LI_samples(levels, n, child_seed(seed, "c6"), work)
    # at level cap N, L follows the K chain's marginal K^N exactly
    rep = stats.chi_square_gof(stats.empirical_pmf(ls),
                               laws.K_table(levels, 8), alpha=ALPHA,
                               name="L_vs_K_N")

    worst_z = 0.0
    joint_ok = True
    for i in range(3, 9):
        pr = float(laws.pmf_LI(2, i))
        phat = sum(1 for lv, ii in zip(ls, iis) if lv == 2 and ii == i) / n
        se = math.sqrt(pr * (1 - pr) / n)
        z = abs(phat - pr) / se
        worst_z = max(worst_z, z)
        joint_ok &= z <= 4.0
    ok = rep.passed and joint_ok
    return CheckResult(passed=ok, detail=(
        f"N={levels}, n={n}: chi2(L) p={rep.p_value:.4f}; "
        f"P[L=2,I=i] worst |z|={worst_z:.2f} (<=4)"),
        reports=[rep.to_dict()], work=work)


# ---------------------------------------------------------------------------
# criterion 7: exponential establishment times

def check_exponential_establishments(p: dict, seed: int) -> CheckResult:
    horizon = p["c3_horizon"]
    run, pp = _equilibrium_run(horizon, seed)
    # the paper's second Poisson claim: the B gaps are Exp(1) too
    ks_gaps = stats.ks_test_exp1(np.diff(pp.living), alpha=ALPHA,
                                 name="B_gaps")
    # E - B is the climb S_{2->cap}, of mean 1 - 2/cap; successive pairs
    # share the particles below them, so every 10th pair is kept
    band = stats.moment_band((pp.establishment - pp.living)[::10],
                             target_mean=1.0 - run.exit_time_bias,
                             name="E-B_mean")

    times = np.arange(30.0, horizon - 1.0, 2.0)
    a, _, e_next = pp.path_at(times)
    valid = ~np.isnan(a) & ~np.isnan(e_next)
    depth = times[valid] - a[valid]
    residual = e_next[valid] - times[valid]
    reports = [ks_gaps.to_dict(), band.to_dict()]
    bin_ok, bin_detail = True, []
    for lo in np.arange(0.5, 4.0, 0.5):
        sel = (depth > lo) & (depth <= lo + 0.5)
        cnt = int(sel.sum())
        if cnt < p["c7_min_bin"]:
            bin_ok = False
            bin_detail.append(f"n={cnt}<{p['c7_min_bin']}")
            continue
        rep = stats.ks_test_exp1(residual[sel], alpha=ALPHA,
                                 name=f"E-t_given_A0_bin_{lo}")
        reports.append(rep.to_dict())
        bin_ok &= rep.passed
        bin_detail.append(f"{rep.p_value:.3f}")
    ok = ks_gaps.passed and band.passed and bin_ok
    return CheckResult(passed=ok, detail=(
        f"{pp.establishment.size} exits: B-gap KS p={ks_gaps.p_value:.4f}; "
        f"E-B (n={band.n}) mean {band.extra['mean']:.4f} "
        f"z={band.statistic:.2f} (<4); "
        f"per-bin E-t KS p: [{', '.join(bin_detail)}] (all > {ALPHA})"),
        reports=reports, work=run.counters())


# ---------------------------------------------------------------------------
# criterion 8: mixture identity

def check_mixture_identity(p: dict, seed: int) -> CheckResult:
    rng = rng_from(seed, "c8")
    ls = laws.sample_L(rng, p["c8_draws"])
    draws = laws.sample_S_batch(ls, rng)
    rep = stats.ks_test_exp1(draws, alpha=ALPHA, name="L_mixture_vs_exp1")
    return CheckResult(passed=rep.passed, detail=(
        f"n={p['c8_draws']}: sum_l pmf_L(l) S_l law, "
        f"KS vs Exp(1) p={rep.p_value:.4f} (> {ALPHA})"),
        reports=[rep.to_dict()])


# ---------------------------------------------------------------------------
# criterion 9: structural equalities

def _replay_jump_back(events, cap: int) -> tuple[int, int]:
    """Replay a recorded trajectory and verify each transition, exits in
    particular: the post-exit levels must be the pre-exit levels with the
    triggering push applied and the leader removed."""
    cur: list[int] = []
    n_exits = violations = 0
    for ev in events:
        if ev.kind == "arrival":
            ok = ev.levels == tuple(l + 1 for l in cur) + (2,)
        elif ev.kind == "push":
            ok = ev.levels == tuple(
                l + 1 if m < ev.k else l for m, l in enumerate(cur))
        else:
            n_exits += 1
            ok = False
            for k in range(1, len(cur) + 1):
                bumped = [l + 1 if m < k else l for m, l in enumerate(cur)]
                if bumped[0] >= cap and tuple(bumped[1:]) == ev.levels:
                    ok = True
                    break
            if not ok and cur:
                bumped = [l + 1 for l in cur] + [2]
                ok = bumped[0] >= cap and tuple(bumped[1:]) == ev.levels
        violations += not ok
        cur = list(ev.levels)
    return n_exits, violations


def _curve_and_z_equalities(reps: int, seed: int, work: dict) -> str | None:
    """Each rep's fixation and coalescent step functions agree, and so do
    its three definitions of Z; the first disagreement, or None."""
    for r in range(reps):
        cfg = engine.EngineConfig(level_cap=30, t_start=0.0, t_end=40.0,
                                  burn_in=15.0, seed=child_seed(seed, "c9", r))
        stream = engine.generate_event_stream(cfg)
        curves = engine.extract_fixation_curves(stream, window=(0.0, 40.0))
        closed = [c for c in curves if not c.is_open and c.birth > 1.0]
        if not closed:
            return f"rep {r}: no closed curve"
        c0 = closed[r % len(closed)]
        curve_back = engine.coalescent_curve(stream, float(c0.exit_time))
        fix_steps = c0.steps()
        coa_steps = [s for s in curve_back.steps() if s[1] < cfg.level_cap]
        if fix_steps != coa_steps or curve_back.mrca_time != c0.birth:
            return f"rep {r}: fixation/coalescent step functions differ"
        pp = engine.mrca_point_process(stream, window=(0.0, 40.0))
        for q in (10.0, 20.0, 30.0):
            z_pp = pp.z_at(q)
            z_curves = sum(1 for c in curves
                           if c.birth < q and (c.exit_time is None
                                               or c.exit_time > q))
            z_obs = engine.observables_at(stream, q).curve_count
            if not z_pp == z_curves == z_obs:
                return f"rep {r}: Z definitions disagree at t={q}"
        _add_work(work, stream)
    return None


def check_structural_equalities(p: dict, seed: int) -> CheckResult:
    reps = p["c9_reps"]
    work: dict = {}
    failure = _curve_and_z_equalities(reps, seed, work)
    if failure is not None:
        return CheckResult(passed=False, detail=failure, work=work)
    pcfg = particles.ParticleSimConfig(particle_cap=60, horizon=300.0,
                                       seed=child_seed(seed, "c9", "jump"))
    rows: list[particles.TransitionEvent] = []
    run = particles.simulate(pcfg, trajectory=rows.append)
    n_exits, violations = _replay_jump_back(rows, 60)
    ok = violations == 0 and n_exits > 50
    return CheckResult(passed=ok, detail=(
        f"{reps} exact curve equalities, {3 * reps} Z cross-checks, "
        f"jump-back verified at {n_exits} exits "
        f"({violations} violations)"),
        work={**work, **run.counters()})


# ---------------------------------------------------------------------------
# criterion 10: T_c and the K chain

def check_tc_and_k_chain(p: dict, seed: int) -> CheckResult:
    rng = rng_from(seed, "c10")
    draws = laws.sample_Tc_batch(p["c10_draws"], rng)
    target = laws.expected_Tc()
    se = float(draws.std(ddof=1)) / math.sqrt(draws.size)
    z = abs(float(draws.mean()) - target) / se
    k_ok = all(laws.K_marginal_forward(j) ==
               {k: laws.K_marginal(j, k) for k in range(1, j)}
               for j in range(2, 51))
    ok = z <= 3.0 and k_ok
    return CheckResult(passed=ok, detail=(
        f"T_c mean {draws.mean():.5f} vs {target:.5f} "
        f"(|z|={z:.2f} <= 3); K marginals exact for j <= 50: {k_ok}"))


# ---------------------------------------------------------------------------
# criterion 11: substitutions

def check_substitutions(p: dict, seed: int) -> CheckResult:
    run, pp = _equilibrium_run(p["c3_horizon"], seed)
    mcfg = mutations.MutationConfig(theta=2.0, seed=child_seed(seed, "c11", "m"))
    events = mutations.simulate_substitutions(
        pp, mcfg, rng_from(mcfg.seed, "subst"))
    rate, se = mutations.substitution_mass_rate(events, pp)
    z_rate = abs(rate - 1.0) / se
    disp, n_win = stats.count_dispersion(
        [e.time for e in events], 5.0,
        weights=[e.count for e in events])
    z_disp = (disp - 1.0) / math.sqrt(2.0 / n_win)
    ok = z_rate <= 3.0 and z_disp > 4.0
    return CheckResult(passed=ok, detail=(
        f"{pp.establishment.size} MRCA points, {len(events)} "
        f"substitution events: mass rate {rate:.4f} vs 1 "
        f"(|z|={z_rate:.2f} <= 3); dispersion {disp:.3f} "
        f"(z={z_disp:.1f} > 4)"),
        work=run.counters())


CHECKS = [
    check_exact_constants,
    check_dual_method_identities,
    check_particle_equilibrium,
    check_poisson_exit_process,
    check_z_law_by_simulation,
    check_lookdown_observables,
    check_exponential_establishments,
    check_mixture_identity,
    check_structural_equalities,
    check_tc_and_k_chain,
    check_substitutions,
]


def run_suite(profile: str = "full", seed: int = DEFAULT_SEED,
              only: list[int] | None = None,
              echo=None) -> SuiteResult:
    """Run the acceptance checks; ``only`` selects criteria by number."""
    if profile not in PROFILES:
        raise ConfigurationError(f"unknown profile {profile!r}")
    if not set(only or ()) <= set(range(1, len(CHECKS) + 1)):
        raise ConfigurationError(f"criteria {only} not in 1..{len(CHECKS)}")
    params = PROFILES[profile]
    results = []
    try:
        for idx, fn in enumerate(CHECKS, start=1):
            if only and idx not in only:
                continue
            t0 = time.time()
            # warnings the checks raise, such as a StationarityWarning, are
            # counted in the report, not silenced
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    res = fn(params, seed)
                except Exception as exc:  # a broken check hides no other
                    res = CheckResult(
                        False, f"raised {type(exc).__name__}: {exc}",
                        reports=[{"traceback": traceback.format_exc()}])
            res.seconds = time.time() - t0
            res.name = fn.__name__.removeprefix("check_").replace("_", "-")
            res.criterion = idx
            res.warnings = warning_summary(caught)
            results.append(res)
            if echo is not None:
                echo(res.line())
    finally:   # the shared run lives for this call only
        _equilibrium_run.cache_clear()
    return SuiteResult(profile=profile, seed=seed, results=results)
