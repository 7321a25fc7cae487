import bisect
import hashlib
import itertools
import math
import warnings
from collections import Counter, deque

import numpy as np
import pytest
import scipy.stats

from lookdown import engine, laws, particles, stats
from lookdown.errors import ConfigurationError, InternalError, SampleSizeError
from lookdown.seeding import rng_from

from oracle import chi_square_two_sample, step, transition_rates


class TestParticleConfig:
    def test_trailing_ones_stripped(self):
        assert particles.ParticleConfig((5, 2, 1, 1)).levels == (5, 2)
        assert particles.ParticleConfig((1, 1)).levels == ()

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            particles.ParticleConfig((2, 5))
        with pytest.raises(ConfigurationError):
            particles.ParticleConfig((4, 4))


class TestRates:
    def test_spec_examples(self):
        assert transition_rates((5, 2)) == [
            ("push", 1, 12), ("push", 2, 2), ("arrival", None, 1)]
        assert transition_rates((2,)) == [
            ("push", 1, 2), ("arrival", None, 1)]
        assert transition_rates(()) == [("arrival", None, 1)]

    def test_total_rate_identity(self):
        for levels in [(), (2,), (7,), (9, 4, 2), (20, 11, 5, 3, 2)]:
            rates = transition_rates(levels)
            total = sum(r for _, _, r in rates)
            expected = laws.comb2(levels[0] + 1) if levels else 1
            assert total == expected


class TestStep:
    def test_empty_goes_to_single(self, rng):
        state, ev = step(particles.ParticleConfig.empty(), rng)
        assert state.levels == (2,)
        assert ev.kind == "arrival"
        assert ev.time > 0

    def test_holding_time_rate(self):
        # state (5,2): holding ~ Exp(15)
        rng = rng_from(5, "hold")
        times = []
        state = particles.ParticleConfig((5, 2))
        for _ in range(20_000):
            _, ev = step(state, rng)
            times.append(ev.time)
        assert np.mean(times) == pytest.approx(1 / 15, rel=0.03)

    def test_branch_frequencies(self):
        rng = rng_from(6, "branch")
        state = particles.ParticleConfig((5, 2))
        kinds = Counter()
        for _ in range(30_000):
            _, ev = step(state, rng)
            kinds[(ev.kind, ev.k)] += 1
        # rates 12 : 2 : 1
        assert kinds[("push", 1)] / 30_000 == pytest.approx(12 / 15, abs=0.01)
        assert kinds[("push", 2)] / 30_000 == pytest.approx(2 / 15, abs=0.01)
        assert kinds[("arrival", None)] / 30_000 == pytest.approx(1 / 15, abs=0.01)

    def test_push_semantics(self, rng):
        state = particles.ParticleConfig((5, 2))
        for _ in range(50):
            new, ev = step(state, rng)
            if ev.kind == "push" and ev.k == 1:
                assert new.levels == (6, 2)
            elif ev.kind == "push" and ev.k == 2:
                assert new.levels == (6, 3)
            else:
                assert new.levels == (6, 3, 2)


def _recorded(cfg, **kw):
    """(run, trajectory rows) of one run with the trajectory recorded."""
    rows = []
    return particles.simulate(cfg, trajectory=rows.append, **kw), rows


class TestSimulate:
    def test_deterministic(self):
        cfg = particles.ParticleSimConfig(particle_cap=200, horizon=50.0, seed=3)
        a, a_rows = _recorded(cfg)
        b, b_rows = _recorded(cfg)
        assert np.array_equal(a.exits, b.exits)
        assert a_rows == b_rows

    def test_exit_rate_near_one(self):
        cfg = particles.ParticleSimConfig(particle_cap=2_000, horizon=4_000.0,
                                          seed=11, burn_in=30.0)
        run = particles.simulate(cfg)
        rate = run.exits.size / cfg.horizon
        assert rate == pytest.approx(1.0, abs=4 / math.sqrt(cfg.horizon))

    def test_trajectory_replay_valid(self):
        cfg = particles.ParticleSimConfig(particle_cap=50, horizon=120.0, seed=9)
        run, rows = _recorded(cfg)
        cur: list[int] = []
        n_exits = 0
        for ev in rows:
            assert all(a > b for a, b in zip(ev.levels, ev.levels[1:]))
            if ev.kind == "arrival":
                assert ev.levels == tuple(l + 1 for l in cur) + (2,)
            elif ev.kind == "push":
                assert ev.levels == tuple(
                    l + 1 if m < ev.k else l for m, l in enumerate(cur))
            else:  # exit: some push of 1..k crossed the cap, leader removed
                n_exits += 1
                candidates = []
                for k in range(1, len(cur) + 1):
                    bumped = [l + 1 if m < k else l for m, l in enumerate(cur)]
                    if bumped[0] >= 50:
                        candidates.append(tuple(bumped[1:]))
                bumped_arrival = [l + 1 for l in cur] + [2]
                if bumped_arrival and bumped_arrival[0] >= 50:
                    candidates.append(tuple(bumped_arrival[1:]))
                assert ev.levels in candidates
            cur = list(ev.levels)
        assert n_exits == run.exits.size > 50

    def test_exit_configs_match_trajectory_exit_rows(self):
        # both exit paths (a solo climb to the cap, and a shared push or
        # arrival that carries the leader over it) record the post-exit state
        cfg = particles.ParticleSimConfig(particle_cap=60, horizon=300.0,
                                          seed=10, burn_in=10.0)
        run, rows = _recorded(cfg)
        exit_rows = [ev for ev in rows if ev.kind == "exit"]
        assert len(run.exit_configs) == run.exits.size > 50
        assert run.exit_configs == [ev.levels for ev in exit_rows]
        assert [ev.time for ev in exit_rows] == run.exits.tolist()

    def test_living_is_each_exits_arrival(self):
        # a FIFO replay of the rows: a row that adds a particle is an
        # arrival, even one that carries the leader over the cap
        cfg = particles.ParticleSimConfig(particle_cap=60, horizon=300.0,
                                          seed=3)
        run, rows = _recorded(cfg)
        queue, living, alive = deque(), [], 0
        for ev in rows:
            exited = ev.kind == "exit"
            if len(ev.levels) + exited > alive:
                queue.append(ev.time)
            if exited:
                living.append(queue.popleft())
            alive = len(ev.levels)
        assert run.living.tolist() == living
        assert run.n_alive == len(queue) == alive
        assert np.all(run.living < run.exits)

    def test_living_of_an_initial_particle_is_nan(self):
        init = particles.ParticleConfig((40, 9, 2))
        cfg = particles.ParticleSimConfig(particle_cap=100, horizon=200.0,
                                          seed=8, init=init)
        run = particles.simulate(cfg)
        assert run.living.size == run.exits.size > 100
        nan = np.isnan(run.living)
        assert nan[:3].all() and not nan[3:].any()

    @pytest.mark.parametrize("cap", [12, 60, 200])
    def test_final_state_and_samples_follow_the_rows(self, cap):
        # with no burn-in every transition is a row, so each grid sample,
        # the last one before the horizon included, is the levels of the
        # last row at or before it, also when it falls inside the leader's
        # climb; the grid is the running sum 0.37, 0.37 + 0.37, ...
        for seed in range(10):
            cfg = particles.ParticleSimConfig(particle_cap=cap, horizon=50.0,
                                              seed=seed)
            run, rows = _recorded(cfg, sample_spacing=0.37)
            assert run.n_transitions == len(rows)
            times = [ev.time for ev in rows]
            grid = list(itertools.accumulate([0.37] * len(run.sample_configs)))
            assert grid[-1] < 50.0 <= grid[-1] + 0.37
            for s, levels in zip(grid, run.sample_configs):
                m = bisect.bisect_right(times, s)
                assert levels == (rows[m - 1].levels if m else ())

    def test_out_of_order_state_is_an_internal_error(self):
        init = particles.ParticleConfig((5, 3, 2))
        object.__setattr__(init, "levels", (3, 3, 3))
        cfg = particles.ParticleSimConfig(particle_cap=50, horizon=10.0,
                                          init=init)
        with pytest.raises(InternalError, match="order"):
            particles.simulate(cfg)

    def test_burn_in_discards_prefix(self):
        cfg = particles.ParticleSimConfig(particle_cap=100, horizon=30.0,
                                          seed=4, burn_in=10.0)
        run, rows = _recorded(cfg, sample_spacing=1.0)
        assert all(ev.time >= 0 for ev in rows)
        assert np.all(run.exits >= 0)
        # samples at 1, 2, ..., 29: none in the burn-in
        assert len(run.sample_configs) == 29

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            particles.ParticleSimConfig(particle_cap=5, horizon=10.0, seed=0)
        with pytest.raises(ConfigurationError):
            particles.ParticleSimConfig(particle_cap=100, horizon=-1.0, seed=0)


def _digest(run, rows) -> str:
    """Hash of a run's outputs and its trajectory rows (None if unrecorded)."""
    h = hashlib.sha256(run.exits.tobytes())
    for part in (run.exit_configs, run.sample_configs, run.n_transitions,
                 rows):
        h.update(repr(part).encode())
    return h.hexdigest()


class TestFlights:
    # digests of the draws of the buffered streams, short climbs in plain
    # Python and chunks sized from the expected pushes: no leader flies at
    # a cap of at most K_STAR or with the trajectory recorded
    @pytest.mark.parametrize("cap, horizon, seed, init, record, digest", [
        (12, 200.0, 1, (), False,
         "09c3a7d32987248071b9dc95d78655a45014a6f1bfa5623d38903d67fff10552"),
        (200, 200.0, 2, (150, 7, 2), False,
         "90c15fe6bf1f0a46f1562e17e416dc502656cdafd1d060baf607602dbe86e88d"),
        (512, 200.0, 3, (511, 40, 3), False,
         "ba0a1e269fd4d94981422094f1770cdb3ee0f3cd688e1c32f1a8e5c671daf695"),
        (2000, 20.0, 4, (1999, 600, 5), True,
         "e084567f1e0a0ca14722a8074b9fbf479673d674c81173d8d7e54889ab46d64b"),
    ], ids=["cap12", "cap200", "cap512", "cap2000-recorded"])
    def test_runs_without_flights_are_unchanged(self, cap, horizon, seed,
                                                init, record, digest):
        cfg = particles.ParticleSimConfig(
            particle_cap=cap, horizon=horizon, seed=seed, burn_in=5.0,
            init=particles.ParticleConfig(init))
        if record:
            run, rows = _recorded(cfg, sample_spacing=0.37)
        else:
            run, rows = particles.simulate(cfg, sample_spacing=0.37), None
        assert run.n_flights == 0
        assert _digest(run, rows) == digest

    def test_runs_with_flights_are_unchanged(self):
        # both leaders of the initial state fly from the start of the
        # burn-in, and later ones follow; a digest of the same draws as above
        cfg = particles.ParticleSimConfig(
            particle_cap=2000, horizon=200.0, seed=5, burn_in=5.0,
            init=particles.ParticleConfig((1500, 700, 3)))
        run = particles.simulate(cfg, sample_spacing=0.37)
        assert run.n_flights == 204
        assert _digest(run, None) == (
            "dd46ac63b061f1d57293faee0626453348e0b9bd56b674b1f282367bc4befc77")

    def test_benchmark_regime_is_unchanged(self):
        # the regime of the particles-equilibrium benchmark: cap 10^4 from
        # a stationary start, sampled every 5 units; a digest of the same
        # draws as above
        init = particles.sample_stationary(rng_from(13, "init"), below=10_000)
        cfg = particles.ParticleSimConfig(particle_cap=10_000, horizon=100.0,
                                          seed=13, init=init)
        run = particles.simulate(cfg, sample_spacing=5.0)
        assert init.levels == (13, 3, 2) and run.n_flights == 91
        assert _digest(run, None) == (
            "27fbfa6f89fc584d0875ef5c62bfc4b76f072de0bc1c97cff5a67e5fe375af44")

    @pytest.mark.parametrize("cap", [600, 2000, 10_000])
    def test_invariants_with_flights(self, cap):
        flying = 0
        for seed in range(4):
            init = particles.sample_stationary(rng_from(seed, "init"),
                                               below=cap)
            cfg = particles.ParticleSimConfig(particle_cap=cap, horizon=300.0,
                                              seed=seed, burn_in=10.0,
                                              init=init)
            run = particles.simulate(cfg, sample_spacing=0.37)
            e = run.exits
            assert np.all(np.diff(e) > 0) and 0.0 <= e[0] and e[-1] <= 300.0
            assert run.n_flights >= e.size > 200
            assert len(run.exit_configs) == e.size
            for c in run.exit_configs + run.sample_configs:
                assert all(a > b for a, b in zip(c, c[1:]))
                assert not c or (c[0] < cap and c[-1] >= 2)
            grid = list(itertools.accumulate([0.37] * len(run.sample_configs)))
            assert grid[-1] < 300.0 <= grid[-1] + 0.37
            flying += sum(1 for c in run.exit_configs + run.sample_configs
                          if c and c[0] >= particles.K_STAR)
            # flight levels draw from a stream of their own
            assert np.array_equal(particles.simulate(cfg).exits, e)
        assert flying > 0       # configurations that read a leader in flight

    def test_flight_exits_at_the_mean_climb_time(self):
        # both leaders fly from time 0; each exits after 2/l - 2/cap, and
        # the one still flying stays in the first post-exit configuration
        init = particles.ParticleConfig((1500, 700, 3))
        cfg = particles.ParticleSimConfig(particle_cap=2000, horizon=1.0,
                                          seed=5, init=init)
        run = particles.simulate(cfg)
        assert run.exits[:2].tolist() == [2.0 / 1500 - 2.0 / 2000,
                                          2.0 / 700 - 2.0 / 2000]
        assert 700 <= run.exit_configs[0][0] < 2000
        assert run.exit_configs[1][0] < particles.K_STAR

    def test_crowded_flights_stay_below_the_cap(self):
        # at cap 513 one level (512) holds a flight; a second leader
        # reaching 512 makes the flight above it exit at once, so every
        # configuration keeps its particles apart and below the cap
        init = particles.ParticleConfig((512, 511, 510, 509))
        early = 0
        for seed in range(10):
            cfg = particles.ParticleSimConfig(particle_cap=513, horizon=0.01,
                                              seed=seed, init=init)
            run = particles.simulate(cfg, sample_spacing=1e-6)
            assert np.all(np.diff(run.exits) > 0)
            for c in run.exit_configs + run.sample_configs:
                assert all(a > b for a, b in zip(c, c[1:]))
                assert not c or c[0] < 513
            # an early exit leaves the leader that forced it at 512
            early += sum(1 for c in run.exit_configs if c and c[0] == 512)
        assert early > 0

    def test_flights_match_exact_climbs(self, monkeypatch):
        # cap 2000, flights against exact climbs (K_STAR above the cap):
        # exit gaps by two-sample KS, post-exit cells by two-sample chi2,
        # keeping exits at least 5 apart as criterion 3 does
        def runs(seeds):
            gaps, cells = [], []
            for seed in seeds:
                cfg = particles.ParticleSimConfig(
                    particle_cap=2000, horizon=2500.0, seed=seed, burn_in=30.0)
                run = particles.simulate(cfg)
                gaps.append(np.diff(run.exits))
                last = -math.inf
                for e, c in zip(run.exits.tolist(), run.exit_configs):
                    if e - last >= 5.0:
                        cells.append(c if (len(c) <= 3 and (not c or c[0] <= 8))
                                     else "other")
                        last = e
            return np.concatenate(gaps), cells

        flight_gaps, flight_cells = runs([41, 42])
        monkeypatch.setattr(particles, "K_STAR", 10**9)
        exact_gaps, exact_cells = runs([43, 44])
        assert scipy.stats.ks_2samp(flight_gaps, exact_gaps).pvalue > 0.001
        assert chi_square_two_sample(flight_cells, exact_cells).passed


class TestFiniteCapLaw:
    # at a finite cap M the chain has an exact stationary law (solved over
    # its 2^(M-2) states for M <= 12): the leader follows K^M
    # (laws.K_marginal) and E[Z] = 1 - 2/M; these pin the law of the
    # segment loop, whatever its draws
    @staticmethod
    def _samples(cap, seeds, monkeypatch):
        chunked = []
        real = particles._solo_climb
        monkeypatch.setattr(particles, "_solo_climb",
                            lambda *a: chunked.append(a[1:]) or real(*a))
        leaders, zs = [], []
        for seed in seeds:
            cfg = particles.ParticleSimConfig(particle_cap=cap,
                                              horizon=20_000.0, seed=seed,
                                              burn_in=20.0)
            run = particles.simulate(cfg, sample_spacing=4.0)
            leaders += [c[0] if c else 1 for c in run.sample_configs]
            zs += [len(c) for c in run.sample_configs]
        return leaders, zs, chunked

    @pytest.mark.parametrize("crossover", [0, 3, particles._SHORT_CLIMB])
    def test_cap_12(self, monkeypatch, crossover):
        # at the module's crossover every push runs in plain Python; at 0
        # every climb is chunked, and at 3 many go on chunked after three
        # pushes in Python
        monkeypatch.setattr(particles, "_SHORT_CLIMB", crossover)
        leaders, zs, chunked = self._samples(12, range(31, 35), monkeypatch)
        assert len(chunked) > 10_000 if crossover < 10 else not chunked
        rep = stats.chi_square_gof(stats.empirical_pmf(leaders),
                                   laws.K_table(12))
        assert rep.passed and rep.dof == 10
        assert stats.moment_band(zs, target_mean=1.0 - 2.0 / 12).passed

    def test_cap_2000_with_flights_and_long_climbs(self, monkeypatch):
        leaders, _, chunked = self._samples(2000, (35, 36), monkeypatch)
        # chunked climbs out of the loop (c2 > 0), not only flight levels
        assert sum(1 for a in chunked if a[3] > 0) > 1000
        rep = stats.chi_square_gof(stats.empirical_pmf(leaders),
                                   laws.K_table(2000, 9))
        assert rep.passed and rep.dof == 9


class TestStationarySampler:
    @pytest.mark.parametrize("seed", [25, 26])
    def test_many_are_the_single_draws(self, seed):
        n = 5_000
        rng = rng_from(seed, "pi")
        single = [particles.sample_stationary(rng).levels for _ in range(n)]
        assert particles.sample_stationary_many(rng_from(seed, "pi"),
                                                n) == single

    def test_reference_probabilities(self):
        rng = rng_from(21, "pi")
        n = 150_000
        cfgs = particles.sample_stationary_many(rng, n)
        p_empty = sum(1 for c in cfgs if not c) / n
        p_32 = sum(1 for c in cfgs if c == (3, 2)) / n
        assert abs(p_empty - 1 / 3) < 4 * math.sqrt((1 / 3) * (2 / 3) / n)
        assert abs(p_32 - 1 / 30) < 4 * math.sqrt((1 / 30) * (29 / 30) / n)

    def test_matches_pi_lambda_chi2(self):
        rng = rng_from(22, "pi")
        cfgs = particles.sample_stationary_many(rng, 60_000)
        cells = [c if (len(c) <= 3 and (not c or c[0] <= 10)) else "other"
                 for c in cfgs]
        rep = stats.chi_square_gof(stats.empirical_pmf(cells),
                                   laws.pi_table(10, 3))
        assert rep.passed

    @pytest.mark.slow
    def test_matches_long_run_occupation(self):
        cfg = particles.ParticleSimConfig(particle_cap=10_000, horizon=30_000.0,
                                          seed=23, burn_in=50.0)
        run = particles.simulate(cfg, sample_spacing=5.0)
        occ = [c if (len(c) <= 3 and (not c or c[0] <= 8)) else "other"
               for c in run.sample_configs]
        draws = [c if (len(c) <= 3 and (not c or c[0] <= 8)) else "other"
                 for c in particles.sample_stationary_many(
                     rng_from(24, "pi"), len(occ))]
        rep = chi_square_two_sample(occ, draws)
        assert rep.passed


class TestExitStatistics:
    def test_summary_fields(self):
        cfg = particles.ParticleSimConfig(particle_cap=2_000, horizon=2_000.0,
                                          seed=31, burn_in=30.0)
        run = particles.simulate(cfg)
        summ = particles.exit_gap_statistics(run.exits)
        assert summ.n_gaps >= 100
        assert summ.mean_gap == pytest.approx(1.0, abs=0.15)
        assert summ.ks_report.passed
        assert abs(summ.lag1_autocorrelation) < 4 / math.sqrt(summ.n_gaps)
        assert abs(summ.dispersion - 1) < 4 * math.sqrt(2 / summ.n_windows)

    def test_too_few_exits(self):
        with pytest.raises(SampleSizeError):
            particles.exit_gap_statistics(np.arange(50, dtype=float))

    def test_post_exit_configs_in_equilibrium(self):
        cfg = particles.ParticleSimConfig(particle_cap=5_000, horizon=6_000.0,
                                          seed=32, burn_in=30.0)
        run = particles.simulate(cfg)
        cells = [c if (len(c) <= 3 and (not c or c[0] <= 8)) else "other"
                 for c in run.exit_configs]
        rep = stats.chi_square_gof(stats.empirical_pmf(cells),
                                   laws.pi_table(8, 3))
        assert rep.passed


@pytest.mark.slow
class TestCouplingWithLookdown:
    def test_L_Z_law_matches_stationary_sampler(self):
        # (L, Z) read off look-down fixation curves at fixed times vs the
        # exact stationary sampler: two-sample chi-square on a joint cell map
        cfg = engine.EngineConfig(level_cap=100, t_start=0.0, t_end=1_500.0,
                                  burn_in=30.0, seed=77)
        stream = engine.generate_event_stream(cfg)
        lookdown_cells = []
        for t in np.arange(5.0, 1_500.0, 1.5):
            obs = engine.observables_at(stream, float(t))
            l = obs.fixation_level if obs.fixation_level <= 8 else "L>8"
            z = obs.curve_count if obs.curve_count <= 3 else ">3"
            lookdown_cells.append((l, z))
        sampler_cells = []
        rng = rng_from(78, "couple")
        for _ in range(len(lookdown_cells)):
            levels = particles.sample_stationary(rng).levels
            l = levels[0] if levels else 1
            l = l if l <= 8 else "L>8"
            z = len(levels) if len(levels) <= 3 else ">3"
            sampler_cells.append((l, z))
        rep = chi_square_two_sample(lookdown_cells, sampler_cells)
        assert rep.passed
