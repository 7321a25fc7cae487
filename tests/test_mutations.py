import math
import warnings

import numpy as np
import pytest

from lookdown import engine, laws, mutations, stats
from lookdown.errors import (ConfigurationError, SampleSizeError,
                             ValidationError)
from lookdown.seeding import rng_from


def _points(seed=50, t_end=2500.0):
    st = engine.generate_event_stream(engine.EngineConfig(
        level_cap=60, t_start=0.0, t_end=t_end, burn_in=25.0, seed=seed))
    return engine.mrca_point_process(st)


class TestConfig:
    def test_theta_positive(self):
        with pytest.raises(ConfigurationError):
            mutations.MutationConfig(theta=0.0)
        with pytest.raises(ValidationError):
            mutations.SubstitutionEvent(1.0, 0)


class TestSimulateSubstitutions:
    def test_events_live_on_establishments(self, rng):
        pp = _points()
        cfg = mutations.MutationConfig(theta=2.0)
        events = mutations.simulate_substitutions(pp, cfg, rng)
        e_set = set(pp.establishment.tolist())
        assert events
        for ev in events:
            assert ev.time in e_set
            assert ev.count >= 1

    def test_determinism(self):
        pp = _points()
        cfg = mutations.MutationConfig(theta=1.0, seed=7)
        a = mutations.simulate_substitutions(pp, cfg, rng_from(7, "m"))
        b = mutations.simulate_substitutions(pp, cfg, rng_from(7, "m"))
        assert a == b

    def test_small_theta_mostly_empty(self, rng):
        pp = _points(seed=51, t_end=300.0)
        cfg = mutations.MutationConfig(theta=1e-6)
        events = mutations.simulate_substitutions(pp, cfg, rng)
        assert len(events) <= 2

    def test_mass_conservation(self, rng):
        # long-run substitution mass per unit of B-span approaches theta/2
        pp = _points(seed=52, t_end=4000.0)
        for theta in (1.0, 2.0):
            events = mutations.simulate_substitutions(
                pp, mutations.MutationConfig(theta=theta), rng)
            rate, se = mutations.substitution_mass_rate(events, pp)
            assert abs(rate - theta / 2) < 4 * se

    def test_validation(self, rng):
        pp = _points(seed=53, t_end=200.0)
        bad = engine.MrcaPointProcess(
            establishment=pp.establishment[:1], living=pp.living[:1],
            window=pp.window, n_open=0)
        # one condition, one error, from both functions
        with pytest.raises(SampleSizeError):
            mutations.simulate_substitutions(
                bad, mutations.MutationConfig(theta=1.0), rng)
        with pytest.raises(SampleSizeError):
            mutations.substitution_mass_rate([], bad)


class TestSampleTc:
    def test_positive(self, rng):
        draws = laws.sample_Tc_batch(1000, rng)
        assert np.all(draws > 0)

    def test_mean(self, rng):
        draws = laws.sample_Tc_batch(100_000, rng)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - laws.expected_Tc()) < 3 * se

    def test_reduction_vs_equilibrium(self, rng):
        # expected segregating sites of a 2-sample at an MRCA change is
        # theta * E[Tc]: about 42% below the equilibrium theta * 1
        draws = laws.sample_Tc_batch(50_000, rng)
        assert 0.5 < draws.mean() < 0.66


def _dispersion(events, window, weighted=True):
    """Variance-to-mean ratio of substitution counts per window; weighted,
    each event counts with its batch size."""
    weights = [ev.count for ev in events] if weighted else None
    return stats.count_dispersion([ev.time for ev in events], window,
                                  weights=weights)[0]


class TestDispersion:
    def test_poisson_input_near_one(self, rng):
        times = np.cumsum(rng.exponential(1.0, 30_000))
        events = [mutations.SubstitutionEvent(float(t), 1) for t in times]
        ratio = _dispersion(events, window=4.0)
        n_win = int((times[-1] - times[0]) / 4.0)
        assert abs(ratio - 1.0) < 4 * math.sqrt(2.0 / n_win)

    def test_tiny_window_unweighted_tends_to_one(self, rng):
        times = np.cumsum(rng.exponential(1.0, 20_000))
        events = [mutations.SubstitutionEvent(float(t), int(k))
                  for t, k in zip(times, rng.poisson(2.0, 20_000) + 1)]
        ratio = _dispersion(events, window=0.02, weighted=False)
        assert abs(ratio - 1.0) < 0.05

    def test_substitutions_cluster(self, rng):
        pp = _points(seed=54, t_end=4000.0)
        events = mutations.simulate_substitutions(
            pp, mutations.MutationConfig(theta=2.0), rng)
        ratio = _dispersion(events, window=5.0)
        _, n_win = stats.count_dispersion([e.time for e in events], 5.0)
        assert ratio - 1.0 > 4 * math.sqrt(2.0 / n_win)

    def test_sample_size_guard(self):
        with pytest.raises(SampleSizeError):
            _dispersion([mutations.SubstitutionEvent(1.0, 1)] * 50, window=1.0)

