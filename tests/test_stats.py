import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats

from lookdown import laws, stats
from lookdown.errors import (DegenerateBinningError, SampleSizeError,
                             ValidationError)
from lookdown.seeding import rng_from
from lookdown.tables import INF, table_from_pairs

from oracle import chi_square_two_sample


class TestEmpiricalPmf:
    def test_exact_fractions(self):
        t = stats.empirical_pmf([1, 1, 2])
        assert dict(t.items()) == {1: Fraction(2, 3), 2: Fraction(1, 3)}
        assert t.n == 3

    def test_inf_cell_counted_separately(self):
        t = stats.empirical_pmf([1, INF, INF, 2])
        assert t.support == (1, 2, INF)
        assert dict(t.items())[INF] == Fraction(1, 2)
        assert sum(t.weights) == 1

    def test_empty_rejected(self):
        with pytest.raises(SampleSizeError):
            stats.empirical_pmf([])

    def test_sampler_cellwise_close(self, rng):
        n = 100_000
        draws = laws.sample_L(rng, n).tolist()
        weights = dict(stats.empirical_pmf(draws).items())
        for l in range(1, 7):
            p = float(laws.pmf_L(l))
            assert abs(float(weights[l]) - p) \
                < 4 * math.sqrt(p * (1 - p) / n)


class TestChiSquare:
    def test_exact_match_gives_zero(self):
        exact = laws.pmf_L_table(4)
        # build an empirical table exactly equal to the law
        n = 2 * 3 * 2 * 5 * 3 * 7 * 10  # divisible by all denominators
        samples = []
        for l in range(1, 5):
            samples += [l] * int(laws.pmf_L(l) * n)
        samples += [99] * (n - len(samples))  # tail mass in one lump
        rep = stats.chi_square_gof(stats.empirical_pmf(samples), exact)
        assert rep.statistic == pytest.approx(0.0, abs=1e-12)
        assert rep.p_value == pytest.approx(1.0)
        assert rep.passed

    def test_correct_model_passes(self, rng):
        draws = laws.sample_L(rng, 100_000).tolist()
        rep = stats.chi_square_gof(stats.empirical_pmf(draws),
                                   laws.pmf_L_table(8))
        assert rep.passed and rep.p_value > 0.001

    def test_wrong_model_rejected(self, rng):
        draws = (laws.sample_L(rng, 100_000) + 1).tolist()  # shifted by one
        rep = stats.chi_square_gof(stats.empirical_pmf(draws),
                                   laws.pmf_L_table(8))
        assert rep.p_value < 1e-6

    def test_degenerate_binning(self):
        exact = laws.pmf_L_table(2)
        with pytest.raises(DegenerateBinningError):
            stats.chi_square_gof(stats.empirical_pmf([1, 2]), exact)

    def test_thin_cells_pool_into_tail(self):
        # expected 24, 24, 6, 3, 3: cells 3 and 4 pool into a tail of 6
        exact = table_from_pairs([(0, Fraction(2, 5)), (1, Fraction(2, 5)),
                                  (2, Fraction(1, 10)), (3, Fraction(1, 20)),
                                  (4, Fraction(1, 20))])
        samples = [0] * 20 + [1] * 26 + [2] * 8 + [3] * 4 + [4] * 2
        rep = stats.chi_square_gof(stats.empirical_pmf(samples), exact)
        # 16/24 + 4/24 + 4/6 + 0/6
        assert rep.statistic == pytest.approx(1.5, rel=1e-12)
        assert (rep.dof, rep.bins) == (3, "4 cells (min_expected=5.0)")

    def test_mass_outside_support_joins_tail(self):
        # expected 40, 20, 10 and a tail of 10 from the tail bound 1/8;
        # the twelve 7s lie outside the support and fill the tail
        exact = table_from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 4)),
                                  (2, Fraction(1, 8))], tail_bound=0.125)
        samples = [0] * 36 + [1] * 22 + [2] * 10 + [7] * 12
        rep = stats.chi_square_gof(stats.empirical_pmf(samples), exact)
        # 16/40 + 4/20 + 0/10 + 4/10
        assert rep.statistic == pytest.approx(1.0, rel=1e-12)
        assert (rep.dof, rep.bins) == (3, "4 cells (min_expected=5.0)")

    def test_thin_tail_merges_into_last_cell(self):
        # expected 24, 12, 9, 3: the tail (cell 3 and the three 9s outside
        # the support) expects 3 < 5, so it merges into cell 2: 14 vs 12
        exact = table_from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 4)),
                                  (2, Fraction(3, 16)), (3, Fraction(1, 16))])
        samples = [0] * 20 + [1] * 14 + [2] * 9 + [3] * 2 + [9] * 3
        rep = stats.chi_square_gof(stats.empirical_pmf(samples), exact)
        # 16/24 + 4/12 + 4/12
        assert rep.statistic == pytest.approx(4 / 3, rel=1e-12)
        assert (rep.dof, rep.bins) == (2, "3 cells (min_expected=5.0)")

    def test_p_value_is_the_chi2_survival_function(self, rng):
        # chdtrc is the routine chi2.sf calls: equal to the bit on a grid,
        # and so in every report, from p near 1 to p far below alpha
        stat = np.concatenate([np.linspace(0.0, 400.0, 401),
                               np.geomspace(1e-6, 1e4, 300)])
        for dof in (1, 2, 3, 5, 8, 13, 40, 150):
            assert np.array_equal(scipy.special.chdtrc(dof, stat),
                                  scipy.stats.chi2.sf(stat, dof))
        exact = laws.pmf_L_table(12)
        for shift in (0.0, 0.02, 0.05, 0.2):
            draws = laws.sample_L(rng, 5_000)
            draws[rng.random(draws.size) < shift] += 1
            rep = stats.chi_square_gof(stats.empirical_pmf(draws.tolist()),
                                       exact)
            assert rep.p_value == float(
                scipy.stats.chi2.sf(rep.statistic, rep.dof))

    def test_two_sample_null_and_power(self, rng):
        a = laws.sample_L(rng, 20_000).tolist()
        b = laws.sample_L(rng, 20_000).tolist()
        assert chi_square_two_sample(a, b).passed
        c = (laws.sample_L(rng, 20_000) + 1).tolist()
        assert chi_square_two_sample(a, c).p_value < 1e-6


class TestKs:
    def test_null(self, rng):
        x = rng.exponential(1.0, 10_000)
        rep = stats.ks_test_exp1(x)
        assert rep.passed and rep.p_value > 0.001

    def test_power_exp2(self, rng):
        x = rng.exponential(0.5, 10_000)
        assert stats.ks_test_exp1(x).p_value < 1e-6

    def test_validation(self, rng):
        with pytest.raises(SampleSizeError):
            stats.ks_test_exp1([1.0] * 10)
        with pytest.raises(ValidationError):
            stats.ks_test_exp1([1.0] * 50 + [-1.0])
        with pytest.raises(ValidationError):
            stats.ks_test_exp1([1.0] * 50 + [0.0])
        with pytest.raises(ValidationError):
            stats.ks_test_exp1([1.0] * 50 + [math.nan])

    @pytest.mark.parametrize("n", [1000, 2 * stats._KS_BLOCK,
                                   2 * stats._KS_BLOCK + 1])
    def test_blocks_equal_the_full_grid(self, rng, n):
        # below one block, at an exact multiple of it and one past it, the
        # statistic and p-value equal those of the unblocked formula
        x = rng.exponential(1.0, n)
        x0 = x.copy()
        xs = np.sort(x)
        cdf = 1.0 - np.exp(-xs)
        grid = np.arange(n, dtype=np.float64)
        d = float(max(np.max(np.abs(cdf - (grid + 1.0) / n)),
                      np.max(np.abs(cdf - grid / n))))
        rep = stats.ks_test_exp1(x)
        assert rep.statistic == d
        assert rep.p_value == float(scipy.special.kolmogorov(math.sqrt(n) * d))
        assert np.array_equal(x, x0)    # the input is left alone

    def test_memory_beyond_the_input(self, rng):
        # a sorted copy and one block of the grid: about 12 bytes a sample
        # (the unblocked formula held about 40)
        x = rng.exponential(1.0, 400_000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stats.ks_test_exp1(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 16 * x.size


class TestMomentBand:
    def test_pass_and_fail(self, rng):
        x = rng.exponential(1.0, 10_000)
        assert stats.moment_band(x, target_mean=1.0).passed
        assert not stats.moment_band(x, target_mean=2.0).passed

    def test_constant_samples_wrong_mean(self):
        rep = stats.moment_band([5.0] * 200, target_mean=1.0)
        assert not rep.passed and rep.p_value == 0.0

    def test_report_consistency(self, rng):
        rep = stats.moment_band(rng.normal(0, 1, 500), target_mean=0.0)
        assert (rep.p_value > rep.alpha) == rep.passed
        payload = json.loads(json.dumps(rep.to_dict()))
        assert {"name", "statistic", "p_value", "pass", "n"} <= payload.keys()


class TestDispersion:
    def test_poisson_calibration(self, rng):
        times = np.cumsum(rng.exponential(1.0, 20_000))
        ratio, n_win = stats.count_dispersion(times, 1.0)
        assert abs(ratio - 1.0) < 4 * math.sqrt(2.0 / n_win)

    def test_weighted_batches_overdisperse(self, rng):
        times = np.cumsum(rng.exponential(1.0, 20_000))
        weights = rng.poisson(1.0, 20_000) + 1
        ratio, n_win = stats.count_dispersion(times, 5.0, weights=weights)
        assert ratio - 1.0 > 4 * math.sqrt(2.0 / n_win)

    def test_lag1(self, rng):
        x = rng.exponential(1.0, 50_000)
        assert abs(stats.lag1_autocorrelation(x)) < 4 / math.sqrt(len(x))
        y = np.repeat(rng.exponential(1.0, 25_000), 2)
        assert stats.lag1_autocorrelation(y) > 0.3


@pytest.mark.slow
class TestNullCalibration:
    """Under the correct model the pass rate over many seeds stays >= 1-2a."""

    def test_ks_calibration(self):
        # n per seed large enough for the asymptotic p-value to be honest
        passes = 0
        n_seeds = 1000
        for s in range(n_seeds):
            x = rng_from(999, "cal", s).exponential(1.0, 500)
            passes += stats.ks_test_exp1(x).passed
        assert passes / n_seeds >= 1 - 2 * stats.ALPHA_DEFAULT

    def test_chi_square_calibration(self):
        exact = laws.pmf_L_table(6)
        passes = 0
        n_seeds = 1000
        for s in range(n_seeds):
            draws = laws.sample_L(rng_from(998, "cal", s), 3000).tolist()
            passes += stats.chi_square_gof(
                stats.empirical_pmf(draws), exact).passed
        assert passes / n_seeds >= 1 - 2 * stats.ALPHA_DEFAULT
