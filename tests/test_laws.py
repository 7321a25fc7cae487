import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lookdown import laws
from lookdown.errors import DomainError
from lookdown.tables import INF

from oracle import K_transition


class TestPmfL:
    def test_values(self):
        assert laws.pmf_L(1) == Fraction(1, 3)
        assert laws.pmf_L(2) == Fraction(1, 6)
        assert [laws.pmf_L(l) for l in range(3, 6)] == \
            [Fraction(1, 10), Fraction(1, 15), Fraction(1, 21)]

    def test_domain(self):
        with pytest.raises(DomainError):
            laws.pmf_L(0)

    def test_normalization_with_exact_tail(self):
        total = sum(laws.pmf_L(l) for l in range(1, 1001)) + laws.pmf_L_tail(1000)
        assert total == 1

    def test_table(self):
        t = laws.pmf_L_table(8)
        assert dict(t.items())[1] == Fraction(1, 3)
        assert float(t.tail_bound) == pytest.approx(0.2)

    def test_sampler_matches_pmf(self, rng):
        n = 200_000
        draws = laws.sample_L(rng, n)
        for l in (1, 2, 3, 5):
            p = float(laws.pmf_L(l))
            phat = np.mean(draws == l)
            assert abs(phat - p) < 4 * math.sqrt(p * (1 - p) / n)


class TestPmfLI:
    def test_point_values(self):
        assert laws.pmf_LI(2, 3) == Fraction(1, 30)
        assert laws.pmf_LI(3, 3) == Fraction(1, 30)
        assert laws.pmf_LI(1, INF) == Fraction(1, 3)

    def test_off_support_is_zero(self):
        assert laws.pmf_LI(1, 3) == 0
        assert laws.pmf_LI(2, 2) == 0
        assert laws.pmf_LI(2, INF) == 0
        assert laws.pmf_LI(0, 5) == 0

    @given(st.integers(min_value=2, max_value=7))
    def test_marginal_over_blocks_is_pmf_L(self, level):
        # partial sum plus the exact telescoped tail equals the L marginal
        partial = sum(laws.pmf_LI(level, i) for i in range(3, 60))
        assert partial + laws.pmf_LI_blocks_tail(level, 59) == laws.pmf_L(level)

    def test_table_mass(self):
        t = laws.pmf_LI_table(6, 12)
        assert dict(t.items())[(1, INF)] == Fraction(1, 3)
        assert 0 < t.tail_bound < 0.5


class TestJointI:
    def test_all_infinite(self):
        assert laws.joint_I() == Fraction(1, 3)

    def test_single_matches_pmf_LI(self):
        assert laws.joint_I(3) == laws.pmf_LI(2, 3)
        assert laws.joint_I(4) == laws.pmf_LI(2, 4)

    def test_marginal_sum_reproduces_pmf_LI(self):
        # sum over i3 of joint(i, i3) equals pmf_LI(3, i), exactly once the
        # telescoped tail sum_{i3>M} 1/((i3+2)(i3+3)) = 1/(M+3) is added
        for i in (3, 4, 6):
            M = 400
            partial = sum(laws.joint_I(i, i3) for i3 in range(i + 1, M + 1))
            prefactor = Fraction(4, (i + 1) * (i + 2))
            tail = prefactor * Fraction(1, M + 3)
            assert partial + tail == laws.pmf_LI(3, i)

    def test_domain(self):
        with pytest.raises(DomainError):
            laws.joint_I(2)
        with pytest.raises(DomainError):
            laws.joint_I(4, 4)
        with pytest.raises(DomainError):
            laws.joint_I(5, 3)


class TestKChain:
    def test_transition(self):
        assert K_transition(2, 1) == Fraction(1, 3)
        with pytest.raises(DomainError):
            K_transition(2, 2)

    @pytest.mark.parametrize("j", [2, 3, 7, 30])
    def test_forward_recursion_is_the_transition_chain(self, j):
        # the integer recursion against one Fraction step per key, with
        # the keys in the same order
        dist = {1: Fraction(1)}
        for jj in range(2, j):
            nxt = {}
            for k, p in dist.items():
                up = K_transition(jj, k)
                nxt[k + 1] = nxt.get(k + 1, Fraction(0)) + p * up
                nxt[k] = nxt.get(k, Fraction(0)) + p * (1 - up)
            dist = nxt
        fwd = laws.K_marginal_forward(j)
        assert fwd == dist and list(fwd) == list(dist)

    def test_marginal_j3(self):
        assert laws.K_marginal(3, 1) == Fraction(2, 3)
        assert laws.K_marginal(3, 2) == Fraction(1, 3)

    @given(st.integers(min_value=2, max_value=25))
    @settings(max_examples=12, deadline=None)
    def test_forward_recursion_matches_closed_form(self, j):
        fwd = laws.K_marginal_forward(j)
        assert fwd == {k: laws.K_marginal(j, k) for k in range(1, j)}
        assert sum(fwd.values()) == 1

    def test_limit_is_pmf_L(self):
        j = 10**6
        for k in (1, 2, 5):
            assert abs(float(laws.K_marginal(j, k) - laws.pmf_L(k))) < 1e-5


class TestPiLambda:
    def test_reference_values(self):
        assert laws.pi_lambda(()) == Fraction(1, 3)
        assert laws.pi_lambda((3, 2)) == Fraction(1, 30)

    def test_trailing_ones_convention(self):
        assert laws.pi_lambda((3, 2, 1, 1)) == Fraction(1, 30)
        assert laws.pi_lambda((1,)) == Fraction(1, 3)

    @given(st.lists(st.integers(min_value=2, max_value=9), min_size=2,
                    max_size=4))
    def test_ill_ordered_is_zero(self, levels):
        if all(a > b for a, b in zip(levels, levels[1:])):
            assert laws.pi_lambda(tuple(levels)) > 0
        else:
            assert laws.pi_lambda(tuple(levels)) == 0

    def test_leading_marginal_matches_pmf_L(self):
        # sum pi over everything below a fixed leading level
        t = laws.pi_table(12, 5)
        for lead in (2, 3, 6):
            mass = sum(w for cfg, w in t.items()
                       if cfg and cfg[0] == lead)
            assert abs(float(mass - laws.pmf_L(lead))) < 1e-6

    def test_mass_coverage(self):
        # configs with leading level <= 12 and Z <= 4, plus the exact
        # leading-level tail, account for all mass except the joint event
        # {lead <= 12, Z > 4}, which is bounded by the Z-tail from pmf_Z
        from lookdown import zlaw
        t = laws.pi_table(12, 4)
        covered = float(sum(t.weights))
        explained = covered + float(laws.pmf_L_tail(12))
        z_tail = 1.0 - sum(zlaw.pmf_Z(z) for z in range(5))
        assert 0.99 < explained <= 1.0 + 1e-12
        assert 0.0 <= 1.0 - explained <= z_tail + 1e-12


class TestSampling:
    def test_sample_S_mean_and_var(self, rng):
        n = 100_000
        s = laws.sample_S_batch(np.full(n, 2), rng)
        assert s.mean() == pytest.approx(1.0, abs=4 * s.std() / math.sqrt(n))
        # Var[S_2^inf] = sum_{k>=3} Var[T_k], T_k ~ Exp(C(k, 2))
        ks = np.arange(3, 1_000_000, dtype=np.float64)
        var = float(np.sum((2.0 / (ks * (ks - 1.0))) ** 2))
        assert s.var() == pytest.approx(var, rel=0.05)

    def test_sample_S_high_start_is_tail_mean(self, rng):
        s = laws.sample_S_batch(np.full(10, 2000), rng)
        assert np.allclose(s, 2.0 / 2000)

    def test_sample_S_domain(self, rng):
        with pytest.raises(DomainError):
            laws.sample_S_batch(np.asarray([0]), rng)


class TestTc:
    def test_constant(self):
        assert laws.expected_Tc() == pytest.approx(2 * math.pi**2 / 3 - 6,
                                                   abs=1e-15)

    def test_series_route(self):
        assert abs(laws.expected_Tc_series() - laws.expected_Tc()) < 1e-10

    def test_mixture_description(self):
        table = laws.pmf_Tc_mixture(30)
        assert (table.support[0], table.weights[0]) == (2, Fraction(1, 3))
        total = sum(table.weights) + Fraction(table.tail_bound).limit_denominator(10**9)
        assert abs(float(total) - 1.0) < 1e-12
        # weighted component means E[S_i^inf] = 2/i reproduce E[Tc] up to
        # the tail
        acc = sum(float(w) * 2.0 / i for i, w in table.items())
        assert abs(acc - laws.expected_Tc()) < 1e-2


class TestZeta:
    def test_even_exact_coefficients(self):
        assert laws.zeta_even_pi_coeff(2) == Fraction(1, 6)
        assert laws.zeta_even_pi_coeff(4) == Fraction(1, 90)
        assert laws.zeta_even_pi_coeff(6) == Fraction(1, 945)
        assert laws.zeta_even_pi_coeff(12) == Fraction(691, 638512875)
        with pytest.raises(DomainError):
            laws.zeta_even_pi_coeff(3)
