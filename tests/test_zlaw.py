import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lookdown import zlaw
from lookdown.errors import DomainError
from lookdown.zlaw import PiPoly


class TestPiPoly:
    def test_arithmetic(self):
        a = PiPoly.const(Fraction(1, 2))
        b = PiPoly.pi_power(2, Fraction(1, 6))
        s = a + b
        assert float(s) == pytest.approx(0.5 + math.pi**2 / 6)
        assert (b * b).coeffs == (Fraction(0), Fraction(0), Fraction(1, 36))
        assert (2 * a).as_fraction() == 1

    def test_rationality_detection(self):
        assert PiPoly.const(3).is_rational()
        assert not PiPoly.pi_power(2, 1).is_rational()
        with pytest.raises(DomainError):
            PiPoly.pi_power(2, 1).as_fraction()

    def test_odd_power_rejected(self):
        with pytest.raises(DomainError):
            PiPoly.pi_power(3, 1)


class TestXk:
    def test_x1_exact(self):
        assert zlaw.x_k_closed(1).as_fraction() == Fraction(11, 18)
        assert zlaw.x_k_series(1) == pytest.approx(11 / 18, abs=1e-12)

    def test_x2_reference_value(self):
        # closed form reduces to (pi^2 - 31/4)/27
        poly = zlaw.x_k_closed(2)
        assert poly.coeffs == (Fraction(-31, 108), Fraction(1, 27))
        assert float(poly) == pytest.approx(0.0785039, abs=5e-8)

    def test_series_vs_closed_form(self):
        for k in range(1, 11):
            assert abs(zlaw.x_k_series(k) - float(zlaw.x_k_closed(k))) < 1e-9

    def test_positive_decreasing(self):
        xs = [float(zlaw.x_k_closed(k)) for k in range(1, 12)]
        assert all(x > 0 for x in xs)
        assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            zlaw.x_k_closed(0)
        with pytest.raises(DomainError):
            zlaw.x_k_series(0)


class TestPz:
    def test_base_cases(self):
        assert zlaw.p_z_recursive(0).as_fraction() == 1
        assert zlaw.p_z_recursive(1).as_fraction() == Fraction(11, 18)

    def test_p2_reference(self):
        assert float(zlaw.p_z_recursive(2)) == pytest.approx(0.1474765, abs=5e-8)

    def test_recursion_equals_partition_exactly(self):
        for z in range(16):
            assert zlaw.p_z_recursive(z) == zlaw.p_z_partition(z)

    def test_partition_cap(self):
        with pytest.raises(DomainError):
            zlaw.p_z_partition(31)

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=8, deadline=None)
    def test_partition_count_is_classical(self, z):
        classical = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
        assert sum(1 for _ in zlaw.partitions(z)) == classical[z]


class TestPmfZ:
    def test_exact_weights(self):
        assert zlaw.pmf_Z_exact(0).as_fraction() == Fraction(1, 3)
        assert zlaw.pmf_Z_exact(1).as_fraction() == Fraction(11, 27)
        assert zlaw.pmf_Z_exact(2).coeffs == (Fraction(107, 243),
                                              Fraction(-2, 81))
        assert zlaw.pmf_Z_exact(3).coeffs == (Fraction(1003, 2187),
                                              Fraction(-10, 243))

    def test_float_values(self):
        assert zlaw.pmf_Z(2) == pytest.approx(0.19664, abs=5e-6)
        assert zlaw.pmf_Z(3) == pytest.approx(0.05246, abs=5e-6)

    def test_table_rational_where_possible(self):
        t = zlaw.pmf_Z_table(4)
        weights = dict(t.items())
        assert weights[0] == Fraction(1, 3)
        assert weights[1] == Fraction(11, 27)
        assert isinstance(weights[2], float)

    def test_mass_sums_to_one(self):
        total = sum(zlaw.pmf_Z(z) for z in range(30))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestPgf:
    def test_normalization_and_zero(self):
        assert zlaw.pgf_Z(1.0) == pytest.approx(1.0, abs=1e-9)
        assert zlaw.pgf_Z(0.0) == pytest.approx(1 / 3, abs=1e-12)

    def test_product_vs_series(self):
        for u in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert abs(zlaw.pgf_Z(u) - zlaw.pgf_Z_series(u)) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            zlaw.pgf_Z(1.5)
        with pytest.raises(DomainError):
            zlaw.pgf_Z(-0.1)

    def test_derivative_at_one_is_mean(self):
        # one-sided, since the pgf's domain ends at 1
        h = 1e-5
        d = (zlaw.pgf_Z(1.0) - zlaw.pgf_Z(1 - h)) / h
        assert d == pytest.approx(1.0, abs=1e-4)

    def test_mean_var_closed_form(self):
        mean, var = zlaw.mean_var_Z()
        assert mean == 1.0
        assert var == pytest.approx(0.8405274652, abs=1e-9)
        assert var == pytest.approx(zlaw.var_Z_series(), abs=1e-9)

