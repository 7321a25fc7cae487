import math
from fractions import Fraction

import pytest

from lookdown.errors import ValidationError
from lookdown.tables import INF, PmfTable, table_from_pairs


def test_table_normalization_enforced():
    with pytest.raises(ValidationError):
        PmfTable((1, 2), (Fraction(1, 3), Fraction(1, 3)), tail_bound=0.0)
    t = PmfTable((1, 2), (Fraction(1, 3), Fraction(1, 3)),
                 tail_bound=float(Fraction(1, 3)))
    assert dict(t.items()) == {1: Fraction(1, 3), 2: Fraction(1, 3)}


def test_table_rejects_bad_weights():
    with pytest.raises(ValidationError):
        PmfTable((1,), (-0.5,), tail_bound=1.5)
    with pytest.raises(ValidationError):
        PmfTable((1, 1), (Fraction(1, 2), Fraction(1, 2)))


def test_inf_in_support():
    # INF is the float infinity: above every level, keyed by value alone
    assert INF is math.inf and 10**9 < INF
    t = table_from_pairs([(1, Fraction(2, 3)), (INF, Fraction(1, 3))])
    assert dict(t.items())[float("inf")] == Fraction(1, 3)
    with pytest.raises(ValidationError):
        table_from_pairs([(INF, 0.5), (math.inf, 0.5)])
