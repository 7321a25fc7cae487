import json
import math
from fractions import Fraction

import pytest

from lookdown.errors import ValidationError
from lookdown.tables import INF, PmfTable, render_weight, table_from_pairs


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


def test_render_and_dump(tmp_path):
    t = table_from_pairs([(1, Fraction(1, 3)), (2, 2 / 3)], name="demo")
    assert render_weight(Fraction(1, 3)) == "1/3"
    csv_path = tmp_path / "t.csv"
    t.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "value,weight,tail_bound"
    assert lines[1].startswith("1,1/3,")
    json_path = tmp_path / "t.json"
    t.write_json(json_path)
    payload = json.loads(json_path.read_text())
    assert payload["rows"][0]["weight"] == "1/3"
    assert payload["rows"][0]["weight_float"] == pytest.approx(1 / 3)
