"""Probability tables.

``PmfTable`` is the exchange format between the analytics side (exact laws)
and the statistics harness (empirical laws, goodness of fit).  Weights are
``fractions.Fraction`` wherever the closed form is rational and ``float``
otherwise; truncated infinite supports carry an explicit ``tail_bound``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator

from .errors import ValidationError

_TOTAL_TOL = 1e-9


# the value of I on {B_t > t}; the (L, I) law puts mass 1/3 there
INF = math.inf


def render_value(v: Any) -> str:
    if isinstance(v, tuple):
        return "(" + " ".join(str(x) for x in v) + ")"
    return str(v)


def render_weight(w: Fraction | float) -> str:
    if isinstance(w, Fraction):
        return f"{w.numerator}/{w.denominator}"
    return repr(float(w))


@dataclass(frozen=True)
class PmfTable:
    """Finite view of a probability mass function.

    support : values (ints, INF, or level tuples for particle configs);
              INF is ``math.inf``, so cells are keyed by value alone
    weights : one weight per support point; Fraction where exact
    tail_bound : mass of the truncated remainder of an infinite support
    n : sample count when the table is empirical, else None
    """

    support: tuple
    weights: tuple
    tail_bound: float = 0.0
    n: int | None = None
    name: str = ""

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise ValidationError("support and weights must have equal length")
        if len(set(self.support)) != len(self.support):
            raise ValidationError("support values must be distinct")
        if any(w < 0 for w in self.weights):
            raise ValidationError("weights must be nonnegative")
        if self.tail_bound < 0:
            raise ValidationError("tail_bound must be nonnegative")
        total = float(sum(self.weights)) + float(self.tail_bound)
        if not (1.0 - _TOTAL_TOL <= total <= 1.0 + _TOTAL_TOL):
            raise ValidationError(
                f"weights + tail_bound = {total!r}, not 1 within {_TOTAL_TOL}")

    def items(self) -> Iterator[tuple[Any, Fraction | float]]:
        return zip(self.support, self.weights)

    def to_rows(self) -> list[dict[str, Any]]:
        rows = []
        for v, w in self.items():
            rows.append({
                "value": render_value(v),
                "weight": render_weight(w),
                "weight_float": float(w),
                "tail_bound": float(self.tail_bound),
            })
        return rows

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["value", "weight", "tail_bound"])
            for v, w in self.items():
                writer.writerow([render_value(v), render_weight(w),
                                 repr(float(self.tail_bound))])

    def write_json(self, path) -> None:
        payload = {"name": self.name, "tail_bound": float(self.tail_bound),
                   "n": self.n, "rows": self.to_rows()}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def table_from_pairs(pairs: Iterable[tuple[Any, Fraction | float]],
                     tail_bound: float = 0.0, n: int | None = None,
                     name: str = "") -> PmfTable:
    items = list(pairs)
    return PmfTable(tuple(v for v, _ in items), tuple(w for _, w in items),
                    tail_bound=tail_bound, n=n, name=name)
