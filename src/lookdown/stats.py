"""Goodness-of-fit harness confronting Monte Carlo output with exact laws.

Deterministic functions of their inputs; no hidden randomness.  Default
alpha is 0.001 and moment checks use 4-sigma bands so that a suite of ~30
checks false-fails rarely.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Sequence

import numpy as np
import scipy.special as sp

from .errors import (DegenerateBinningError, SampleSizeError, ValidationError)
from .tables import PmfTable, table_from_pairs

ALPHA_DEFAULT = 0.001
# chi-square cells with fewer expected counts are pooled
MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class GofReport:
    """Outcome of one statistical check."""

    name: str
    statistic: float
    p_value: float
    n: int
    alpha: float
    passed: bool
    dof: int | None = None
    bins: str = ""
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValidationError("p_value must lie in [0, 1]")
        if self.passed != (self.p_value > self.alpha):
            raise ValidationError("pass must hold iff p_value > alpha")

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "statistic": self.statistic,
                "p_value": self.p_value, "pass": self.passed, "n": self.n,
                "alpha": self.alpha, "dof": self.dof, "bins": self.bins,
                **({"extra": self.extra} if self.extra else {})}


def _report(name, statistic, p_value, n, alpha, dof=None, bins="", extra=None):
    return GofReport(name=name, statistic=float(statistic),
                     p_value=float(p_value), n=int(n), alpha=float(alpha),
                     passed=bool(p_value > alpha), dof=dof, bins=bins,
                     extra=extra or {})


# ---------------------------------------------------------------------------
# Empirical pmfs

def empirical_pmf(samples: Sequence) -> PmfTable:
    """Relative frequencies as exact fractions; INF kept as its own cell.

    Cells run in increasing value, scalars before tuples.
    """
    counts = Counter(samples)
    n = counts.total()
    if not n:
        raise SampleSizeError("empirical_pmf needs at least one sample")
    pairs = [(v, Fraction(counts[v], n))
             for v in sorted(counts, key=lambda v: (isinstance(v, tuple), v))]
    return table_from_pairs(pairs, tail_bound=0.0, n=n, name="empirical")


# ---------------------------------------------------------------------------
# Chi-square

def chi_square_gof(empirical: PmfTable, exact: PmfTable,
                   alpha: float = ALPHA_DEFAULT,
                   name: str = "chi_square") -> GofReport:
    """Pearson chi-square of an empirical pmf against an exact one.

    The exact table's support defines the cells.  Cells with expected
    count below ``MIN_EXPECTED``, the exact tail bound and the empirical
    mass outside the support form one tail cell; a tail still below
    ``MIN_EXPECTED`` merges into the last cell left.
    """
    if empirical.n is None:
        raise ValidationError("empirical table must carry its sample size n")
    n = empirical.n
    weights = dict(empirical.items())
    expected = np.asarray([float(w) * n for w in exact.weights])
    observed = np.asarray([float(weights.get(v, 0)) * n
                           for v in exact.support])
    thin = expected < MIN_EXPECTED
    obs = np.append(observed[~thin],
                    float(observed[thin].sum()) + (n - observed.sum()))
    exp = np.append(expected[~thin],
                    float(expected[thin].sum()) + float(exact.tail_bound) * n)
    if exp[-1] < MIN_EXPECTED and len(obs) > 1:
        # tail still too thin: merge it into the last cell left
        obs[-2] += obs[-1]
        exp[-2] += exp[-1]
        obs, exp = obs[:-1], exp[:-1]
    if len(obs) < 2:
        raise DegenerateBinningError("all mass pooled; nothing to test")
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(obs) - 1
    p = float(sp.chdtrc(dof, stat))    # the chi2(dof) survival function
    return _report(name, stat, p, n, alpha, dof=dof,
                   bins=f"{len(obs)} cells (min_expected={MIN_EXPECTED})")


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov against Exp(1)

# ks_statistic compares the grid in blocks of this many samples
_KS_BLOCK = 1 << 16


def ks_statistic(cdf: np.ndarray) -> float:
    """KS distance of a sample from its law, given the law's cdf at the
    sorted sample."""
    n = len(cdf)
    d = 0.0
    for lo in range(0, n, _KS_BLOCK):
        part = cdf[lo:lo + _KS_BLOCK]
        grid = np.arange(lo, lo + part.size, dtype=np.float64)
        d = max(d, np.max(np.abs(part - (grid + 1.0) / n)),
                np.max(np.abs(part - grid / n)))
    return float(d)


def ks_test_exp1(samples: Sequence[float], alpha: float = ALPHA_DEFAULT,
                 name: str = "ks_exp1") -> GofReport:
    """One-sample KS against the unit exponential, asymptotic p-value.

    Beyond the input, it holds one sorted copy, turned into the cdf in
    place, and one block of ``ks_statistic``'s grid.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 50:
        raise SampleSizeError("KS test needs n >= 50")
    if not x.min() > 0:     # NaN fails too
        raise ValidationError("samples must be strictly positive")
    cdf = np.sort(x)    # 1 - exp(-x), in place
    np.negative(cdf, out=cdf)
    np.exp(cdf, out=cdf)
    np.subtract(1.0, cdf, out=cdf)
    d = ks_statistic(cdf)
    p = float(sp.kolmogorov(math.sqrt(x.size) * d))
    return _report(name, d, p, x.size, alpha)


# ---------------------------------------------------------------------------
# Moment bands

def moment_band(samples: Sequence[float], target_mean: float,
                name: str = "moment_band") -> GofReport:
    """4-sigma band test for the mean.

    Reported p-value is the two-sided normal tail of the z-score, so
    pass <=> p > 2*Phi(-4).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 100:
        raise SampleSizeError("moment_band needs n >= 100")
    n = x.size
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        z_mean = math.inf if x[0] != target_mean else 0.0
    else:
        z_mean = abs(float(x.mean()) - target_mean) / (sd / math.sqrt(n))
    extra = {"mean": float(x.mean()), "z_mean": z_mean}
    alpha = 2.0 * float(sp.ndtr(-4.0))
    p = 2.0 * float(sp.ndtr(-z_mean)) if math.isfinite(z_mean) else 0.0
    return _report(name, z_mean, p, n, alpha, extra=extra)


# ---------------------------------------------------------------------------
# Point-process diagnostics

def lag1_autocorrelation(x: Sequence[float]) -> float:
    v = np.asarray(x, dtype=np.float64)
    if v.size < 3:
        raise SampleSizeError("need at least 3 values")
    v = v - v.mean()
    denom = float(np.sum(v * v))
    if denom == 0:
        return 0.0
    return float(np.sum(v[:-1] * v[1:]) / denom)


def count_dispersion(times: Sequence[float], width: float,
                     weights: Sequence[float] | None = None
                     ) -> tuple[float, int]:
    """Variance-to-mean ratio of event counts in disjoint windows.

    Windows tile [min(t), max(t)); partial trailing windows are dropped.
    ``weights`` counts each event with a multiplicity (batch size).
    Returns (ratio, number of windows).
    """
    t = np.asarray(times, dtype=np.float64)
    if t.size < 2:
        raise SampleSizeError("need at least two event times")
    if width <= 0:
        raise ValidationError("window width must be positive")
    order = np.argsort(t)
    t = t[order]
    w = None if weights is None else np.asarray(weights, dtype=np.float64)[order]
    span = t[-1] - t[0]
    n_win = int(span / width)
    if n_win < 2:
        raise SampleSizeError("fewer than two complete windows")
    idx = np.floor((t - t[0]) / width).astype(np.int64)
    keep = idx < n_win
    counts = np.bincount(idx[keep], minlength=n_win,
                         weights=None if w is None else w[keep])
    mean = counts.mean()
    if mean == 0:
        raise SampleSizeError("windows are empty")
    return float(counts.var(ddof=1) / mean), n_win

