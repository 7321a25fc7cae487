"""Law of Z, the number of fixation curves straddling a fixed time.

Z counts the MRCAs that are established in today's future and lived in
today's past.  The generating-function machinery works over exact
polynomials in pi^2 with Fraction coefficients: x_k and p_z are rational
combinations of even zeta values, so P[Z=0] = 1/3, P[Z=1] = 11/27,
P[Z=2] = 107/243 - 2 pi^2/81, ... come out exactly, with floats only on
final evaluation.

Two independent routes are kept for everything the acceptance suite
cross-checks: x_k by direct series summation vs the closed form, p_z by
recursion vs the partition-sum formula, the pgf by the infinite product vs
the weight series, and Var[Z] in closed form vs the series g''(1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import DomainError
from .laws import zeta_even_pi_coeff
from .tables import PmfTable, table_from_pairs

_PARTITION_CAP = 30  # p(30) = 5604 partitions; enumeration stays trivial


class PiPoly:
    """Element of Q[pi^2]: coeffs[m] is the coefficient of pi^(2m)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(Fraction(0),)):
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "PiPoly":
        return cls((Fraction(c),))

    @classmethod
    def pi_power(cls, j: int, coeff) -> "PiPoly":
        """coeff * pi^j for even j."""
        if j % 2:
            raise DomainError("only even powers of pi are representable")
        cs = [Fraction(0)] * (j // 2) + [Fraction(coeff)]
        return cls(cs)

    def __add__(self, other: "PiPoly") -> "PiPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return PiPoly([x + y for x, y in zip(a, list(b) + [Fraction(0)] * (len(a) - len(b)))])

    def __sub__(self, other: "PiPoly") -> "PiPoly":
        return self + (-other)

    def __neg__(self) -> "PiPoly":
        return PiPoly([-c for c in self.coeffs])

    def __mul__(self, other) -> "PiPoly":
        if isinstance(other, PiPoly):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return PiPoly(out)
        return PiPoly([c * Fraction(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PiPoly":
        out = PiPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PiPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        parts = []
        for m, c in enumerate(self.coeffs):
            if c == 0 and (m > 0 or len(self.coeffs) > 1):
                continue
            parts.append(str(c) if m == 0 else f"({c})*pi^{2*m}")
        return " + ".join(parts) if parts else "0"

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("polynomial has pi^2 terms")
        return self.coeffs[0]

    def __float__(self) -> float:
        return float(sum(float(c) * math.pi ** (2 * m)
                         for m, c in enumerate(self.coeffs)))


def b_constant(j: int) -> Fraction:
    """b_j = 1 + 2^-j + 3^-j."""
    if j < 1:
        raise DomainError("j must be >= 1")
    return 1 + Fraction(1, 2**j) + Fraction(1, 3**j)


# ---------------------------------------------------------------------------
# x_k = sum_{l>=2} f(l)^k, two routes

def x_k_series(k: int) -> float:
    """Direct summation of sum f(l)^k with an analytic tail.

    k = 1: the tail telescopes exactly, (1/3)(1/L + 1/(L+1) + 1/(L+2)).
    k >= 2: summed until the integral bound (L-1)^(1-2k)/(2k-1) < 1e-12.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if k == 1:
        L = 4096
        ls = np.arange(2, L + 1, dtype=np.float64)
        partial = float(np.sum(1.0 / ((ls + 2.0) * (ls - 1.0))))
        tail = (1.0 / L + 1.0 / (L + 1) + 1.0 / (L + 2)) / 3.0
        return partial + tail
    L = 2
    while (L - 1.0) ** (1 - 2 * k) / (2 * k - 1) >= 1e-12:
        L *= 2
    ls = np.arange(2, L + 1, dtype=np.float64)
    return float(np.sum((1.0 / ((ls + 2.0) * (ls - 1.0))) ** k))


@lru_cache(maxsize=None)
def x_k_closed(k: int) -> PiPoly:
    """Closed form via b_j and even zeta values, exact in Q[pi^2].

    x_k = (-1)^(k+1)/3^(2k-1) * sum_{j=1}^k C(2k-j-1, k-j) 3^(j-1)
          * (b_j - [j even] 2 zeta(j)).
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    acc = PiPoly.const(0)
    for j in range(1, k + 1):
        term = PiPoly.const(b_constant(j))
        if j % 2 == 0:
            term = term - PiPoly.pi_power(j, 2 * zeta_even_pi_coeff(j))
        acc = acc + math.comb(2 * k - j - 1, k - j) * Fraction(3) ** (j - 1) * term
    sign = Fraction((-1) ** (k + 1), 3 ** (2 * k - 1))
    return sign * acc


# ---------------------------------------------------------------------------
# p_z, two routes

@lru_cache(maxsize=None)
def p_z_recursive(z: int) -> PiPoly:
    """p_z = (1/z) sum_{j=1}^z (-1)^(j-1) p_(z-j) x_j, with p_0 = 1."""
    if z < 0:
        raise DomainError("z must be >= 0")
    if z == 0:
        return PiPoly.const(1)
    acc = PiPoly.const(0)
    for j in range(1, z + 1):
        term = p_z_recursive(z - j) * x_k_closed(j)
        acc = acc + ((-1) ** (j - 1)) * term
    return Fraction(1, z) * acc


def partitions(z: int) -> Iterator[dict[int, int]]:
    """Multiplicity maps {part: count} over all partitions of z (z >= 1)."""
    def asc(n: int, smallest: int, acc: list[int]) -> Iterator[list[int]]:
        if n == 0:
            yield acc
            return
        for part in range(smallest, n + 1):
            yield from asc(n - part, part, acc + [part])

    for parts in asc(z, 1, []):
        mult: dict[int, int] = {}
        for p in parts:
            mult[p] = mult.get(p, 0) + 1
        yield mult


def p_z_partition(z: int) -> PiPoly:
    """Partition-sum route: sum over {a: sum i*a_i = z} of
    (-1)^(z + sum a_i) prod (x_j/j)^(a_j) / a_j!."""
    if z < 0:
        raise DomainError("z must be >= 0")
    if z > _PARTITION_CAP:
        raise DomainError(f"partition route capped at z = {_PARTITION_CAP}")
    if z == 0:
        return PiPoly.const(1)
    acc = PiPoly.const(0)
    for mult in partitions(z):
        term = PiPoly.const(Fraction((-1) ** (z + sum(mult.values()))))
        for j, a in mult.items():
            term = term * (Fraction(1, j**a * math.factorial(a))
                           * x_k_closed(j) ** a)
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# The law of Z

def pmf_Z_exact(z: int) -> PiPoly:
    """P[Z = z] = (2^z / 3) p_z, exact in Q[pi^2]."""
    if z < 0:
        raise DomainError("z must be >= 0")
    return Fraction(2**z, 3) * p_z_recursive(z)


def pmf_Z(z: int) -> float:
    return float(pmf_Z_exact(z))


def pmf_Z_table(max_z: int) -> PmfTable:
    pairs = []
    for z in range(max_z + 1):
        w = pmf_Z_exact(z)
        pairs.append((z, w.as_fraction() if w.is_rational() else float(w)))
    tail = 1.0 - float(sum(float(w) for _, w in pairs))
    return table_from_pairs(pairs, tail_bound=max(tail, 0.0), name="Z")


def _pgf_log_sum(u: float) -> float:
    """sum_{i>=2} log((i(i+1) + 2(u-1)) / ((i+2)(i-1))).

    Since (i+2)(i-1) = i(i+1) - 2, each term is log1p(c f(i)) with c = 2u;
    summed directly to terms = 20000, then the linear part of the tail is
    added through the exact telescoped sum of f.  The neglected curvature
    is below c^2/(6 terms^3) < 1e-12.
    """
    terms = 20_000
    c = 2.0 * u
    i = np.arange(2, terms + 1, dtype=np.float64)
    f = 1.0 / ((i + 2.0) * (i - 1.0))
    s = float(np.sum(np.log1p(c * f)))
    L = float(terms)
    s += c * (1.0 / L + 1.0 / (L + 1.0) + 1.0 / (L + 2.0)) / 3.0
    return s


def _pgf_unchecked(u: float) -> float:
    return math.exp(_pgf_log_sum(u)) / 3.0


def pgf_Z(u: float) -> float:
    """E[u^Z] via the infinite product, for u in [0, 1]."""
    if not 0.0 <= u <= 1.0:
        raise DomainError("pgf domain is [0, 1]")
    return _pgf_unchecked(u)


def pgf_Z_series(u: float) -> float:
    """Cross-check route: sum of pmf_Z(z) u^z truncated at z = 40."""
    return float(sum(pmf_Z(z) * u**z for z in range(41)))


def mean_var_Z() -> tuple[float, float]:
    """E[Z] = 1 and Var[Z] = 14 - 4 pi^2 / 3 (about 0.84052)."""
    return 1.0, 14.0 - 4.0 * math.pi**2 / 3.0


def var_Z_series() -> float:
    """Independent route: Var[Z] = g''(1) = 1 - 4 sum_{i>=2} 1/(i^2 (i+1)^2)."""
    terms = 1_000_000
    i = np.arange(2, terms + 1, dtype=np.float64)
    s = float(np.sum(1.0 / (i * i * (i + 1.0) * (i + 1.0))))
    s += 1.0 / (3.0 * terms**3)  # integral tail
    return 1.0 - 4.0 * s
