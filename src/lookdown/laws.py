"""Closed-form laws of the MRCA process.

Everything here is exact where the formulas are rational: distributions of
the fixation-curve level L, the joint (L, I), the nested I^k levels, the
K chain coupling fixation and coalescent curves, the stationary particle
law pi_Lambda, and the holding-time sums S_i^j of the block-counting death
chain.  Floats enter only through zeta values and infinite-series tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .tables import INF, PmfTable, _InfiniteLevel, table_from_pairs

# Truncating S_i^j sums at K* = 512 leaves a tail whose variance
# sum_{k>K*} (2/(k(k-1)))^2 ~ 4/(3 K*^3) is below 1e-8; the tail is then
# added as its exact mean 2/K*, so sampled sums are mean-unbiased.
_TAIL_CUTOFF = 512


def comb2(n: int) -> int:
    """Binomial(n, 2) as an exact integer."""
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# L and (L, I)

def pmf_L(level: int) -> Fraction:
    """P[L = level] = 2/((level+1)(level+2)) for level >= 1.

    L is the number of currently living individuals that still have
    offspring when the next MRCA is established; L = 1 means the next
    MRCA lives in today's future.
    """
    if level < 1:
        raise DomainError(f"level must be >= 1, got {level}")
    return Fraction(2, (level + 1) * (level + 2))


def pmf_L_tail(level: int) -> Fraction:
    """P[L > level], exact (the series telescopes)."""
    if level < 0:
        raise DomainError("level must be >= 0")
    return Fraction(2, level + 2)


def pmf_L_table(max_level: int) -> PmfTable:
    pairs = [(l, pmf_L(l)) for l in range(1, max_level + 1)]
    return table_from_pairs(pairs, tail_bound=float(pmf_L_tail(max_level)),
                            name="L")


def sample_L(rng: np.random.Generator, size: int | None = None):
    """Draw from pmf_L by inverting the CDF: L = floor(2/(1-U)) - 1."""
    u = rng.random(size)
    out = np.floor(2.0 / (1.0 - u)).astype(np.int64) - 1
    return int(out) if size is None else out


def pmf_LI(level: int, blocks) -> Fraction:
    """P[L = level, I = blocks].

    (level-1) / (3 * C(level+blocks, level)) on level >= 2, blocks >= 3;
    1/3 at (1, INF); 0 everywhere else ("0, else" per the law).
    """
    if isinstance(blocks, _InfiniteLevel):
        return Fraction(1, 3) if level == 1 else Fraction(0)
    if level < 2 or blocks < 3:
        return Fraction(0)
    return Fraction(level - 1, 3 * math.comb(level + blocks, level))


def pmf_LI_table(max_level: int, max_blocks: int) -> PmfTable:
    pairs: list[tuple[object, Fraction]] = [((1, INF), Fraction(1, 3))]
    for l in range(2, max_level + 1):
        for i in range(3, max_blocks + 1):
            pairs.append(((l, i), pmf_LI(l, i)))
    covered = sum(w for _, w in pairs)
    return table_from_pairs(pairs, tail_bound=float(1 - covered), name="LI")


def pmf_LI_blocks_tail(level: int, blocks: int) -> Fraction:
    """P[L = level, I > blocks], exact via the hypergeometric telescope.

    sum_{i > b} 1/C(l+i, l) = (l/(l-1)) / C(l+b, l-1) for l >= 2.
    """
    if level < 2 or blocks < 2:
        raise DomainError("need level >= 2 and blocks >= 2")
    return Fraction(level - 1, 3) * Fraction(level, level - 1) \
        / math.comb(level + blocks, level - 1)


# ---------------------------------------------------------------------------
# Joint law of the nested coalescent levels I^2 < I^3 < ... and the K chain

def joint_I(*levels: int) -> Fraction:
    """P[I^2 = i2, ..., I^l = il, I^(l+1) = ... = INF].

    Arguments are the finite values (i2, ..., il), strictly increasing and
    all > 2.  The empty call is the all-infinite event, probability 1/3.
    """
    if not levels:
        return Fraction(1, 3)
    if any(i <= 2 for i in levels):
        raise DomainError("all levels must exceed 2")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise DomainError("levels must be strictly increasing")
    l = len(levels) + 1
    out = Fraction(math.factorial(l) * math.factorial(l - 1), 3)
    for m, i_m in zip(range(2, l + 1), levels):
        out /= (i_m + m) * (i_m + m - 1)
    return out


def K_transition(j: int, k: int) -> Fraction:
    """P[K^(j+1) = k+1 | K^j = k] = C(k+1,2)/C(j+1,2), for j > k >= 1."""
    if k < 1 or j <= k:
        raise DomainError(f"need j > k >= 1, got j={j}, k={k}")
    return Fraction(comb2(k + 1), comb2(j + 1))


def K_marginal(j: int, k: int) -> Fraction:
    """P[K^j = k] = (j+1)/(j-1) * 2/((k+1)(k+2)), for j > k >= 1."""
    if k < 1 or j <= k:
        raise DomainError(f"need j > k >= 1, got j={j}, k={k}")
    return Fraction(j + 1, j - 1) * Fraction(2, (k + 1) * (k + 2))


def K_marginal_forward(j: int) -> dict[int, Fraction]:
    """Distribution of K^j by exact forward recursion from K^2 = 1.

    Independent of the closed-form marginal; used as its oracle.
    """
    if j < 2:
        raise DomainError("j must be >= 2")
    dist = {1: Fraction(1)}
    for jj in range(2, j):
        nxt: dict[int, Fraction] = {}
        denom = comb2(jj + 1)
        for k, p in dist.items():
            up = Fraction(comb2(k + 1), denom)
            nxt[k + 1] = nxt.get(k + 1, Fraction(0)) + p * up
            nxt[k] = nxt.get(k, Fraction(0)) + p * (1 - up)
        dist = nxt
    return dist


def K_table(j: int, max_level: int | None = None) -> PmfTable:
    top = j - 1 if max_level is None else min(max_level, j - 1)
    pairs = [(k, K_marginal(j, k)) for k in range(1, top + 1)]
    tail = 1 - sum(w for _, w in pairs)
    return table_from_pairs(pairs, tail_bound=float(tail), name=f"K^{j}")


# ---------------------------------------------------------------------------
# Stationary particle law

def pi_lambda(levels) -> Fraction:
    """Stationary weight of a particle configuration.

    (1/3) * prod 2/((l_j+2)(l_j-1)) over the active prefix; 0 for inputs
    that are not strictly decreasing with all active levels >= 2.  Trailing
    1s (the "l_j = 1 for j > Z" convention) are accepted and stripped.
    """
    if hasattr(levels, "levels"):
        levels = levels.levels
    seq = list(levels)
    while seq and seq[-1] == 1:
        seq.pop()
    if any(l < 2 for l in seq):
        return Fraction(0)
    if any(b >= a for a, b in zip(seq, seq[1:])):
        return Fraction(0)
    out = Fraction(1, 3)
    for l in seq:
        out *= Fraction(2, (l + 2) * (l - 1))
    return out


def enumerate_configs(max_leading: int, max_count: int) -> list[tuple[int, ...]]:
    """All strictly decreasing level tuples with leading level <= max_leading
    and at most max_count particles (the empty tuple included)."""
    out: list[tuple[int, ...]] = [()]

    def grow(prefix: tuple[int, ...], below: int):
        if len(prefix) == max_count:
            return
        for l in range(2, below):
            cfg = prefix + (l,)
            out.append(cfg)
            grow(cfg, l)

    grow((), max_leading + 1)
    return out


def pi_table(max_leading: int, max_count: int) -> PmfTable:
    configs = enumerate_configs(max_leading, max_count)
    pairs = [(cfg, pi_lambda(cfg)) for cfg in configs]
    tail = 1 - sum(w for _, w in pairs)
    return table_from_pairs(pairs, tail_bound=float(tail), name="pi_Lambda")


# ---------------------------------------------------------------------------
# Holding times of the block-counting chain

@dataclass(frozen=True)
class HoldingTimes:
    """Parameters of T_k ~ Exp(C(k,2)), k >= 2, and the sums S_i^j.

    S_i^j = sum_{k=i+1}^j T_k is the time Kingman's coalescent needs to come
    down from j to i blocks; it is also the time a fixation curve needs to
    be pushed from level i to level j.

    The conditional variable R_{i,d} (the law of S_i^inf given
    S_1^i + S_i^inf = d) has no constructive description; it is deliberately
    not sampled here, and the corresponding conditional statements are
    verified through their marginals and mixtures instead.
    """

    @staticmethod
    def rate(k: int) -> int:
        if k < 2:
            raise DomainError("T_k is defined for k >= 2")
        return comb2(k)

    @staticmethod
    def s_mean(i: int, j: int | None = None) -> Fraction:
        """E[S_i^j] = 2/i - 2/j (j = None means infinity)."""
        if i < 1 or (j is not None and j <= i):
            raise DomainError("need 1 <= i < j")
        mean = Fraction(2, i)
        if j is not None:
            mean -= Fraction(2, j)
        return mean

    @staticmethod
    def s_var(i: int, j: int | None = None) -> float:
        """Var[S_i^j] = sum_{k=i+1}^j (2/(k(k-1)))^2."""
        if i < 1 or (j is not None and j <= i):
            raise DomainError("need 1 <= i < j")
        if j is not None:
            ks = np.arange(i + 1, j + 1, dtype=np.float64)
            return float(np.sum((2.0 / (ks * (ks - 1.0))) ** 2))
        # exact rearrangement: 4*(2*sum_{m>i} 1/m^2 + 1/i^2 - 2/i)
        tail2 = zeta(2) - float(sum(Fraction(1, m * m) for m in range(1, i + 1)))
        return 4.0 * (2.0 * tail2 + 1.0 / i**2 - 2.0 / i)


def moments_S(i: int) -> tuple[Fraction, float]:
    """(mean, variance) of S_i^inf: mean exactly 2/i."""
    return HoldingTimes.s_mean(i), HoldingTimes.s_var(i)


def sample_S(i: int, rng: np.random.Generator) -> float:
    """One draw of S_i^inf (exact terms to K*, tail added as its mean)."""
    return float(sample_S_batch(np.asarray([i]), rng)[0])


def sample_S_batch(start: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized draws of S_{start[m]}^inf for an integer array of starts.

    Each draw sums independent Exp(C(k,2)) for k = start+1 .. K* with the
    per-sample cutoff K* = max(512, start), then adds the truncated tail as
    its exact mean 2/K*.  The ignored tail fluctuation has variance
    sum_{k>K*} (2/(k(k-1)))^2 < 1e-8, so draws are mean-exact and the
    distributional error is negligible at any tested resolution.
    """
    start = np.asarray(start, dtype=np.int64)
    if start.size and np.any(start < 1):
        raise DomainError("starts must be >= 1")
    out = np.empty(start.shape, dtype=np.float64)
    high = start >= _TAIL_CUTOFF
    out[high] = 2.0 / start[high]  # whole sum replaced by its mean
    low_idx = np.nonzero(~high)[0]
    if low_idx.size == 0:
        return out
    low = start[low_idx]
    order = np.argsort(low, kind="stable")
    sorted_start = low[order]
    total_sorted = np.full(low.shape, 2.0 / _TAIL_CUTOFF, dtype=np.float64)
    # walk k upward; the samples needing T_k are those with start < k,
    # i.e. the sorted prefix [:first]
    for k in range(int(sorted_start.min()) + 1, _TAIL_CUTOFF + 1):
        first = int(np.searchsorted(sorted_start, k, side="left"))
        if first == 0:
            continue
        rate = comb2(k)
        total_sorted[:first] += rng.standard_exponential(first) / rate
    low_out = np.empty_like(total_sorted)
    low_out[order] = total_sorted
    out[low_idx] = low_out
    return out


# ---------------------------------------------------------------------------
# Pairwise coalescence time at an MRCA change

def expected_Tc() -> float:
    """E[T_c] = 2*pi^2/3 - 6, about 0.58 (42% below the equilibrium 1)."""
    return 2.0 * math.pi**2 / 3.0 - 6.0


def expected_Tc_series(terms: int = 200_000) -> float:
    """Independent route: sum of weight(l) * E[S_{l+1}^inf] plus an exact
    telescoped tail; agrees with expected_Tc to ~1/terms^2."""
    ls = np.arange(1, terms + 1, dtype=np.float64)
    partial = np.sum(4.0 / ((ls + 1.0) ** 2 * (ls + 2.0)))
    # tail sum_{l>T} 4/((l+1)^2(l+2)) < sum 4/(l+1)^3 < 2/(T+1)^2
    tail = 2.0 / (terms + 1.0) ** 2
    return float(partial + 0.5 * tail)  # midpoint of [partial, partial+tail]


@dataclass(frozen=True)
class TcMixture:
    """P[T_c in dt] = sum_l weight(l) * P[S_{l+1}^inf in dt].

    terms : (weight, i) pairs, the component being S_i^inf with i = l+1
    tail_bound : mass of the truncated components
    """

    terms: tuple[tuple[Fraction, int], ...]
    tail_bound: float


def pmf_Tc_mixture(max_terms: int = 40) -> TcMixture:
    terms = tuple((pmf_L(l), l + 1) for l in range(1, max_terms + 1))
    return TcMixture(terms, tail_bound=float(pmf_L_tail(max_terms)))


def sample_Tc_batch(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw T_c: l ~ pmf_L, then S_{l+1}^inf."""
    ls = sample_L(rng, n)
    return sample_S_batch(ls + 1, rng)


# ---------------------------------------------------------------------------
# Riemann zeta (direct summation with Euler-Maclaurin tail correction)

def zeta(j: int, terms: int = 256) -> float:
    """zeta(j) for integer j >= 2, absolute error well below 1e-12.

    Direct sum to `terms` plus the integral tail with the first two
    Euler-Maclaurin corrections.
    """
    if j < 2:
        raise DomainError("zeta(j) requires j >= 2")
    n = np.arange(1, terms + 1, dtype=np.float64)
    s = float(np.sum(n ** (-float(j))))
    L = float(terms)
    s += L ** (1 - j) / (j - 1)          # integral tail
    s -= 0.5 * L ** (-j)                 # trapezoid correction
    s += j / 12.0 * L ** (-j - 1)        # B_2 term
    s -= j * (j + 1) * (j + 2) / 720.0 * L ** (-j - 3)  # B_4 term
    return s


def _bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0 .. B_n (B_1 = -1/2 convention) via the defining recurrence."""
    bs = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * bs[k]
        bs.append(-acc / (m + 1))
    return bs


def zeta_even_pi_coeff(j: int) -> Fraction:
    """Exact rational c with zeta(j) = c * pi^j, for even j >= 2.

    zeta(2m) = (-1)^(m+1) B_2m (2 pi)^(2m) / (2 (2m)!).
    """
    if j < 2 or j % 2:
        raise DomainError("exact zeta values exist for even j >= 2")
    m = j // 2
    b = _bernoulli_numbers(j)[j]
    coeff = Fraction((-1) ** (m + 1)) * b * Fraction(2**j, 2 * math.factorial(j))
    return coeff
