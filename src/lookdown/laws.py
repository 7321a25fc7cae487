"""Closed-form laws of the MRCA process.

Everything here is exact where the formulas are rational: distributions of
the fixation-curve level L, the joint (L, I), the nested I^k levels, the
K chain coupling fixation and coalescent curves, the stationary particle
law pi_Lambda, the holding-time sums S_i^inf of the block-counting death
chain and the pairwise coalescence time T_c.  Floats enter only through
pi and infinite-series tails.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .tables import INF, PmfTable, table_from_pairs

# Truncating S_i^j sums at K* = 512 leaves a tail whose variance
# sum_{k>K*} (2/(k(k-1)))^2 ~ 4/(3 K*^3) is below 1e-8; the tail is then
# added as its exact mean 2/K*, so sampled sums are mean-unbiased.
K_STAR = 512


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
    if blocks == INF:
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


def K_marginal(j: int, k: int) -> Fraction:
    """P[K^j = k] = (j+1)/(j-1) * 2/((k+1)(k+2)), for j > k >= 1."""
    if k < 1 or j <= k:
        raise DomainError(f"need j > k >= 1, got j={j}, k={k}")
    return Fraction(j + 1, j - 1) * Fraction(2, (k + 1) * (k + 2))


def K_marginal_forward(j: int) -> dict[int, Fraction]:
    """Distribution of K^j by exact forward recursion from K^2 = 1.

    Step jj moves K = k to k + 1 with probability C(k+1, 2)/C(jj+1, 2).
    The numerators are kept in integers over the common denominator
    prod C(jj+1, 2), and each is made a ``Fraction`` once at the end.
    Independent of the closed-form marginal; used as its oracle.
    """
    if j < 2:
        raise DomainError("j must be >= 2")
    dist, den = {1: 1}, 1
    for jj in range(2, j):
        c = comb2(jj + 1)
        nxt: dict[int, int] = {}
        for k, p in dist.items():
            up = comb2(k + 1)
            nxt[k + 1] = nxt.get(k + 1, 0) + p * up
            nxt[k] = nxt.get(k, 0) + p * (c - up)
        dist, den = nxt, den * c
    return {k: Fraction(p, den) for k, p in dist.items()}


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

def sample_S_batch(start: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized draws of S_{start[m]}^inf for an integer array of starts.

    S_i^inf = sum_{k>i} T_k with T_k ~ Exp(C(k,2)), mean 2/i, is the time
    Kingman's coalescent needs to come down from infinity to i blocks, and
    the time a fixation curve at level i needs to climb to infinity.
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
    high = start >= K_STAR
    out[high] = 2.0 / start[high]  # whole sum replaced by its mean
    low_idx = np.nonzero(~high)[0]
    if low_idx.size == 0:
        return out
    low = start[low_idx]
    order = np.argsort(low, kind="stable")
    sorted_start = low[order]
    total_sorted = np.full(low.shape, 2.0 / K_STAR, dtype=np.float64)
    # walk k upward; the samples needing T_k are those with start < k,
    # i.e. the sorted prefix [:first]
    for k in range(int(sorted_start.min()) + 1, K_STAR + 1):
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


def expected_Tc_series() -> float:
    """Independent route: sum of weight(l) * E[S_{l+1}^inf] over the first
    terms = 2*10^5 levels plus an exact telescoped tail; agrees with
    expected_Tc to ~1/terms^2."""
    terms = 200_000
    ls = np.arange(1, terms + 1, dtype=np.float64)
    partial = np.sum(4.0 / ((ls + 1.0) ** 2 * (ls + 2.0)))
    # tail sum_{l>T} 4/((l+1)^2(l+2)) < sum 4/(l+1)^3 < 2/(T+1)^2
    tail = 2.0 / (terms + 1.0) ** 2
    return float(partial + 0.5 * tail)  # midpoint of [partial, partial+tail]


def pmf_Tc_mixture(max_terms: int = 40) -> PmfTable:
    """P[T_c in dt] = sum_l pmf_L(l) * P[S_{l+1}^inf in dt].

    Value i labels the component S_i^inf (i = l+1) and carries its weight
    pmf_L(l); tail_bound is the mass of the truncated components.
    """
    pairs = [(l + 1, pmf_L(l)) for l in range(1, max_terms + 1)]
    return table_from_pairs(pairs, tail_bound=float(pmf_L_tail(max_terms)),
                            name="Tc")


def sample_Tc_batch(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw T_c: l ~ pmf_L, then S_{l+1}^inf."""
    ls = sample_L(rng, n)
    return sample_S_batch(ls + 1, rng)


# ---------------------------------------------------------------------------
# Even zeta values, exactly

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
