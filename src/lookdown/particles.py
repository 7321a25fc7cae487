"""Autonomous particle system of fixation-curve levels.

State is a strictly decreasing tuple of levels on {2, 3, ...}.  Dynamics:
a new particle is pushed in at level 2 at rate 1 (pushing everyone up),
and particles 1..k are pushed one level up at rate
C(l_k+1, 2) - C(l_{k+1}+1, 2), so the total outflow rate of a state with
leading level l1 is exactly C(l1+1, 2).  The leading particle escapes to
infinity in finite time; with a finite cap M the exit is recorded when the
leader reaches M, and the indices of the remaining particles shift down by
one at that same instant (no observer sees an intermediate state).

``simulate`` is one competing-risks loop that every state goes through,
the empty one included.  A segment races the leader's solo pushes against
one exponential clock carrying every other transition (total rate
c2 = C(l2+1, 2), arrivals included; with no leader the climb is empty and
c2 = 1).  The clock and the solo pushes read standard exponentials, and
the drawn transition a uniform, one at a time from two streams that the
run's generator fills in blocks of _BLOCK.  A climb expected to push at
most _SHORT_CLIMB times, or with no more room than that, takes one
exponential per push in plain Python and stops at the first push past its
budget; that draw is dropped, which memorylessness allows.  A climb
expected to be longer, or still going after _SHORT_CLIMB pushes, goes on
in vectorized chunks (``_solo_climb``), the first one sized from its
expected pushes.  A segment ends at that clock, at the climb's last
push into its top, at the landing epoch of a leader in flight (below), or
at the horizon; its grid samples read the leader off the climb, and one
recorder writes its pushes and the transition that ends it.  A state out
of order raises ``InternalError`` (exit status 4 from the CLI).

Every exit is a flight that lands.  The leader is pushed at total rate
C(l+1, 2) whatever the others do, and the particles below it form the
same system on their own.  So a leader at level l >= top leaves
``levels`` and flies to the epoch t + 2/l - 2/cap, the mean of its
pure-birth climb S_{l->cap} to the cap, while the loop runs on below it.
A later flight starts no higher, so flights land in the order they
start, and one rule lands them: at the epoch, or at once when more fly
than the cap - top levels from the top up hold.  With ``trajectory``,
or a cap of at most K_STAR = 512, the top is the cap: a leader at the
cap lands at once, the exact exit and jump-back, and the run is
law-identical to event-by-event stepping.  Otherwise the top is K_STAR,
the cutoff of ``laws.sample_S_batch``, and the only error is the climb's
spread about its mean: per exit a variance sum_{m >= K_STAR}
(2/(m(m+1)))^2 < 1e-8, the bound that sampler accepts for S.  A landing
forced by full levels is the exact system's push that lifts the newest
leader to K_STAR and carries the highest particle over the cap.  A grid
sample or exit configuration taken while a leader is in flight draws its
level from the pure-birth climb out of the flight's start level, kept
above the particle below it and below the cap; these draws come from a
generator of their own, so reading them moves no exit.
"""

from __future__ import annotations

import bisect
import collections
import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import stats
from .errors import ConfigurationError, InternalError, SampleSizeError
from .laws import K_STAR, comb2
from .seeding import rng_from


@dataclass(frozen=True)
class ParticleConfig:
    """Strictly decreasing active levels; the empty state is first-class.

    The convention "l_j = 1 for j > Z" is implicit: trailing 1s are
    stripped on construction.
    """

    levels: tuple[int, ...] = ()

    def __post_init__(self):
        seq = list(self.levels)
        while seq and seq[-1] == 1:
            seq.pop()
        object.__setattr__(self, "levels", tuple(int(l) for l in seq))
        if any(l < 2 for l in self.levels):
            raise ConfigurationError(f"active levels must be >= 2: {self.levels}")
        if any(b >= a for a, b in zip(self.levels, self.levels[1:])):
            raise ConfigurationError(f"levels must strictly decrease: {self.levels}")

    @classmethod
    def empty(cls) -> "ParticleConfig":
        return cls(())


@dataclass(frozen=True)
class TransitionEvent:
    """One transition; ``levels`` is the configuration just afterwards.

    kind "push": particles 1..k moved up one level.
    kind "arrival": new particle entered at level 2, everyone pushed.
    kind "exit": leader crossed the cap; jump-back already applied.
    ``time`` is the absolute model time of the transition.
    """

    time: float
    kind: str
    k: int | None
    levels: tuple[int, ...]


@dataclass(frozen=True)
class ParticleSimConfig:
    particle_cap: int = 10_000
    horizon: float = 100.0
    seed: int = 0
    init: ParticleConfig = field(default_factory=ParticleConfig.empty)
    burn_in: float = 0.0

    def __post_init__(self):
        if self.particle_cap < 10:
            raise ConfigurationError("particle_cap must be >= 10")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.burn_in < 0:
            raise ConfigurationError("burn_in must be nonnegative")
        if self.init.levels and self.init.levels[0] >= self.particle_cap:
            raise ConfigurationError("initial leader already beyond the cap")


@dataclass
class ParticleRunResult:
    """Output of ``simulate``.

    exits               exit times in [0, horizon]; the CLI writes them,
                        and verify tests their gaps against Exp(1)
    living              living[m], the arrival time B of exit m's particle
                        (NaN for one of ``init``); verify pairs it with E
    exit_configs        exit_configs[m] is the configuration just after exit
                        m (jump-back applied), the state in which a new MRCA
                        is established; verify tests it against pi_Lambda
    sample_configs      the configuration at spacing, 2 spacing, ... below
                        the horizon, when sampled; verify tests it against
                        pi_Lambda and the law of Z
    n_transitions       transitions the loop drew, burn-in included (not
                        the pushes of leaders in flight); the CLI prints it
    n_flights           leaders that flew from below the cap
    n_segments          loop segments
    n_alive             particles alive at the horizon, in flight included
    exit_time_bias      the analytic per-exit truncation bias 2/cap (mean
                        residual climb time above the cap), for the manifest
    """

    exits: np.ndarray
    living: np.ndarray
    exit_configs: list[tuple[int, ...]]
    sample_configs: list[tuple[int, ...]] | None
    n_transitions: int
    n_flights: int
    n_segments: int
    n_alive: int
    exit_time_bias: float

    def counters(self) -> dict[str, int]:
        """What the run drew: its transitions, loop segments, flights and
        exits; the CLI's manifest and verify's reports carry it."""
        return {"transitions": self.n_transitions,
                "exits": int(self.exits.size), "flights": self.n_flights,
                "segments": self.n_segments}


# standard exponentials and uniforms come from a run's generator in blocks
# of this many, read one at a time as Python floats
_BLOCK = 1024
# a climb runs in plain Python for at most this many pushes, and only when
# it is expected to make no more; the rest is drawn in vectorized chunks
_SHORT_CLIMB = 16
# a run's rate table covers the levels below min(cap, _TABLE_LEVELS), and a
# chunk above it computes the same values itself
_TABLE_LEVELS = 1 << 20


def _stream(draw: Callable[[int], np.ndarray]) -> Iterator[float]:
    """The values of ``draw(_BLOCK)``, block after block, as Python floats."""
    return itertools.chain.from_iterable(
        iter(lambda: draw(_BLOCK).tolist(), None))


def _half(lo: int, hi: int) -> np.ndarray:
    """C(l+1, 2) = l(l+1)/2 for l in [lo, hi) as float64, exact for l < 2^26."""
    ls = np.arange(lo, hi, dtype=np.float64)
    return ls * (ls + 1.0) / 2.0


def _solo_climb(rng: np.random.Generator, half: np.ndarray, level: int,
                top: int, c2: int, budget: float) -> np.ndarray:
    """Cumulative times, from now, of the leader's solo pushes out of
    ``level``, ``level + 1``, ... (rate C(l+1, 2) - c2 out of level l) that
    come by ``budget``, up to the push into ``top``.

    The first chunk holds 1.25 times the pushes expected by ``budget``, plus
    16; later ones are x8 the last, up to 2^16.  ``half`` is the run's table
    of C(l+1, 2) (``_half(0, ...)``).
    """
    room = top - level
    # pushes by ``budget`` at their mean times, c2 aside (it only slows the
    # climb): 2/l - 2/(l + n) = budget
    expected = (room if budget * level >= 2.0 else
                budget * level * level / (2.0 - budget * level))
    chunk = min(int(1.25 * expected) + 16, 1 << 16)
    cums = []
    hi, total = level, 0.0
    while hi < top and total <= budget:
        level, hi = hi, min(top, hi + chunk)
        rates = half[level:hi] if hi <= half.size else _half(level, hi)
        seg = total + (rng.standard_exponential(hi - level)
                       / (rates - c2)).cumsum()
        cums.append(seg)
        total = float(seg[-1])
        chunk = min(chunk * 8, 1 << 16)
    # a climb with no room has no chunk
    cum = cums[0] if len(cums) == 1 else np.concatenate([np.empty(0), *cums])
    return cum[:cum.searchsorted(budget, side="right")]


def _in_flight(rng: np.random.Generator, half: np.ndarray,
               flights: list[tuple[float, int, float]], s: float,
               floor: int, cap: int) -> tuple[int, ...]:
    """Levels at time ``s`` of the leaders in flight, highest first.

    Each is drawn from the pure-birth climb at rates C(m+1, 2) out of its
    flight's start level, then kept above the particle below it (level
    ``floor``, 1 for none) and below the cap.
    """
    below = floor
    levels = []
    for start, level, _ in reversed(flights):   # the newest flies lowest
        climb = _solo_climb(rng, half, level, cap, 0, s - start)
        floor = max(level + climb.size, floor + 1)
        levels.append(floor)
    ceiling = cap
    for m in reversed(range(len(levels))):
        ceiling = levels[m] = min(levels[m], ceiling - 1)
    if levels and levels[0] <= below:
        raise InternalError(f"no room below the cap {cap} for "
                            f"{len(levels)} leaders in flight over {below}")
    return tuple(reversed(levels))


def simulate(config: ParticleSimConfig, *,
             trajectory: Callable[[TransitionEvent], object] | None = None,
             sample_spacing: float | None = None) -> ParticleRunResult:
    """Run the system on [0, horizon] (preceded by burn_in), seed-determined.

    The fresh-start law is not specified by the theory; the default is the
    empty configuration, with ``burn_in`` and/or a ``sample_stationary``
    init available for stationary statistics.  ``trajectory``, if given,
    gets each ``TransitionEvent`` at or after time 0 as it is drawn.
    """
    if sample_spacing is not None and sample_spacing <= 0:
        raise ConfigurationError("sample_spacing must be positive")
    rng = rng_from(config.seed, "particles")
    cap = config.particle_cap
    top = cap if trajectory is not None or cap <= K_STAR else K_STAR
    half = _half(0, min(cap, _TABLE_LEVELS))    # C(l+1, 2) for long climbs
    exps = _stream(rng.standard_exponential)
    uniforms = _stream(rng.random)
    # flight levels draw from a stream of their own: reading them moves no exit
    flight_rng = rng_from(config.seed, "particles", "flights")
    horizon = float(config.horizon)
    t = -float(config.burn_in)
    levels: list[int] = list(config.init.levels)
    flights: list[tuple[float, int, float]] = []   # (start, level, exit epoch)
    # arrival times of the live particles, oldest first: particles exit in
    # arrival order, since the leader is the oldest and flights land in turn
    arrivals = collections.deque([math.nan] * len(levels))
    exits: list[float] = []
    living: list[float] = []
    exit_configs: list[tuple[int, ...]] = []
    next_sample = sample_spacing if sample_spacing is not None else math.inf
    sample_configs: list[tuple[int, ...]] = []
    n_transitions = n_flights = n_segments = 0

    while t < horizon:
        # the leader at the top flies; a flight lands at its epoch, or now
        # when more fly than the levels above the top hold (module docstring)
        while levels and levels[0] >= top:
            l = levels.pop(0)
            flights.append((t, l, t + 2.0 / l - 2.0 / cap))
            n_flights += l < cap
        while flights and (flights[0][2] <= t or len(flights) > cap - top):
            flights.pop(0)
            b = arrivals.popleft()
            if t >= 0.0:
                exits.append(t)
                living.append(b)
                exit_configs.append(
                    _in_flight(flight_rng, half, flights, t,
                               levels[0] if levels else 1, cap)
                    + tuple(levels))
        n_segments += 1
        rest = levels[1:]
        below = rest + [1]      # the level under each particle: l_2, ..., 1
        for a, b in zip(levels, below):
            if b >= a:
                raise InternalError(f"particle order violated: {levels}")
        l1 = levels[0] if levels else top       # no leader: an empty climb
        c2 = comb2(below[0] + 1)                # rate of all but solo pushes
        t_other = next(exps) / c2
        t_land = flights[0][2] - t if flights else math.inf
        budget = min(t_other, t_land, horizon - t)
        # a climb expected to push at most _SHORT_CLIMB times (by the mean
        # climb time 2/l1 - 2/l out of l1, which the rates of the others only
        # slow) runs in plain Python; past that many pushes, or when expected
        # longer, it goes on in vectorized chunks from the level it reached
        cum, elapsed, level = [], 0.0, l1
        chunked = (top - l1 > _SHORT_CLIMB and budget * l1 * l1
                > _SHORT_CLIMB * (2.0 - budget * l1))
        if not chunked:
            rate = comb2(l1 + 1) - c2           # of the leader's next push
            while level < top:
                if level - l1 == _SHORT_CLIMB:
                    chunked = True
                    break
                elapsed += next(exps) / rate
                if elapsed > budget:            # dropped: memoryless
                    break
                cum.append(elapsed)
                level += 1
                rate += level                   # C(l+2, 2) - C(l+1, 2)
        if chunked:
            climb = _solo_climb(rng, half, level, top, c2, budget - elapsed)
            cum = np.concatenate((cum, elapsed + climb)) if cum else climb
        n = len(cum)
        climbed = n == top - l1 > 0     # the leader's last push hit the top
        dt = float(cum[-1]) if climbed else budget

        while next_sample < t + dt:
            lead = l1 + bisect.bisect_right(cum, next_sample - t)
            sample_configs.append(
                _in_flight(flight_rng, half, flights, next_sample,
                           lead if levels else 1, cap)
                + ((lead, *rest) if levels else ()))
            next_sample += sample_spacing
        n_transitions += n
        if n:
            levels[0] += n
        drawn = not climbed and t_other == budget
        if drawn:
            n_transitions += 1
            kind, k = "arrival", None
            if levels:
                # pushes of 1..j, j >= 2, at C(l_j+1, 2) - C(l_{j+1}+1, 2):
                # the rates telescope from c2, and an arrival takes the last 1
                u = next(uniforms) * c2
                for j, l_next in enumerate(below[1:], start=2):
                    if u < c2 - comb2(l_next + 1):
                        kind, k = "push", j
                        break
            for m in range(len(levels) if k is None else k):
                levels[m] += 1
            if k is None:
                levels.append(2)
                arrivals.append(t + dt)
        if trajectory is not None:
            rows = itertools.chain(     # streamed: a climb holds 10^4 rows
                ((t + float(cum[m]), "push", 1, (l1 + m + 1, *rest))
                 for m in range(n)),
                [(t + dt, kind, k, tuple(levels))] if drawn else ())
            for time, kind, k, after in rows:
                if after[0] >= cap:     # it lands at the top of the loop
                    kind, k, after = "exit", None, after[1:]
                if time >= 0.0:
                    trajectory(TransitionEvent(time, kind, k, after))
        if climbed or drawn:
            t += dt
        else:       # a flight lands at the top of the loop, or the run ends
            t = flights[0][2] if t_land == budget else horizon

    return ParticleRunResult(
        exits=np.asarray(exits, dtype=np.float64),
        living=np.asarray(living, dtype=np.float64),
        exit_configs=exit_configs,
        sample_configs=sample_configs if sample_spacing is not None else None,
        n_transitions=n_transitions,
        n_flights=n_flights,
        n_segments=n_segments,
        n_alive=len(arrivals),
        exit_time_bias=2.0 / cap)


# ---------------------------------------------------------------------------
# Exact stationary sampling

def _draw_base(rng: np.random.Generator, below: int | None = None) -> int:
    """Draw R with P[R=l] = 2/((l+1)(l+2)) on l >= 1, optionally conditioned
    on {R < below} (normalizer (below-1)/(below+1)), by CDF inversion."""
    u = rng.random()
    if below is not None:
        u *= (below - 1) / (below + 1)
    return int(2.0 / (1.0 - u)) - 1


def _stationary_levels(rng: np.random.Generator,
                       below: int | None = None) -> tuple[int, ...]:
    """The levels of one draw of ``sample_stationary``."""
    levels: list[int] = []
    l = _draw_base(rng, below)
    while l > 1:
        levels.append(l)
        l = _draw_base(rng, below=l)
    return tuple(levels)


def sample_stationary(rng: np.random.Generator,
                      below: int | None = None) -> ParticleConfig:
    """One exact draw from pi_Lambda, or from pi_Lambda conditioned on a
    leading level under ``below``.

    The leading level follows 2/((l+1)(l+2)); each next level repeats the
    same base law conditioned below its predecessor; a drawn 1 stops the
    chain (that particle slot is empty).
    """
    return ParticleConfig(_stationary_levels(rng, below))


def sample_stationary_many(rng: np.random.Generator,
                           n: int) -> list[tuple[int, ...]]:
    """The levels of n draws of ``sample_stationary(rng)``, the same draws."""
    return [_stationary_levels(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# Exit-gap diagnostics

@dataclass(frozen=True)
class ExitGapSummary:
    n_gaps: int
    mean_gap: float
    ks_report: stats.GofReport
    lag1_autocorrelation: float
    dispersion: float
    n_windows: int

    def to_dict(self) -> dict:
        return {"n_gaps": self.n_gaps, "mean_gap": self.mean_gap,
                "ks": self.ks_report.to_dict(),
                "lag1_autocorrelation": self.lag1_autocorrelation,
                "dispersion": self.dispersion, "n_windows": self.n_windows}


def exit_gap_statistics(exits: Sequence[float]) -> ExitGapSummary:
    """Gap summary against the Poisson-output prediction (Exp(1) gaps).

    Needs at least 100 exits; the edge gaps are the ones not represented
    (differences only exist between interior consecutive exits).
    """
    e = np.sort(np.asarray(exits, dtype=np.float64))
    if e.size < 100:
        raise SampleSizeError(f"need >= 100 exits, got {e.size}")
    gaps = np.diff(e)
    ks = stats.ks_test_exp1(gaps, name="exit_gaps_vs_exp1")
    disp, n_win = stats.count_dispersion(e, width=1.0)
    return ExitGapSummary(
        n_gaps=int(gaps.size), mean_gap=float(gaps.mean()), ks_report=ks,
        lag1_autocorrelation=stats.lag1_autocorrelation(gaps),
        dispersion=disp, n_windows=n_win)


# ---------------------------------------------------------------------------
# Exports

def export_exits_csv(exits: Sequence[float], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["E"])
        for e in exits:
            writer.writerow([format(float(e), ".17g")])
