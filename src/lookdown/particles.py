"""Autonomous particle system of fixation-curve levels.

State is a strictly decreasing tuple of levels on {2, 3, ...}.  Dynamics:
a new particle is pushed in at level 2 at rate 1 (pushing everyone up),
and particles 1..k are pushed one level up at rate
C(l_k+1, 2) - C(l_{k+1}+1, 2), so the total outflow rate of a state with
leading level l1 is exactly C(l1+1, 2).  The leading particle escapes to
infinity in finite time; with a finite cap M the exit is recorded when the
leader reaches M, and the indices of the remaining particles shift down by
one at that same instant (no observer sees an intermediate state).

``simulate`` resolves each leading-particle ascent with a competing-risks
decomposition: while only the leader can move "alone" its push times are
drawn in vectorized chunks against one exponential clock carrying every
other transition (total rate C(l2+1, 2), arrivals included).  This is
law-identical to event-by-event stepping and keeps long runs cheap even
with the default cap of 10^4.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import stats
from .errors import ConfigurationError, SampleSizeError
from .laws import comb2
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

    @property
    def z(self) -> int:
        return len(self.levels)

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


def _apply(levels: list[int], kind: str, k: int | None) -> None:
    if kind == "push":
        for m in range(k):
            levels[m] += 1
    elif kind == "arrival":
        for m in range(len(levels)):
            levels[m] += 1
        levels.append(2)
    else:
        raise AssertionError(f"unknown kind {kind}")


@dataclass
class ParticleRunResult:
    """Output of ``simulate``.

    exit_configs[m] is the configuration just after exit m (jump-back
    applied), the state in which a new MRCA is established.
    exit_time_bias is the analytic per-exit truncation bias 2/cap (mean
    residual climb time above the cap).
    """

    config: ParticleSimConfig
    exits: np.ndarray
    trajectory: list[TransitionEvent] | None
    exit_configs: list[tuple[int, ...]]
    sample_times: np.ndarray | None
    sample_configs: list[tuple[int, ...]] | None
    final_levels: tuple[int, ...]
    n_transitions: int
    exit_time_bias: float


def _check_sorted(levels: list[int]) -> None:
    for a, b in zip(levels, levels[1:]):
        if b >= a:
            raise AssertionError(f"ordering violated: {levels}")
    if levels and levels[-1] < 2:
        raise AssertionError(f"active level below 2: {levels}")


def simulate(config: ParticleSimConfig, *, record_trajectory: bool = False,
             sample_spacing: float | None = None) -> ParticleRunResult:
    """Run the system on [0, horizon] (preceded by burn_in), seed-determined.

    The fresh-start law is not specified by the theory; the default is the
    empty configuration, with ``burn_in`` and/or a ``sample_stationary``
    init available for stationary statistics.
    """
    rng = rng_from(config.seed, "particles")
    cap = config.particle_cap
    horizon = float(config.horizon)
    t = -float(config.burn_in)
    levels: list[int] = list(config.init.levels)
    exits: list[float] = []
    trajectory: list[TransitionEvent] | None = [] if record_trajectory else None
    exit_configs: list[tuple[int, ...]] = []
    n_transitions = 0

    if sample_spacing is not None and sample_spacing <= 0:
        raise ConfigurationError("sample_spacing must be positive")
    next_sample = sample_spacing if sample_spacing is not None else math.inf
    sample_times: list[float] = []
    sample_configs: list[tuple[int, ...]] = []

    def emit(time: float, kind: str, k: int | None) -> None:
        if trajectory is not None and time >= 0.0:
            trajectory.append(TransitionEvent(time, kind, k, tuple(levels)))

    def flush_static(until: float) -> None:
        # record grid samples on [t, until) while the configuration is frozen
        nonlocal next_sample
        while next_sample < until:
            sample_times.append(next_sample)
            sample_configs.append(tuple(levels))
            next_sample += sample_spacing

    while t < horizon:
        if not levels:
            dt = float(rng.exponential(1.0))
            flush_static(min(t + dt, horizon))
            t += dt
            if t >= horizon:
                t = horizon
                break
            levels = [2]
            n_transitions += 1
            emit(t, "arrival", None)
            continue

        l1 = levels[0]
        l2 = levels[1] if len(levels) > 1 else 1
        c2 = comb2(l2 + 1)  # total rate of everything but solo-leader pushes
        t_other = float(rng.exponential(1.0 / c2))
        budget = min(t_other, horizon - t)

        # solo climb of the leader: push out of level l at C(l+1,2) - c2
        cums: list[np.ndarray] = []
        total_time = 0.0
        lvl = l1
        chunk = 64
        while lvl < cap and total_time <= budget:
            hi = min(cap, lvl + chunk)
            ls = np.arange(lvl, hi, dtype=np.float64)
            rates = ls * (ls + 1.0) / 2.0 - c2
            seg = total_time + np.cumsum(rng.standard_exponential(hi - lvl) / rates)
            cums.append(seg)
            total_time = float(seg[-1])
            lvl = hi
            chunk = min(chunk * 8, 1 << 16)
        cum = np.concatenate(cums) if cums else np.empty(0)
        reached_cap = cum.size == cap - l1 and (cum.size == 0 or cum[-1] <= budget)
        exit_rel = float(cum[-1]) if cum.size == cap - l1 else math.inf

        seg_end_rel = min(exit_rel, budget)
        # grid samples inside the climb segment see the interpolated leader
        while next_sample < t + seg_end_rel:
            rel = next_sample - t
            lead = l1 + int(np.searchsorted(cum, rel, side="right"))
            sample_times.append(next_sample)
            sample_configs.append((lead, *levels[1:]))
            next_sample += sample_spacing
        if trajectory is not None:
            n_push = int(np.searchsorted(cum, seg_end_rel, side="left"))
            stop = n_push if not (reached_cap and exit_rel <= budget) else cap - l1 - 1
            for m in range(stop):
                when = t + float(cum[m])
                if when >= 0.0:
                    trajectory.append(TransitionEvent(
                        when, "push", 1, (l1 + m + 1, *levels[1:])))

        if reached_cap and exit_rel <= budget:
            # the solo climb carries the leader to the cap
            t += exit_rel
            n_transitions += cap - l1
            levels[0] = cap
        elif t_other > horizon - t:
            # horizon falls inside the climb
            n_transitions += int(np.searchsorted(cum, horizon - t, side="left"))
            t = horizon
            break
        else:
            # an interacting transition interrupts the climb at t_other
            n_climbed = int(np.searchsorted(cum, t_other, side="right"))
            levels[0] = l1 + n_climbed
            n_transitions += n_climbed + 1
            t += t_other
            z = len(levels)
            u = rng.random() * c2
            acc = 0.0
            kind, kk = "arrival", None
            for k in range(2, z + 1):
                nxt = levels[k] if k < z else 1
                acc += comb2(levels[k - 1] + 1) - comb2(nxt + 1)
                if u < acc:
                    kind, kk = "push", k
                    break
            _apply(levels, kind, kk)
        if levels[0] >= cap:
            # leader at the cap: exit + jump-back, atomically
            levels = levels[1:]
            if t >= 0.0:
                exits.append(t)
                exit_configs.append(tuple(levels))
            emit(t, "exit", None)
        else:
            emit(t, kind, kk)
        _check_sorted(levels)

    return ParticleRunResult(
        config=config, exits=np.asarray(exits, dtype=np.float64),
        trajectory=trajectory,
        exit_configs=exit_configs,
        sample_times=np.asarray(sample_times) if sample_spacing is not None else None,
        sample_configs=sample_configs if sample_spacing is not None else None,
        final_levels=tuple(levels), n_transitions=n_transitions,
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


def sample_stationary(rng: np.random.Generator) -> ParticleConfig:
    """One exact draw from pi_Lambda.

    The leading level follows 2/((l+1)(l+2)); each next level repeats the
    same base law conditioned below its predecessor; a drawn 1 stops the
    chain (that particle slot is empty).
    """
    levels: list[int] = []
    l = _draw_base(rng)
    while l > 1:
        levels.append(l)
        l = _draw_base(rng, below=l)
    return ParticleConfig(tuple(levels))


def sample_stationary_many(rng: np.random.Generator,
                           n: int) -> list[tuple[int, ...]]:
    return [sample_stationary(rng).levels for _ in range(n)]


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

def export_trajectory_jsonl(events: Iterable[TransitionEvent], path) -> None:
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps({"t": ev.time, "kind": ev.kind, "k": ev.k,
                                 "levels": list(ev.levels)}) + "\n")


def export_exits_csv(exits: Sequence[float], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["E"])
        for e in exits:
            writer.writerow([format(float(e), ".17g")])
