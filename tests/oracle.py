"""Naive reference implementations, used as independent oracles.

``GraphOracle`` builds the finite-level look-down graph forward in time as
explicit line objects (occupants per level, parent links, level paths), then
answers ancestry queries by walking lines and parent hops.  Deliberately
slow and direct; shares no code with the engine's backward scans.

``unit_step_scan`` walks a scan whose threshold moves by one per hit one
event at a time, the reference for ``_scan.unit_step_block`` and
``_scan.unit_step_hits``; ``curve_pass_per_event`` walks every fixation
curve through every event, the reference for ``_scan.curve_pass``.

``FixedStream`` replays given events through the engine's slice machinery,
and ``fixed_stream`` builds one from (time, src, dst) tuples.
``events_between``, ``window_events`` and ``curve_value`` read an engine
stream's events as arrays and an engine ``CoalescentCurve`` at one time,
for tests that compare them with the oracles.

``transition_rates`` and ``step`` move the fixation-curve particle system
one transition at a time, the event-by-event law that ``particles.simulate``
resolves in climb segments.

``K_transition`` is the one-step law of the K chain, the step that
``laws.K_marginal_forward`` takes in integers.

``chi_square_two_sample`` compares two simulated samples with each other
where neither side has an exact table to test against.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.stats

from lookdown.engine import EngineConfig, EventStream
from lookdown.errors import (ConfigurationError, DegenerateBinningError,
                             DomainError, SampleSizeError)
from lookdown.laws import comb2
from lookdown.particles import ParticleConfig, TransitionEvent
from lookdown.stats import ALPHA_DEFAULT, MIN_EXPECTED, GofReport, _report


def unit_step_scan(dsts, level: int, step: int,
                   limit: int | None = None) -> list[int]:
    """Indices of the hits, in order: event k hits iff dsts[k] <= level,
    and each hit moves level by step; stops after limit hits."""
    out: list[int] = []
    for k, d in enumerate(dsts):
        if limit is not None and len(out) == limit:
            break
        if d <= level:
            out.append(k)
            level += step
    return out


def curve_pass_per_event(events, level_cap: int):
    """Every fixation curve through the time-sorted events, one event at a
    time: (births, exit_times, exit_ids, open_ids, paths), with paths[id]
    the (time, level) knots of curve id.

    Each event with dst = d pushes every curve at a level >= d - 1; a curve
    pushed to level_cap exits there (no knot), and a (1, 2) event then
    births a curve at level 2.
    """
    births: list[float] = []
    exit_times: list[float] = []
    exit_ids: list[int] = []
    paths: dict[int, list[tuple[float, int]]] = {}
    alive: list[list[int]] = []   # [id, level], oldest first
    for tau, src, d in events:
        for curve in alive:
            if curve[1] >= d - 1:
                curve[1] += 1
                if curve[1] < level_cap:
                    paths[curve[0]].append((tau, curve[1]))
        for curve in [c for c in alive if c[1] >= level_cap]:
            exit_times.append(tau)
            exit_ids.append(curve[0])
            alive.remove(curve)
        if (src, d) == (1, 2):
            paths[len(births)] = [(tau, 2)]
            alive.append([len(births), 2])
            births.append(tau)
    return births, exit_times, exit_ids, [c[0] for c in alive], paths


class FixedStream(EventStream):
    """A stream of given events, sorted by (time, src, dst) without
    duplicates, in place of the generated ones.

    Every band has one slice width, a power of two w with the window inside
    (-w, w), and slice k holds the closed interval [k w, (k+1) w]: an event
    on a grid line, at 0.0 say, lies in two slices, and each chunk's own
    time bounds read it once.
    """

    def __init__(self, config: EngineConfig, times: np.ndarray,
                 srcs: np.ndarray, dsts: np.ndarray):
        super().__init__(config)
        w = 2.0 ** math.ceil(math.log2(max(map(abs, config.window)) + 1.0))
        self._widths = [w] * (len(self._edges) - 1)
        band = np.searchsorted(self._edges, dsts) - 1
        self._given = [(times[band == b], srcs[band == b], dsts[band == b])
                       for b in range(len(self._widths))]

    def _generate_slice(self, b: int, k: int):
        times, srcs, dsts = self._given[b]
        w = self._widths[b]
        i0 = times.searchsorted(k * w, side="left")
        i1 = times.searchsorted((k + 1) * w, side="right")
        return times[i0:i1], srcs[i0:i1], dsts[i0:i1]


def fixed_stream(config: EngineConfig, events) -> FixedStream:
    """A ``FixedStream`` of (time, src, dst) events, sorted by (time, src,
    dst) and exact duplicates dropped, as generated slices are."""
    recs = sorted({(float(t), int(i), int(j)) for t, i, j in events})
    for _, i, j in recs:
        if not 1 <= i < j <= config.level_cap:
            raise ConfigurationError(f"bad pair ({i}, {j}) for level_cap "
                                     f"{config.level_cap}")
    times, srcs, dsts = zip(*recs) if recs else ((), (), ())
    return FixedStream(config, np.asarray(times, dtype=np.float64),
                       np.asarray(srcs, dtype=np.int32),
                       np.asarray(dsts, dtype=np.int32))


def events_between(stream, a: float, b: float):
    """(times, srcs, dsts) of the stream's events with a <= time <= b."""
    chunks = list(stream.iter_chunks(a, b))
    if not chunks:
        empty = np.empty(0)
        return empty, empty.astype(np.int32), empty.astype(np.int32)
    return tuple(np.concatenate([c[m] for c in chunks]) for m in range(3))


def window_events(stream):
    """(times, srcs, dsts) of every event in the stream's window."""
    return events_between(stream, *stream.window)


def curve_value(curve, s: float) -> int:
    """C_s^t of a ``CoalescentCurve``: its lowest value plus the knots at or
    before s."""
    return curve.lowest_value + int(np.searchsorted(curve.knot_times, s,
                                                    side="right"))


def transition_rates(levels: Sequence[int]) -> list[tuple[str, int | None, int]]:
    """Exact integer branch rates out of a configuration.

    push of particles 1..k at C(l_k+1,2) - C(l_{k+1}+1,2) (with l_{Z+1} = 1),
    arrival at rate 1; they telescope to a total of C(l_1+1, 2).
    """
    seq = tuple(levels)
    out: list[tuple[str, int | None, int]] = []
    z = len(seq)
    for k in range(1, z + 1):
        nxt = seq[k] if k < z else 1
        out.append(("push", k, comb2(seq[k - 1] + 1) - comb2(nxt + 1)))
    out.append(("arrival", None, 1))
    total = sum(r for _, _, r in out)
    expected = comb2(seq[0] + 1) if seq else 1
    if total != expected:
        raise AssertionError(f"rate bookkeeping broken: {total} != {expected}")
    return out


def step(state: ParticleConfig,
         rng: np.random.Generator) -> tuple[ParticleConfig, TransitionEvent]:
    """Sample one transition; the event's time field is the holding time."""
    rates = transition_rates(state.levels)
    total = sum(r for _, _, r in rates)
    dt = float(rng.exponential(1.0 / total))
    u = rng.random() * total
    acc = 0.0
    for kind, k, r in rates:
        acc += r
        if u < acc:
            break
    if kind == "push":
        levels = [l + 1 for l in state.levels[:k]] + list(state.levels[k:])
    else:
        levels = [l + 1 for l in state.levels] + [2]
    new_state = ParticleConfig(tuple(levels))
    return new_state, TransitionEvent(dt, kind, k, new_state.levels)


def K_transition(j: int, k: int) -> Fraction:
    """P[K^(j+1) = k+1 | K^j = k] = C(k+1,2)/C(j+1,2), for j > k >= 1."""
    if k < 1 or j <= k:
        raise DomainError(f"need j > k >= 1, got j={j}, k={k}")
    return Fraction(comb2(k + 1), comb2(j + 1))


def chi_square_two_sample(samples_a: Sequence, samples_b: Sequence,
                          alpha: float = ALPHA_DEFAULT,
                          name: str = "chi_square_2sample") -> GofReport:
    """Homogeneity chi-square for two independent discrete samples."""
    a, b = list(samples_a), list(samples_b)
    na, nb = len(a), len(b)
    if min(na, nb) < 2:
        raise SampleSizeError("need at least two samples on each side")
    ca, cb = Counter(a), Counter(b)
    labels = list({**ca, **cb})
    oa = np.asarray([ca[k] for k in labels], dtype=float)
    ob = np.asarray([cb[k] for k in labels], dtype=float)
    pooled = (oa + ob) / (na + nb)
    # pool thin cells by the smaller expected count
    thin = np.minimum(pooled * na, pooled * nb) < MIN_EXPECTED
    if thin.any():
        oa = np.append(oa[~thin], oa[thin].sum())
        ob = np.append(ob[~thin], ob[thin].sum())
        pooled = (oa + ob) / (na + nb)
    if len(oa) < 2:
        raise DegenerateBinningError("all mass pooled; nothing to test")
    stat = float(np.sum((oa - pooled * na) ** 2 / (pooled * na))
                 + np.sum((ob - pooled * nb) ** 2 / (pooled * nb)))
    dof = len(oa) - 1
    p = float(scipy.stats.chi2.sf(stat, dof))
    return _report(name, stat, p, na + nb, alpha, dof=dof,
                   bins=f"{len(oa)} cells")


class GraphOracle:
    def __init__(self, level_cap: int, start_time: float, events):
        """events: iterable of (time, src, dst) with start_time <= time."""
        self.level_cap = level_cap
        self.start_time = start_time
        self.lines: dict[str, dict] = {}
        self.occupant_history: list[tuple[float, dict[int, str]]] = []
        occupant: dict[int, str] = {}
        for lvl in range(1, level_cap + 1):
            lid = f"init{lvl}"
            self.lines[lid] = {"birth_time": start_time, "parent": None,
                               "knots": [(start_time, lvl)], "death": None}
            occupant[lvl] = lid
        self.occupant_history.append((start_time, dict(occupant)))
        for n, (t, i, j) in enumerate(sorted(events)):
            t, i, j = float(t), int(i), int(j)
            doomed = occupant[level_cap]
            self.lines[doomed]["death"] = t
            for lvl in range(level_cap, j, -1):
                lid = occupant[lvl - 1]
                occupant[lvl] = lid
                self.lines[lid]["knots"].append((t, lvl))
            new_id = f"b{t}@{j}#{n}"   # events may share a time
            self.lines[new_id] = {"birth_time": t, "parent": occupant[i],
                                  "knots": [(t, j)], "death": None}
            occupant[j] = new_id
            self.occupant_history.append((t, dict(occupant)))

    def occupant_at(self, t: float) -> dict[int, str]:
        """Level -> line id at time t (state includes events at exactly t)."""
        state = self.occupant_history[0][1]
        for when, snap in self.occupant_history:
            if when <= t:
                state = snap
            else:
                break
        return state

    def line_level_at(self, lid: str, s: float) -> int:
        knots = self.lines[lid]["knots"]
        level = None
        for when, lvl in knots:
            if when <= s:
                level = lvl
            else:
                break
        if level is None:
            raise ValueError(f"line {lid} not yet born at {s}")
        return level

    def backward_level(self, t: float, j: int, s: float) -> int:
        """X_s^t(j) by explicit parent hops."""
        lid = self.occupant_at(t)[j]
        while self.lines[lid]["birth_time"] > s:
            lid = self.lines[lid]["parent"]
            if lid is None:
                raise ValueError("ancestry leaves the replayed window")
        return self.line_level_at(lid, s)

    def block_count(self, t: float, s: float) -> int:
        """C_s^t as the number of distinct time-s ancestors."""
        levels = {self.backward_level(t, j, s)
                  for j in range(1, self.level_cap + 1)}
        return len(levels)

    def max_ancestor_level(self, t: float, s: float) -> int:
        """C_s^t as max_j X_s^t(j); must agree with the distinct count."""
        return max(self.backward_level(t, j, s)
                   for j in range(1, self.level_cap + 1))
