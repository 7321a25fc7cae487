"""Naive reference implementations, used as independent oracles.

``GraphOracle`` builds the finite-level look-down graph forward in time as
explicit line objects (occupants per level, parent links, level paths), then
answers ancestry queries by walking lines and parent hops.  Deliberately
slow and direct; shares no code with the engine's backward scans.

``unit_step_scan`` walks a scan whose threshold moves by one per hit one
event at a time, the reference for ``_scan.unit_step_block`` and
``_scan.unit_step_hits``; ``curve_pass_per_event`` walks every fixation
curve through every event, the reference for ``_scan.curve_pass``.

``transition_rates`` and ``step`` move the fixation-curve particle system
one transition at a time, the event-by-event law that ``particles.simulate``
resolves in climb segments.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from lookdown.laws import comb2
from lookdown.particles import ParticleConfig, TransitionEvent


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
