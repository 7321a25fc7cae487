"""Array kernels over event chunks.

Every genealogical scan asks one question of the look-down graph: which is
the next event, walking forward or backward, whose dst is at or below a
level threshold that moves only at such events?  ``hits`` is the one
cursor that answers it.  It draws chunks from ``stream.iter_chunks`` and
finds each hit by a vectorized search over a block that starts small, grows
after each miss and starts small again after each hit, so dense hits stay
cheap and long runs of misses run at numpy speed.  The four scans below are
short loops over its hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_BLOCK_MIN = 64
_BLOCK_MAX = 8192


def hits(stream, a: float, b: float, level, reverse: bool = False):
    """Yield (time, src, dst) of each event with a <= time <= b and
    dst <= level(), in ascending time order (descending when reverse).

    level() is read at the start and again after each hit, so the caller
    moves the threshold between hits.
    """
    block = _BLOCK_MIN
    for times, srcs, dsts in stream.iter_chunks(a, b, reverse=reverse):
        if reverse:
            times, srcs, dsts = times[::-1], srcs[::-1], dsts[::-1]
        pos, n = 0, len(times)
        thresh = level()
        while pos < n:
            hi = min(n, pos + block)
            mask = dsts[pos:hi] <= thresh
            j = int(np.argmax(mask))
            if not mask[j]:
                pos, block = hi, min(block * 4, _BLOCK_MAX)
                continue
            j += pos
            yield float(times[j]), int(srcs[j]), int(dsts[j])
            pos, block = j + 1, _BLOCK_MIN
            thresh = level()


def backward_drops(stream, t: float, s_floor: float | None = None):
    """Backward block-count scan from t with C starting at level_cap.

    Every event with dst <= C, walking backward, drops C by one.  Returns
    (knots, c_final, last_pair): knots[m] is the time at which C jumps (in
    forward time) to the value level_cap - m, so reversed(knots) ascends
    and maps to values 2..level_cap when c_final == 1.  last_pair is the
    (src, dst) of the deepest drop processed.
    """
    lo = stream.window[0] if s_floor is None else max(s_floor, stream.window[0])
    c = stream.config.level_cap
    knots: list[float] = []
    last_pair: tuple[int, int] | None = None
    for tau, src, dst in hits(stream, lo, t, lambda: c, reverse=True):
        knots.append(tau)
        last_pair = (src, dst)
        c -= 1
        if c == 1:
            break
    return knots, c, last_pair


def track_line_forward(stream, s_from: float, t_to: float, level0: int):
    """Level of a line from strictly after s_from up to t_to.

    The line is pushed one level up at each event with dst <= level; a push
    at level == level_cap kills it.  Returns (level, exit_time): level is
    None when the line was killed, at exit_time; else exit_time is None.
    """
    cap = stream.config.level_cap
    y = level0
    for tau, _, _ in hits(stream, np.nextafter(s_from, np.inf), t_to,
                         lambda: y):
        if y == cap:
            return None, tau
        y += 1
    return y, None


def trace_level_backward(stream, t: float, j: int, s: float) -> int:
    """Ancestor level at time s of the individual at (t, j).

    Walking backward through an event (tau, i, d): a level x maps to x - 1
    if x > d, to the parent level i if x == d, else stays.  Only events
    strictly after s count (the time-s individual itself is the ancestor).
    """
    x = j
    if x == 1:
        return x
    for _, src, d in hits(stream, np.nextafter(s, np.inf), t, lambda: x,
                          reverse=True):
        x = src if d == x else x - 1
        if x == 1:
            break
    return x


@dataclass
class CurvePassResult:
    """Forward sweep over all fixation curves in a range.

    Curves are numbered by birth order (ids index ``births``).
    ``exit_times``/``exit_birth_ids`` list completed curves in exit order.
    """

    births: list[float] = field(default_factory=list)
    exit_times: list[float] = field(default_factory=list)
    exit_birth_ids: list[int] = field(default_factory=list)
    open_ids: list[int] = field(default_factory=list)
    path_times: dict[int, list[float]] = field(default_factory=dict)
    path_levels: dict[int, list[int]] = field(default_factory=dict)


def curve_pass(stream, a: float, b: float,
               record_paths: bool = False) -> CurvePassResult:
    """Track every fixation curve born in [a, b] through one forward sweep.

    A (1,2) event births a curve at level 2 (after pushing all active
    curves); an event with dst = d pushes the curves at levels >= d - 1;
    a leader pushed to level_cap exits and is removed at that instant.
    Curves alive at ``a`` from earlier births are unknown and simply not
    tracked, so the first few time units of a sweep are a warm-up.
    """
    cap = stream.config.level_cap
    res = CurvePassResult()
    levels: list[int] = []   # active curve levels, strictly decreasing
    ids: list[int] = []
    for tau, src, d in hits(stream, a, b,
                            lambda: levels[0] + 1 if levels else 2):
        # a qualifying event always pushes the leader; crossing the cap
        # is the exit, and that final push is not a path knot
        will_exit = bool(levels) and levels[0] + 1 >= cap
        m = 0
        while m < len(levels) and levels[m] >= d - 1:
            levels[m] += 1
            if record_paths and not (m == 0 and will_exit):
                res.path_times[ids[m]].append(tau)
                res.path_levels[ids[m]].append(levels[m])
            m += 1
        if d == 2 and src == 1:
            cid = len(res.births)
            res.births.append(tau)
            levels.append(2)
            ids.append(cid)
            if record_paths:
                res.path_times[cid] = [tau]
                res.path_levels[cid] = [2]
        if will_exit:
            res.exit_times.append(tau)
            res.exit_birth_ids.append(ids[0])
            levels.pop(0)
            ids.pop(0)
    res.open_ids = list(ids)
    return res
