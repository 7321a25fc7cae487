"""Array kernels over event chunks.

Every genealogical scan asks one question of the look-down graph: which is
the next event, walking forward or backward, whose dst is at or below a
level threshold that moves only at such events?  Two cursors answer it,
both drawing chunks from ``stream.iter_chunks``.

``unit_step_hits`` serves the scans whose threshold moves by exactly one
per hit: the block count of ``backward_drops`` falls by one at each drop,
and the line of ``track_line_forward`` rises by one at each push.  Within a
block, event k then hits iff ``dst[k] <= level + step * H[k]``, with H[k]
the hits before k, and ``unit_step_block`` solves that for all k at once by
fixed-point iteration.

``hits`` serves the others, ``trace_level_backward`` and ``curve_pass``,
whose thresholds jump by other amounts.  It finds one hit at a time by a
vectorized search over a block that starts small, grows after each miss
and starts small again after each hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_BLOCK_MIN = 64
_BLOCK_MAX = 8192
_UNIT_BLOCK_MIN = 1024
_UNIT_BLOCK_MAX = 65536


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


def unit_step_block(dst: np.ndarray, level: int, step: int):
    """Hit mask of one block of a scan whose threshold starts at level and
    moves by step (+1 or -1) at each hit; returns (hit, rounds).

    Event k hits iff dst[k] <= level + step * H[k], where H[k] counts the
    hits before k.  Starting from H = 0, each round recomputes the hits from
    H and H from the hits until H stops changing.  H[0] = 0 is right from
    the start, and once H[:k+1] is right, hit[k] and so H[k+1] are right a
    round later, so the fixed point is the sequential answer and takes at
    most len(dst) rounds (one for an empty block).
    """
    h = np.zeros(len(dst), dtype=np.int64)
    rounds = 0
    while True:
        rounds += 1
        hit = dst <= level + step * h
        nxt = np.cumsum(hit) - hit
        if np.array_equal(nxt, h):
            return hit, rounds
        h = nxt


def unit_step_hits(stream, a: float, b: float, level: int, step: int,
                   limit: int, reverse: bool = False):
    """Yield the hits of a scan whose threshold starts at level and moves
    by step at each hit, as (times, srcs, dsts) arrays, one per block that
    holds any, in scan order; stop after limit hits.

    The events a <= time <= b are walked in ascending time order
    (descending when reverse) in blocks that start at _UNIT_BLOCK_MIN
    events and grow x2 after a block with hits and x4 after one without.
    Each block is first narrowed to the events with dst <= c.  A falling
    threshold never exceeds c = level, so every hit is among them.  A
    rising one stays at or below c = 2 * level until its first level + 1
    hits are made, so the scan is exact up to the last of them, and the
    next block starts right after it.
    """
    block = _UNIT_BLOCK_MIN
    for times, srcs, dsts in stream.iter_chunks(a, b, reverse=reverse):
        if reverse:
            times, srcs, dsts = times[::-1], srcs[::-1], dsts[::-1]
        pos, n = 0, len(times)
        while pos < n:
            hi = min(n, pos + block)
            d = dsts[pos:hi]
            if step < 0:
                c, exact = level, limit
            else:
                c, exact = 2 * level, min(limit, level + 1)
            cand = np.flatnonzero(d <= c)
            hit, _ = unit_step_block(d[cand], level, step)
            idx = pos + cand[hit]
            if not idx.size:
                pos, block = hi, min(block * 4, _UNIT_BLOCK_MAX)
                continue
            if len(idx) >= exact:
                idx = idx[:exact]
                hi = int(idx[-1]) + 1
            limit -= len(idx)
            level += step * len(idx)
            yield times[idx], srcs[idx], dsts[idx]
            if not limit:
                return
            pos, block = hi, min(block * 2, _UNIT_BLOCK_MAX)


def backward_drops(stream, t: float, s_floor: float | None = None,
                   prior=None):
    """Backward block-count scan from t with C starting at level_cap.

    Every event with dst <= C, walking backward, drops C by one, down to
    one block.  Returns (times, srcs, dsts, c_final): the drops in scan
    order (descending time), where times[m] is the time at which C jumps
    (in forward time) to level_cap - m, so times[::-1] ascends and maps to
    values 2..level_cap when c_final == 1.

    prior is a completed scan (times, srcs, dsts) on the same stream from
    any reference time.  Two scans on one stream that hold the same count
    before the same event see the same events with the same count from
    there on.  A drop that is the prior's drop of the same index (same
    event, so both counts agreed just before it) therefore ends the scan
    with the prior's remaining drops.
    """
    lo = stream.window[0] if s_floor is None else max(s_floor, stream.window[0])
    cap = stream.config.level_cap
    empty = np.empty(0, dtype=np.int32)
    parts = [(empty.astype(np.float64), empty, empty)]
    n = 0
    for times, srcs, dsts in unit_step_hits(stream, lo, t, cap, -1, cap - 1,
                                            reverse=True):
        if prior is not None and n < len(prior[0]):
            pt, ps, pd = (x[n:n + len(times)] for x in prior)
            k = len(pt)
            same = ((pt == times[:k]) & (ps == srcs[:k])
                    & (pd == dsts[:k]))
            if same.any():
                j = int(np.argmax(same))
                parts.append((times[:j], srcs[:j], dsts[:j]))
                parts.append(tuple(x[n + j:] for x in prior))
                break
        parts.append((times, srcs, dsts))
        n += len(times)
    times, srcs, dsts = (np.concatenate(x) for x in zip(*parts))
    return times, srcs, dsts, cap - len(times)


def track_line_forward(stream, s_from: float, t_to: float, level0: int):
    """Level of a line from strictly after s_from up to t_to.

    The line is pushed one level up at each event with dst <= level; a push
    at level == level_cap kills it.  Returns (level, exit_time): level is
    None when the line was killed, at exit_time; else exit_time is None.
    """
    cap = stream.config.level_cap
    y = level0
    for times, _, _ in unit_step_hits(stream, np.nextafter(s_from, np.inf),
                                      t_to, level0, 1, cap - level0 + 1):
        y += len(times)
        if y > cap:
            return None, float(times[-1])
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
