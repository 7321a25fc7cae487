"""Array kernels over event chunks.

Every genealogical scan asks one question of the look-down graph: which is
the next event, walking forward or backward, whose dst is at or below a
level threshold that moves only at such events?  One cursor,
``unit_step_hits``, answers it for all four scans and is the only place
that draws chunks from ``stream.iter_chunks``.

Each threshold moves by one per hit over runs of hits.  The block count of
``backward_drops`` and the lineage level of ``trace_level_backward`` fall;
the line level of ``track_line_forward`` and the leader level of
``curve_pass`` rise.  A run ends where the lineage meets an event on its
own level (it jumps to the src) or where the line or the leader reaches
the level cap.  Within a run, event k hits iff ``dst[k] <= level + step *
H[k]``, with H[k] the hits before k.  Each block is narrowed to its
candidates with numpy, and ``unit_step_block`` walks them once in that
order, with no fixed point; the caller says where the run ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# events per block of a scan
_UNIT_BLOCK = 1024


def unit_step_block(dst: np.ndarray, level: int, step: int) -> list[int]:
    """Positions of the hits in one block of a scan whose threshold starts
    at level and moves by step (+1 or -1) at each hit.

    Event k hits iff dst[k] <= level + step * H[k], where H[k] counts the
    hits before k: one walk over the block in plain Python.  A block holds
    a few hundred candidates, and each hit depends on all the hits before
    it, so any array route needs several full passes, each of which costs
    more in numpy call overhead than the walk.
    """
    hits = []
    for k, d in enumerate(dst.tolist()):
        if d <= level:
            hits.append(k)
            level += step
    return hits


def unit_step_hits(stream, a: float, b: float, level, step: int, cut,
                   reverse: bool = False):
    """Yield the hits of a scan over the events a <= time <= b, in
    ascending time order (descending when reverse), as (times, srcs, dsts)
    arrays, one per block that holds any.

    level() is the threshold, read at the start and after each yield, and
    taken to move by step at each hit.  cut(dsts), given the dsts of a
    block's hits, says how many of them (at least one) hold; the next block
    starts right after the last of those.  A threshold below 2 ends the
    scan, since no event has dst < 2.

    Each block is first narrowed to the events with dst <= c.  A falling
    threshold never exceeds c = level, so every hit is among them.  A
    rising one stays at or below c = 2 * level until its first level + 1
    hits are made, so the block is exact only up to the last of them, and
    the next block starts right after it even when cut holds them all.
    Chunks are drawn with max_dst = c falling and 2 * c rising, so they
    hold every dst up to c; when a rising c outgrows the bands of the
    current chunk, the scan draws chunks again from just after the last
    event it has examined.

    Blocks hold _UNIT_BLOCK events, or fewer at the end of a chunk.
    """
    thresh = level()
    if thresh < 2:
        return

    def bound():
        return thresh if step < 0 else 2 * thresh

    def max_dst():
        # a rising threshold's chunks hold the band above its bound too,
        # so that a climb draws chunks again at every second band edge
        return thresh if step < 0 else 4 * thresh

    last = None   # the last event examined before chunks are drawn again
    while True:
        chunks = stream.iter_chunks(a, b, reverse=reverse, max_dst=max_dst)
        for times, srcs, dsts in chunks:
            top = stream.band_top(max_dst())   # what iter_chunks just read
            pos, n = 0, len(times)
            if last is not None:
                pos, last = _events_through(times, srcs, dsts, last,
                                            reverse), None
            if reverse:
                times, srcs, dsts = times[::-1], srcs[::-1], dsts[::-1]
            while pos < n:
                hi = min(n, pos + _UNIT_BLOCK)
                d = dsts[pos:hi]
                exact = None if step < 0 else thresh + 1
                cand = np.flatnonzero(d <= bound())
                idx = pos + cand[unit_step_block(d[cand], thresh, step)]
                if not idx.size:
                    pos = hi
                    continue
                k = cut(dsts[idx[:exact]])
                if k < len(idx) or k == exact:
                    idx = idx[:k]
                    hi = int(idx[-1]) + 1
                yield times[idx], srcs[idx], dsts[idx]
                thresh = level()
                if thresh < 2:
                    return
                pos = hi
                if stream.band_top(bound()) > top:
                    # the chunk lacks dsts the threshold may now reach,
                    # here or after its last event at the same time
                    last = (times[pos - 1], srcs[pos - 1], dsts[pos - 1])
                    break
            if last is not None:
                break
        else:
            return
        chunks.close()
        a, b = (a, float(last[0])) if reverse else (float(last[0]), b)


def _events_through(times, srcs, dsts, last, reverse: bool) -> int:
    """How many events of an ascending chunk that starts (ends, when
    reverse) at the time of last = (time, src, dst) the scan meets before
    or at last: those at that time whose (src, dst) is not past last's in
    scan order."""
    tau, s0, d0 = last
    i, j = times.searchsorted(tau, "left"), times.searchsorted(tau, "right")
    s, d = srcs[i:j], dsts[i:j]
    if reverse:
        s, d, s0, d0 = -s, -d, -s0, -d0
    return int(np.count_nonzero((s < s0) | ((s == s0) & (d <= d0))))


def backward_drops(stream, t: float):
    """Backward block-count scan from t with C starting at level_cap.

    Every event with dst <= C, walking backward, drops C by one, down to
    one block.  Returns (times, srcs, dsts, c_final): the drops in scan
    order (descending time), where times[m] is the time at which C jumps
    (in forward time) to level_cap - m, so times[::-1] ascends and maps to
    values 2..level_cap when c_final == 1.
    """
    cap = stream.config.level_cap
    empty = np.empty(0, dtype=np.int32)
    parts = [(empty.astype(np.float64), empty, empty)]
    n = 0
    for block in unit_step_hits(stream, stream.window[0], t, lambda: cap - n,
                                -1, len, reverse=True):
        parts.append(block)
        n += len(block[0])
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
                                      t_to, lambda: y, 1,
                                      lambda d: min(len(d), cap + 1 - y)):
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

    def cut(d):
        # hits up to the first one on the level itself, which jumps
        on = np.flatnonzero(d == x - np.arange(len(d)))
        return int(on[0]) + 1 if on.size else len(d)

    for _, srcs, dsts in unit_step_hits(stream, np.nextafter(s, np.inf), t,
                                        lambda: x, -1, cut, reverse=True):
        k = len(dsts)
        x = int(srcs[-1]) if dsts[-1] == x - k + 1 else x - k
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

    def level():
        return levels[0] + 1 if levels else 2

    # each hit pushes the leader, so the threshold rises by one per hit up
    # to the exit, which is hit number cap + 1 - level()
    for block in unit_step_hits(stream, a, b, level, 1,
                                lambda d: min(len(d), cap + 1 - level())):
        for tau, src, d in zip(*(x.tolist() for x in block)):
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
