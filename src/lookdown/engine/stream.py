"""Look-down event streams.

For each ordered level pair (i, j), i < j <= level_cap, the stream carries
an independent rate-1 Poisson process of "j looks down to i" events on the
window [t_start - burn_in, t_end].  Level 1 is the immortal line and is
never pushed.

Events are generated per dst band: (1, 16], (16, 32], (32, 64], ..., the
top band cut at level_cap.  By the consistency of the look-down
construction (Donnelly & Kurtz), the events with dst <= m are on their own
the m-level look-down, so a scan whose threshold stays at or below m reads
only the bands up to m.  Each band cuts the time axis on its own fixed
absolute grid, of a power-of-two width chosen so that a slice holds about
SLICE_EVENTS events and never wider than the band below, so the grids
nest.  Each band derives one Philox key from (seed, band) when the
stream is built; slice k of the band is synthesized on first touch by the
stream's one Philox generator, set to that key at counter zigzag(k) with
nothing buffered, with no per-slice seeding, and cached with an eviction
budget.  This is the stream's one source of events; tests that need given
events substitute ``_generate_slice``.

A backward query from level_cap down to one block crosses each band in
about 2/(lowest level of the band) time units, so it reads about
SLICE_EVENTS events per band plus a few time units of the lowest one:
O(level_cap) events in all, where one time unit of the whole stream holds
C(level_cap, 2).  Caps of 10^4 are practical.  Queries at the same
absolute times see identical events regardless of window bounds or query
order.
"""

from __future__ import annotations

import bisect
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import ConfigurationError, WindowRangeError
from ..laws import comb2
from ..seeding import seed_sequence, zigzag

FIRST_BAND_TOP = 16
SLICE_EVENTS = 1000
CACHE_EVENT_BUDGET = 4_000_000


@dataclass(frozen=True)
class EngineConfig:
    """Finite-level window: level_cap levels, killing at the top.

    Times are dimensionless coalescent units.  The usable query range is
    [t_start, t_end]; burn_in extends the available history below t_start
    so that stationary observables can be read anywhere in the query range.
    """

    level_cap: int
    t_start: float
    t_end: float
    burn_in: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if not 3 <= self.level_cap <= 2**25:
            raise ConfigurationError(
                f"level_cap must be in [3, 2^25], got {self.level_cap}")
        if not self.t_end > self.t_start:
            raise ConfigurationError("t_end must exceed t_start")
        if self.burn_in < 0:
            raise ConfigurationError("burn_in must be nonnegative")

    @property
    def window(self) -> tuple[float, float]:
        return (self.t_start - self.burn_in, self.t_end)


def _band_edges(level_cap: int) -> list[int]:
    """[1, 16, 32, ..., level_cap]: band b holds dst in (edges[b], edges[b+1]]."""
    edges, top = [1], FIRST_BAND_TOP
    while top < level_cap:
        edges.append(top)
        top *= 2
    return edges + [level_cap]


def _slice_widths(edges: list[int]) -> list[float]:
    """Per band, the power of two nearest to SLICE_EVENTS / (band rate),
    but no wider than the band below, so each grid refines the one below."""
    widths: list[float] = []
    for lo, hi in zip(edges, edges[1:]):
        w = 2.0 ** round(math.log2(SLICE_EVENTS / (comb2(hi) - comb2(lo))))
        widths.append(min([w] + widths[-1:]))
    return widths


def _decode_pairs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear pair codes -> (src, dst), pairs ordered by (dst, src):
    code(src, dst) = C(dst-1, 2) + src - 1.

    dst - 1 is the m with C(m, 2) <= code < C(m+1, 2), that is
    (2m-1)^2 <= x < (2m+1)^2 for x = 8 code + 1, so m is the floor of
    (1 + sqrt(x)) / 2.  x and (2m+1)^2 are both 1 mod 8, so sqrt(x) is at
    most about 2m+1 - 4/(2m+1), and a float64 root errs by less than that
    gap for codes below 2^50 (level caps below 2^25).
    """
    m = ((np.sqrt(8.0 * codes + 1.0) + 1.0) * 0.5).astype(np.int64)
    return ((codes - (m * (m - 1) >> 1) + 1).astype(np.int32),
            (m + 1).astype(np.int32))


class EventStream:
    """Realized look-down events on a window; the randomness source for all
    genealogical observables.

    The events are fixed by the config and its seed, and generated slice by
    slice in ``_generate_slice``, the one source of events; tests replay
    given events by overriding it.  Queries mutate only the slice cache,
    plain counters of its traffic (``counters()``) and, when they generate
    a slice, the stream's generator; so threads that share a stream and
    consume disjoint, already-generated ranges need no lock, and the
    counters may then miss updates.
    """

    def __init__(self, config: EngineConfig):
        self.config = config
        self._edges = _band_edges(config.level_cap)
        self._widths = _slice_widths(self._edges)
        self._keys = [seed_sequence(config.seed, "band", b)
                      .generate_state(2, np.uint64)
                      for b in range(len(self._widths))]
        # each slice sets the whole state, so the seed here is never used
        self._bitgen = np.random.Philox(0)
        self._rng = np.random.Generator(self._bitgen)
        self._cache: OrderedDict[tuple[int, int],
                                 tuple[np.ndarray, np.ndarray, np.ndarray]] = OrderedDict()
        self._cached_events = 0
        self.slices_generated = 0
        self.events_generated = 0
        self.cache_hits = 0
        self.cache_evictions = 0

    def counters(self) -> dict[str, int]:
        """Slice-cache traffic so far: slices and events generated, hits,
        evictions."""
        return {"slices_generated": self.slices_generated,
                "events_generated": self.events_generated,
                "cache_hits": self.cache_hits,
                "cache_evictions": self.cache_evictions}

    # -- windows ------------------------------------------------------------

    @property
    def window(self) -> tuple[float, float]:
        return self.config.window

    def require_inside(self, *times: float) -> None:
        lo, hi = self.window
        for t in times:
            if not (lo <= t <= hi):
                raise WindowRangeError(
                    f"time {t} outside simulated window [{lo}, {hi}]")

    # -- slice machinery ----------------------------------------------------

    def _generate_slice(self, b: int, k: int):
        """Events of band b in its slice k, the open interval (k w, (k+1) w)."""
        c_lo, c_hi = comb2(self._edges[b]), comb2(self._edges[b + 1])
        w = self._widths[b]
        start, end = k * w, (k + 1) * w
        # the full state, buffers emptied: no state carries between slices
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([0, zigzag(k), 0, 0], np.uint64),
                      "key": self._keys[b]},
            "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        rng = self._rng
        n = int(rng.poisson((c_hi - c_lo) * w))
        # times sorted by construction: uniform order statistics realized
        # as normalized exponential spacings (no sort needed)
        cum = rng.standard_exponential(n + 1).cumsum()
        times = cum[:-1]
        times *= w / cum[-1]
        times += start
        codes = rng.integers(c_lo, c_hi, size=n)
        if n and not (times[0] > start and times[-1] < end):
            # grid lines belong to no slice; a time rounded onto one is
            # measure-zero
            keep = (times > start) & (times < end)
            times, codes = times[keep], codes[keep]
        srcs, dsts = _decode_pairs(codes)
        tie = times[1:] == times[:-1]
        if tie.any():
            dup = tie & (np.diff(srcs) == 0) & (np.diff(dsts) == 0)
            keep = np.concatenate(([True], ~dup))
            times, srcs, dsts = times[keep], srcs[keep], dsts[keep]
        lo, hi = self.window
        if start < lo or end > hi:
            # the slice straddles an edge of the stream window
            mask = (times >= lo) & (times <= hi)
            times, srcs, dsts = times[mask], srcs[mask], dsts[mask]
        return times, srcs, dsts

    def _slice(self, b: int, k: int):
        key = (b, k)
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            return entry
        entry = self._generate_slice(b, k)
        self.slices_generated += 1
        self.events_generated += len(entry[0])
        self._cache[key] = entry
        self._cached_events += len(entry[0])
        while self._cached_events > CACHE_EVENT_BUDGET and len(self._cache) > 1:
            _, old = self._cache.popitem(last=False)
            self._cached_events -= len(old[0])
            self.cache_evictions += 1
        return entry

    def _n_bands(self, level: int) -> int:
        """How many bands, from the lowest, it takes to hold dst = level
        (at least one, at most all)."""
        return min(max(bisect.bisect_left(self._edges, level), 1),
                   len(self._edges) - 1)

    def band_top(self, level: int) -> int:
        """The highest dst a chunk read at max_dst = level holds."""
        return self._edges[self._n_bands(level)]

    def _chunk(self, n_bands: int, k: int, c0: float, c1: float):
        """Events with c0 <= time <= c1 of the lowest n_bands bands, inside
        slice k of the highest of them, in (time, src, dst) order; None
        when empty."""
        w = self._widths[n_bands - 1]
        pieces = []
        for b in range(n_bands):
            # the grids nest: this band's slice holding slice k of the top
            times, srcs, dsts = self._slice(b, k // int(self._widths[b] / w))
            i0 = times.searchsorted(c0, side="left")
            i1 = times.searchsorted(c1, side="right")
            if i1 > i0:
                pieces.append((times[i0:i1], srcs[i0:i1], dsts[i0:i1]))
        if len(pieces) < 2:
            return pieces[0] if pieces else None
        times, srcs, dsts = (np.concatenate(x) for x in zip(*pieces))
        # each piece is sorted: a stable sort merges the runs, and only
        # tied times need the full (time, src, dst) key
        order = times.argsort(kind="stable")
        merged = times[order]
        if (merged[1:] == merged[:-1]).any():
            order = np.lexsort((dsts, srcs, times))
            merged = times[order]
        return merged, srcs[order], dsts[order]

    def iter_chunks(self, a: float, b: float, reverse: bool = False,
                    max_dst=None
                    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Chunks of events with a <= time <= b, clipped to the window.

        Chunks arrive in ascending time order (descending when reverse);
        each chunk is internally in (time, src, dst) order.  max_dst() is
        read once at the start of each chunk, which then holds the events
        in its time range with dst up to band_top(max_dst()); without
        max_dst, chunks hold every event.  A chunk spans at most one slice
        of the highest band it holds.
        """
        lo, hi = self.window
        a, b = max(a, lo), min(b, hi)
        if b < a:
            return
        cap = self.config.level_cap
        pos = b if reverse else a
        while True:
            n_bands = self._n_bands(cap if max_dst is None else max_dst())
            w = self._widths[n_bands - 1]
            x = pos / w
            # backward from a grid line, the slice below it
            k = math.ceil(x) - 1 if reverse else math.floor(x)
            start = k * w
            if reverse:
                chunk = self._chunk(n_bands, k, max(a, start), pos)
            else:
                chunk = self._chunk(n_bands, k, pos,
                                    min(b, math.nextafter(start + w, -math.inf)))
            if chunk is not None:
                yield chunk
            if reverse:
                if start <= a:
                    return
                pos = math.nextafter(start, -math.inf)
            else:
                if start + w > b:
                    return
                pos = start + w


def generate_event_stream(config: EngineConfig) -> EventStream:
    """Lazy stream of independent rate-1 pair processes, seed-determined."""
    return EventStream(config)


def export_events_jsonl(stream: EventStream, path) -> None:
    """One record per event in [t_start, t_end] (burn-in left out),
    {"t": float, "i": src, "j": dst}, time-sorted, written as json.dumps
    writes it: the times are finite, and repr is json's float format."""
    cfg = stream.config
    with open(path, "w") as fh:
        for times, srcs, dsts in stream.iter_chunks(cfg.t_start, cfg.t_end):
            fh.write("".join(
                f'{{"t": {t!r}, "i": {i}, "j": {j}}}\n'
                for t, i, j in zip(times.tolist(), srcs.tolist(),
                                   dsts.tolist())))
