"""Look-down event streams.

For each ordered level pair (i, j), i < j <= level_cap, the stream carries
an independent rate-1 Poisson process of "j looks down to i" events on the
window [t_start - burn_in, t_end].  Level 1 is the immortal line and is
never pushed.

Generation is lazy per time-slice: the time axis is cut on a fixed absolute
grid (width 0.5), each slice is synthesized on first touch from an RNG
derived from (seed, slice index), and slices are cached with an eviction
budget.  Total event rate is C(level_cap, 2) per unit time, so at the
default level_cap of 1000 a query pays only for the few time units its
scans actually visit; queries at the same absolute times see identical
events regardless of window bounds or query order.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import ConfigurationError, WindowRangeError
from ..laws import comb2
from ..seeding import rng_from

SLICE_WIDTH = 0.5
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
        if self.level_cap < 3:
            raise ConfigurationError(f"level_cap must be >= 3, got {self.level_cap}")
        if not self.t_end > self.t_start:
            raise ConfigurationError("t_end must exceed t_start")
        if self.burn_in < 0:
            raise ConfigurationError("burn_in must be nonnegative")

    @property
    def window(self) -> tuple[float, float]:
        return (self.t_start - self.burn_in, self.t_end)

    @property
    def n_pairs(self) -> int:
        return comb2(self.level_cap)


@dataclass(frozen=True)
class LookdownEvent:
    """At `time`, level `dst` looks down to level `src` (src < dst):
    a line is born at dst and every line at level >= dst is pushed up."""

    time: float
    src: int
    dst: int


def _decode_pairs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear pair code c -> (src, dst), pairs ordered by (dst, src).

    code(src, dst) = C(dst-1, 2) + src - 1.  Pair counts stay far below
    2^53, so the triangular root is taken in float64 and patched for the
    rare off-by-one from sqrt rounding.
    """
    c = codes.astype(np.float64)
    m = np.floor((1.0 + np.sqrt(8.0 * c + 1.0)) * 0.5)
    tri = m * (m - 1.0) * 0.5
    too_high = tri > c
    if too_high.any():
        m[too_high] -= 1.0
        tri[too_high] = m[too_high] * (m[too_high] - 1.0) * 0.5
    too_low = tri + m <= c
    if too_low.any():
        tri[too_low] += m[too_low]
        m[too_low] += 1.0
    src = (c - tri).astype(np.int32) + 1
    dst = m.astype(np.int32) + 1
    return src, dst


class EventStream:
    """Realized look-down events on a window; the randomness source for all
    genealogical observables.

    The events are fixed at construction.  Queries mutate three things:
    the slice cache, plain counters of its traffic (``counters()``), and
    ``_last_drop``, the last completed backward drop to one block, which
    the next one may end on (see ``_scan.backward_drops``).  The memo is
    one attribute holding an immutable tuple and every prior is valid for
    every query, so threads that share a stream and consume disjoint,
    already-generated ranges need no lock; the counters may then miss
    updates.
    """

    def __init__(self, config: EngineConfig, *,
                 _fixed: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
        self.config = config
        self._fixed = _fixed
        self._cache: OrderedDict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = OrderedDict()
        self._cached_events = 0
        self._last_drop: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.slices_generated = 0
        self.cache_hits = 0
        self.cache_evictions = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_events(cls, config: EngineConfig,
                    events) -> "EventStream":
        """Fixed stream from explicit events (tests, replay).

        Events are sorted by (time, src, dst) and exact duplicates dropped,
        matching the generated backend's tie-break rule.
        """
        recs = [(float(e.time), int(e.src), int(e.dst)) if isinstance(e, LookdownEvent)
                else (float(e[0]), int(e[1]), int(e[2])) for e in events]
        for t, i, j in recs:
            if not (1 <= i < j <= config.level_cap):
                raise ConfigurationError(f"bad pair ({i}, {j}) for level_cap "
                                         f"{config.level_cap}")
        recs = sorted(set(recs))
        times = np.asarray([r[0] for r in recs], dtype=np.float64)
        srcs = np.asarray([r[1] for r in recs], dtype=np.int32)
        dsts = np.asarray([r[2] for r in recs], dtype=np.int32)
        return cls(config, _fixed=(times, srcs, dsts))

    def counters(self) -> dict[str, int]:
        """Slice-cache traffic so far: slices generated, hits, evictions."""
        return {"slices_generated": self.slices_generated,
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

    def _generate_slice(self, k: int):
        cfg = self.config
        rng = rng_from(cfg.seed, "slice", k)
        lam = cfg.n_pairs * SLICE_WIDTH
        n = int(rng.poisson(lam))
        # times sorted by construction: uniform order statistics realized
        # as normalized exponential spacings (no sort needed)
        spac = rng.standard_exponential(n + 1)
        cum = np.cumsum(spac)
        times = k * SLICE_WIDTH + (SLICE_WIDTH / cum[-1]) * cum[:-1]
        codes = rng.integers(0, cfg.n_pairs, size=n)
        if n and times[0] == k * SLICE_WIDTH:
            # grid lines belong to no slice; a zero spacing is measure-zero
            keep = times > k * SLICE_WIDTH
            times, codes = times[keep], codes[keep]
        srcs, dsts = _decode_pairs(codes)
        if len(times) > 1:
            dup = (np.diff(times) == 0) & (np.diff(srcs) == 0) & (np.diff(dsts) == 0)
            if dup.any():
                keep = np.concatenate(([True], ~dup))
                times, srcs, dsts = times[keep], srcs[keep], dsts[keep]
        # clip to the stream window
        lo, hi = self.window
        if times.size and (times[0] < lo or times[-1] > hi):
            mask = (times >= lo) & (times <= hi)
            times, srcs, dsts = times[mask], srcs[mask], dsts[mask]
        return times, srcs, dsts

    def _slice(self, k: int):
        entry = self._cache.get(k)
        if entry is not None:
            self._cache.move_to_end(k)
            self.cache_hits += 1
            return entry
        entry = self._generate_slice(k)
        self.slices_generated += 1
        self._cache[k] = entry
        self._cached_events += len(entry[0])
        while self._cached_events > CACHE_EVENT_BUDGET and len(self._cache) > 1:
            _, old = self._cache.popitem(last=False)
            self._cached_events -= len(old[0])
            self.cache_evictions += 1
        return entry

    def _slice_indices(self, a: float, b: float) -> range:
        k_lo = math.floor(a / SLICE_WIDTH)
        k_hi = math.floor(b / SLICE_WIDTH)
        if b == k_hi * SLICE_WIDTH:
            k_hi -= 1  # slices are open at grid lines: nothing lives at b
        return range(k_lo, k_hi + 1)

    def iter_chunks(self, a: float, b: float, reverse: bool = False
                    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Chunks of events with a <= time <= b, clipped to the window.

        Chunks arrive in ascending time order (descending when reverse);
        each chunk is internally ascending.
        """
        lo, hi = self.window
        a, b = max(a, lo), min(b, hi)
        if b < a:
            return
        if self._fixed is not None:
            times, srcs, dsts = self._fixed
            i0 = int(np.searchsorted(times, a, side="left"))
            i1 = int(np.searchsorted(times, b, side="right"))
            if i1 > i0:
                yield times[i0:i1], srcs[i0:i1], dsts[i0:i1]
            return
        ks = self._slice_indices(a, b)
        for k in (reversed(ks) if reverse else ks):
            times, srcs, dsts = self._slice(k)
            if not times.size:
                continue
            if times[0] >= a and times[-1] <= b:
                yield times, srcs, dsts
                continue
            i0 = int(np.searchsorted(times, a, side="left"))
            i1 = int(np.searchsorted(times, b, side="right"))
            if i1 > i0:
                yield times[i0:i1], srcs[i0:i1], dsts[i0:i1]

    # -- materialized views --------------------------------------------------

    def events_between(self, a: float, b: float):
        chunks = list(self.iter_chunks(a, b))
        if not chunks:
            empty = np.empty(0)
            return empty, empty.astype(np.int32), empty.astype(np.int32)
        return (np.concatenate([c[0] for c in chunks]),
                np.concatenate([c[1] for c in chunks]),
                np.concatenate([c[2] for c in chunks]))

    def events(self):
        lo, hi = self.window
        return self.events_between(lo, hi)

    def iter_events(self, a: float | None = None,
                    b: float | None = None) -> Iterator[LookdownEvent]:
        lo, hi = self.window
        a = lo if a is None else a
        b = hi if b is None else b
        for times, srcs, dsts in self.iter_chunks(a, b):
            for m in range(len(times)):
                yield LookdownEvent(float(times[m]), int(srcs[m]), int(dsts[m]))


def generate_event_stream(config: EngineConfig) -> EventStream:
    """Lazy stream of independent rate-1 pair processes, seed-determined."""
    return EventStream(config)


def export_events_jsonl(stream: EventStream, path,
                        window: tuple[float, float] | None = None) -> None:
    """One record per event, {"t": float, "i": src, "j": dst}, time-sorted."""
    lo, hi = stream.window if window is None else window
    with open(path, "w") as fh:
        for ev in stream.iter_events(lo, hi):
            fh.write(json.dumps({"t": ev.time, "i": ev.src, "j": ev.dst}) + "\n")
