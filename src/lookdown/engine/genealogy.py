"""Genealogical observables read off an event stream.

Backward in time: coalescent curves (block counts of the time-t population's
ancestry, a Kingman death process entering from level_cap) and MRCA times.
Forward in time: fixation curves, one per level-2 birth, pushed at rate
C(k+1, 2) out of level k and exiting where they cross the level cap; their
(exit, birth) pairs form the MRCA point process.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import (InsufficientWindowError, InternalError, LookdownError,
                      StationarityWarning, WindowRangeError)
from ..tables import INF
from . import _scan
from .stream import EventStream

# observables and point-process sweeps need enough history below the query
# range to be stationary: five times the mean MRCA depth of 2
_MIN_WARMUP = 10.0


@dataclass(frozen=True)
class CoalescentCurve:
    """Block-count step function s -> C_s^t for one reference time t.

    knot_times[m] is where the count jumps up to lowest_value + 1 + m in
    forward time; the count is lowest_value below all knots and level_cap
    from the last knot up to the reference time.  A truncated curve ran out
    of window before reaching one block.
    """

    knot_times: np.ndarray
    lowest_value: int
    truncated: bool

    def steps(self) -> list[tuple[float, int]]:
        return [(float(s), self.lowest_value + 1 + m)
                for m, s in enumerate(self.knot_times)]

    @property
    def mrca_time(self) -> float:
        if self.truncated:
            raise InsufficientWindowError(
                "curve truncated before reaching one block")
        return float(self.knot_times[0])


def coalescent_curve(stream: EventStream, t: float) -> CoalescentCurve:
    """Trace C_s^t backward from t until one block, or the window start.

    Jumps happen exactly at look-down events among the occupied ancestral
    levels; the expected time to reach one block is 2(1 - 1/level_cap).
    """
    stream.require_inside(t)
    knots_desc, _, _, c_final = _scan.backward_drops(stream, t)
    return CoalescentCurve(
        knot_times=knots_desc[::-1],
        lowest_value=c_final,
        truncated=c_final > 1)


def _drop_to_one_block(stream: EventStream, t: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Backward drops from t down to one block as (times, dsts), in
    descending time; the last one, A_t, must sit on a (1, 2) event."""
    knots_desc, srcs, dsts, c_final = _scan.backward_drops(stream, t)
    if c_final > 1:
        raise InsufficientWindowError(
            f"window exhausted at {c_final} blocks; extend burn_in")
    last_pair = (int(srcs[-1]), int(dsts[-1]))
    if last_pair != (1, 2):
        raise InternalError(f"MRCA drop at pair {last_pair}, not (1, 2)")
    return knots_desc, dsts


def backward_level(stream: EventStream, t: float, j: int, s: float) -> int:
    """X_s^t(j): the ancestor level at time s of the individual (t, j)."""
    stream.require_inside(t, s)
    if s > t:
        raise WindowRangeError("need s <= t")
    if not 1 <= j <= stream.config.level_cap:
        raise WindowRangeError(f"level {j} outside 1..{stream.config.level_cap}")
    return _scan.trace_level_backward(stream, t, j, s)


@dataclass(frozen=True)
class FixationCurve:
    """Level path of one fixation curve.

    Born at level 2 at a (1, 2) event (the predecessor line's push to level
    3); climbs by single levels; exit_time is where it would cross the level
    cap, None while still open at the end of the scanned range.
    """

    birth: float
    exit_time: float | None
    path_times: np.ndarray
    path_levels: np.ndarray
    is_open: bool

    def steps(self) -> list[tuple[float, int]]:
        return [(float(s), int(v))
                for s, v in zip(self.path_times, self.path_levels)]


@dataclass(frozen=True)
class MrcaPointProcess:
    """Ordered (E, B) pairs: establishment times and living times of
    successive MRCAs.  Both coordinates are strictly increasing and the
    map between them is monotone (curves are nested)."""

    establishment: np.ndarray
    living: np.ndarray
    window: tuple[float, float]
    n_open: int

    def __post_init__(self):
        e, b = self.establishment, self.living
        if e.size != b.size:
            raise LookdownError("E and B columns differ in length")
        # written so that a NaN fails them
        if not (np.all(np.diff(e) > 0) and np.all(np.diff(b) > 0)):
            raise LookdownError("E and B must be strictly increasing")
        if not np.all(b < e):
            raise LookdownError("each B must precede its E")

    def z_at(self, t: float) -> int:
        """#{(E, B): E > t, B < t}; E <= t forces B < t, so the count is a
        difference of two ranks."""
        return int(np.searchsorted(self.living, t, side="left")
                   - np.searchsorted(self.establishment, t, side="right"))

    def path_at(self, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A_t, B_t, E_t) along the given times: the current MRCA's living
        time and the next establishment's (living, establishment) pair.
        NaN where the window provides no flanking exit."""
        ts = np.asarray(times, dtype=np.float64)
        idx = np.searchsorted(self.establishment, ts, side="right")
        a = np.where(idx > 0, self.living[np.maximum(idx - 1, 0)], np.nan)
        has_next = idx < len(self.establishment)
        idx_c = np.minimum(idx, max(len(self.establishment) - 1, 0))
        b = np.where(has_next, self.living[idx_c], np.nan)
        e = np.where(has_next, self.establishment[idx_c], np.nan)
        return a, b, e


def extract_fixation_curves(stream: EventStream,
                            window: tuple[float, float] | None = None
                            ) -> list[FixationCurve]:
    """All fixation curves born inside the window, nested and in birth order.

    The sweep always starts at the stream's earliest available time, so
    curves born before the window are accounted for; curves still climbing
    at the window end are flagged open.
    """
    cfg = stream.config
    qa, qb = (cfg.t_start, cfg.t_end) if window is None else window
    stream.require_inside(qa, qb)
    res = _scan.curve_pass(stream, stream.window[0], qb, record_paths=True)
    exit_of = {cid: e for e, cid in zip(res.exit_times, res.exit_birth_ids)}
    out = []
    for cid, b in enumerate(res.births):
        if not qa <= b <= qb:
            continue
        e = exit_of.get(cid)
        out.append(FixationCurve(
            birth=b, exit_time=e,
            path_times=np.asarray(res.path_times[cid]),
            path_levels=np.asarray(res.path_levels[cid]),
            is_open=e is None))
    return out


def mrca_point_process(stream: EventStream,
                       window: tuple[float, float] | None = None
                       ) -> MrcaPointProcess:
    """The point process {(E, B)} with E inside the window.

    Curves still open at the window end are excluded (edge correction by
    discarding) and only counted.  Windows starting less than one burn-in
    above the stream's earliest time trigger a stationarity warning, since
    curves born before that earliest time cannot be tracked.
    """
    cfg = stream.config
    qa, qb = (cfg.t_start, cfg.t_end) if window is None else window
    stream.require_inside(qa, qb)
    if qa - stream.window[0] < _MIN_WARMUP:
        warnings.warn("window starts inside the warm-up of the curve sweep; "
                      "point-process statistics may be biased",
                      StationarityWarning, stacklevel=2)
    res = _scan.curve_pass(stream, stream.window[0], qb)
    e = np.asarray(res.exit_times, dtype=np.float64)
    b = np.asarray([res.births[c] for c in res.exit_birth_ids], dtype=np.float64)
    keep = (e >= qa) & (e <= qb)
    return MrcaPointProcess(establishment=e[keep], living=b[keep],
                            window=(qa, qb), n_open=len(res.open_ids))


@dataclass(frozen=True)
class MrcaObservables:
    """State of the MRCA process at one time.

    mrca_time        A_t, when the current MRCA lived
    fixation_level   L_t, level of the fixation curve that ends at the next
                     MRCA establishment (1 if that curve is not yet born)
    coalescent_level I_t, block count of the coalescent back from t at the
                     next MRCA's living time B_t (INF on {B_t > t})
    curve_count      Z_t, number of fixation curves straddling t
    """

    time: float
    mrca_time: float
    fixation_level: int
    coalescent_level: int | float
    curve_count: int

    def __post_init__(self):
        if not self.mrca_time < self.time:
            raise InternalError("A_t must precede t")
        if (self.curve_count == 0) != (self.fixation_level == 1):
            raise InternalError("Z = 0 must coincide with L = 1")


def observables_at(stream: EventStream, t: float) -> MrcaObservables:
    """(A_t, L_t, I_t, Z_t) at time t: A_t, I_t and Z_t from the drops of
    the backward coalescent scan, L_t from a forward track of the
    next-establishing fixation curve."""
    stream.require_inside(t)
    if t - stream.window[0] < _MIN_WARMUP:
        warnings.warn(f"query at {t} has less than {_MIN_WARMUP} time units "
                      "of history; stationarity is not guaranteed",
                      StationarityWarning, stacklevel=2)
    knots_desc, dsts = _drop_to_one_block(stream, t)
    a_t = float(knots_desc[-1])
    knots_asc = knots_desc[::-1]

    # C >= 2 on (A_t, t], so every (1, 2) event there is a drop: the
    # level-2 births after A_t are the drops before the last with dst 2
    births = knots_desc[:-1][dsts[:-1] == 2]
    if births.size == 0:
        return MrcaObservables(time=t, mrca_time=a_t, fixation_level=1,
                               coalescent_level=INF, curve_count=0)
    b_t = float(births[-1])
    # the fixation curve born at B_t tracks the line sitting at level 3
    # just after the (1,2) event at B_t; L_t is its level at t minus one
    y, exit_time = _scan.track_line_forward(stream, b_t, t, 3)
    if y is None:
        raise InternalError(
            f"fixation curve born at {b_t} exited at {exit_time} <= {t}; "
            "establishment order violated")
    i_t = 1 + int(np.searchsorted(knots_asc, b_t, side="right"))
    return MrcaObservables(time=t, mrca_time=a_t, fixation_level=y - 1,
                           coalescent_level=i_t, curve_count=int(births.size))


# ---------------------------------------------------------------------------
# Exports

def export_points_csv(points: MrcaPointProcess, path) -> None:
    """CSV "E,B" with 17-significant-digit floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["E", "B"])
        for e, b in zip(points.establishment, points.living):
            writer.writerow([format(float(e), ".17g"), format(float(b), ".17g")])

