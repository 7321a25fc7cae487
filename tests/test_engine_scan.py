"""The scan cursor against per-event loops and the graph replay, banded
chunks against their merge order and against one-band streams, and queries
on a stream already queried against fresh streams."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lookdown import engine
from lookdown.engine import _scan, genealogy
from lookdown.engine import stream as stream_module
from lookdown.errors import LookdownError

from oracle import (FixedStream, GraphOracle, curve_pass_per_event,
                    curve_value, events_between, fixed_stream, unit_step_scan,
                    window_events)

CAP = 12

dst_arrays = st.lists(st.integers(2, CAP), max_size=200).map(
    lambda xs: np.asarray(xs, dtype=np.int32))

SMALL_CAP = 7
# with small bands, a rising scan from level 2 reads the bands up to 8 and
# draws its chunks again once twice its threshold passes 8
RESTART_CAP = 12


def _tied_events(cap):
    """Events on a quarter-unit grid of [0, 10], so many share a time."""
    return st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, cap),
                  st.integers(1, cap)).filter(lambda e: e[1] != e[2]),
        max_size=150).map(lambda raw: [(0.25 * k, min(a, b), max(a, b))
                                       for k, a, b in raw])


tied_events = _tied_events(SMALL_CAP)


def _fixed_stream(dsts, level_cap=CAP, seed=0):
    """Stream with one event per dst at distinct times 0.01, 0.02, ...,
    each with a random src below its dst."""
    rng = np.random.default_rng(seed)
    cfg = engine.EngineConfig(level_cap=level_cap, t_start=0.0,
                              t_end=0.01 * (len(dsts) + 1), burn_in=0.0)
    return fixed_stream(cfg, [
        (0.01 * (k + 1), int(rng.integers(1, d)), int(d))
        for k, d in enumerate(dsts)])


# the fixture sets the same constants for every example
fixture_ok = [HealthCheck.function_scoped_fixture]


@pytest.fixture
def small_blocks(monkeypatch):
    # blocks of 3 events, so short arrays cross many block edges
    monkeypatch.setattr(_scan, "_UNIT_BLOCK", 3)


@pytest.fixture
def small_bands(monkeypatch):
    # dst bands (1, 2], (2, 4], (4, 8], ...: small caps cross several, so
    # rising scans draw their chunks again and events tie across bands
    monkeypatch.setattr(stream_module, "FIRST_BAND_TOP", 2)


class TestUnitStepBlock:
    @settings(max_examples=300, deadline=None)
    @given(dst_arrays, st.integers(1, CAP), st.sampled_from([-1, 1]))
    def test_matches_per_event_loop(self, dsts, level, step):
        assert _scan.unit_step_block(dsts, level, step) == unit_step_scan(
            dsts, level, step)

    @pytest.mark.parametrize("step", [-1, 1])
    def test_all_hit_and_empty_blocks(self, step):
        twos = np.full(50, 2, dtype=np.int32)
        assert _scan.unit_step_block(twos, 51, step) == list(range(50))
        assert _scan.unit_step_block(twos, 1, step) == []
        assert _scan.unit_step_block(twos[:0], CAP, step) == []

    def test_alternating_hits_match_oracle(self):
        # dst c, c, c-1, c-1, ...: the true hits alternate, so each hit
        # depends on every hit before it
        c = 400
        dsts = np.repeat(np.arange(c, c - 200, -1), 2).astype(np.int32)
        want = unit_step_scan(dsts, c, -1)
        assert want == list(range(0, len(dsts), 2))
        assert _scan.unit_step_block(dsts, c, -1) == want

    @pytest.mark.parametrize("step", [-1, 1])
    def test_long_block_matches_oracle(self, step):
        # 65,536 events around a threshold of 1000 that moves at each hit
        rng = np.random.default_rng(3)
        dsts = rng.integers(2, 2000, size=65_536).astype(np.int32)
        want = unit_step_scan(dsts, 1000, step)
        assert len(want) > 100
        assert _scan.unit_step_block(dsts, 1000, step) == want


def _unit_step_run(stream, level0, step, limit, reverse=False):
    """Times of the hits of the cursor driven as one unit-step run of at
    most limit hits over the whole stream."""
    n, got = 0, []
    for times, _, _ in _scan.unit_step_hits(
            stream, 0.0, stream.window[1], lambda: level0 + step * n, step,
            lambda d: min(len(d), limit - n), reverse=reverse):
        got.extend(times)
        n += len(times)
        if n == limit:
            break
    return got


class TestUnitStepHits:
    @settings(max_examples=200, deadline=None, suppress_health_check=fixture_ok)
    @given(dst_arrays)
    def test_backward_truncates_at_one_block(self, small_blocks, small_bands,
                                             dsts):
        stream = _fixed_stream(dsts)
        times = window_events(stream)[0][::-1]
        want = unit_step_scan(dsts[::-1], CAP, -1, CAP - 1)
        got = _unit_step_run(stream, CAP, -1, CAP - 1, reverse=True)
        assert list(got) == list(times[want])
        drops = _scan.backward_drops(stream, stream.window[1])
        assert list(drops[0]) == list(times[want])
        assert drops[3] == CAP - len(want)

    @settings(max_examples=200, deadline=None, suppress_health_check=fixture_ok)
    @given(dst_arrays, st.integers(2, CAP))
    # level 5 narrows to dst <= 10 and makes its sixth hit inside the
    # block, after which dst 11 hits too
    @example(np.asarray([6, 6, 2, 2, 2, 2, 2, 2, 11], dtype=np.int32), 5)
    def test_forward_stops_at_the_kill(self, small_blocks, small_bands, dsts,
                                       level0):
        stream = _fixed_stream(dsts)
        times = window_events(stream)[0]
        limit = CAP - level0 + 1
        want = unit_step_scan(dsts, level0, 1, limit)
        end = stream.window[1]
        got = _unit_step_run(stream, level0, 1, limit)
        assert list(got) == list(times[want])
        y, exit_time = _scan.track_line_forward(stream, 0.0, end, level0)
        if len(want) == limit:
            assert (y, exit_time) == (None, times[want[-1]])
        else:
            assert (y, exit_time) == (level0 + len(want), None)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_generated_stream_matches_loop(self, seed):
        cfg = engine.EngineConfig(level_cap=60, t_start=0.0, t_end=3.0,
                                  burn_in=5.0, seed=seed)
        stream = engine.generate_event_stream(cfg)
        times, _, dsts = window_events(stream)
        want = unit_step_scan(dsts[::-1], 60, -1, 59)
        drops = _scan.backward_drops(stream, 3.0)
        assert np.array_equal(drops[0], times[::-1][want])
        want = unit_step_scan(dsts, 3, 1, 58)
        y, exit_time = _scan.track_line_forward(stream, -5.0, 3.0, 3)
        assert exit_time == (times[want[-1]] if len(want) == 58 else None)


def _small_stream(events, level_cap=SMALL_CAP):
    cfg = engine.EngineConfig(level_cap=level_cap, t_start=0.0, t_end=10.0,
                              burn_in=0.0, seed=0)
    return fixed_stream(cfg, events)


class TestCurvePassAgainstPerEventLoop:
    @settings(max_examples=300, deadline=None, suppress_health_check=fixture_ok)
    @given(tied_events)
    # no hit in the first block of 2; in the next, the three births from
    # level 2 are its first level + 1 hits, and the dst 5 after them hits
    # only if the block goes on right after the third
    @example([(0.25, 3, 7), (0.5, 4, 7), (0.75, 1, 2), (1.0, 1, 2),
              (1.25, 1, 2), (1.5, 2, 5)])
    def test_matches_per_event_loop(self, small_blocks, small_bands, events):
        stream = _small_stream(events)
        births, exits, exit_ids, open_ids, paths = curve_pass_per_event(
            zip(*(x.tolist() for x in window_events(stream))), SMALL_CAP)
        for record_paths in (False, True):
            res = _scan.curve_pass(stream, *stream.window,
                                   record_paths=record_paths)
            assert res.births == births
            assert res.exit_times == exits
            assert res.exit_birth_ids == exit_ids
            assert res.open_ids == open_ids
        assert {cid: list(zip(res.path_times[cid], res.path_levels[cid]))
                for cid in res.path_times} == paths


class TestTraceAgainstGraphReplay:
    @settings(max_examples=300, deadline=None, suppress_health_check=fixture_ok)
    @given(tied_events, st.integers(0, 40), st.integers(0, 40),
           st.integers(1, SMALL_CAP))
    def test_backward_level_matches_graph_replay(self, small_blocks,
                                                 small_bands, events,
                                                 k1, k2, j):
        stream = _small_stream(events)
        t, s = 0.25 * max(k1, k2), 0.25 * min(k1, k2)
        oracle = GraphOracle(SMALL_CAP, 0.0, zip(*window_events(stream)))
        assert engine.backward_level(stream, t, j, s) == \
            oracle.backward_level(t, j, s)


class TestBandedChunks:
    @settings(max_examples=300, deadline=None, suppress_health_check=fixture_ok)
    @given(tied_events, st.integers(1, SMALL_CAP + 1))
    def test_chunks_merge_bands_in_event_order(self, small_bands, events,
                                               max_dst):
        # a chunk holds every band up to the one of max_dst, merged in
        # (time, src, dst) order also where times tie across bands
        stream = _small_stream(events)
        top = stream.band_top(max_dst)
        want = [e for e in sorted(set(events)) if e[2] <= top]
        for reverse in (False, True):
            chunks = list(stream.iter_chunks(*stream.window, reverse=reverse,
                                             max_dst=lambda: max_dst))
            got = [e for c in (chunks[::-1] if reverse else chunks)
                   for e in zip(*(x.tolist() for x in c))]
            assert got == want
        assert list(zip(*(x.tolist() for x in window_events(stream)))) == \
            sorted(set(events))

    @settings(max_examples=300, deadline=None, suppress_health_check=fixture_ok)
    @given(_tied_events(RESTART_CAP), st.integers(2, RESTART_CAP),
           st.integers(0, 40))
    # level 2 reads bands up to 8; its first level + 1 hits end at (1, 4),
    # and (1, 9) tied with them hits only if the scan draws its chunks
    # again from just after (1, 4) with the bands above 8
    @example([(1.0, 1, d) for d in range(2, 10)], 2, 0)
    # backward, the first level + 1 hits end at (1, 3, 4), and (1, 2, 5)
    # comes after it in the scan
    @example([(3.0, 1, 2), (2.0, 1, 3), (1.0, 3, 4), (1.0, 2, 5)], 2, 0)
    def test_rising_restarts_lose_no_tied_event(self, small_bands, events,
                                                level0, k):
        stream = _small_stream(events, RESTART_CAP)
        s = 0.25 * k
        ordered = sorted(set(events))
        after = [e for e in ordered if e[0] > s]
        limit = RESTART_CAP - level0 + 1
        want = unit_step_scan([e[2] for e in after], level0, 1, limit)
        y, exit_time = _scan.track_line_forward(stream, s, 10.0, level0)
        if len(want) == limit:
            assert (y, exit_time) == (None, after[want[-1]][0])
        else:
            assert (y, exit_time) == (level0 + len(want), None)
        # the same rising scan backward, over the whole window
        want = unit_step_scan([e[2] for e in ordered[::-1]], level0, 1, limit)
        assert _unit_step_run(stream, level0, 1, limit, reverse=True) == \
            [ordered[::-1][i][0] for i in want]
        # the curve sweep climbs through every band
        births, exits, exit_ids, open_ids, paths = curve_pass_per_event(
            ordered, RESTART_CAP)
        res = _scan.curve_pass(stream, *stream.window, record_paths=True)
        assert (res.births, res.exit_times, res.exit_birth_ids,
                res.open_ids) == (births, exits, exit_ids, open_ids)
        assert {cid: list(zip(res.path_times[cid], res.path_levels[cid]))
                for cid in res.path_times} == paths


@pytest.mark.filterwarnings("ignore::lookdown.errors.StationarityWarning")
@pytest.mark.parametrize("cap", [50, 300, 1000])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_banded_scans_match_one_band_scans(cap, seed, monkeypatch):
    # the same events in one band, cut only at 0: every scan reads all of
    # them in at most two chunks
    cfg = engine.EngineConfig(level_cap=cap, t_start=0.0, t_end=2.0,
                              burn_in=5.0, seed=seed)
    banded = engine.generate_event_stream(cfg)
    with monkeypatch.context() as m:
        m.setattr(stream_module, "FIRST_BAND_TOP", cap)
        one_band = FixedStream(cfg, *window_events(banded))
    assert len(one_band._edges) == 2 < len(banded._edges)
    grid = [float(t) for t in np.linspace(2.0, 0.0, 9)]
    pp = [engine.mrca_point_process(x) for x in (banded, one_band)]
    assert np.array_equal(pp[0].establishment, pp[1].establishment)
    assert np.array_equal(pp[0].living, pp[1].living)
    assert pp[0].n_open == pp[1].n_open
    curves = [[(c.birth, c.exit_time, c.steps())
               for c in engine.extract_fixation_curves(x, window=(-5.0, 2.0))]
              for x in (banded, one_band)]
    assert curves[0] == curves[1]
    assert [_outcome(banded, t) for t in grid] == \
        [_outcome(one_band, t) for t in grid]
    for t, j, s in [(2.0, 2, 1.5), (2.0, cap // 2, -1.0), (1.0, cap, -5.0),
                    (0.5, cap - 1, 0.0)]:
        assert engine.backward_level(banded, t, j, s) == \
            engine.backward_level(one_band, t, j, s)


def _slices_below(stream, a_t):
    """The (band, slice) keys the stream has read that lie wholly below
    a_t, or wholly at or after the queries' reference time 10."""
    assert stream.counters()["cache_evictions"] == 0
    return [(b, k) for b, k in stream._cache
            if (k + 1) * stream._widths[b] <= a_t
            or k * stream._widths[b] >= 10.0]


@pytest.mark.parametrize("seed", [1, 2])
def test_scans_stop_at_level_one(seed):
    # a falling threshold that reaches 1 ends the scan: the drop to one
    # block and a lineage traced far back read no slice, in any band, that
    # lies wholly below A_t
    cfg = engine.EngineConfig(level_cap=100, t_start=0.0, t_end=10.0,
                              burn_in=15.0, seed=seed)
    stream = engine.generate_event_stream(cfg)
    a_t = engine.coalescent_curve(stream, 10.0).mrca_time
    assert stream.counters()["slices_generated"] > 0
    assert _slices_below(stream, a_t) == []
    for j in (1, 50, 100):
        stream = engine.generate_event_stream(cfg)
        assert engine.backward_level(stream, 10.0, j, -15.0) == 1
        assert _slices_below(stream, a_t) == []
        if j == 1:
            assert stream.counters()["slices_generated"] == 0


def _outcome(stream, t):
    """observables_at as a comparable tuple, or the error it raised."""
    try:
        o = engine.observables_at(stream, t)
    except LookdownError as exc:
        return type(exc).__name__
    return (o.mrca_time, o.fixation_level, str(o.coalescent_level),
            o.curve_count)


def _drops(stream, t):
    """The drop times of a scan to one block, or the error it raised."""
    try:
        return tuple(genealogy._drop_to_one_block(stream, t)[0])
    except LookdownError as exc:
        return type(exc).__name__


@pytest.mark.filterwarnings("ignore::lookdown.errors.StationarityWarning")
class TestQueriesEndOnTheLastDrop:
    """Queries on a stream already queried, in any order, against fresh
    streams."""

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_any_query_order_matches_fresh_streams(self, seed):
        cfg = engine.EngineConfig(level_cap=40, t_start=0.0, t_end=12.0,
                                  burn_in=15.0, seed=seed)
        grid = [float(t) for t in np.linspace(0.0, 12.0, 31)]
        fresh = {t: _outcome(engine.generate_event_stream(cfg), t)
                 for t in grid}
        shuffled = list(np.random.default_rng(seed).permutation(grid))
        for order in (grid, grid[::-1], shuffled):
            stream = engine.generate_event_stream(cfg)
            assert {t: _outcome(stream, t) for t in order} == fresh

    def test_hand_worked_stream(self):
        cfg = engine.EngineConfig(level_cap=6, t_start=0.0, t_end=10.0,
                                  burn_in=0.0, seed=0)
        events = [(1.0, 1, 2), (2.0, 2, 3), (4.0, 1, 2), (5.0, 3, 4),
                  (6.0, 2, 3), (7.0, 1, 5), (8.0, 4, 6), (8.5, 1, 2)]
        grid = [5.0, 7.5, 8.0, 8.25, 9.0, 9.5, 10.0]
        fresh = {t: _outcome(fixed_stream(cfg, events), t) for t in grid}
        assert fresh[9.0] == (1.0, 4, "3", 2)
        for order in (grid, grid[::-1], [9.0, 5.0, 10.0, 8.0, 7.5, 9.5, 8.25]):
            stream = fixed_stream(cfg, events)
            assert {t: _outcome(stream, t) for t in order} == fresh

    @settings(max_examples=300, deadline=None, suppress_health_check=fixture_ok)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 4),
                              st.integers(1, 4)), max_size=80),
           st.lists(st.integers(1, 12), min_size=2, max_size=6))
    def test_tied_event_times(self, small_bands, raw, ticks):
        # events on a half-unit grid share times, within and across bands
        cfg = engine.EngineConfig(level_cap=5, t_start=0.0, t_end=6.0,
                                  burn_in=0.0, seed=0)
        events = [(0.5 * k, a, a + b) for k, a, b in raw if a + b <= 5]
        stream = fixed_stream(cfg, events)
        for k in ticks:
            fresh = fixed_stream(cfg, events)
            assert _drops(stream, 0.5 * k) == _drops(fresh, 0.5 * k)

    def test_tie_where_the_scans_meet(self):
        # backward from 10 the drops fall at 7 and twice at 3: on (2, 3),
        # then (1, 2).  From 5 the count reaches time 3 one higher, drops
        # at both events there as well and once more at 1
        cfg = engine.EngineConfig(level_cap=4, t_start=0.0, t_end=10.0,
                                  burn_in=0.0, seed=0)
        events = [(1.0, 1, 2), (3.0, 1, 2), (3.0, 2, 3), (7.0, 1, 2)]
        stream = fixed_stream(cfg, events)
        assert _drops(stream, 10.0) == (7.0, 3.0, 3.0)
        assert _drops(stream, 5.0) == (3.0, 3.0, 1.0)

    def test_coalescent_curve_ignores_later_queries(self):
        cfg = engine.EngineConfig(level_cap=50, t_start=0.0, t_end=10.0,
                                  burn_in=15.0, seed=7)
        stream = engine.generate_event_stream(cfg)
        before = engine.coalescent_curve(stream, 6.0)
        engine.observables_at(stream, 6.5)
        after = engine.coalescent_curve(stream, 6.0)
        assert np.array_equal(before.knot_times, after.knot_times)
        assert (before.lowest_value, before.truncated) == \
            (after.lowest_value, after.truncated)


@pytest.mark.filterwarnings("ignore::lookdown.errors.StationarityWarning")
@pytest.mark.parametrize("seed", [3, 4])
def test_z_and_b_from_the_births_after_the_mrca(seed):
    # Z_t counts the (1, 2) events in (A_t, t]; I_t is the block count at
    # the first of them, B_t
    cfg = engine.EngineConfig(level_cap=40, t_start=0.0, t_end=12.0,
                              burn_in=15.0, seed=seed)
    stream = engine.generate_event_stream(cfg)
    for t in np.linspace(0.0, 12.0, 31):
        o = engine.observables_at(stream, float(t))
        times, _, dsts = events_between(stream, o.mrca_time, float(t))
        births = times[(dsts == 2) & (times > o.mrca_time)]
        assert o.curve_count == births.size
        if births.size:
            curve = engine.coalescent_curve(stream, float(t))
            assert o.coalescent_level == curve_value(curve, float(births[0]))
