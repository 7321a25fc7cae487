import json
import math
from collections import Counter

import numpy as np
import pytest

from lookdown import engine
from lookdown.engine import _scan
from lookdown.engine import stream as stream_module
from lookdown.errors import ConfigurationError, WindowRangeError
from lookdown.laws import comb2
from lookdown.seeding import rng_from

from oracle import events_between, fixed_stream, unit_step_scan, window_events


def _stream(level_cap=3, t_start=0.0, t_end=100.0, burn_in=0.0, seed=42):
    return engine.generate_event_stream(engine.EngineConfig(
        level_cap=level_cap, t_start=t_start, t_end=t_end,
        burn_in=burn_in, seed=seed))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            engine.EngineConfig(level_cap=2, t_start=0, t_end=1)
        with pytest.raises(ConfigurationError):
            engine.EngineConfig(level_cap=3, t_start=1, t_end=1)
        with pytest.raises(ConfigurationError):
            engine.EngineConfig(level_cap=3, t_start=0, t_end=1, burn_in=-1)
        # pair codes decode exactly up to this cap
        engine.EngineConfig(level_cap=2**25, t_start=0, t_end=1)
        with pytest.raises(ConfigurationError):
            engine.EngineConfig(level_cap=2**25 + 1, t_start=0, t_end=1)

    def test_window(self):
        cfg = engine.EngineConfig(level_cap=5, t_start=2.0, t_end=9.0,
                                  burn_in=3.0)
        assert cfg.window == (-1.0, 9.0)


class TestGeneration:
    def test_pair_codes_decode_exactly_up_to_the_largest_cap(self):
        # at each dst, the first pair (1, dst) and the last (dst - 1, dst)
        # are the codes nearest a change of dst
        dst = np.unique(np.concatenate([
            np.arange(2, 5000),
            np.geomspace(5000, 2**25, 3000).astype(np.int64)]))
        first = comb2(dst - 1)
        srcs, dsts = stream_module._decode_pairs(
            np.concatenate([first, first + dst - 2]))
        assert np.array_equal(dsts, np.concatenate([dst, dst]))
        assert np.array_equal(srcs, np.concatenate([np.ones_like(dst),
                                                    dst - 1]))

    def test_mean_count_three_pairs(self):
        # three pairs at rate one each over T=100
        t, s, d = window_events(_stream())
        assert abs(len(t) - 300) < 4 * math.sqrt(300)

    def test_event_validity(self):
        t, s, d = window_events(_stream(level_cap=6, seed=7))
        assert np.all(np.diff(t) > 0)
        assert np.all((1 <= s) & (s < d) & (d <= 6))

    def test_determinism_bit_identical(self):
        a = window_events(_stream(seed=9))
        b = window_events(_stream(seed=9))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_seed_changes_stream(self):
        a = window_events(_stream(seed=1))
        b = window_events(_stream(seed=2))
        assert len(a[0]) != len(b[0]) or not np.array_equal(a[0], b[0])

    def test_restriction_consistency(self):
        st = _stream(level_cap=10, seed=5)
        whole = events_between(st, 10.0, 30.0)
        left = events_between(st, 10.0, 20.0)
        right = events_between(st, 20.0, 30.0)
        assert np.array_equal(np.concatenate([left[0], right[0]]), whole[0])

    def test_window_extension_preserves_events(self):
        # same seed, larger window: the restriction is unchanged
        small = _stream(level_cap=8, t_start=0, t_end=50, seed=11)
        big = _stream(level_cap=8, t_start=0, t_end=90, burn_in=10, seed=11)
        a = events_between(small, 5.0, 45.0)
        b = events_between(big, 5.0, 45.0)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_per_pair_poisson_counts(self):
        # N=100, T=10: >= 99% of pairs within 4*sqrt(10) of 10
        t, s, d = window_events(_stream(level_cap=100, t_end=10.0, seed=101))
        cnt = Counter(zip(s.tolist(), d.tolist()))
        counts = np.array([cnt.get((i, j), 0)
                           for j in range(2, 101) for i in range(1, j)])
        frac = np.mean(np.abs(counts - 10) <= 4 * math.sqrt(10))
        assert frac >= 0.99

    def test_disjoint_interval_independence(self):
        # 2-way contingency: pair class x disjoint interval, chi-square
        st = _stream(level_cap=4, t_end=4000.0, seed=13)
        t, s, d = window_events(st)
        half = (t > 2000.0).astype(int)
        pair_code = (s * 10 + d)
        classes = sorted(set(pair_code.tolist()))
        table = np.array([[np.sum((pair_code == c) & (half == h))
                           for h in (0, 1)] for c in classes], dtype=float)
        row = table.sum(axis=1, keepdims=True)
        col = table.sum(axis=0, keepdims=True)
        expect = row @ col / table.sum()
        stat = float(((table - expect) ** 2 / expect).sum())
        import scipy.stats
        p = scipy.stats.chi2.sf(stat, (table.shape[0] - 1) * (table.shape[1] - 1))
        assert p > 0.001


class TestSlicesFromCounters:
    """Slice k of band b comes from a fresh generator keyed by (seed, b)
    at counter zigzag(k), so a slice depends on nothing else."""

    CFG = dict(level_cap=100, t_start=-4.0, t_end=4.0, burn_in=0.0, seed=17)

    def test_order_and_eviction_leave_slices_bit_identical(self,
                                                           monkeypatch):
        cfg = engine.EngineConfig(**self.CFG)
        # codes below 2^32: integers draws 32-bit words two to a 64-bit
        # output and keeps the spare one, which a generator shared between
        # slices would carry from one to the next
        assert comb2(cfg.level_cap) < 2**32
        ref = engine.generate_event_stream(cfg)
        keys = [(b, k) for b, w in enumerate(ref._widths)
                for k in range(math.floor(-4.0 / w), math.ceil(4.0 / w))]
        want = {key: ref._slice(*key) for key in keys}
        assert ref.counters()["cache_evictions"] == 0
        monkeypatch.setattr(stream_module, "CACHE_EVENT_BUDGET", 2000)
        st = engine.generate_event_stream(cfg)
        order = np.random.default_rng(0)
        for _ in range(2):   # the second pass regenerates evicted slices
            for i in order.permutation(len(keys)):
                for x, y in zip(st._slice(*keys[i]), want[keys[i]]):
                    assert np.array_equal(x, y)
        assert st.counters()["cache_evictions"] > len(keys)
        assert st.counters()["slices_generated"] > len(keys)

    def test_slices_and_bands_draw_apart(self):
        st = engine.generate_event_stream(engine.EngineConfig(
            level_cap=100, t_start=-40.0, t_end=40.0, burn_in=0.0, seed=17))
        for b, w in enumerate(st._widths):
            for k in (0, 1, 2, 3):
                # a counter that dropped the sign would give k and -k the
                # same draws
                pos, neg = st._generate_slice(b, k), st._generate_slice(b, -k)
                if k:
                    assert not np.array_equal(pos[2], neg[2])
                assert pos[0].size > 100
        keys = [tuple(key.tolist()) for key in st._keys]
        assert len(set(keys)) == len(keys) == 4


class TestFixedStream:
    def test_from_events_sorted_dedup(self):
        cfg = engine.EngineConfig(level_cap=3, t_start=0.0, t_end=10.0,
                                  burn_in=0.0, seed=0)
        st = fixed_stream(cfg, [(5.0, 1, 2), (2.0, 1, 3), (5.0, 1, 2)])
        t, s, d = window_events(st)
        assert t.tolist() == [2.0, 5.0]
        assert d.tolist() == [3, 2]

    def test_from_events_validates_pairs(self):
        cfg = engine.EngineConfig(level_cap=3, t_start=0.0, t_end=10.0,
                                  burn_in=0.0, seed=0)
        with pytest.raises(ConfigurationError):
            fixed_stream(cfg, [(1.0, 2, 2)])
        with pytest.raises(ConfigurationError):
            fixed_stream(cfg, [(1.0, 1, 4)])


    @pytest.mark.parametrize("width", [None, 1.0])
    def test_grid_line_events_read_once(self, width):
        # slices hold closed intervals, so an event on a grid line, at 0.0
        # or, on a unit grid, at any integer, lies in two of them; each is
        # read once forward, backward and by a scan that starts on it
        cfg = engine.EngineConfig(level_cap=4, t_start=0.0, t_end=4.0,
                                  burn_in=2.0, seed=0)
        events = [(-2.0, 1, 2), (-1.0, 2, 3), (0.0, 1, 2), (0.0, 2, 4),
                  (1.0, 1, 3), (2.0, 1, 2), (2.0, 3, 4), (3.5, 1, 2),
                  (4.0, 2, 3)]
        st = fixed_stream(cfg, events)
        if width is not None:
            st._widths = [width] * len(st._widths)

        def as_events(chunks):
            return [e for c in chunks for e in zip(*(x.tolist() for x in c))]

        assert as_events([window_events(st)]) == events
        assert as_events([events_between(st, 0.0, 2.0)]) == \
            [e for e in events if 0.0 <= e[0] <= 2.0]
        chunks = list(st.iter_chunks(*st.window, reverse=True))
        assert as_events(chunks[::-1]) == events
        for t in (0.0, 2.0, 4.0):
            before = [e for e in events if e[0] <= t][::-1]
            want = unit_step_scan([e[2] for e in before], 4, -1, 3)
            assert _scan.backward_drops(st, t)[0].tolist() == \
                [before[k][0] for k in want]


class TestQueriesAndExport:
    def test_require_inside(self):
        st = _stream()
        with pytest.raises(WindowRangeError):
            st.require_inside(101.0)

    def test_jsonl_export(self, tmp_path):
        st = _stream(level_cap=4, t_end=20.0, burn_in=5.0, seed=6)
        path = tmp_path / "events.jsonl"
        engine.export_events_jsonl(st, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        # the burn-in [-5, 0) is left out
        t, s, d = events_between(st, 0.0, 20.0)
        assert len(rows) == len(t) < len(window_events(st)[0])
        assert rows[0].keys() == {"t", "i", "j"}
        assert rows[0]["t"] == t[0]
        times = [r["t"] for r in rows]
        assert times == sorted(times)

    def test_jsonl_export_is_json_dumps(self, tmp_path):
        # byte for byte what json.dumps writes, on a stream with times of
        # every sign and size, integers among them
        st = fixed_stream(
            engine.EngineConfig(level_cap=6, t_start=-3.0, t_end=5e3,
                                burn_in=1.0, seed=0),
            [(-3.5, 1, 2), (-3.0, 2, 3), (-1e-300, 1, 6), (0.0, 4, 5),
             (1 / 3, 1, 2), (2.0, 3, 6), (123.456789012345678, 2, 4),
             (4999.999999999999, 1, 3), (5e3, 5, 6)])
        path = tmp_path / "events.jsonl"
        engine.export_events_jsonl(st, path)
        t, s, d = events_between(st, -3.0, 5e3)
        want = "".join(json.dumps({"t": a, "i": b, "j": c}) + "\n"
                       for a, b, c in zip(t.tolist(), s.tolist(),
                                          d.tolist()))
        assert len(t) == 8
        assert path.read_text() == want
