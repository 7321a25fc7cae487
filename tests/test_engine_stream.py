import json
import math
from collections import Counter

import numpy as np
import pytest

from lookdown import engine
from lookdown.errors import ConfigurationError, WindowRangeError
from lookdown.seeding import rng_from


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

    def test_window(self):
        cfg = engine.EngineConfig(level_cap=5, t_start=2.0, t_end=9.0,
                                  burn_in=3.0)
        assert cfg.window == (-1.0, 9.0)


class TestGeneration:
    def test_mean_count_three_pairs(self):
        # three pairs at rate one each over T=100
        t, s, d = _stream().events()
        assert abs(len(t) - 300) < 4 * math.sqrt(300)

    def test_event_validity(self):
        t, s, d = _stream(level_cap=6, seed=7).events()
        assert np.all(np.diff(t) > 0)
        assert np.all((1 <= s) & (s < d) & (d <= 6))

    def test_determinism_bit_identical(self):
        a = _stream(seed=9).events()
        b = _stream(seed=9).events()
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_seed_changes_stream(self):
        a = _stream(seed=1).events()
        b = _stream(seed=2).events()
        assert len(a[0]) != len(b[0]) or not np.array_equal(a[0], b[0])

    def test_restriction_consistency(self):
        st = _stream(level_cap=10, seed=5)
        whole = st.events_between(10.0, 30.0)
        left = st.events_between(10.0, 20.0)
        right = st.events_between(20.0, 30.0)
        assert np.array_equal(np.concatenate([left[0], right[0]]), whole[0])

    def test_window_extension_preserves_events(self):
        # same seed, larger window: the restriction is unchanged
        small = _stream(level_cap=8, t_start=0, t_end=50, seed=11)
        big = _stream(level_cap=8, t_start=0, t_end=90, burn_in=10, seed=11)
        a = small.events_between(5.0, 45.0)
        b = big.events_between(5.0, 45.0)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_per_pair_poisson_counts(self):
        # N=100, T=10: >= 99% of pairs within 4*sqrt(10) of 10
        t, s, d = _stream(level_cap=100, t_end=10.0, seed=101).events()
        cnt = Counter(zip(s.tolist(), d.tolist()))
        counts = np.array([cnt.get((i, j), 0)
                           for j in range(2, 101) for i in range(1, j)])
        frac = np.mean(np.abs(counts - 10) <= 4 * math.sqrt(10))
        assert frac >= 0.99

    def test_disjoint_interval_independence(self):
        # 2-way contingency: pair class x disjoint interval, chi-square
        st = _stream(level_cap=4, t_end=4000.0, seed=13)
        t, s, d = st.events()
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


class TestFixedStream:
    def test_from_events_sorted_dedup(self):
        cfg = engine.EngineConfig(level_cap=3, t_start=0.0, t_end=10.0,
                                  burn_in=0.0, seed=0)
        st = engine.EventStream.from_events(
            cfg, [(5.0, 1, 2), (2.0, 1, 3), (5.0, 1, 2)])
        t, s, d = st.events()
        assert t.tolist() == [2.0, 5.0]
        assert d.tolist() == [3, 2]

    def test_from_events_validates_pairs(self):
        cfg = engine.EngineConfig(level_cap=3, t_start=0.0, t_end=10.0,
                                  burn_in=0.0, seed=0)
        with pytest.raises(ConfigurationError):
            engine.EventStream.from_events(cfg, [(1.0, 2, 2)])
        with pytest.raises(ConfigurationError):
            engine.EventStream.from_events(cfg, [(1.0, 1, 4)])


class TestQueriesAndExport:
    def test_require_inside(self):
        st = _stream()
        with pytest.raises(WindowRangeError):
            st.require_inside(101.0)

    def test_iter_events_records(self):
        st = _stream(seed=4)
        evs = list(st.iter_events(0.0, 5.0))
        assert all(isinstance(e, engine.LookdownEvent) for e in evs)
        assert all(0.0 <= e.time <= 5.0 for e in evs)

    def test_jsonl_export(self, tmp_path):
        st = _stream(level_cap=4, t_end=20.0, seed=6)
        path = tmp_path / "events.jsonl"
        engine.export_events_jsonl(st, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        t, s, d = st.events()
        assert len(rows) == len(t)
        assert rows[0].keys() == {"t", "i", "j"}
        assert rows[0]["t"] == t[0]
        times = [r["t"] for r in rows]
        assert times == sorted(times)
