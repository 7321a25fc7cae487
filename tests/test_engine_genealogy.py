import math
import warnings

import numpy as np
import pytest

from lookdown import engine, laws, stats
from lookdown.errors import (InsufficientWindowError, StationarityWarning,
                             WindowRangeError)
from lookdown.seeding import child_seed
from lookdown.tables import INF

from oracle import GraphOracle


def _stream(level_cap, t_end, burn_in=15.0, seed=0):
    return engine.generate_event_stream(engine.EngineConfig(
        level_cap=level_cap, t_start=0.0, t_end=t_end, burn_in=burn_in,
        seed=seed))


def _p12_times(st, a, b):
    """Times of the (1, 2) events with a <= time <= b."""
    t, _, d = st.events_between(a, b)
    return t[d == 2]


class TestBackwardLevelAgainstOracle:
    def test_immortal_line(self):
        st = _stream(8, 20.0, seed=1)
        assert engine.backward_level(st, 15.0, 1, 2.0) == 1

    def test_single_event_construction(self):
        cfg = engine.EngineConfig(level_cap=3, t_start=0.0, t_end=10.0,
                                  burn_in=0.0, seed=0)
        st = engine.EventStream.from_events(cfg, [(5.0, 1, 2)])
        assert engine.backward_level(st, 8.0, 2, 2.0) == 1
        assert engine.backward_level(st, 8.0, 2, 6.0) == 2
        # an event exactly at s is not strictly after s: no hop through it
        assert engine.backward_level(st, 8.0, 2, 5.0) == 2
        assert GraphOracle(3, 0.0, [(5.0, 1, 2)]).backward_level(8.0, 2, 5.0) == 2
        # level 3 individual was pushed from 2 at the event
        assert engine.backward_level(st, 8.0, 3, 2.0) == 2

    def test_random_streams_match_graph_replay(self):
        for seed in range(6):
            st = _stream(7, 12.0, burn_in=0.0, seed=seed)
            t, s, d = st.events()
            oracle = GraphOracle(7, 0.0, zip(t, s, d))
            rng = np.random.default_rng(seed)
            for _ in range(40):
                tt = float(rng.uniform(6.0, 12.0))
                ss = float(rng.uniform(0.5, tt - 0.5))
                j = int(rng.integers(1, 8))
                assert engine.backward_level(st, tt, j, ss) \
                    == oracle.backward_level(tt, j, ss)

    def test_ordering_by_persistence(self):
        # forward images keep their order: Y_s^t(i) < Y_s^t(j) for i < j
        st = _stream(12, 10.0, burn_in=0.0, seed=3)
        t, s, d = st.events()
        oracle = GraphOracle(12, 0.0, zip(t, s, d))
        for s0 in (1.0, 3.0):
            for tt in (5.0, 8.0):
                levels = []
                for i in range(1, 13):
                    lid = oracle.occupant_at(s0)[i]
                    if oracle.lines[lid]["death"] is not None \
                            and oracle.lines[lid]["death"] <= tt:
                        levels.append(None)
                    else:
                        levels.append(oracle.line_level_at(lid, tt))
                alive = [l for l in levels if l is not None]
                assert alive == sorted(alive)
                # once a line dies, all higher-level contemporaries are dead
                seen_dead = False
                for l in levels:
                    if l is None:
                        seen_dead = True
                    else:
                        assert not seen_dead

    def test_window_validation(self):
        st = _stream(5, 10.0, seed=2)
        with pytest.raises(WindowRangeError):
            engine.backward_level(st, 5.0, 2, 6.0)
        with pytest.raises(WindowRangeError):
            engine.backward_level(st, 5.0, 9, 1.0)


class TestCoalescentCurve:
    def test_starts_at_cap_and_steps_down_by_one(self):
        st = _stream(40, 10.0, seed=4)
        cur = engine.coalescent_curve(st, 5.0)
        assert cur.value_at(5.0) == 40
        vals = [v for _, v in cur.steps()]
        assert vals == list(range(2, 41))
        assert not cur.truncated

    def test_matches_oracle_block_counts(self):
        st = _stream(6, 8.0, burn_in=0.0, seed=5)
        t, s, d = st.events()
        oracle = GraphOracle(6, 0.0, zip(t, s, d))
        cur = engine.coalescent_curve(st, 7.0, s_min=1.0)
        for ss in np.linspace(1.0, 7.0, 23):
            expect = oracle.block_count(7.0, float(ss))
            assert oracle.max_ancestor_level(7.0, float(ss)) == expect
            assert cur.value_at(float(ss)) == expect

    def test_jump_times_are_qualifying_events(self):
        st = _stream(15, 10.0, seed=6)
        cur = engine.coalescent_curve(st, 9.0)
        t, s, d = st.events_between(*st.window)
        times = set(t.tolist())
        for knot, value in cur.steps():
            assert knot in times
            # the event at the knot involves only occupied ancestral levels
            idx = int(np.searchsorted(t, knot))
            assert d[idx] <= value

    def test_truncated_flag(self):
        st = _stream(30, 10.0, seed=7)
        cur = engine.coalescent_curve(st, 9.0, s_min=8.9)
        assert cur.truncated
        with pytest.raises(InsufficientWindowError):
            _ = cur.mrca_time

    def test_mean_depth(self):
        # expected time to one block from N levels: 2(1 - 1/N)
        n, depths = 60, []
        for r in range(120):
            st = _stream(n, 1.0, burn_in=25.0, seed=child_seed(900, r))
            depths.append(0.5 - engine.mrca_time(st, 0.5))
        target = 2 * (1 - 1 / n)
        se = np.std(depths, ddof=1) / math.sqrt(len(depths))
        assert abs(np.mean(depths) - target) < 4 * se


class TestMrcaTime:
    def test_on_p12_and_piecewise_constant(self):
        st = _stream(25, 30.0, seed=8)
        a = engine.mrca_time(st, 10.0)
        assert _p12_times(st, a, a).size == 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pp = engine.mrca_point_process(st, window=(0.0, 30.0))
        # A_t is constant between consecutive establishment times
        e = pp.establishment
        k = int(np.searchsorted(e, 10.0))
        lo, hi = e[k - 1], e[k]
        for q in np.linspace(lo + 1e-6, hi - 1e-6, 5):
            assert engine.mrca_time(st, float(q)) == a

    def test_insufficient_window(self):
        st = engine.generate_event_stream(engine.EngineConfig(
            level_cap=25, t_start=0.0, t_end=1.0, burn_in=0.05, seed=9))
        with pytest.raises(InsufficientWindowError):
            engine.mrca_time(st, 0.5)


class TestFixationCurves:
    def test_birth_level_and_unit_increments(self):
        st = _stream(20, 30.0, seed=10)
        curves = engine.extract_fixation_curves(st)
        assert curves
        for c in curves:
            assert c.path_levels[0] == 2
            assert np.all(np.diff(c.path_levels) == 1)
            if not c.is_open:
                assert c.exit_time > c.birth
                assert c.path_levels[-1] == 19  # cap - 1

    def test_births_are_p12_points(self):
        st = _stream(20, 30.0, seed=11)
        curves = engine.extract_fixation_curves(st)
        p12 = set(_p12_times(st, *st.window).tolist())
        assert all(c.birth in p12 for c in curves)

    def test_level2_holding_time_mean_third(self):
        # at level 2 the push rate is C(3,2) = 3
        holds = []
        for seed in range(40):
            st = _stream(25, 40.0, seed=child_seed(901, seed))
            for c in engine.extract_fixation_curves(st):
                if len(c.path_times) > 1:
                    holds.append(c.path_times[1] - c.path_times[0])
        se = np.std(holds, ddof=1) / math.sqrt(len(holds))
        assert abs(np.mean(holds) - 1 / 3) < 4 * se

    def test_exit_equals_coalescent_back_from_exit(self):
        st = _stream(30, 50.0, seed=12)
        closed = [c for c in engine.extract_fixation_curves(st)
                  if not c.is_open]
        for c in closed[:8]:
            back = engine.coalescent_curve(st, float(c.exit_time))
            assert back.mrca_time == c.birth
            coal_steps = [sv for sv in back.steps() if sv[1] < 30]
            assert c.steps() == coal_steps

    def test_open_flagging(self):
        st = _stream(20, 5.0, seed=14)
        curves = engine.extract_fixation_curves(st, window=(0.0, 5.0))
        assert any(c.is_open for c in curves)
        for c in curves:
            assert c.is_open == (c.exit_time is None)


class TestMrcaPointProcess:
    def _pp(self, seed=14, t_end=400.0, cap=40):
        st = _stream(cap, t_end, burn_in=25.0, seed=seed)
        return st, engine.mrca_point_process(st)

    def test_ordering_invariants(self):
        _, pp = self._pp()
        assert np.all(np.diff(pp.establishment) > 0)
        assert np.all(np.diff(pp.living) > 0)
        assert np.all(pp.living < pp.establishment)

    def test_bijection_with_p12(self):
        st, pp = self._pp(seed=15, t_end=60.0)
        p12 = _p12_times(st, *st.window)
        # every living time is a p12 point, each used once
        assert set(pp.living.tolist()) <= set(p12.tolist())
        assert len(set(pp.living.tolist())) == pp.living.size

    def test_gap_statistics(self):
        _, pp = self._pp(seed=16, t_end=2500.0, cap=60)
        rep = stats.ks_test_exp1(pp.gaps())
        assert rep.passed
        # the B restriction is the rate-1 Poisson P12: mean gap about 1
        b_gaps = np.diff(pp.living)
        assert abs(b_gaps.mean() - 1.0) < 4 * b_gaps.std() / math.sqrt(b_gaps.size)

    def test_z_cross_definition(self):
        st, pp = self._pp(seed=17, t_end=120.0)
        curves = engine.extract_fixation_curves(st)
        for q in np.linspace(20.0, 110.0, 13):
            z_curves = sum(1 for c in curves if c.birth < q and
                           (c.exit_time is None or c.exit_time > q))
            assert pp.z_at(float(q)) == z_curves

    def test_stationarity_warning_near_stream_start(self):
        st = _stream(20, 30.0, burn_in=2.0, seed=18)
        with pytest.warns(StationarityWarning):
            engine.mrca_point_process(st)

    def test_export_csv(self, tmp_path):
        _, pp = self._pp(seed=19, t_end=50.0)
        path = tmp_path / "points.csv"
        engine.export_points_csv(pp, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "E,B"
        assert len(lines) == pp.establishment.size + 1
        e0 = float(lines[1].split(",")[0])
        assert e0 == pp.establishment[0]  # 17 digits round-trips


class TestObservables:
    def test_future_birth_convention(self):
        # find a time with Z = 0: L = 1 and I = INF
        st = _stream(25, 60.0, seed=20)
        found = False
        for q in np.linspace(5.0, 55.0, 40):
            obs = engine.observables_at(st, float(q))
            if obs.curve_count == 0:
                assert obs.fixation_level == 1
                assert obs.coalescent_level == INF
                found = True
                break
        assert found

    def test_L_distribution(self):
        ls = []
        for r in range(1200):
            st = _stream(60, 0.5, burn_in=25.0,
                         seed=child_seed(902, r))
            ls.append(engine.observables_at(st, 0.0).fixation_level)
        n = len(ls)
        p1 = np.mean(np.asarray(ls) == 1)
        assert abs(p1 - 1 / 3) < 4 * math.sqrt((1 / 3) * (2 / 3) / n) + 0.02
        rep = stats.chi_square_gof(stats.empirical_pmf(ls),
                                   laws.pmf_L_table(6))
        assert rep.passed

    def test_I_at_least_three_when_finite(self):
        st = _stream(25, 60.0, seed=21)
        for q in np.linspace(5.0, 55.0, 25):
            obs = engine.observables_at(st, float(q))
            if obs.curve_count > 0:
                assert obs.coalescent_level >= 3
                assert obs.fixation_level >= 2

    def test_invariant_z_zero_iff_l_one(self):
        st = _stream(25, 60.0, seed=22)
        for q in np.linspace(5.0, 55.0, 25):
            obs = engine.observables_at(st, float(q))
            assert (obs.curve_count == 0) == (obs.fixation_level == 1)

    def test_hand_worked_stream(self):
        # backward from t=9 at cap 6 the drops fall at 8.5, 7, 6, 4 and 1,
        # the last on (1, 2): A = 1, and 3 blocks remain at B = 4.  Births
        # after A are at 4 and 8.5, so Z = 2.  The line at level 3 just
        # after the birth at 4 is pushed at 6 and 8.5, so L = 5 - 1 = 4;
        # counting the birth event itself would push it to the cap first.
        cfg = engine.EngineConfig(level_cap=6, t_start=0.0, t_end=10.0,
                                  burn_in=0.0, seed=0)
        st = engine.EventStream.from_events(cfg, [
            (1.0, 1, 2), (2.0, 2, 3), (4.0, 1, 2), (5.0, 3, 4),
            (6.0, 2, 3), (7.0, 1, 5), (8.0, 4, 6), (8.5, 1, 2)])
        with pytest.warns(StationarityWarning):
            obs = engine.observables_at(st, 9.0)
        assert (obs.mrca_time, obs.fixation_level, obs.coalescent_level,
                obs.curve_count) == (1.0, 4, 3, 2)

    def test_stationarity_warning_in_burn_in(self):
        st = _stream(20, 30.0, burn_in=10.0, seed=23)
        with pytest.warns(StationarityWarning):
            engine.observables_at(st, -5.0)

    def test_curve_export(self, tmp_path):
        st = _stream(20, 30.0, seed=24)
        cur = engine.coalescent_curve(st, 10.0)
        path = tmp_path / "curve.csv"
        engine.export_curve_csv(cur, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,level"
        assert len(lines) == len(cur.steps()) + 1
