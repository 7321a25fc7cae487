import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from fractions import Fraction

from lookdown import cli, engine, laws, particles
from lookdown.tables import table_from_pairs

from oracle import events_between, fixed_stream, window_events


def run_cli(args, **kw):
    return cli.main(args)


class TestTables:
    def test_L_exact_values(self, tmp_path, capsys):
        code = run_cli(["tables", "--which", "L", "--max-level", "5",
                        "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "table_L.csv").read_text().splitlines()
        assert lines[0] == "value,weight,tail_bound"
        weights = [line.split(",")[1] for line in lines[1:]]
        assert weights == ["1/3", "1/6", "1/10", "1/15", "1/21"]

    def test_Z_contains_exact_rationals(self, tmp_path):
        code = run_cli(["tables", "--which", "Z", "--max-z", "5",
                        "--out", str(tmp_path)])
        assert code == 0
        body = (tmp_path / "table_Z.csv").read_text()
        assert "1/3" in body and "11/27" in body
        summary = json.loads((tmp_path / "table_Z_summary.json").read_text())
        assert summary["mean"] == 1.0
        assert summary["variance"] == pytest.approx(14 - 4 * math.pi**2 / 3, abs=1e-12)

    def test_Tc_expected_value_printed(self, tmp_path, capsys):
        code = run_cli(["tables", "--which", "Tc", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.5797362" in out

    def test_json_format(self, tmp_path):
        code = run_cli(["tables", "--which", "pi", "--max-level", "6",
                        "--format", "json", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "table_pi.json").read_text())
        assert payload["rows"][0]["weight"] == "1/3"

    def test_invalid_built_table_is_internal_error(self, tmp_path, capsys):
        # P[Z = z] loses its precision in float64 by z = 15, and the table
        # the package builds from it is rejected: a fault in the package,
        # not in the request
        code = run_cli(["tables", "--which", "Z", "--max-z", "15",
                        "--out", str(tmp_path)])
        assert code == cli.EXIT_INTERNAL == 4
        assert "internal error" in capsys.readouterr().err

    def test_infinity_spelled_inf(self, tmp_path):
        # I = INF on {Z = 0}: the LI table and the observables agree
        assert run_cli(["tables", "--which", "LI", "--max-level", "3",
                        "--max-blocks", "4", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "table_LI.csv").read_text().splitlines()
        assert lines[1].startswith("(1 inf),1/3,")
        assert run_cli(["simulate-lookdown", "--levels", "20", "--t-start",
                        "0", "--t-end", "10", "--seed", "7", "--no-events",
                        "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "observables.csv").read_text().splitlines()[1:]]
        assert rows
        for _, _, _, i, z in rows:
            assert (i == "inf") == (z == "0")

    def test_render_and_dump(self, tmp_path, monkeypatch):
        t = table_from_pairs([(1, Fraction(1, 3)), (2, 2 / 3)], name="demo")
        monkeypatch.setattr(laws, "pmf_L_table", lambda max_level: t)
        assert cli._render_weight(Fraction(1, 3)) == "1/3"
        assert run_cli(["tables", "--which", "L", "--out",
                        str(tmp_path)]) == 0
        lines = (tmp_path / "table_L.csv").read_text().splitlines()
        assert lines[0] == "value,weight,tail_bound"
        assert lines[1].startswith("1,1/3,")
        assert run_cli(["tables", "--which", "L", "--format", "json",
                        "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "table_L.json").read_text())
        assert payload["rows"][0]["weight"] == "1/3"
        assert payload["rows"][0]["weight_float"] == pytest.approx(1 / 3)

    def test_unknown_table_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["tables", "--which", "nope"])
        assert exc.value.code == 2


class TestSimulateParticles:
    def test_outputs_and_manifest(self, tmp_path):
        code = run_cli(["simulate-particles", "--horizon", "200",
                        "--cap", "300", "--seed", "7",
                        "--out", str(tmp_path)])
        assert code == 0
        exits = (tmp_path / "exits.csv").read_text().splitlines()
        assert exits[0] == "E"
        assert len(exits) > 100  # rate-1 exits over 200 time units
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["command"] == "simulate-particles"
        assert str(tmp_path / "exits.csv") in manifest["outputs"]
        traj = (tmp_path / "trajectory.jsonl").read_text().splitlines()
        row = json.loads(traj[0])
        assert row.keys() == {"t", "kind", "k", "levels"}
        # each row is the text json.dumps writes for it, in every kind
        rows = [json.loads(r) for r in traj]
        assert {r["kind"] for r in rows} == {"push", "arrival", "exit"}
        assert [json.dumps(r) for r in rows] == traj
        metrics = manifest["metrics"]
        assert metrics.keys() == {"transitions", "exits", "flights",
                                  "segments", "simulate_seconds",
                                  "peak_rss_mb"}
        # no burn-in: every transition is a trajectory row; a recorded
        # trajectory keeps every leader on the exact climb
        assert metrics["transitions"] == len(traj)
        assert metrics["exits"] == len(exits) - 1
        assert metrics["flights"] == 0 < metrics["segments"]
        assert metrics["peak_rss_mb"] > 0

    def test_reproducible_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(["simulate-particles", "--horizon", "80",
                            "--cap", "200", "--seed", "11",
                            "--out", str(out)]) == 0
        assert (a / "exits.csv").read_bytes() == (b / "exits.csv").read_bytes()
        assert (a / "trajectory.jsonl").read_bytes() \
            == (b / "trajectory.jsonl").read_bytes()

    def test_stationary_init(self, tmp_path):
        code = run_cli(["simulate-particles", "--horizon", "50",
                        "--cap", "200", "--seed", "3", "--init", "stationary",
                        "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["init"] == "stationary"

    def test_stationary_init_starts_below_the_cap(self, tmp_path):
        # this seed's unconditioned stationary draw has its leader above 200
        code = run_cli(["simulate-particles", "--horizon", "300",
                        "--cap", "200", "--init", "stationary", "--seed", "7",
                        "--out", str(tmp_path), "--no-trajectory"])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert 0 < manifest["config"]["init_levels"][0] < 200

    def test_broken_invariant_is_internal_error(self, tmp_path, capsys,
                                                monkeypatch):
        def out_of_order(rng, below=None):
            init = particles.ParticleConfig((5, 3, 2))
            object.__setattr__(init, "levels", (3, 3, 3))
            return init

        monkeypatch.setattr(particles, "sample_stationary", out_of_order)
        code = run_cli(["simulate-particles", "--horizon", "20",
                        "--cap", "50", "--seed", "1", "--init", "stationary",
                        "--out", str(tmp_path)])
        assert code == cli.EXIT_INTERNAL == 4
        assert "internal error" in capsys.readouterr().err


class TestSimulateLookdown:
    def test_outputs(self, tmp_path):
        code = run_cli(["simulate-lookdown", "--levels", "30",
                        "--t-start", "0", "--t-end", "25", "--seed", "5",
                        "--out", str(tmp_path)])
        assert code == 0
        points = (tmp_path / "mrca_points.csv").read_text().splitlines()
        assert points[0] == "E,B"
        es = [float(line.split(",")[0]) for line in points[1:]]
        assert es == sorted(es) and len(es) > 5
        obs = (tmp_path / "observables.csv").read_text().splitlines()
        assert obs[0] == "t,A,L,I,Z"
        events = (tmp_path / "events.jsonl").read_text().splitlines()
        assert json.loads(events[0]).keys() == {"t", "i", "j"}

    def test_jsonl_export(self, tmp_path):
        assert run_cli(["simulate-lookdown", "--levels", "4", "--t-start",
                        "0", "--t-end", "20", "--burn-in", "5", "--seed", "6",
                        "--out", str(tmp_path)]) == 0
        st = engine.generate_event_stream(engine.EngineConfig(
            level_cap=4, t_start=0.0, t_end=20.0, burn_in=5.0, seed=6))
        path = tmp_path / "events.jsonl"
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
        cli._write_events(path, st)
        t, s, d = events_between(st, -3.0, 5e3)
        want = "".join(json.dumps({"t": a, "i": b, "j": c}) + "\n"
                       for a, b, c in zip(t.tolist(), s.tolist(),
                                          d.tolist()))
        assert len(t) == 8
        assert path.read_text() == want

    def test_export_csv(self, tmp_path):
        assert run_cli(["simulate-lookdown", "--levels", "40", "--t-start",
                        "0", "--t-end", "50", "--burn-in", "25", "--seed",
                        "19", "--no-events", "--out", str(tmp_path)]) == 0
        pp = engine.mrca_point_process(engine.generate_event_stream(
            engine.EngineConfig(level_cap=40, t_start=0.0, t_end=50.0,
                                burn_in=25.0, seed=19)))
        lines = (tmp_path / "mrca_points.csv").read_text().splitlines()
        assert lines[0] == "E,B"
        assert len(lines) == pp.establishment.size + 1
        e0 = float(lines[1].split(",")[0])
        assert e0 == pp.establishment[0]  # 17 digits round-trips

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(["simulate-lookdown", "--levels", "20",
                            "--t-start", "0", "--t-end", "10", "--seed", "7",
                            "--out", str(out), "--no-events"]) == 0
        assert (a / "mrca_points.csv").read_bytes() \
            == (b / "mrca_points.csv").read_bytes()
        assert (a / "observables.csv").read_bytes() \
            == (b / "observables.csv").read_bytes()

    def test_manifest_counts_warnings_and_cache_traffic(self, tmp_path,
                                                         monkeypatch):
        base = ["simulate-lookdown", "--levels", "30", "--t-start", "0",
                "--t-end", "8", "--seed", "3", "--no-events"]
        counts = {}
        for burn_in in ("20", "5"):
            out = tmp_path / burn_in
            assert run_cli(base + ["--burn-in", burn_in,
                                   "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            entry = manifest["warnings"]["StationarityWarning"]
            counts[burn_in] = entry["count"]
            assert (entry["first"] is None) == (entry["count"] == 0)
            metrics = manifest["metrics"]
            assert metrics.keys() == {"slices_generated", "events_generated",
                                      "cache_hits", "cache_evictions",
                                      "simulate_seconds", "peak_rss_mb"}
            assert metrics["slices_generated"] > 0
            assert metrics["events_generated"] > 0
            assert metrics["simulate_seconds"] >= 0
            assert metrics["peak_rss_mb"] > 0
        assert counts["20"] == 0 and counts["5"] > 0

        # the slice cache holds a whole N=1000 grid run: no slice is
        # evicted and generated again
        from lookdown.engine.stream import EventStream
        keys = []
        real = EventStream._generate_slice

        def recording(self, b, k):
            keys.append((b, k))
            return real(self, b, k)

        monkeypatch.setattr(EventStream, "_generate_slice", recording)
        out = tmp_path / "grid"
        assert run_cli(["simulate-lookdown", "--levels", "1000",
                        "--t-start", "0", "--t-end", "10", "--seed", "7",
                        "--no-events", "--out", str(out)]) == 0
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        assert metrics["cache_evictions"] == 0
        assert metrics["slices_generated"] == len(set(keys))

    def test_internal_fault_has_its_own_exit_code(self, tmp_path, capsys,
                                                  monkeypatch):
        from lookdown.engine import genealogy
        real = genealogy._scan.backward_drops

        def misplaced_mrca(*args, **kwargs):
            times, srcs, dsts, c_final = real(*args, **kwargs)
            return times, srcs, dsts + 1, c_final

        monkeypatch.setattr(genealogy._scan, "backward_drops", misplaced_mrca)
        code = run_cli(["simulate-lookdown", "--levels", "30",
                        "--t-start", "0", "--t-end", "5", "--no-events",
                        "--seed", "1", "--out", str(tmp_path)])
        assert code == cli.EXIT_INTERNAL == 4
        assert "internal error" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["simulate-lookdown"])
        assert exc.value.code == 2

    def test_invalid_config_maps_to_usage_error(self, tmp_path, capsys):
        code = run_cli(["simulate-lookdown", "--levels", "2",
                        "--t-start", "0", "--t-end", "5",
                        "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("spacing", ["0", "-1"])
    def test_nonpositive_sample_spacing_is_usage_error(self, tmp_path,
                                                       capsys, spacing):
        # 0 divided by zero and -1 wrote a header-only observables.csv
        out = tmp_path / "run"
        code = run_cli(["simulate-lookdown", "--levels", "20", "--t-start",
                        "0", "--t-end", "5", "--seed", "1", "--no-events",
                        "--sample-spacing", spacing, "--out", str(out)])
        assert code == cli.EXIT_USAGE == 2
        assert "--sample-spacing" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate-particles", "--horizon", "10", "--cap", "5"],
    ["simulate-lookdown", "--levels", "2", "--t-start", "0", "--t-end", "5"],
    ["simulate-lookdown", "--t-start", "5", "--t-end", "1"],
    ["verify", "--criteria", "1,12"],
], ids=["cap", "levels", "window", "criteria"])
def test_usage_error_writes_nothing(tmp_path, capsys, argv):
    # the out directory is made with the first file, after the config is
    # built: a rejected config leaves no empty directory behind
    out = tmp_path / "run"
    assert run_cli(argv + ["--out", str(out)]) == cli.EXIT_USAGE == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


class TestVerifyCommand:
    def test_selected_fast_criteria(self, tmp_path, capsys):
        code = run_cli(["verify", "--profile", "quick", "--criteria", "1,2",
                        "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "criterion  1" in out and "PASS" in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["pass"] is True
        assert {c["criterion"] for c in report["checks"]} == {1, 2}

    def test_criterion_out_of_range_is_usage_error(self, tmp_path, capsys):
        # no check ran: not a PASS
        code = run_cli(["verify", "--profile", "quick", "--criteria", "1,12",
                        "--out", str(tmp_path)])
        assert code == cli.EXIT_USAGE == 2
        assert "[1, 12]" in capsys.readouterr().err
        assert not (tmp_path / "verify_report.json").exists()

    def test_criterion_not_a_number_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--criteria", "x"])
        assert exc.value.code == cli.EXIT_USAGE == 2
        assert "invalid criteria value: 'x'" in capsys.readouterr().err

    def test_entropy_seed_recorded(self, tmp_path):
        code = run_cli(["verify", "--profile", "quick", "--criteria", "1",
                        "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert isinstance(manifest["seed"], int)


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "lookdown.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate-lookdown" in proc.stdout


def test_import_leaves_scipy_stats_out():
    # the CLI's chi-square p-values need only scipy.special; importing
    # scipy.stats would cost more than a second of every command's start
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, lookdown.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# sha256 of every data file that carries no timing, one small run per
# subcommand and format, taken before the CLI's writers were gathered in
# cli.py; verify_report.json carries seconds and table_Z_summary.json the
# pgf digits, so neither is pinned
LOOKDOWN = ["simulate-lookdown", "--levels", "20", "--t-start", "0",
            "--t-end", "10", "--seed", "7"]
POINTS = "92d6621f7ef1f4164628d10d3c2a968bdd6bfdb2ed71e5cac29084ca98b5ff19"
PINNED = {
    "lookdown-csv": (LOOKDOWN, {
        "events.jsonl": "c858389c38fc39c3710d6cba04998584"
                        "cb422fdc543eb943259e0cb0158f41c8",
        "mrca_points.csv": POINTS,
        "observables.csv": "5ed263af829edabadf4d5294adaceeb7"
                           "5f5f33ff3591d89c7ca62f2eee639e6a"}),
    "lookdown-jsonl": (LOOKDOWN + ["--format", "jsonl", "--no-events"], {
        "mrca_points.csv": POINTS,
        "observables.jsonl": "0f46c7861f8934a74d942b7286144896"
                             "4416698b6593239c7ef3ea10a4e98d71"}),
    "particles": (["simulate-particles", "--cap", "30", "--horizon", "130",
                   "--seed", "11"], {
        "exits.csv": "8b1dd22fcb552c16557477d9fb937610"
                     "0de6248869934db20bfe2bdec6df877c",
        "gap_summary.json": "a2b621e8160db47a55d9a595207a70b9"
                            "e8b06ecf41f1060a38d5a53194f91f4f",
        "trajectory.jsonl": "1462afe73a66d8c02659c337fd7bc9f6"
                            "173ed9570392d75da7cd993d901a66b3"}),
    "tables-csv": (["tables", "--which", "LI", "--max-level", "4",
                    "--max-blocks", "4"], {
        "table_LI.csv": "f8d98aac1cc89bf7251a95381756999f"
                        "c76679079080148e614f864bca76a383"}),
    "tables-csv-summary": (["tables", "--which", "Tc", "--max-level", "6"], {
        "table_Tc.csv": "600743f01e9c1fab08c05ba22ea1ccb2"
                        "1bd1d674f6ea2961c0326ff047ed7c92",
        "table_Tc_summary.json": "6a411d16fa41aeab8bd53d6408da7783"
                                 "3af8880fd2e9e7cd80e55f73e696e4ae"}),
    "tables-json": (["tables", "--which", "pi", "--max-level", "5",
                     "--format", "json"], {
        "table_pi.json": "328761576198f01905b888d4ee2d7079"
                         "f9e7c7fe176e8641182b01c4859da614"}),
    "tables-json-Z": (["tables", "--which", "Z", "--max-z", "6",
                       "--format", "json"], {
        "table_Z.json": "a34965fe36305f453505745122a07545"
                        "54c3abeec0357e275a119ab7253611a4"}),
}
UNPINNED = {"manifest.json", "table_Z_summary.json"}


@pytest.mark.parametrize("case", PINNED)
def test_data_files_are_pinned(tmp_path, case):
    argv, digests = PINNED[case]
    assert run_cli(argv + ["--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if p.name not in UNPINNED}
    assert written == digests


def test_every_command_writes_the_same_manifest_keys(tmp_path):
    keys = {}
    for argv in (LOOKDOWN + ["--no-events"],
                 ["simulate-particles", "--cap", "30", "--horizon", "20",
                  "--seed", "1", "--no-trajectory"],
                 ["tables", "--which", "L", "--max-level", "3"],
                 ["verify", "--profile", "quick", "--criteria", "1"]):
        out = tmp_path / argv[0]
        argv = argv + ["--out", str(out)]
        assert run_cli(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["argv"] == argv   # what ran, not the caller's
        assert manifest["metrics"]["peak_rss_mb"] > 0
        assert manifest["warnings"]["StationarityWarning"]["count"] >= 0
        keys[argv[0]] = set(manifest)
    assert len({frozenset(k) for k in keys.values()}) == 1, keys
