import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from lookdown import cli, particles


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
