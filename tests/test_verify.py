import json
import warnings

import pytest

from lookdown import verify, zlaw
from lookdown.engine import genealogy
from lookdown.errors import ConfigurationError


def test_fast_checks_pass_and_serialize():
    suite = verify.run_suite("quick", only=[1, 2, 10])
    assert suite.all_passed
    payload = json.loads(suite.to_json())
    assert payload["pass"] is True
    assert [c["criterion"] for c in payload["checks"]] == [1, 2, 10]
    for c in payload["checks"]:
        assert c["detail"]
        assert c["seconds"] >= 0


def test_unknown_profile_rejected():
    with pytest.raises(ConfigurationError):
        verify.run_suite("huge")


@pytest.mark.parametrize("only", [[0], [12], [1, 12]])
def test_unknown_criteria_rejected(only):
    # a selection that runs no check, or skips one asked for, is no PASS
    with pytest.raises(ConfigurationError, match=r"not in 1\.\.11"):
        verify.run_suite("quick", only=only)


def test_tampering_fails_named_check(monkeypatch):
    # breaking one exact constant must fail exactly the constants check
    real = zlaw.pmf_Z

    def tampered(z):
        return 0.4 if z == 1 else real(z)

    monkeypatch.setattr(verify.zlaw, "pmf_Z", tampered)
    suite = verify.run_suite("quick", only=[1])
    assert not suite.all_passed
    assert suite.results[0].name == "exact-constants"


def test_constants_check_sees_a_shifted_moment(monkeypatch):
    # Var[Z] is checked by its series route against 14 - 4 pi^2 / 3, so a
    # shift of the series far below any sampling check fails criterion 1
    real = zlaw.var_Z_series
    monkeypatch.setattr(verify.zlaw, "var_Z_series", lambda: real() + 1e-6)
    suite = verify.run_suite("quick", only=[1])
    assert not suite.all_passed
    assert suite.results[0].detail.startswith("worst |err| = 1.00e-06 at Var[Z]")


def test_echo_lines(capsys):
    verify.run_suite("quick", only=[1], echo=print)
    out = capsys.readouterr().out
    assert "criterion  1 [exact-constants] PASS" in out


def test_raising_check_fails_alone(monkeypatch):
    # an exception in one check is that check's FAIL; the rest still run
    def broken(params, seed):
        raise RuntimeError("boom")

    checks = list(verify.CHECKS)
    checks[1] = broken
    monkeypatch.setattr(verify, "CHECKS", checks)
    suite = verify.run_suite("quick", only=[1, 2, 10])
    assert [r.criterion for r in suite.results] == [1, 2, 10]
    failed = suite.results[1]
    assert not failed.passed and not suite.all_passed
    assert failed.detail == "raised RuntimeError: boom"
    assert "RuntimeError" in failed.reports[0]["traceback"]
    assert failed.seconds >= 0
    assert suite.results[0].passed and suite.results[2].passed
    json.loads(suite.to_json())


PARTICLE_WORK = {"transitions", "exits", "flights", "segments"}
ENGINE_WORK = {"slices_generated", "events_generated", "cache_hits",
               "cache_evictions"}


def test_particle_criteria_report_their_work():
    # the runs behind a particle criterion's seconds are in its report
    suite = verify.run_suite("quick", only=[1, 4, 9])
    payload = json.loads(suite.to_json())["checks"]
    assert payload[0]["work"] == {}
    for c in payload[1:]:
        work = c["work"]
        # criterion 9 reads engine streams too
        assert work.keys() == PARTICLE_WORK | (
            ENGINE_WORK if c["criterion"] == 9 else set())
        assert work["transitions"] > work["segments"] > work["exits"] > 100
    assert payload[1]["work"]["flights"] >= payload[1]["work"]["exits"]
    assert payload[2]["work"]["flights"] == 0   # a recorded trajectory


def test_engine_criteria_report_their_work():
    # the streams behind an engine criterion's seconds are in its report,
    # summed over the streams it builds
    suite = verify.run_suite("quick", only=[6, 7, 9, 11])
    assert suite.all_passed
    payload = json.loads(suite.to_json())["checks"]
    for c in payload:
        work = c["work"]
        assert work.keys() >= ENGINE_WORK
        assert work["events_generated"] > work["slices_generated"] > 100
    # criterion 6 builds one stream per query, 500 of them
    assert payload[0]["work"]["slices_generated"] >= 500
    assert payload[2]["work"].keys() == ENGINE_WORK | PARTICLE_WORK


def test_warnings_are_counted_not_silenced(monkeypatch):
    # a longer warm-up puts the window start of criterion 9's point
    # processes inside it, so each of its 15 quick reps warns once
    monkeypatch.setattr(genealogy, "_MIN_WARMUP", 20.0)
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        suite = verify.run_suite("quick", only=[9])
    assert not escaped
    (check,) = json.loads(suite.to_json())["checks"]
    assert check["pass"]
    entry = check["warnings"]["StationarityWarning"]
    assert entry["count"] == 15
    assert "warm-up" in entry["first"]
