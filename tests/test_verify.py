import json

import pytest

from lookdown import verify, zlaw
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


def test_tampering_fails_named_check(monkeypatch):
    # breaking one exact constant must fail exactly the constants check
    real = zlaw.pmf_Z

    def tampered(z):
        return 0.4 if z == 1 else real(z)

    monkeypatch.setattr(verify.zlaw, "pmf_Z", tampered)
    suite = verify.run_suite("quick", only=[1])
    assert not suite.all_passed
    assert suite.results[0].name == "exact-constants"


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
