import dataclasses
import json
import warnings

import pytest

from lookdown import engine, particles, verify, zlaw
from lookdown.engine import genealogy
from lookdown.errors import ConfigurationError, StationarityWarning

# the check names of verify_report.json, criteria 1 to 11
REPORT_NAMES = [
    "exact-constants", "dual-method-identities", "particle-equilibrium",
    "poisson-exit-process", "z-law-by-simulation", "lookdown-observables",
    "exponential-establishments", "mixture-identity", "structural-equalities",
    "tc-and-k-chain", "substitutions",
]


def test_fast_checks_pass_and_serialize():
    suite = verify.run_suite("quick", only=[1, 2, 10])
    assert suite.all_passed
    payload = json.loads(json.dumps(suite.to_dict()))
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
    json.loads(json.dumps(suite.to_dict()))


def test_raising_checks_keep_their_names(monkeypatch):
    # a check that raises is named and numbered as one that returns
    def raising(fn):
        def check(params, seed):
            raise RuntimeError("boom")
        check.__name__ = fn.__name__
        return check

    monkeypatch.setattr(verify, "CHECKS", list(map(raising, verify.CHECKS)))
    suite = verify.run_suite("quick")
    assert [r.name for r in suite.results] == REPORT_NAMES
    assert [r.criterion for r in suite.results] == list(range(1, 12))
    assert not any(r.passed for r in suite.results)


def test_a_check_that_warns_then_raises_keeps_its_warning(monkeypatch):
    def broken(params, seed):
        warnings.warn("too little history", StationarityWarning)
        raise RuntimeError("boom")

    checks = list(verify.CHECKS)
    checks[0] = broken
    monkeypatch.setattr(verify, "CHECKS", checks)
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        suite = verify.run_suite("quick", only=[1])
    assert not escaped
    (check,) = json.loads(json.dumps(suite.to_dict()))["checks"]
    assert not check["pass"]
    assert check["detail"] == "raised RuntimeError: boom"
    assert check["warnings"]["StationarityWarning"] == {
        "count": 1, "first": "too little history"}


def _counted(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapper


def test_each_shared_run_is_made_once(monkeypatch):
    # criteria 4, 5, 7 and 11 read criterion 3's particle run, and no
    # engine sweep runs for them
    calls = []
    monkeypatch.setattr(verify.particles, "simulate",
                        _counted(particles.simulate, calls))
    monkeypatch.setattr(verify.engine, "mrca_point_process",
                        _counted(engine.mrca_point_process, calls))
    suite = verify.run_suite("quick", only=[3, 4, 5, 7, 11])
    assert suite.all_passed
    assert calls == ["simulate"]


def test_poisson_exits_see_doubled_gaps(monkeypatch):
    # an exit process at half the rate fails criterion 4, though the
    # previous call ran the same criterion on the true run
    assert verify.run_suite("quick", only=[4]).all_passed
    real = particles.simulate

    def half_rate(*args, **kwargs):
        run = real(*args, **kwargs)
        return dataclasses.replace(run, exits=run.exits * 2.0)

    monkeypatch.setattr(verify.particles, "simulate", half_rate)
    (check,) = verify.run_suite("quick", only=[4]).results
    assert not check.passed
    assert check.detail.startswith("n=")   # failed on its statistics


def _mispaired(monkeypatch, exits, living):
    """Make every particle run pair exits(E) with living(B)."""
    real = particles.simulate

    def mispaired(*args, **kwargs):
        run = real(*args, **kwargs)
        return dataclasses.replace(run, exits=exits(run.exits),
                                   living=living(run.living))

    monkeypatch.setattr(verify.particles, "simulate", mispaired)


def test_establishments_see_each_exit_paired_with_an_earlier_b(monkeypatch):
    # E_{m+1} with B_m: E - t given the depth stays Exp(1), and the B gaps
    # are the true ones, so only the E - B band sees it
    _mispaired(monkeypatch, lambda e: e[1:], lambda b: b[:-1])
    (check,) = verify.run_suite("quick", only=[7]).results
    assert not check.passed
    assert check.detail.startswith("7891 exits:")   # on its statistics
    assert check.reports[1]["name"] == "E-B_mean"
    assert not check.reports[1]["pass"]


def test_establishments_see_each_exit_paired_with_a_later_b(monkeypatch):
    # E_m with B_{m+1}: where exit m leaves no particle behind, the next
    # arrival comes after it
    _mispaired(monkeypatch, lambda e: e[:-1], lambda b: b[1:])
    (check,) = verify.run_suite("quick", only=[7]).results
    assert not check.passed
    assert check.detail == (
        "raised LookdownError: each B must precede its E")


PARTICLE_WORK = {"transitions", "exits", "flights", "segments"}
ENGINE_WORK = {"slices_generated", "events_generated", "cache_hits",
               "cache_evictions"}


def test_particle_criteria_report_their_work():
    # the runs a particle criterion read are in its report; criteria 4 and
    # 5 read criterion 3's run, alone or after it
    (alone,) = verify.run_suite("quick", only=[4]).results
    suite = verify.run_suite("quick", only=[1, 3, 4, 5, 9])
    payload = json.loads(json.dumps(suite.to_dict()))["checks"]
    assert payload[0]["work"] == {}
    for c in payload[1:]:
        work = c["work"]
        # criterion 9 reads engine streams too
        assert work.keys() == PARTICLE_WORK | (
            ENGINE_WORK if c["criterion"] == 9 else set())
        assert work["transitions"] > work["segments"] > work["exits"] > 100
    assert payload[1]["work"]["flights"] >= payload[1]["work"]["exits"]
    assert payload[1]["work"] == payload[2]["work"] == payload[3]["work"] \
        == alone.work
    assert payload[4]["work"]["flights"] == 0   # a recorded trajectory


def test_engine_criteria_report_their_work():
    # the streams behind an engine criterion's seconds are in its report,
    # summed over the streams it builds; criteria 7 and 11 read the (E, B)
    # pairs of criterion 3's particle run and report its counters
    suite = verify.run_suite("quick", only=[3, 6, 7, 9, 11])
    assert suite.all_passed
    c3, c6, c7, c9, c11 = json.loads(json.dumps(suite.to_dict()))["checks"]
    for c in (c6, c9):
        work = c["work"]
        assert work.keys() >= ENGINE_WORK
        assert work["events_generated"] > work["slices_generated"] > 100
    # criterion 6 builds one stream per query, 500 of them
    assert c6["work"]["slices_generated"] >= 500
    assert c9["work"].keys() == ENGINE_WORK | PARTICLE_WORK
    work = c3["work"]
    assert work.keys() == PARTICLE_WORK
    assert work["transitions"] > work["segments"] > work["exits"] > 100
    assert c7["work"] == c11["work"] == work


def test_warnings_are_counted_not_silenced(monkeypatch):
    # a longer warm-up puts the window start of criterion 9's point
    # processes inside it, so each of its 15 quick reps warns once
    monkeypatch.setattr(genealogy, "_MIN_WARMUP", 20.0)
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        suite = verify.run_suite("quick", only=[9])
    assert not escaped
    (check,) = json.loads(json.dumps(suite.to_dict()))["checks"]
    assert check["pass"]
    entry = check["warnings"]["StationarityWarning"]
    assert entry["count"] == 15
    assert "warm-up" in entry["first"]
