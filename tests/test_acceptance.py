"""Acceptance criteria at full stated sizes, one test per criterion.

Runs the whole suite once per session (about 20 s) and prints one
pass/fail line per criterion.  Tolerances and sample sizes live in
lookdown.verify and are pinned to the stated requirements.
"""

import pytest

from lookdown import verify

pytestmark = pytest.mark.acceptance

CRITERIA = {
    1: "exact constants (pmf_Z 0..3, mean/var of Z, E[Tc]) within 1e-9",
    2: "dual-method identities (x_k, p_z, pgf) at stated tolerances",
    3: "particle equilibrium: sampler and occupation vs pi_Lambda, chi2",
    4: "Poisson exit process: KS, lag-1, dispersion",
    5: "Z law by simulation: chi2 vs pmf_Z and mean band",
    6: "look-down observables at N=1000: L and (L=2, I) laws",
    7: "(E, B) pairs of criterion 3's run: B gaps, E - B mean, E - t "
       "within A0 bins",
    8: "mixture of S_l over pmf_L is standard exponential (KS)",
    9: "structural equalities: curves, Z definitions, jump-back",
    10: "T_c Monte Carlo mean and exact K-chain marginals to j=50",
    11: "substitutions on criterion 3's (E, B) pairs: mass rate theta/2 "
        "and clustering at 4 sigma",
}


@pytest.fixture(scope="session")
def suite():
    return verify.run_suite("full", seed=verify.DEFAULT_SEED)


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(suite, criterion):
    result = next(r for r in suite.results if r.criterion == criterion)
    print(result.line())
    assert result.passed, f"{CRITERIA[criterion]} -- {result.detail}"
