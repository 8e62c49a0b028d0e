"""The acceptance battery at its full stated grids, one test per criterion.

Every check is exact (no numeric tolerances).  Each test runs its
criterion through ``run_battery``, which backs the ``ffzeta verify``
command, at the full grid of ``acceptance.GRIDS``, and prints one
pass/fail line.  The criterion 8 sub-tests read the same grid.

Criterion 8(d), v-adic half, is expected red: the v-adic family always
opens with a slope-0 unit segment (the trivial zero inherited from the
twist factor; the degree-1 coefficient (u+1)^(2j+1) is a u-adic unit),
and slope 0 is even while the check demands every slope odd.  The test
asserts the stated claim anyway and fails with the explanation; see the
parity report itself for the full slope lists.
"""

from ffzeta import acceptance
from ffzeta.sqrtcar import (
    hecke_identity,
    parity_report,
    psi_composition_check,
    psi_factorization_check,
)


FULL_8 = acceptance.GRIDS["8"]["full"]


def _run(cid):
    [res] = acceptance.run_battery(criteria=cid)
    print()
    print(res.line())
    return res


class TestCriteria:
    def test_criterion_1_polynomiality(self):
        res = _run("1")
        assert res.passed, res.details["failures"][:5]

    def test_criterion_2_simplicity_at_infinity(self):
        res = _run("2")
        assert res.passed, res.details["failures"][:5]

    def test_criterion_3_euler_removal(self):
        res = _run("3")
        assert res.passed, res.details["failures"][:5]

    def test_criterion_4_degree_one_twist(self):
        res = _run("4")
        assert res.passed, res.details["failures"][:5]

    def test_criterion_5_vadic_simplicity(self):
        res = _run("5")
        assert res.passed, res.details["failures"][:5]

    def test_criterion_6_carlitz_frobenius_and_coefficients(self):
        res = _run("6")
        assert res.passed, res.details["failures"][:5]
        # every recorded unit factor is 1 (norm equals the prime on the nose)
        assert all(v == [1] for v in res.details["unit_factors"].values())

    def test_criterion_7_rank2_local_bound(self):
        res = _run("7")
        assert res.passed, res.details["failures"][:5]

    def test_criterion_9_oracle_equivalences(self):
        res = _run("9")
        assert res.passed, res.details["failures"][:5]

    def test_criterion_10_determinism(self):
        res = _run("10")
        assert res.passed


class TestCriterion8:
    """The square-root CM suite, split so each sub-claim reports alone."""

    def test_criterion_8a_composition(self):
        ok = psi_composition_check()
        print("\n[criterion 8a] PASS  psi is the composed degree-one action"
              if ok else "\n[criterion 8a] FAIL")
        assert ok

    def test_criterion_8b_coefficient_identity(self):
        bad = [j for j in range(FULL_8["jmax_identity"] + 1)
               if not hecke_identity(j, FULL_8["dmax"]).passed]
        print("\n[criterion 8b] " + ("PASS" if not bad else "FAIL")
              + "  character sums equal doubled-exponent power sums")
        assert not bad, bad

    def test_criterion_8c_euler_factor_squares(self):
        rep = psi_factorization_check(FULL_8["factorization_deg"])
        print("\n[criterion 8c] " + ("PASS" if rep.passed else "FAIL")
              + "  rank-2 solver returns the squared character factor")
        assert rep.passed

    def test_criterion_8d_infty_parity_even(self):
        bad = []
        for j in range(FULL_8["jmax_parity"] + 1):
            rep = parity_report(hecke_identity(j, 8), 64)
            if not rep.infty_all_even:
                bad.append((j, [str(s) for s in rep.infty_violations]))
        print("\n[criterion 8d-infinity] " + ("PASS" if not bad else "FAIL")
              + "  slopes at infinity all even")
        assert not bad, bad

    def test_criterion_8d_vadic_parity_odd(self):
        bad = []
        for j in range(FULL_8["jmax_parity"] + 1):
            rep = parity_report(hecke_identity(j, 8), 64)
            if not rep.vadic_all_odd:
                bad.append((j, [str(s) for s in rep.vadic_violations]))
        print("\n[criterion 8d-vadic] " + ("PASS" if not bad else "FAIL")
              + "  v-adic slopes all odd")
        assert not bad, (
            "the v-adic polygon carries one slope-0 unit segment at every "
            "exponent (the trivial zero: the degree-1 coefficient "
            "(u+1)^(2j+1) is a u-adic unit); slope 0 is even, so the "
            "every-slope-odd claim fails exactly there while all other "
            "slopes are odd: " + repr(bad))
