import random

import pytest

from ffzeta import _packing as pk
from ffzeta import cli, sqrtcar, zeta
from ffzeta.drinfeld import carlitz_module
from ffzeta.errors import ProvisionalPolygon
from ffzeta.ffpoly import FiniteField, Poly, enumerate_monic, poly_parse
from ffzeta.sqrtcar import (
    _coprime_sums,
    hecke_identity,
    hecke_special,
    parity_report,
    psi_composition_check,
    psi_factorization_check,
    psi_module,
)
from ffzeta.zeta import power_sum

F2 = FiniteField(2)


class TestSqrtMap:
    """The square root n' in A' = F_2[u] has n's coefficients, read in u:
    (n')^2 = n(u^2)."""

    def test_variable(self):
        T = Poly.variable(F2)  # T -> u
        assert T * T == T.substitute_spread(2)

    def test_example(self):
        n = poly_parse(F2, "T^2+T+1")
        # (u^2+u+1)^2 = u^4+u^2+1, i.e. the original under T = u^2
        assert n * n == n.substitute_spread(2)

    def test_one(self):
        one = Poly.one(F2)
        assert one * one == one.substitute_spread(2)

    def test_roundtrip_random(self):
        rng = random.Random(77)
        for _ in range(1000):
            n = Poly(F2, [rng.randrange(2) for _ in range(rng.randint(0, 12))])
            if n.is_zero():
                continue
            assert n * n == n.substitute_spread(2)


def _term_by_term(j: int, dmax: int, coprime: bool = False) -> list[Poly]:
    """sum of n' * n^j(u^2) over monic deg-d n (with n(0) != 0 if
    ``coprime``), each term from the definition on bit ints: n^j in T,
    spread by T -> u^2, times n'.  The reference for ``hecke_special``,
    which reads the sums as oracle power sums S_d(2j+1) instead."""
    out = []
    for d in range(dmax + 1):
        acc = 0
        for nb in range(1 << d, 2 << d):  # the monics of degree d
            if nb & 1 or not coprime:
                acc ^= pk.f2_mul(nb, pk.f2_spread(pk.f2_pow(nb, j), 2))
        out.append(Poly(F2, pk.f2_to_coeffs(acc)))
    return out


class TestHeckeSums:
    def test_degree_zero(self):
        assert hecke_special(5, 0)[0] == Poly.one(F2)

    def test_j0_degree_one(self):
        # u + (u+1) = 1
        assert hecke_special(0, 1)[1] == Poly.one(F2)

    def test_j1_degree_one(self):
        assert hecke_special(1, 1)[1] == poly_parse(F2, "T^2+T+1")  # u^2+u+1

    def test_direct_enumeration_oracle(self):
        # independent route: exact A'-sum via Poly arithmetic
        for j in (0, 1, 3):
            for d in (1, 2, 3):
                acc = Poly.zero(F2)
                for n in enumerate_monic(F2, d):
                    acc = acc + n * (n ** j).substitute_spread(2)  # n' * n^j
                assert hecke_special(j, d)[d] == acc

    def test_coprime_variant(self):
        vals = _coprime_sums(hecke_special(0, 2), 0)
        assert vals[1] == poly_parse(F2, "T+1")        # u + 1
        assert vals[2] == Poly.variable(F2)            # u

    def test_coprime_sums_match_direct_enumeration(self):
        for j in range(21):
            assert _coprime_sums(hecke_special(j, 8), j) == _term_by_term(j, 8, coprime=True)

    def test_full_sums_match_term_by_term(self):
        for j in range(21):
            assert hecke_special(j, 8) == _term_by_term(j, 8), j

    def test_answers_without_the_engine_or_packed_kernels(self, monkeypatch):
        want = {j: _term_by_term(j, 6) for j in (0, 1, 7, 20)}

        def broken(*args, **kwargs):
            raise AssertionError("a fast-route kernel ran")
        for owner, name in ((zeta, "_layers"), (zeta, "_monic_sum"),
                            (zeta, "_power_sums"), (zeta, "power_sum"),
                            (sqrtcar, "special_polynomial"),
                            (pk, "pk_pow"), (pk, "pk_sum"), (pk, "f2_pow")):
            monkeypatch.setattr(owner, name, broken)
        with pytest.raises(AssertionError, match="fast-route kernel"):
            hecke_identity(1, 2)  # the patch reaches the engine's side
        for j, sums in want.items():
            assert hecke_special(j, 6) == sums

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="j >= 0"):
            hecke_special(-1, 2)

    def test_negative_dmax_rejected(self):
        with pytest.raises(ValueError, match="dmax >= 0"):
            hecke_special(1, -1)
        with pytest.raises(ValueError, match="dmax >= 0"):
            hecke_identity(1, -1)


class TestHeckeIdentity:
    def test_doubled_shifted_exponent(self):
        for j in (0, 1, 2, 5, 9):
            rep = hecke_identity(j, 8)
            assert rep.passed, (j, rep.per_degree)

    def test_hand_value(self):
        # l_1(1) = u^2+u+1 = S'_1(3)
        assert hecke_special(1, 1)[1] == power_sum(F2, 1, 3)


class TestPsiModule:
    def test_composition(self):
        assert psi_composition_check()

    def test_psi_coefficients(self):
        psi = psi_module()
        theta = poly_parse(F2, "T^2")  # u^2
        assert psi.phi_T[0] == theta
        assert psi.phi_T[1] == poly_parse(F2, "T^2+T")  # theta + sqrt(theta)
        assert psi.rank == 2

    def test_prime_carlitz_is_rank_one(self):
        # C'_u = u tau^0 + tau: the Carlitz module over F_2, read in u
        cprime = carlitz_module(F2)
        assert cprime.rank == 1
        assert cprime.phi_T == (Poly.variable(F2), Poly.one(F2))

    def test_factorization_degree_three(self):
        rep = psi_factorization_check(3)
        assert rep.passed
        for gprime, data, ok in rep.per_prime:
            assert ok and data.a.is_zero()
            assert data.mu == gprime

    def test_factorization_hand_case_u(self):
        rep = psi_factorization_check(1)
        by_prime = {g.to_string("u"): data for g, data, _ in rep.per_prime}
        assert by_prime["u"].mu == Poly.variable(F2)  # (a, mu) = (0, T)
        assert by_prime["u"].a.is_zero()

    def test_euler_factor_square_identity(self):
        # (1 + g' t)^2 = 1 + g t^2 in characteristic 2: the cross term
        # 2 g' t vanishes and (g')^2 is the image of g under T -> u^2
        for gp in (Poly.variable(F2), poly_parse(F2, "T^2+T+1")):
            assert gp * gp == gp.substitute_spread(2)


class TestParity:
    def test_removed_factor_slope_is_odd_and_present(self):
        for j in (0, 1, 3, 7):
            rep = parity_report(hecke_identity(j, 8), 64)
            assert rep.removed_factor_slope == 2 * j + 1
            assert rep.removed_factor_slope % 2 == 1
            assert any(s == rep.removed_factor_slope for s in rep.vadic_slopes)

    def test_infty_side_all_even(self):
        for j in range(0, 11):
            rep = parity_report(hecke_identity(j, 8), 64)
            assert rep.infty_all_even, (j, rep.infty_violations)

    def test_infty_j0_slope_zero(self):
        rep = parity_report(hecke_identity(0, 8), 64)
        assert rep.infty_slopes == [0]

    def test_vadic_trivial_zero_is_the_only_violation(self):
        # the degree-1 coefficient (u+1)^(2j+1) is a u-adic unit, so the
        # polygon always opens with a slope-0 segment; slope 0 is even and
        # is reported as the single parity exception, all other slopes odd
        for j in range(0, 11):
            rep = parity_report(hecke_identity(j, 8), 64)
            assert rep.vadic_violations == [0], (j, rep.vadic_slopes)
            others = [s for s in rep.vadic_slopes if s != 0]
            assert all(s.denominator == 1 and s.numerator % 2 == 1 for s in others)

    def test_one_enumeration_per_request(self, monkeypatch):
        # the identity and both parity polygons read one hecke_special call
        calls = []
        original = sqrtcar.hecke_special

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sqrtcar, "hecke_special", counting)
        assert cli.main(["sqrtcar", "--j", "3", "--dmax", "5"]) == 3
        assert calls == [(3, 5)]

    def test_insufficient_presentation_precision(self):
        with pytest.raises(ProvisionalPolygon):
            parity_report(hecke_identity(20, 8), 8)
