import dataclasses
import io
import itertools
import random
from contextlib import redirect_stdout

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ffzeta import cli, drinfeld
from ffzeta.drinfeld import (
    SkewPoly,
    _phi_preimage,
    carlitz_module,
    frobenius_charpoly,
    lseries_coeffs,
    lseries_coeffs_by_expansion,
    lseries_special_coeffs,
    module_over_A,
    skew_tau,
)
from ffzeta.errors import (
    BadReduction,
    FieldMismatch,
    NoSolution,
    PreconditionViolated,
)
from ffzeta.ffpoly import (
    FiniteField,
    Poly,
    enumerate_monic,
    enumerate_monic_primes,
    poly_gcd,
    poly_parse,
)
from ffzeta.nonarch import VadicRing
from ffzeta.sqrtcar import psi_module
from ffzeta.zeta import power_sum

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F5 = FiniteField(5)
F9 = FiniteField(3, 2)


def _skew_rings():
    """(twist, random element) for both coefficient rings: the F_4
    constants of A under the Frobenius of F_4/F_2, and A/(f^2) at
    f = T^2+T+w over F_4 under x -> x^4."""
    ring = VadicRing(poly_parse(F4, "T^2+T+[01]"), 2)
    return [(2, lambda rng: Poly(F4, (rng.randrange(4),))),
            (4, lambda rng: ring.elem(Poly(F4, [rng.randrange(4) for _ in range(4)])))]


class TestSkewRing:
    def test_twist_commutation(self):
        th = Poly(F4, (2,))
        tau = skew_tau(Poly.one(F4), 1, 2)
        lhs = tau * SkewPoly([th], 2)
        assert lhs == SkewPoly([Poly.zero(F4), th ** 2], 2)

    def test_square_over_f4(self):
        th = Poly(F4, (2,))
        s = SkewPoly([th, Poly.one(F4)], 2)
        sq = s * s
        assert sq.coeffs == tuple(Poly(F4, (c,)) for c in
                                  (F4.mul(2, 2), F4.add(2, F4.mul(2, 2)), 1))

    def test_tau_zero_is_identity(self):
        one = SkewPoly([Poly.one(F4)], 2)
        x = SkewPoly([Poly(F4, (3,)), Poly.one(F4)], 2)
        assert one * x == x and x * one == x

    def test_associative_random(self):
        rng = random.Random(13)
        for twist, element in _skew_rings():
            for _ in range(40):
                a, b, c = [SkewPoly([element(rng) for _ in range(3)], twist)
                           for _ in range(3)]
                assert (a * b) * c == a * (b * c)

    def test_distributive_random(self):
        rng = random.Random(14)
        for twist, element in _skew_rings():
            for _ in range(40):
                a, b, c = [SkewPoly([element(rng) for _ in range(3)], twist)
                           for _ in range(3)]
                assert a * (b + c) == a * b + a * c


def _plain_product(a: SkewPoly, b: SkewPoly) -> SkewPoly:
    """sum over i, k of a_i (b_k ** twist^i) tau^(i+k), each twist a fresh
    ``**`` on b's own coefficient."""
    out = {}
    for i, ai in enumerate(a.coeffs):
        for k, bk in enumerate(b.coeffs):
            term = ai * bk ** (a.twist ** i)
            out[i + k] = out[i + k] + term if i + k in out else term
    return SkewPoly([out[n] for n in sorted(out)], a.twist)


class TestTwistedRows:
    """Right factors keep their twisted rows between products."""

    @pytest.mark.parametrize("field,fstr,precision", [
        (F2, "T^3+T+1", 1), (F3, "T^2+1", 3), (F4, "T^2+T+[01]", 2),
        (F9, "T+[11]", 2)], ids=["F2", "F3", "F4", "F9"])
    def test_reused_right_factor_matches_plain_product(self, field, fstr, precision):
        ring = VadicRing(poly_parse(field, fstr), precision)
        rng = random.Random(31)

        def element():
            n = len(ring.modulus.coeffs) - 1
            return ring.elem(Poly(field, [rng.randrange(field.order) for _ in range(n)]))

        q = field.order
        one = ring.elem(Poly.one(field))
        b = SkewPoly([element() for _ in range(3)] + [one], q)
        lefts = [SkewPoly([element() for _ in range(deg)] + [one], q)
                 for deg in (0, 1, 3, 6, 2, 7)]
        for a in lefts:
            assert a * b == _plain_product(a, b)
        assert len(b.twisted_rows(1)) == 8

    def test_module_phi_t_is_kept(self):
        red = carlitz_module(F3).reduce_mod(poly_parse(F3, "T^3+2T+1"))
        assert red.phi_T_skew() is red.phi_T_skew()
        x = poly_parse(F3, "T^5+2T^2+1")
        got = red.phi(x)
        assert got == red.phi(x)  # a second pass reads the kept powers
        want = SkewPoly((), red.twist)
        for c in reversed(x.coeffs):
            want = _plain_product(want, red.phi_T_skew()) + red.one().scale(red.scalar(c))
        assert got == want

    def test_twist_mismatch_raises_after_rows_are_kept(self):
        b = SkewPoly([Poly(F4, (2,)), Poly.one(F4)], 2)
        a = SkewPoly([Poly(F4, (3,)), Poly.one(F4)], 2)
        a * b
        with pytest.raises(FieldMismatch):
            SkewPoly([Poly(F4, (3,)), Poly.one(F4)], 4) * b
        with pytest.raises(FieldMismatch):
            b * SkewPoly([Poly.one(F4)], 4)


def _horner_phi(module, a: Poly) -> SkewPoly:
    """phi_a by the noncommutative Horner scheme, each step a plain
    product by phi_T: the reference for the sum over kept powers."""
    acc = SkewPoly((), module.twist)
    for c in reversed(a.coeffs):
        acc = _plain_product(acc, module.phi_T_skew()) + SkewPoly(
            [module.scalar(c)], module.twist)
    return acc


def _skew_products(call) -> int:
    """The number of skew products that call() makes."""
    count = [0]
    mul = SkewPoly.__mul__

    def counted(self, other):
        count[0] += 1
        return mul(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SkewPoly, "__mul__", counted)
        call()
    return count[0]


class TestPhiPowers:
    """phi reads one kept table of powers phi_T^k, and the peel the same."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(data=st.data())
    def test_phi_horner_peel_and_kept_powers(self, data):
        field = data.draw(st.sampled_from([F2, F3, F4, F9]), label="field")
        rank = data.draw(st.sampled_from([1, 2]), label="rank")
        coeff = st.integers(0, field.order - 1)
        gs = [Poly(field, data.draw(st.lists(coeff, max_size=3)))
              for _ in range(rank)]
        assume(not gs[-1].is_zero())
        d = data.draw(st.integers(1, 3), label="deg f")
        f = data.draw(st.sampled_from(list(enumerate_monic_primes(field, d))))
        assume(not (gs[-1] % f).is_zero())
        red = module_over_A(field, gs).reduce_mod(f)
        a = Poly(field, data.draw(st.lists(coeff, max_size=7), label="a"))
        got = red.phi(a)
        assert got == _horner_phi(red, a)
        assert _skew_products(lambda: red.phi(a)) == 0
        assert red.phi(a) == got
        x = Poly(field, data.draw(st.lists(coeff, max_size=d // 2 + 1), label="x"))
        assert _phi_preimage(red, red.phi(x)) == x

    def test_peel_reuses_the_powers_of_phi_f(self):
        module = _ORACLE_MODULES["T,1"](F3)
        f = poly_parse(F3, "T^4+T^3+2")
        red = module.reduce_mod(f)
        assert _skew_products(lambda: red.phi(f)) == 3  # phi_T^2 .. phi_T^4
        assert _skew_products(lambda: _phi_preimage(red, red.phi(f))) == 0
        assert _phi_preimage(red, red.phi(f)) == f


class TestPhi:
    def test_carlitz_at_T(self):
        C = carlitz_module(F2)
        assert C.phi(Poly.variable(F2)) == C.phi_T_skew()
        got = C.phi(Poly.variable(F2))
        assert got.coeffs[0] == Poly.variable(F2)  # theta
        assert got.coeffs[1] == Poly.one(F2)

    def test_phi_of_one(self):
        C = carlitz_module(F3)
        assert C.phi(Poly.one(F3)) == C.one()

    def test_carlitz_over_f4_reduction(self):
        f = poly_parse(F2, "T^2+T+1")
        red = carlitz_module(F2).reduce_mod(f)
        assert red.phi(f) == skew_tau(red.scalar(1), 2, 2)

    @pytest.mark.parametrize("module_maker", [
        lambda: carlitz_module(F2),
        lambda: carlitz_module(F3),
        lambda: module_over_A(F2, [Poly.one(F2), Poly.one(F2)]),
        lambda: module_over_A(F3, [Poly.variable(F3), Poly.one(F3)]),
    ])
    def test_ring_map_laws(self, module_maker):
        module = module_maker()
        field = module.base_field
        rng = random.Random(field.order * 7)
        for _ in range(200):
            a = Poly(field, [rng.randrange(field.order) for _ in range(3)])
            b = Poly(field, [rng.randrange(field.order) for _ in range(3)])
            assert module.phi(a + b) == module.phi(a) + module.phi(b)
            assert module.phi(a * b) == module.phi(a) * module.phi(b)


class TestReduction:
    def test_carlitz_good_everywhere(self):
        for f in list(enumerate_monic_primes(F2, 1)) + list(enumerate_monic_primes(F2, 3)):
            red = carlitz_module(F2).reduce_mod(f)
            assert red.rank == 1

    def test_bad_reduction(self):
        M = module_over_A(F2, [Poly.one(F2), Poly.variable(F2)])
        with pytest.raises(BadReduction):
            M.reduce_mod(Poly.variable(F2))

    def test_unit_discriminant_always_good(self):
        M = module_over_A(F2, [Poly.one(F2), Poly.one(F2)])
        for d in (1, 2):
            for f in enumerate_monic_primes(F2, d):
                assert M.reduce_mod(f).rank == 2


class TestFrobenius:
    def test_carlitz_r2_at_T(self):
        data = frobenius_charpoly(carlitz_module(F2), Poly.variable(F2))
        assert data.mu == Poly.variable(F2) and data.verified

    def test_carlitz_r2_quadratic(self):
        f = poly_parse(F2, "T^2+T+1")
        data = frobenius_charpoly(carlitz_module(F2), f)
        assert data.mu == f and data.epsilon == 1

    def test_carlitz_r3_t2_plus_1(self):
        f = poly_parse(F3, "T^2+1")
        data = frobenius_charpoly(carlitz_module(F3), f)
        assert data.mu == f and data.epsilon == 1

    @pytest.mark.parametrize("field,maxdeg", [(F2, 5), (F3, 4)])
    def test_carlitz_norm_is_the_prime(self, field, maxdeg):
        C = carlitz_module(field)
        for d in range(1, maxdeg + 1):
            for f in enumerate_monic_primes(field, d):
                data = frobenius_charpoly(C, f)
                assert data.mu == f and data.verified and data.epsilon == 1

    def test_rank2_hand_case(self):
        M = module_over_A(F2, [Poly.one(F2), Poly.one(F2)])
        data = frobenius_charpoly(M, Poly.variable(F2))
        # phi_T = tau + tau^2 mod T; a = 1, mu = T satisfies Fr^2 - a Fr + mu = 0
        assert data.a == Poly.one(F2) and data.mu == Poly.variable(F2)
        assert data.verified and data.trace_bound_ok

    @pytest.mark.parametrize("field", [F2, F3])
    def test_rank2_bound_small_grid(self, field):
        one = Poly.one(field)
        T = Poly.variable(field)
        for g1 in (one, T):
            M = module_over_A(field, [g1, one])
            for d in (1, 2):
                for f in enumerate_monic_primes(field, d):
                    data = frobenius_charpoly(M, f)
                    assert data.verified
                    assert data.a.is_zero() or 2 * int(data.a.degree) <= int(f.degree)

    def test_rank_cap(self):
        """Rank 3 is refused before reduction, even at a bad prime."""
        M = module_over_A(F2, [Poly.one(F2), Poly.one(F2), Poly.variable(F2)])
        for f in ("T^2+T+1", "T"):
            with pytest.raises(PreconditionViolated):
                frobenius_charpoly(M, poly_parse(F2, f))

    @pytest.mark.parametrize("bound", [0, 1, 2])
    def test_rank_cap_in_lseries(self, bound, monkeypatch):
        """Both L-series routes refuse rank 3 before any prime is listed,
        at every degree bound, 0 (no prime at all) included."""
        def no_primes(*args):
            raise AssertionError("primes were listed for a rank-3 module")
        monkeypatch.setattr(drinfeld, "enumerate_monic_primes", no_primes)
        M = module_over_A(F2, [Poly.one(F2), Poly.one(F2), Poly.one(F2)])
        before = _kept_infos()
        for route in (lseries_coeffs, lseries_coeffs_by_expansion):
            with pytest.raises(PreconditionViolated):
                route(M, bound)
        assert _kept_infos() == before  # no kept table was asked for

    def test_prime_over_another_field(self):
        with pytest.raises(FieldMismatch):
            frobenius_charpoly(carlitz_module(F2), poly_parse(F3, "T^2+1"))


class TestLSeries:
    def test_carlitz_coefficients_are_the_index(self):
        coeffs = lseries_coeffs(carlitz_module(F2), 4)
        for d in range(5):
            for n in enumerate_monic(F2, d):
                assert coeffs.at(n) == n

    def test_c_of_one(self):
        coeffs = lseries_coeffs(module_over_A(F2, [Poly.one(F2), Poly.one(F2)]), 3)
        assert coeffs.at(Poly.one(F2)) == Poly.one(F2)

    def test_multiplicativity_random(self):
        coeffs = lseries_coeffs(module_over_A(F2, [Poly.one(F2), Poly.one(F2)]), 5)
        ns = [n for d in range(1, 3) for n in enumerate_monic(F2, d)]
        rng = random.Random(31)
        checked = 0
        while checked < 25:
            a, b = rng.choice(ns), rng.choice(ns)
            if int(a.degree) + int(b.degree) > 5 or not poly_gcd(a, b).is_one():
                continue
            assert coeffs.at(a * b) == coeffs.at(a) * coeffs.at(b)
            checked += 1

    def test_prime_power_recursion(self):
        M = module_over_A(F2, [Poly.one(F2), Poly.one(F2)])
        coeffs = lseries_coeffs(M, 4)
        T = Poly.variable(F2)
        data = frobenius_charpoly(M, T)
        assert coeffs.at(T) == data.a
        assert coeffs.at(T * T) == data.a * data.a - data.mu

    @pytest.mark.parametrize("maker", [
        lambda: carlitz_module(F2),
        lambda: carlitz_module(F3),
        lambda: module_over_A(F2, [Poly.one(F2), Poly.one(F2)]),
    ])
    def test_recursion_equals_symbolic_expansion(self, maker):
        module = maker()
        rec = lseries_coeffs(module, 4)
        exp = lseries_coeffs_by_expansion(module, 4)
        for d in range(5):
            for n in enumerate_monic(module.base_field, d):
                assert rec.at(n) == exp.at(n)

    def test_bad_primes_skipped(self):
        M = module_over_A(F2, [Poly.one(F2), Poly.variable(F2)])
        coeffs = lseries_coeffs(M, 3)
        assert Poly.variable(F2) in coeffs.skipped

    def test_carlitz_special_is_shifted_power_sum(self):
        # sum c(n) n^j = sum n^(j+1) exactly
        C = carlitz_module(F3)
        specials = lseries_special_coeffs(C, 2, 3)
        for d in range(4):
            assert specials[d] == power_sum(F3, d, 3)


# rank-2 modules phi_T = theta + g_1 tau + g_2 tau^2: (field, (g_1, g_2),
# bad primes, degree bound)
_RANK2_LSERIES = {
    "1,T-F2": (F2, ["1", "T"], ["T"], 5),
    "T,1-F3": (F3, ["T", "1"], [], 3),
}


class TestLSeriesRank2:
    """The sums read from the coefficient table against the per-monic
    definition: every monic n of degree d, with c(n) taken from the
    independent expansion route."""

    @pytest.fixture(params=sorted(_RANK2_LSERIES), scope="class")
    def case(self, request):
        field, gs, bad, dmax = _RANK2_LSERIES[request.param]
        module = module_over_A(field, [poly_parse(field, g) for g in gs])
        exp = lseries_coeffs_by_expansion(module, dmax)
        bad = [poly_parse(field, f) for f in bad]
        assert exp.skipped == tuple(bad) == lseries_coeffs(module, dmax).skipped
        assert any(not exp.at(n).is_zero() for n in enumerate_monic(field, dmax))
        return module, dmax, exp

    @pytest.mark.parametrize("j", [0, 1, 4])
    def test_special_coeffs(self, case, j):
        module, dmax, exp = case
        field = module.base_field
        want = [sum((exp.at(n) * n ** j for n in enumerate_monic(field, d)),
                    Poly.zero(field)) for d in range(dmax + 1)]
        assert lseries_special_coeffs(module, j, dmax) == want


def _polys_up_to(field, max_deg):
    """Every polynomial of degree <= max_deg, zero included."""
    for coeffs in itertools.product(range(field.order), repeat=max_deg + 1):
        yield Poly(field, coeffs)


def _frobenius_by_search(red, f):
    """Every solution of the Frobenius equation at f in the reduced module
    by exhaustive search, each checked by Horner substitution and the
    generic skew product: rank 1 every (None, mu) with deg mu <= d and
    phi_mu = tau^d, rank 2 every (a, eps f) with deg a <= d/2 and
    phi_a tau^d = tau^(2d) + phi_(eps f)."""
    field = red.base_field
    d = int(f.degree)
    fr = skew_tau(red.scalar(1), d, red.twist)
    if red.rank == 1:
        return [(None, mu) for mu in _polys_up_to(field, d) if red.phi(mu) == fr]
    sols = []
    for eps in range(1, field.order):
        mu = f.scale(eps)
        rhs = fr * fr + red.phi(mu)
        sols += [(a, mu) for a in _polys_up_to(field, d // 2)
                 if red.phi(a) * fr == rhs]
    return sols


_ORACLE_GRID = [(F2, 5), (F3, 3), (F4, 3), (F5, 2), (F9, 1)]
# The last two make the norm N(g_r) of the leading coefficient differ
# from 1: g_1 = T+1 in rank 1, and in rank 2 the constant 2, a unit other
# than 1 (F_2 has no such unit and takes 1).
_ORACLE_MODULES = {
    "carlitz": carlitz_module,
    "T,1": lambda F: module_over_A(F, [Poly.variable(F), Poly.one(F)]),
    "1,1": lambda F: module_over_A(F, [Poly.one(F), Poly.one(F)]),
    "1,T": lambda F: module_over_A(F, [Poly.one(F), Poly.variable(F)]),
    "T+1": lambda F: module_over_A(F, [poly_parse(F, "T+1")]),
    "T,2": lambda F: module_over_A(
        F, [Poly.variable(F), Poly(F, (2 if F.order > 2 else 1,))]),
}


class TestFrobeniusOracle:
    """The peel and the verified result against exhaustive search at every
    prime of the grid's degree bound."""

    @staticmethod
    def _key(sols):
        return sorted((None if a is None else a.coeffs, mu.coeffs) for a, mu in sols)

    def _solved(self, red, f):
        """The peel's solutions at f: rank 1 the preimage of tau^d, rank 2
        for every unit eps the a with phi_a tau^d = tau^(2d) + eps phi_f."""
        d = int(f.degree)
        fr = skew_tau(red.scalar(1), d, red.twist)
        if red.rank == 1:
            mu = _phi_preimage(red, fr)
            return self._key([] if mu is None else [(None, mu)])
        sols = []
        for eps in range(1, red.base_field.order):
            rhs = (skew_tau(red.scalar(1), 2 * d, red.twist)
                   + red.phi(f).scale(red.scalar(eps)))
            if all(c.is_zero() for c in rhs.coeffs[:d]):
                a = _phi_preimage(red, SkewPoly(rhs.coeffs[d:], red.twist))
                if a is not None:
                    sols.append((a, f.scale(eps)))
        return self._key(sols)

    def _check(self, module, maxdeg):
        field = module.base_field
        drinfeld._kept_frobenius.cache_clear()  # solve every prime, not read it back
        for d in range(1, maxdeg + 1):
            for f in enumerate_monic_primes(field, d):
                if (module.phi_T[-1] % f).is_zero():
                    with pytest.raises(BadReduction):
                        frobenius_charpoly(module, f)
                    continue
                red = module.reduce_mod(f)
                want = _frobenius_by_search(red, f)
                assert len(want) == 1, f  # one unit eps, so one candidate
                assert self._solved(red, f) == self._key(want), f
                (a, mu), = want
                eps = mu.leading() if mu.degree == f.degree and \
                    mu == f.scale(mu.leading()) else 0
                bound_ok = a is None or a.is_zero() or 2 * int(a.degree) <= d
                data = frobenius_charpoly(module, f)
                assert (data.a, data.mu, data.epsilon, data.verified,
                        data.trace_bound_ok) == (a, mu, eps, True, bound_ok), f

    @pytest.mark.parametrize("name", sorted(_ORACLE_MODULES))
    @pytest.mark.parametrize("field,maxdeg", _ORACLE_GRID,
                             ids=[repr(F) for F, _ in _ORACLE_GRID])
    def test_matches_search(self, field, maxdeg, name):
        self._check(_ORACLE_MODULES[name](field), maxdeg)

    def test_psi_matches_search(self):
        self._check(psi_module(), 4)

    @pytest.mark.parametrize("name", sorted(_ORACLE_MODULES))
    @pytest.mark.parametrize("field", [F3, F4, F5], ids=repr)
    def test_wrong_unit_raises(self, field, name, monkeypatch):
        """Any unit other than the norm formula's fails the exact check."""
        module = _ORACLE_MODULES[name](field)
        for d in (1, 2):
            for f in enumerate_monic_primes(field, d):
                if (module.phi_T[-1] % f).is_zero():
                    continue
                eps = frobenius_charpoly(module, f).epsilon
                for wrong in range(1, field.order):
                    if wrong != eps:
                        monkeypatch.setattr(drinfeld, "_norm_unit",
                                            lambda red, d, u=wrong: u)
                        drinfeld._kept_frobenius.cache_clear()  # drop the kept result
                        with pytest.raises(NoSolution):
                            frobenius_charpoly(module, f)
                        monkeypatch.undo()

    @pytest.mark.parametrize("name", sorted(_ORACLE_MODULES))
    @pytest.mark.parametrize("field", [F2, F3], ids=repr)
    def test_solve_at_a_foreign_prime(self, field, name):
        """Reduced at g but solved at f != g, tau^(2d) + eps phi_f need not
        vanish below tau^d and tau^d need not be some phi_mu; the peel must
        still give exactly the search's solutions, which are mostly none."""
        module = _ORACLE_MODULES[name](field)
        primes = [f for d in (1, 2, 3) for f in enumerate_monic_primes(field, d)]
        nones = 0
        for g in primes[:4]:
            if (module.phi_T[-1] % g).is_zero():
                continue
            red = module.reduce_mod(g)
            for f in primes:
                if f != g:
                    want = self._key(_frobenius_by_search(red, f))
                    assert self._solved(red, f) == want, (g, f)
                    nones += not want
        assert nones


def _kept_infos():
    """The cache counters of the kept Frobenius results and Dirichlet
    tables: equal before and after a call that neither reads nor writes
    them."""
    return drinfeld._kept_frobenius.cache_info(), drinfeld._kept_dirichlet.cache_info()


@pytest.fixture
def store():
    """The kept Frobenius results, empty before the test and after it, as
    are the kept Dirichlet tables."""
    drinfeld._kept_frobenius.cache_clear()
    drinfeld._kept_dirichlet.cache_clear()
    yield drinfeld._kept_frobenius
    drinfeld._kept_frobenius.cache_clear()
    drinfeld._kept_dirichlet.cache_clear()


class TestFrobeniusStore:
    """frobenius_charpoly keeps each verified result for the process."""

    def test_keys_separate_by_value(self, store):
        T3, T9 = Poly.variable(F3), Poly.variable(F9)
        over3 = frobenius_charpoly(carlitz_module(F3), T3)
        over9 = frobenius_charpoly(carlitz_module(F9), T9)
        assert over3 != over9 and store.cache_info().currsize == 2
        f = poly_parse(F3, "T^2+T+2")  # a prime where the three traces differ
        got = [frobenius_charpoly(_ORACLE_MODULES[name](F3), f)
               for name in ("T,1", "1,1", "T,2")]
        assert store.cache_info().currsize == 5
        assert len({(d.a, d.mu) for d in got}) == 3

    def test_equal_module_finds_the_kept_result(self, store):
        f = poly_parse(F3, "T^2+1")
        first = frobenius_charpoly(module_over_A(F3, [Poly.variable(F3),
                                                      Poly.one(F3)]), f)
        again = frobenius_charpoly(_ORACLE_MODULES["T,1"](F3), f)
        assert again is first and store.cache_info().currsize == 1

    @pytest.mark.parametrize("field,maxdeg", _ORACLE_GRID,
                             ids=[repr(F) for F, _ in _ORACLE_GRID])
    def test_second_call_equals_a_fresh_solve(self, field, maxdeg, store):
        for make in _ORACLE_MODULES.values():
            module = make(field)
            for d in range(1, maxdeg + 1):
                for f in enumerate_monic_primes(field, d):
                    if (module.phi_T[-1] % f).is_zero():
                        continue
                    frobenius_charpoly(module, f)
                    kept = frobenius_charpoly(module, f)
                    store.cache_clear()
                    assert kept == frobenius_charpoly(module, f), (module.phi_T, f)

    def test_kept_result_is_frozen(self, store):
        data = frobenius_charpoly(carlitz_module(F2), poly_parse(F2, "T^2+T+1"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.mu = Poly.one(F2)
        assert frobenius_charpoly(carlitz_module(F2),
                                  poly_parse(F2, "T^2+T+1")).mu != Poly.one(F2)

    def test_bad_reduction_raises_every_time(self, store):
        M = _ORACLE_MODULES["1,T"](F3)
        for _ in range(2):
            with pytest.raises(BadReduction):
                frobenius_charpoly(M, Poly.variable(F3))
        assert store.cache_info().currsize == 0

    def test_failure_is_never_kept(self, store, monkeypatch):
        module = _ORACLE_MODULES["T,2"](F5)
        f = poly_parse(F5, "T^2+2")
        want = drinfeld._solve_frobenius(module, f)
        wrong = 1 if want.epsilon != 1 else 2
        monkeypatch.setattr(drinfeld, "_norm_unit", lambda red, d: wrong)
        with pytest.raises(NoSolution):
            frobenius_charpoly(module, f)
        assert store.cache_info().currsize == 0
        monkeypatch.undo()
        assert frobenius_charpoly(module, f) == want

    def test_cli_output_repeats(self):
        argv = ["frobenius", "--p", "3", "--f", "T^2+1", "--tau-coeffs", "T,1"]
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert cli.main(argv) == 0
            outs.append(buf.getvalue())
        head = [out.split('"timing"')[0] for out in outs]
        assert head[0] == head[1] and '"result"' in head[0]

    def test_oracle_catches_a_wrong_kept_result(self, store, monkeypatch):
        """lseries_coeffs reads the store and the expansion oracle does not,
        so a wrong kept entry shows at exactly the prime's multiples."""
        C = carlitz_module(F2)
        T = Poly.variable(F2)
        wrong = drinfeld.FrobeniusData(1, T + Poly.one(F2), None, 1, True, True)
        monkeypatch.setattr(drinfeld, "_solve_frobenius", lambda module, f: wrong)
        assert frobenius_charpoly(C, T) is wrong  # kept by the first call
        monkeypatch.undo()
        rec = lseries_coeffs(C, 4)
        before = _kept_infos()
        exp = lseries_coeffs_by_expansion(C, 4)
        assert _kept_infos() == before  # the oracle neither reads nor writes it
        for d in range(5):
            for n in enumerate_monic(F2, d):
                assert (rec.at(n) != exp.at(n)) == (n % T).is_zero(), n


class TestDirichletStore:
    """lseries_coeffs keeps each table for the process, frozen, under
    (base field, phi_T, degree bound)."""

    def test_equal_module_finds_the_kept_table(self, store):
        first = lseries_coeffs(module_over_A(F3, [Poly.variable(F3),
                                                  Poly.one(F3)]), 3)
        assert lseries_coeffs(_ORACLE_MODULES["T,1"](F3), 3) is first
        assert drinfeld._kept_dirichlet.cache_info().currsize == 1

    def test_keys_separate_by_field_module_and_bound(self, store):
        tables = [lseries_coeffs(carlitz_module(F3), 3),
                  lseries_coeffs(carlitz_module(F9), 3),
                  lseries_coeffs(_ORACLE_MODULES["T,1"](F3), 3),
                  lseries_coeffs(carlitz_module(F3), 2)]
        assert drinfeld._kept_dirichlet.cache_info().currsize == 4
        assert len({id(t) for t in tables}) == 4
        assert [t.field for t in tables] == [F3, F9, F3, F3]
        assert tables[0].c != tables[2].c
        assert len(tables[3].c) < len(tables[0].c)

    def test_kept_table_is_frozen(self, store):
        table = lseries_coeffs(carlitz_module(F2), 3)
        T = Poly.variable(F2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.skipped = (T,)
        with pytest.raises(TypeError):
            table.c[T] = Poly.one(F2)
        assert lseries_coeffs(carlitz_module(F2), 3).at(T) == T

    def test_table_is_in_output_order(self, store):
        table = lseries_coeffs(_ORACLE_MODULES["1,T"](F3), 3)
        assert isinstance(table.skipped, tuple) and table.skipped
        keys = [(int(n.degree), n.coeffs) for n in table.c]
        assert keys == sorted(keys)

    def test_failure_is_never_kept(self, store, monkeypatch):
        module = _ORACLE_MODULES["T,2"](F5)
        want = drinfeld._build_dirichlet(module, 2)
        store.cache_clear()  # so that every prime is solved again
        # 0 is no prime's norm unit, so the first Frobenius check fails
        monkeypatch.setattr(drinfeld, "_norm_unit", lambda red, d: 0)
        for _ in range(2):
            with pytest.raises(NoSolution):
                lseries_coeffs(module, 2)
        assert drinfeld._kept_dirichlet.cache_info().currsize == 0
        monkeypatch.undo()
        assert lseries_coeffs(module, 2) == want

    def test_oracle_catches_a_corrupted_table(self, store, monkeypatch):
        """The expansion oracle builds afresh, so a wrong kept table shows
        at exactly the entries that were changed."""
        C = carlitz_module(F2)
        table = drinfeld._build_dirichlet(C, 4)
        bad = [n for n in table.c if int(n.degree) in (2, 4)][::3]
        c = dict(table.c)
        for n in bad:
            c[n] = c[n] + Poly.one(F2)
        corrupted = dataclasses.replace(table, c=c)
        monkeypatch.setattr(drinfeld, "_build_dirichlet", lambda module, bound: corrupted)
        assert lseries_coeffs(C, 4) is corrupted  # kept by the first call
        monkeypatch.undo()
        rec = lseries_coeffs(C, 4)
        kept = _kept_infos()
        exp = lseries_coeffs_by_expansion(C, 4)
        assert _kept_infos() == kept  # the oracle neither reads nor writes it
        assert bad and [n for n in rec.c if rec.at(n) != exp.at(n)] == bad
