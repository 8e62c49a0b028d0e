import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffzeta.errors import (
    DivisionByZero,
    InsufficientPadicPrecision,
    NotAOneUnit,
    NotCoprime,
    ReducibleModulus,
    UsageError,
    ZeroInput,
)
from ffzeta.ffpoly import (
    FiniteField,
    Poly,
    enumerate_monic,
    enumerate_monic_primes,
    poly_parse,
)
from ffzeta.nonarch import (
    LaurentSeries,
    PadicExponent,
    SvPoint,
    VadicRing,
    bracket_infty,
    pow_sv,
    unit_pow_padic,
)

from vadic_reference import pow_sv_reference, teichmuller

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F5 = FiniteField(5)
F9 = FiniteField(3, 2)
T2 = Poly.variable(F2)
T3 = Poly.variable(F3)


class TestPadicExponent:
    def test_embed_small(self):
        y = PadicExponent.from_int(3, 5, 4)
        assert y.digits == (2, 1, 0, 0)
        assert y.value() == 5

    def test_minus_one_all_top_digits(self):
        y = PadicExponent.from_int(2, -1, 5)
        assert y.digits == (1, 1, 1, 1, 1)

    def test_negation_roundtrip(self):
        y = PadicExponent.from_int(3, 17, 6)
        assert (-(-y)) == y

    @pytest.mark.parametrize("digits", [[3, 1, 1, 1, 1], [1, -1]])
    def test_digit_out_of_range_rejected(self, digits):
        # 3 would otherwise run as 3 % 2 = 1, i.e. a different exponent
        with pytest.raises(UsageError):
            PadicExponent(2, digits)

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
    def test_require_precision_boundary(self, p, n):
        y = PadicExponent.from_int(p, -1, n)
        y.require_precision(p ** n)
        with pytest.raises(InsufficientPadicPrecision):
            y.require_precision(p ** n + 1)


class TestBracket:
    def test_t_itself(self):
        assert bracket_infty(T2, 8) == LaurentSeries(F2, 0, [1], 8)

    def test_t_plus_one(self):
        assert bracket_infty(T2 + Poly.one(F2), 8) == LaurentSeries(F2, 0, [1, 1], 8)

    def test_t2_plus_t(self):
        assert bracket_infty(T2 * T2 + T2, 8) == LaurentSeries(F2, 0, [1, 1], 8)

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            bracket_infty(Poly.zero(F2), 8)

    def test_monic_brackets_are_one_units(self):
        rng = random.Random(11)
        for field in (F2, F3):
            for _ in range(500):
                d = rng.randint(0, 5)
                idx = rng.randrange(field.order ** d)
                from ffzeta.ffpoly import monic_by_index
                n = monic_by_index(field, d, idx)
                u = bracket_infty(n, 12)
                assert u.is_one_unit()


class TestUnitPowPadic:
    def test_square_char2(self):
        u = LaurentSeries(F2, 0, [1, 1], 8)
        y = PadicExponent.from_int(2, 2, 4)
        assert unit_pow_padic(u, y, 8) == LaurentSeries(F2, 0, [1, 0, 1], 8)

    def test_inverse_geometric(self):
        u = LaurentSeries(F2, 0, [1, 1], 4)
        y = PadicExponent.from_int(2, -1, 2)  # p^N = 4 >= M = 4
        r = unit_pow_padic(u, y, 4)
        assert r == LaurentSeries(F2, 0, [1, 1, 1, 1], 4)
        assert (r * u).truncate(4).is_one_unit()
        assert (r * u).truncate(4) == LaurentSeries(F2, 0, [1], 4)

    def test_one_to_anything(self):
        one = LaurentSeries.one(F3, 10)
        y = PadicExponent.from_int(3, 7 ** 5, 6)
        assert unit_pow_padic(one, y, 10) == one

    def test_requires_one_unit(self):
        with pytest.raises(NotAOneUnit):
            unit_pow_padic(LaurentSeries(F2, 1, [1], 8),
                           PadicExponent.from_int(2, 1, 4), 8)

    def test_requires_enough_digits(self):
        u = LaurentSeries(F2, 0, [1, 1], 32)
        with pytest.raises(InsufficientPadicPrecision):
            unit_pow_padic(u, PadicExponent.from_int(2, 1, 3), 32)

    def test_integer_consistency(self):
        # u^embed(j) equals plain repeated multiplication, j up to 1000
        rng = random.Random(42)
        for field in (F2, F3):
            M = 24
            n_digits = 1
            while field.p ** n_digits < 1001 or field.p ** n_digits < M:
                n_digits += 1
            for _ in range(25):
                coeffs = [1] + [rng.randrange(field.order) for _ in range(M - 1)]
                u = LaurentSeries(field, 0, coeffs, M)
                j = rng.randint(0, 1000)
                fast = unit_pow_padic(u, PadicExponent.from_int(field.p, j, n_digits), M)
                slow = LaurentSeries.one(field, M)
                for _ in range(j):
                    slow = (slow * u).truncate(M)
                assert fast.agrees_with(slow)


class TestLaurentSeries:
    def test_mul_precision_min_rule(self):
        a = LaurentSeries(F2, 1, [1], 5)    # pi + O(pi^5)
        b = LaurentSeries(F2, 2, [1], 9)    # pi^2 + O(pi^9)
        c = a * b
        assert c.start == 3 and c.prec == min(5 + 2, 9 + 1)

    def test_add_keeps_smaller_precision(self):
        a = LaurentSeries(F2, 0, [1], 5)
        b = LaurentSeries(F2, 0, [1], 9)
        assert (a + b).prec == 5

    def test_inverse(self):
        rng = random.Random(3)
        for field in (F2, F3):
            for _ in range(40):
                s = rng.randint(-3, 3)
                coeffs = [1 + rng.randrange(field.order - 1)] + \
                    [rng.randrange(field.order) for _ in range(9)]
                a = LaurentSeries(field, s, coeffs, s + 10)
                prod = a * a.inverse()
                assert prod.agrees_with(LaurentSeries.one(field, prod.prec))

    def test_power_matches_repeated_products(self):
        # the window and the min-rule precision both match e - 1 products
        rng = random.Random(11)
        for field in (F2, F3, F4, F9):
            for start in (-2, 0, 1):
                coeffs = [rng.randrange(1, field.order)] + \
                    [rng.randrange(field.order) for _ in range(11)]
                a = LaurentSeries(field, start, coeffs, start + 12)
                acc = LaurentSeries.one(field, a.prec)
                for e in range(10):
                    assert a ** e == acc, (field, start, e)
                    acc = acc * a

    def test_zero_to_precision_flows(self):
        z = LaurentSeries.zero_to_precision(F2, 6)
        a = LaurentSeries(F2, 0, [1, 1], 6)
        assert (z + a) == a
        assert (z * a).coeffs == ()
        assert (z * a).prec == 6  # bound moves with the unit's valuation


def _add_per_coefficient(a, b):
    """LaurentSeries.__add__ one FiniteField.add per coefficient, as it was
    before the windows were added as polynomials."""
    F = a.field
    prec = min(a.prec, b.prec)
    if not a.coeffs and not b.coeffs:
        return LaurentSeries.zero_to_precision(F, prec)
    start = min(min(x.start for x in (a, b) if x.coeffs), prec)
    return LaurentSeries(F, start, [F.add(a.coefficient(k), b.coefficient(k))
                                    for k in range(start, prec)], prec)


def _inverse_per_coefficient(a):
    """LaurentSeries.inverse by the recurrence out_k = -u_0^(-1) (sum of
    u_i out_(k-i) for i >= 1), as it was before it became one floor
    division of reversed polynomials."""
    F, s = a.field, a.start
    rel = a.prec - s
    u = list(a.coeffs) + [0] * (rel - len(a.coeffs))
    inv0 = F.inv(u[0])
    out = [inv0] + [0] * (rel - 1)
    for k in range(1, rel):
        acc = 0
        for i in range(1, min(k, len(a.coeffs) - 1) + 1):
            acc = F.add(acc, F.mul(u[i], out[k - i]))
        out[k] = F.neg(F.mul(inv0, acc))
    return LaurentSeries(F, -s, out, rel - s)


# F_65537 has no tables, so Poly takes its residue paths there
WINDOW_FIELDS = {"F2": F2, "F3": F3, "F4": F4, "F9": F9, "F65537": FiniteField(65537)}


@st.composite
def _series(draw, field, min_len=0):
    """A series from raw input: a start of either sign, leading zeros that
    the constructor trims, and a precision that may cut the window short or
    leave it zero to precision."""
    element = st.one_of(st.just(0), st.integers(0, field.order - 1))
    start = draw(st.integers(-6, 6))
    coeffs = [0] * draw(st.integers(0, 3)) + draw(st.lists(element, min_size=min_len,
                                                           max_size=20))
    return LaurentSeries(field, start, coeffs, start + draw(st.integers(-2, 26)))


def _key(x):
    return x.start, x.coeffs, x.prec


class TestWindowArithmetic:
    """Laurent arithmetic on Poly windows against the per-coefficient code
    it replaced."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.sampled_from(sorted(WINDOW_FIELDS)), st.data())
    def test_add_matches_per_coefficient(self, name, data):
        F = WINDOW_FIELDS[name]
        a, b = data.draw(_series(F), label="a"), data.draw(_series(F), label="b")
        c = data.draw(st.integers(0, F.order - 1), label="c")
        assert _key(a + b) == _key(_add_per_coefficient(a, b))
        minus_b = LaurentSeries(F, b.start, [F.neg(x) for x in b.coeffs], b.prec)
        assert _key(-b) == _key(minus_b)
        assert _key(a - b) == _key(_add_per_coefficient(a, minus_b))
        scaled = LaurentSeries(F, a.start, [F.mul(c, x) for x in a.coeffs], a.prec)
        assert _key(a.scale(c)) == _key(scaled)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.sampled_from(sorted(WINDOW_FIELDS)), st.data())
    def test_inverse_matches_per_coefficient(self, name, data):
        F = WINDOW_FIELDS[name]
        u = data.draw(_series(F, min_len=1), label="u")
        if not u.coeffs:
            with pytest.raises(DivisionByZero):
                u.inverse()
            return
        inv = u.inverse()
        assert _key(inv) == _key(_inverse_per_coefficient(u))
        prod = u * inv
        assert prod.agrees_with(LaurentSeries.one(F, prod.prec))

    @pytest.mark.parametrize("name", sorted(WINDOW_FIELDS))
    def test_inverse_of_zero_to_precision_raises(self, name):
        F = WINDOW_FIELDS[name]
        for zero in (LaurentSeries.zero_to_precision(F, 5),
                     LaurentSeries(F, 3, [0, 0], 7), LaurentSeries(F, 4, [1, 1], 4)):
            assert zero.coeffs == ()
            with pytest.raises(DivisionByZero):
                zero.inverse()


class TestTeichmuller:
    def test_residue_field_f2(self):
        ring = VadicRing(T2, 4)
        om = teichmuller(ring, T2 + Poly.one(F2))
        assert om.rep == Poly.one(F2)

    def test_constants_fixed_f3(self):
        ring = VadicRing(T3, 3)
        assert teichmuller(ring, Poly.constant(F3, 2)).rep == Poly.constant(F3, 2)

    def test_quadratic_prime(self):
        f = poly_parse(F2, "T^2+T+1")
        ring = VadicRing(f, 3)
        om = teichmuller(ring, T2)
        assert (om.rep % f) == (T2 % f)
        assert (om ** 3) == ring.elem(Poly.one(F2))

    def test_uniqueness_brute_force(self):
        # omega is the only element with omega = n mod f and omega^q = omega
        for field, fstr in ((F2, "T"), (F3, "T+1")):
            f = poly_parse(field, fstr)
            for M in (1, 2, 3):
                ring = VadicRing(f, M)
                q = ring.residue_order
                for n0 in range(1, field.order):
                    n = Poly.constant(field, n0)
                    om = teichmuller(ring, n)
                    hits = []
                    for encoding in range(field.order ** M):
                        digs = []
                        v = encoding
                        for _ in range(M):
                            v, rdig = divmod(v, field.order)
                            digs.append(rdig)
                        x = ring.elem(Poly(field, digs))
                        if (x.rep % f) == (n % f) and (x ** q) == x:
                            hits.append(x)
                    assert hits == [om]

    def test_not_coprime(self):
        ring = VadicRing(T2, 3)
        with pytest.raises(NotCoprime):
            teichmuller(ring, T2)


class TestPowSv:
    def test_integer_zero(self):
        ring = VadicRing(T2, 4)
        s = SvPoint.from_int(0, ring.residue_order - 1, 2, 3)
        assert pow_sv(T2 + Poly.one(F2), s, ring) == ring.elem(Poly.one(F2))

    def test_integer_cube(self):
        ring = VadicRing(T2, 4)
        s = SvPoint.from_int(3, ring.residue_order - 1, 2, 2)
        got = pow_sv(T2 + Poly.one(F2), s, ring)
        assert got.rep == poly_parse(F2, "T^3+T^2+T+1")

    def test_one_to_anything(self):
        ring = VadicRing(T3, 5)
        s = SvPoint.from_int(-7, ring.residue_order - 1, 3, 5)
        assert pow_sv(Poly.one(F3), s, ring) == ring.elem(Poly.one(F3))

    def test_integer_image_exactness(self):
        f = poly_parse(F3, "T^2+1")
        ring = VadicRing(f, 3)
        n_digits = 2  # 3^2 = 9 >= M = 3
        for j in range(0, 20):
            s = SvPoint.from_int(j, ring.residue_order - 1, 3, n_digits)
            for n in (T3 + Poly.one(F3), poly_parse(F3, "T^2+T+2")):
                assert pow_sv(n, s, ring) == ring.elem(n ** j)

    def test_homomorphism(self):
        rng = random.Random(9)
        f = T3
        ring = VadicRing(f, 4)
        for _ in range(30):
            s = SvPoint(rng.randrange(ring.residue_order - 1),
                        PadicExponent.from_int(3, rng.randrange(81), 4),
                        ring.residue_order - 1)
            a = Poly(F3, [1 + rng.randrange(2)] + [rng.randrange(3) for _ in range(3)])
            b = Poly(F3, [1 + rng.randrange(2)] + [rng.randrange(3) for _ in range(2)])
            assert pow_sv(a * b, s, ring) == pow_sv(a, s, ring) * pow_sv(b, s, ring)

    def test_precision_contract(self):
        ring = VadicRing(T2, 16)
        s = SvPoint.from_int(3, 1, 2, 2)  # 2^2 = 4 < 16
        with pytest.raises(InsufficientPadicPrecision):
            pow_sv(T2 + Poly.one(F2), s, ring)

    def test_not_coprime_and_unit_order(self):
        f = poly_parse(F3, "T^2+1")
        ring = VadicRing(f, 4)
        s = SvPoint.from_int(5, ring.residue_order - 1, 3, 2)
        with pytest.raises(NotCoprime):
            pow_sv(f * (T3 + Poly.one(F3)), s, ring)
        with pytest.raises(ValueError):
            pow_sv(T3, SvPoint.from_int(5, 2, 3, 2), ring)


def _prime(field, d):
    return next(iter(enumerate_monic_primes(field, d)))


# (field, prime, M, digits of the p-adic coordinate); every digit count is
# well beyond the ceil(log_p M) the window needs
REFERENCE_PLACES = {
    "F2-deg2": (F2, _prime(F2, 2), 12, 40),
    "F2-deg3": (F2, _prime(F2, 3), 8, 30),
    "F3-T^2+1": (F3, poly_parse(F3, "T^2+1"), 10, 25),
    "F3-T^2+1-40digits": (F3, poly_parse(F3, "T^2+1"), 16, 40),
    "F3-deg3": (F3, _prime(F3, 3), 5, 20),
    "F4-deg2": (F4, _prime(F4, 2), 8, 30),
    "F4-deg3": (F4, _prime(F4, 3), 4, 20),
    "F5-deg2": (F5, _prime(F5, 2), 6, 16),
    "F5-deg3": (F5, _prime(F5, 3), 3, 12),
    "F9-deg2": (F9, _prime(F9, 2), 5, 14),
    "F9-deg3": (F9, _prime(F9, 3), 2, 10),
}


class TestPowSvReference:
    """pow_sv against its definition at primes of degree 2 and 3."""

    @pytest.mark.parametrize("place", list(REFERENCE_PLACES))
    def test_matches_definition(self, place):
        field, f, M, n_digits = REFERENCE_PLACES[place]
        ring = VadicRing(f, M)
        Q = ring.residue_order
        rng = random.Random(place)
        # several exponents on one ring, over monics whose residues mod f
        # repeat: n^g must depend on n itself, not only on n mod f
        exps = [SvPoint(rng.randrange(Q - 1),
                        PadicExponent(field.p, [rng.randrange(field.p)
                                                for _ in range(n_digits)]),
                        Q - 1)
                for _ in range(4)]
        d = int(f.degree)
        low = [n for k in range(d + 1) for n in enumerate_monic(field, k)
               if not (n % f).is_zero()]
        top = [n for n in enumerate_monic(field, d + 1) if not (n % f).is_zero()]
        monics = rng.sample(low, min(len(low), 8))
        for n in rng.sample(top, min(len(top), 8)):
            monics += [n, n + f.scale(rng.randrange(1, field.order))]
        for s in exps:
            assert 0 <= ring.integer_exponent(s) < ring.unit_exponent
            for n in monics:
                assert pow_sv(n, s, ring) == pow_sv_reference(n, s, ring), (n, s)
        residues = {(n % f).coeffs for n in monics}
        assert len(residues) < len(monics)


class TestPrecisionMonotonicity:
    def test_bracket_pow_windows_agree(self):
        rng = random.Random(21)
        for field in (F2, F3):
            for _ in range(20):
                d = rng.randint(1, 4)
                from ffzeta.ffpoly import monic_by_index
                n = monic_by_index(field, d, rng.randrange(field.order ** d))
                y = PadicExponent.from_int(field.p, rng.randrange(256), 8)
                small = unit_pow_padic(bracket_infty(n, 16), y, 16)
                large = unit_pow_padic(bracket_infty(n, 48), y, 48)
                assert small.agrees_with(large)

    def test_vadic_valuation_stable(self):
        f = T3
        n = poly_parse(F3, "T^2+T+1")
        for j in (1, 4, 9):
            v_small = (VadicRing(f, 8).elem(n ** j)).valuation
            v_large = (VadicRing(f, 32).elem(n ** j)).valuation
            assert v_small == v_large


class TestFrobeniusTable:
    """The q-power of A/(f^M) from the row table (T^i)^q against ``**``."""

    @pytest.mark.parametrize("field", [F2, F3, F4, F9], ids=repr)
    @pytest.mark.parametrize("precision", [1, 2, 5])
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(data=st.data())
    def test_matches_pow(self, field, precision, data):
        d = data.draw(st.integers(1, 3))
        primes = list(enumerate_monic_primes(field, d))
        f = primes[data.draw(st.integers(0, len(primes) - 1))]
        ring = VadicRing(f, precision)
        n = d * precision
        x = ring.elem(Poly(field, data.draw(st.lists(
            st.integers(0, field.order - 1), min_size=n, max_size=n))))
        assert x.frobenius() == x ** field.order

    def test_uniformizer_t(self):
        """f = T, where A/(T^M) reduces by truncation."""
        ring = VadicRing(T3, 7)
        for x in enumerate_monic(F3, 3):
            assert ring.elem(x).frobenius() == ring.elem(x) ** 3


class TestPrimeCheck:
    def test_kept_prime_list_still_rejects_reducible(self):
        """After the F_2 degree-2 list is built the ring check reads it;
        T^2+1 = (T+1)^2 is not in it."""
        assert [f.to_string() for f in enumerate_monic_primes(F2, 2)] == ["T^2+T+1"]
        with pytest.raises(ReducibleModulus):
            VadicRing(poly_parse(F2, "T^2+1"), 1)
        with pytest.raises(ReducibleModulus):
            VadicRing(poly_parse(F3, "2T+1"), 1)
        assert VadicRing(poly_parse(F2, "T^2+T+1"), 1).deg == 2
