import random

import pytest

from ffzeta import _packing as pk
from ffzeta.errors import (
    CompositeCharacteristic,
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    ReducibleModulus,
)
from ffzeta.ffpoly import (
    FiniteField,
    FqElement,
    Poly,
    enumerate_monic,
    enumerate_monic_primes,
    is_irreducible,
    monic_by_index,
    monic_coeffs,
    monic_prime_count,
    poly_gcd,
    poly_parse,
    poly_xgcd,
    powmod,
)
from ffzeta.nonarch import LaurentSeries

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F5 = FiniteField(5)
ALL_FIELDS = (F2, F3, F4, F5)


class TestFieldMake:
    def test_prime_field(self):
        assert F2.order == 2 and F2.p == 2 and F2.m == 1

    def test_f4_default_modulus_is_the_unique_quadratic(self):
        # exhaustive: x^2+x+1 is the only monic irreducible quadratic over F_2
        quadratics = [[c0, c1, 1] for c0 in (0, 1) for c1 in (0, 1)]
        irreducible = [q for q in quadratics
                       if q[0] != 0 and not (q[0] == 1 and q[1] == 0)]
        assert irreducible == [[1, 1, 1]]
        assert F4.modulus == (1, 1, 1)

    def test_composite_characteristic_rejected(self):
        with pytest.raises(CompositeCharacteristic):
            FiniteField(4)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ReducibleModulus):
            FiniteField(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2
        for p, modulus in ((3, (2, 0, 1)), (2, (1, 0, 1, 0, 1))):
            with pytest.raises(ReducibleModulus):
                FiniteField(p, len(modulus) - 1, modulus)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatch):
            FiniteField(2, 2, (1, 1, 1, 1))

    def test_f9(self):
        F9 = FiniteField(3, 2)
        assert F9.order == 9
        w = F9.elem(3)  # encoding of w
        assert (w ** 8).value == 1


class TestFieldElements:
    def test_f4_multiplication(self):
        w = FqElement(F4, 2)
        assert (w * w).value == 3          # w^2 = w + 1
        assert (w * w * w).value == 1      # w^3 = 1

    def test_inverse(self):
        for F in ALL_FIELDS:
            for a in range(1, F.order):
                assert F.mul(a, F.inv(a)) == 1

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            FqElement(F2, 1) + FqElement(F3, 1)

    def test_addition_tables(self):
        assert F4.add(2, 3) == 1           # w + (w+1) = 1
        assert F3.add(1, 2) == 0
        assert F5.neg(2) == 3


class TestPolyArithmetic:
    def test_char2_square(self):
        T = Poly.variable(F2)
        assert ((T + Poly.one(F2)) ** 2) == poly_parse(F2, "T^2+1")

    def test_gcd(self):
        T = Poly.variable(F2)
        assert poly_gcd(T * T + T, T) == T

    def test_f3_product(self):
        a = poly_parse(F3, "T+1")
        b = poly_parse(F3, "T+2")
        assert a * b == poly_parse(F3, "T^2+2")

    def test_divmod_roundtrip_random(self):
        rng = random.Random(101)
        for F in ALL_FIELDS:
            for _ in range(1000):
                a = Poly(F, [rng.randrange(F.order) for _ in range(rng.randint(0, 12))])
                b = Poly(F, [rng.randrange(F.order) for _ in range(rng.randint(1, 7))])
                if b.is_zero():
                    continue
                q, rem = divmod(a, b)
                assert q * b + rem == a
                assert rem.degree < b.degree

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            divmod(Poly.one(F2), Poly.zero(F2))

    def test_large_power_via_lucas(self):
        # coefficient of T^k in (T+1)^j is C(j, k) mod 2
        j = 10 ** 6
        T = Poly.variable(F2)
        big = (T + Poly.one(F2)) ** j
        assert big.degree == j
        rng = random.Random(5)
        for _ in range(25):
            k = rng.randrange(j + 1)
            assert big.coefficient(k) == pk.binom_mod_p(j, k, 2)

    def test_pow_matches_repeated_multiplication(self):
        rng = random.Random(17)
        for F in ALL_FIELDS:
            a = Poly(F, [rng.randrange(F.order) for _ in range(4)] + [1])
            byrep = Poly.one(F)
            for e in range(8):
                assert a ** e == byrep
                byrep = byrep * a

    def test_xgcd_bezout(self):
        rng = random.Random(23)
        for F in (F2, F3):
            for _ in range(50):
                a = Poly(F, [rng.randrange(F.order) for _ in range(5)])
                b = Poly(F, [rng.randrange(F.order) for _ in range(4)])
                if a.is_zero() and b.is_zero():
                    continue
                g, s, t = poly_xgcd(a, b)
                assert s * a + t * b == g

    def test_eval(self):
        f = poly_parse(F3, "T^2+2T+1")
        assert f(1) == (1 + 2 + 1) % 3
        assert f(2) == (4 + 4 + 1) % 3

    def test_substitute_spread(self):
        f = poly_parse(F2, "T^2+T+1")
        assert f.substitute_spread(2) == poly_parse(F2, "T^4+T^2+1")


class TestEnumeration:
    def test_degree_zero(self):
        assert [f.to_string() for f in enumerate_monic(F2, 0)] == ["1"]

    def test_degree_two_over_f2(self):
        got = [f.to_string() for f in enumerate_monic(F2, 2)]
        assert got == ["T^2", "T^2+1", "T^2+T", "T^2+T+1"]

    @pytest.mark.parametrize("field,d", [(F2, 5), (F3, 3), (F4, 2), (F5, 2)])
    def test_counts_distinct_monic(self, field, d):
        seen = set()
        for f in enumerate_monic(field, d):
            assert f.is_monic and f.degree == d
            seen.add(f.coeffs)
        assert len(seen) == field.order ** d

    def test_partition_is_exact(self):
        rng = random.Random(7)
        for field in (F3, F4):
            d = 3
            total = field.order ** d
            cuts = sorted(rng.sample(range(1, total), 3))
            bounds = [0] + cuts + [total]
            pieces = []
            for lo, hi in zip(bounds, bounds[1:]):
                pieces.extend(enumerate_monic(field, d, lo, hi))
            assert pieces == list(enumerate_monic(field, d))

    def test_monic_by_index_matches_stream(self):
        for i, f in enumerate(enumerate_monic(F3, 2)):
            assert monic_by_index(F3, 2, i) == f
            assert monic_coeffs(F3, 2, i) == list(f.coeffs)

    def test_range_checked(self):
        for start, stop in ((0, 5), (-1, 2), (3, 2), (5, 5)):
            with pytest.raises(ValueError):
                list(enumerate_monic(F2, 2, start, stop))


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible(poly_parse(F2, "T^2+T+1"))
        assert not is_irreducible(poly_parse(F2, "T^2+1"))

    def test_degree_three_primes_over_f2(self):
        got = [f.to_string() for f in enumerate_monic_primes(F2, 3)]
        assert got == ["T^3+T+1", "T^3+T^2+1"]
        assert monic_prime_count(2, 3) == (8 - 2) // 3 == 2

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_necklace_counts(self, field):
        for d in range(1, 7):
            if field.order ** d > 20000:
                break
            stream = sum(1 for _ in enumerate_monic_primes(field, d))
            assert stream == monic_prime_count(field.order, d)

    def test_linears_are_prime(self):
        for field in ALL_FIELDS:
            assert all(is_irreducible(f) for f in enumerate_monic(field, 1))


class TestParsing:
    def test_roundtrip(self):
        for s in ("T^3+T+1", "T^2+2T+2", "1", "T"):
            F = F3
            assert poly_parse(F, poly_parse(F, s).to_string()) == poly_parse(F, s)

    def test_extension_coefficients(self):
        f = poly_parse(F4, "[01]T^2+[11]")
        assert f.coeffs == (3, 0, 2)

    def test_minus_over_f3(self):
        assert poly_parse(F3, "T-1") == poly_parse(F3, "T+2")


def test_powmod_agrees_with_pow():
    f = poly_parse(F3, "T^3+2T+1")
    a = poly_parse(F3, "T+2")
    assert powmod(a, 29, f) == (a ** 29) % f


class TestWiderFields:
    """F_8 exercises the three-plane kernel, F_9 the generic extension
    path, F_7 the packed odd-prime path; all against a table-only oracle."""

    @staticmethod
    def _table_mul(F, a, b):
        if not a.coeffs or not b.coeffs:
            return Poly.zero(F)
        out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, ai in enumerate(a.coeffs):
            for k, bk in enumerate(b.coeffs):
                out[i + k] = F.add(out[i + k], F.mul(ai, bk))
        return Poly(F, out)

    @pytest.mark.parametrize("F", [FiniteField(2, 3), FiniteField(3, 2),
                                   FiniteField(7)])
    def test_big_products_match_tables(self, F):
        rng = random.Random(F.order)
        for _ in range(25):
            a = Poly(F, [rng.randrange(F.order) for _ in range(rng.randint(1, 70))])
            b = Poly(F, [rng.randrange(F.order) for _ in range(rng.randint(1, 70))])
            assert a * b == self._table_mul(F, a, b)

    @pytest.mark.parametrize("F", [FiniteField(2, 3), FiniteField(3, 2)])
    def test_large_power_matches_square_multiply(self, F):
        rng = random.Random(F.order + 1)
        a = Poly(F, [rng.randrange(1, F.order)] + [rng.randrange(F.order)
                                                   for _ in range(2)])
        j = 137
        acc, base, e = Poly.one(F), a, j
        while e:
            if e & 1:
                acc = self._table_mul(F, acc, base)
            e >>= 1
            if e:
                base = self._table_mul(F, base, base)
        assert a ** j == acc


class TestFieldSetup:
    """Cache directory names and golden outputs depend on the default
    moduli; the element tables are checked against the definition."""

    DEFAULT_MODULI = {
        (2, 2): (1, 1, 1),
        (2, 3): (1, 1, 0, 1),
        (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
        (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
        (3, 2): (1, 0, 1),
        (3, 5): (1, 2, 0, 0, 0, 1),
        (5, 2): (2, 0, 1),
        (7, 2): (1, 0, 1),
    }

    @pytest.mark.parametrize("pm", sorted(DEFAULT_MODULI))
    def test_default_modulus_pinned(self, pm):
        assert FiniteField(*pm).modulus == self.DEFAULT_MODULI[pm]

    @staticmethod
    def _digitwise(F):
        """add, neg, sub, mul on encodings, digit by digit, reducing
        products by the monic modulus."""
        p, m, g = F.p, F.m, F.modulus

        def digits(a):
            return [a // p ** i % p for i in range(m)]

        def enc(ds):
            return sum(d % p * p ** i for i, d in enumerate(ds))

        def mul(a, b):
            prod = [0] * (2 * m - 1)
            for i, x in enumerate(digits(a)):
                for k, y in enumerate(digits(b)):
                    prod[i + k] += x * y
            for top in range(2 * m - 2, m - 1, -1):
                c = prod[top] % p
                for i in range(m + 1):
                    prod[top - m + i] -= c * g[i]
            return enc(prod[:m])

        return (lambda a, b: enc([x + y for x, y in zip(digits(a), digits(b))]),
                lambda a: enc([-x for x in digits(a)]),
                lambda a, b: enc([x - y for x, y in zip(digits(a), digits(b))]),
                mul)

    @pytest.mark.parametrize("F", [FiniteField(2, 2), FiniteField(2, 3),
                                   FiniteField(3, 2), FiniteField(5, 2),
                                   FiniteField(3, 3), FiniteField(3, 2, (2, 2, 1))],
                             ids=repr)
    def test_tables_match_digitwise_reference(self, F):
        add, neg, sub, mul = self._digitwise(F)
        for a in range(F.order):
            assert F.neg(a) == neg(a)
            if a:
                assert mul(a, F.inv(a)) == 1
            for b in range(F.order):
                assert F.add(a, b) == add(a, b)
                assert F.sub(a, b) == sub(a, b)
                assert F.mul(a, b) == mul(a, b)

    def test_equal_fields_share_tables(self):
        assert FiniteField(3, 2)._mul is FiniteField(3, 2, (1, 0, 1))._mul
        assert FiniteField(3, 2)._mul is not FiniteField(3, 2, (2, 2, 1))._mul

    @pytest.mark.parametrize("p,m", [(2, 10), (23, 2), (3, 6)])
    def test_order_above_table_cap_rejected(self, p, m):
        with pytest.raises(DegreeMismatch):
            FiniteField(p, m)


def _schoolbook(F, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] = F.add(out[i + k], F.mul(x, y))
    return out


class TestProductKernel:
    """Poly and LaurentSeries products against schoolbook multiplication,
    with lengths on both sides of the packing threshold (96) and p large
    enough that packed 16-bit digits would carry."""

    PRIMES = (2, 3, 5, 7, 11, 131, 137, 251, 257)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("la,lb", [(40, 50), (97, 3), (100, 100), (150, 200)])
    def test_poly_product(self, p, la, lb):
        F = FiniteField(p)
        rng = random.Random(1000 * p + la)
        a = [rng.randrange(p) for _ in range(la - 1)] + [rng.randrange(1, p)]
        b = [rng.randrange(p) for _ in range(lb - 1)] + [rng.randrange(1, p)]
        assert (Poly(F, a) * Poly(F, b)).coeffs == tuple(_schoolbook(F, a, b))
        top = [p - 1] * la
        assert (Poly(F, top) * Poly(F, top)).coeffs == tuple(_schoolbook(F, top, top))

    def test_long_square_at_p7(self):
        # (6 * sum_{i<n} T^i)^2 has coefficient 36 * #{i + k = t} = #{...} mod 7
        F7 = FiniteField(7)
        for n in (1800, 1900):
            a = Poly(F7, [6] * n)
            assert (a * a).coeffs == tuple(min(t + 1, 2 * n - 1 - t) % 7
                                           for t in range(2 * n - 1))

    @pytest.mark.parametrize("F", [FiniteField(p) for p in (2, 3, 7, 131, 251)]
                             + [FiniteField(2, 2), FiniteField(2, 3), FiniteField(3, 2)],
                             ids=repr)
    @pytest.mark.parametrize("window", [40, 96, 97, 200])
    def test_series_product(self, F, window):
        rng = random.Random(F.order * 7 + window)
        for _ in range(3):
            sa, sb = rng.randint(-3, 3), rng.randint(-3, 3)
            extra = rng.randint(0, 5)

            def series(start, prec):
                cs = [rng.randrange(1, F.order)] + [rng.randrange(F.order)
                                                    for _ in range(window + 10)]
                return LaurentSeries(F, start, cs, prec)

            a = series(sa, sa + window)
            b = series(sb, sb + window + extra)
            prec = min(a.prec + b.start, b.prec + a.start)
            start = a.start + b.start
            full = _schoolbook(F, a.coeffs, b.coeffs)
            assert a * b == LaurentSeries(F, start, full[:prec - start], prec)


def _long_division(F, a, b):
    """Schoolbook long division of coefficient lists: (quotient, remainder)."""
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    inv = F.inv(b[-1])
    for k in reversed(range(len(quot))):
        c = F.mul(rem[k + len(b) - 1], inv)
        quot[k] = c
        for i, x in enumerate(b):
            rem[k + i] = F.sub(rem[k + i], F.mul(c, x))
    return Poly(F, quot), Poly(F, rem[:len(b) - 1])


class TestDivision:
    """Poly.__divmod__ against schoolbook long division, over prime fields
    small and large and over extension fields, for every dividend length
    from 1 to 200 with a monic and a non-monic divisor."""

    @pytest.mark.parametrize("F", [FiniteField(p) for p in (2, 3, 5, 7, 131, 257)]
                             + [FiniteField(2, 2), FiniteField(2, 3), FiniteField(3, 2),
                                FiniteField(5, 2)],
                             ids=repr)
    def test_matches_long_division(self, F):
        rng = random.Random(F.order)
        for la in range(1, 201):
            a = Poly(F, [rng.randrange(F.order) for _ in range(la - 1)]
                     + [rng.randrange(1, F.order)])
            lb = rng.randint(1, min(la + 2, 40))
            low = [rng.randrange(F.order) for _ in range(lb - 1)]
            for lead in (1, rng.randrange(1, F.order)):
                b = Poly(F, low + [lead])
                q, r = divmod(a, b)
                assert q * b + r == a
                assert r.degree < b.degree
                assert (q, r) == _long_division(F, a.coeffs, b.coeffs)


def test_f2_to_coeffs_pads_and_cuts():
    rng = random.Random(3)
    for _ in range(200):
        x = rng.getrandbits(rng.randrange(0, 300))
        n = rng.randrange(0, 320)
        assert pk.f2_to_coeffs(x, n) == [(x >> i) & 1 for i in range(n)]
        assert pk.f2_to_coeffs(x) == [(x >> i) & 1 for i in range(x.bit_length())]


def test_f2_from_coeffs_matches_bitwise_definition():
    def by_bits(cs):
        x = 0
        for i, c in enumerate(cs):
            if c & 1:
                x |= 1 << i
        return x

    assert pk.f2_from_coeffs([]) == 0
    assert pk.f2_from_coeffs([0, 0, 0]) == 0
    assert pk.f2_from_coeffs([1, 0, 1, 0, 0]) == 0b101
    assert pk.f2_from_coeffs([3, 2, 5, 7, 0, 9, 4]) == by_bits([3, 2, 5, 7, 0, 9, 4])
    rng = random.Random(8)
    for n in (1, 2, 63, 64, 65, 1000, 10 ** 5):
        cs = [rng.randrange(6) for _ in range(n)] + [0] * rng.randrange(3)
        assert pk.f2_from_coeffs(cs) == by_bits(cs)
        assert pk.f2_from_coeffs(tuple(cs)) == by_bits(cs)
