import random
from itertools import compress

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ffzeta import _packing as pk
from ffzeta.errors import (
    CompositeCharacteristic,
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    ReducibleModulus,
    UnsupportedField,
    UsageError,
)
from ffzeta.ffpoly import (
    _SCHOOLBOOK_CAP,
    FiniteField,
    Poly,
    enumerate_monic,
    enumerate_monic_primes,
    is_irreducible,
    is_monic_prime,
    monic_by_index,
    monic_prime_count,
    poly_gcd,
    poly_parse,
    poly_xgcd,
    powmod,
)
from ffzeta.nonarch import LaurentSeries
from ffzeta.zeta import power_sum_enumerated

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

    def test_characteristic_cap(self):
        # no 64-bit digit holds one product (p-1)^2 once p >= 2^32
        for p in (1 << 32, 2 ** 61 - 1):
            with pytest.raises(UnsupportedField):
                FiniteField(p)
        F = FiniteField(4294967291)  # the largest prime below 2^32
        assert F.inv(2) * 2 % F.p == 1

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ReducibleModulus):
            FiniteField(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2
        for p, modulus in ((3, (2, 0, 1)), (2, (1, 0, 1, 0, 1))):
            with pytest.raises(ReducibleModulus):
                FiniteField(p, len(modulus) - 1, modulus)

    def test_modulus_digit_out_of_range_rejected(self):
        # 1 + T + 3T^2 must not be read as 1 + T + T^2 over F_2
        for modulus in ((1, 1, 3), (1, -1, 1)):
            with pytest.raises(UsageError, match="modulus digits"):
                FiniteField(2, 2, modulus)

    def test_negative_power_is_power_of_inverse(self):
        for F in (FiniteField(7), FiniteField(131), F4, FiniteField(3, 2)):
            for a in range(1, F.order):
                inv = F.inv(a)
                assert F.pow(a, -1) == inv
                acc = 1
                for e in range(1, 6):
                    acc = F.mul(acc, inv)
                    assert F.pow(a, -e) == acc, (F, a, e)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatch):
            FiniteField(2, 2, (1, 1, 1, 1))

    def test_f9(self):
        F9 = FiniteField(3, 2)
        assert F9.order == 9
        assert F9.pow(3, 8) == 1  # 3 encodes w, and F_9^* has order 8


class TestFieldElements:
    def test_f4_multiplication(self):
        assert F4.mul(2, 2) == 3           # w^2 = w + 1
        assert F4.mul(3, 2) == 1           # w^3 = 1

    def test_inverse(self):
        for F in ALL_FIELDS:
            for a in range(1, F.order):
                assert F.mul(a, F.inv(a)) == 1

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            Poly.one(F2) + Poly.one(F3)

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

    @pytest.mark.parametrize("field,coeffs", [(F3, [5]), (F3, [-1]), (F3, [1, 3]),
                                              (F3, [0, 2, 9, 0]), (F4, [4]),
                                              (FiniteField(257), [1, 257]),
                                              (F4, [6]), (F4, [-1])])
    def test_coefficient_outside_the_field_rejected(self, field, coeffs):
        # a coefficient is an encoding in [0, q); nothing reduces it silently
        with pytest.raises(UsageError):
            Poly(field, coeffs)
        if len(coeffs) == 1:  # the scalings check it too
            c = coeffs[0]
            for build in (lambda: Poly.one(field) * c,
                          lambda: Poly.variable(field).scale(c),
                          lambda: LaurentSeries.one(field, 4).scale(c)):
                with pytest.raises(UsageError):
                    build()

    def test_coefficients_at_the_field_bounds_accepted(self):
        for F in ALL_FIELDS:
            assert Poly(F, [0, F.order - 1, 0]).coeffs == (0, F.order - 1)

    def test_large_power_via_lucas(self):
        # coefficient of T^k in (T+1)^j is C(j, k) mod 2, which by Lucas is
        # 1 exactly when every bit of k is set in j
        j = 10 ** 6
        T = Poly.variable(F2)
        big = (T + Poly.one(F2)) ** j
        assert big.degree == j
        rng = random.Random(5)
        for _ in range(25):
            k = rng.randrange(j + 1)
            assert big.coefficient(k) == int((k & j) == k)

    def test_pow_matches_repeated_multiplication(self):
        rng = random.Random(17)
        for F in ALL_FIELDS:
            a = Poly(F, [rng.randrange(F.order) for _ in range(4)] + [1])
            byrep = Poly.one(F)
            for e in range(8):
                assert a ** e == byrep
                byrep = byrep * a

    def test_square_is_product_at_carry_prone_sizes(self):
        # packed powers once carried out of 16-bit digits for both
        for p, n in ((131, 5), (7, 1901)):
            F = FiniteField(p)
            a = Poly(F, [p - 1] * n)
            assert a ** 2 == a * a, (p, n)

    @pytest.mark.parametrize("p", [131, 251, 257])
    def test_pow_matches_repeated_products_large_p(self, p):
        # coefficients from the upper half fill packed digits fastest
        F = FiniteField(p)
        rng = random.Random(p)
        for _ in range(30):
            a = Poly(F, [rng.randrange(p // 2, p)
                         for _ in range(rng.randint(3, 6))] + [1])
            j = rng.randint(2, 40)
            byrep = Poly.one(F)
            for _ in range(j):
                byrep = byrep * a
            assert a ** j == byrep, (a, j)

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

    def test_monic_by_index_matches_stream(self):
        for i, f in enumerate(enumerate_monic(F3, 2)):
            assert monic_by_index(F3, 2, i) == f
            assert monic_by_index(F3, 2, i).coeffs == (i % 3, i // 3, 1)

    def test_range_checked(self):
        for start, stop in ((0, 5), (-1, 2), (3, 2), (5, 5)):
            with pytest.raises(ValueError):
                power_sum_enumerated(F2, 2, 1, start=start, stop=stop)


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

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 131, 257))
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(data=st.data())
    def test_matches_sympy_over_prime_fields(self, p, data):
        """Random polynomials of degree 1-10, and products of two random
        factors (squares included), against sympy's irreducibility test."""
        def draw(lo, hi):
            d = data.draw(st.integers(lo, hi))
            cs = data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
            return cs + [data.draw(st.integers(1, p - 1))]
        F = FiniteField(p)
        f = Poly(F, draw(1, 10))
        if data.draw(st.booleans()):
            g = draw(1, 5)
            h = g if data.draw(st.booleans()) else draw(1, 10 - (len(g) - 1))
            f = Poly(F, g) * Poly(F, h)
        want = sympy.Poly(list(reversed(f.coeffs)), sympy.Symbol("x"), modulus=p)
        assert is_irreducible(f) == want.is_irreducible

    @pytest.mark.parametrize("field", [F2, F3, F4], ids=repr)
    def test_kept_primes_match_ben_or_filter(self, field):
        """The kept list of every degree <= 6 against a fresh Ben-Or filter,
        read twice; and ``is_monic_prime`` read from that list."""
        for d in range(1, 7):
            want = [f for f in enumerate_monic(field, d) if is_irreducible(f)]
            assert list(enumerate_monic_primes(field, d)) == want
            assert list(enumerate_monic_primes(field, d)) == want
            if field.order ** d <= 1024:
                for f in enumerate_monic(field, d):
                    assert is_monic_prime(f) == (f in want)
                    if field.order > 2:  # a non-monic multiple
                        assert not is_monic_prime(f.scale(2))

    def test_mutating_a_result_changes_no_later_answer(self):
        first = list(enumerate_monic_primes(F3, 3))
        want = list(first)
        first.clear()
        first.append(Poly.one(F3))
        assert list(enumerate_monic_primes(F3, 3)) == want
        assert len(want) == monic_prime_count(3, 3)

    @pytest.mark.parametrize("field", [F4, FiniteField(3, 2)], ids=repr)
    def test_matches_trial_division(self, field):
        """Every monic of degree <= 4 against division by every monic of
        degree 1 to d/2."""
        for d in range(1, 5):
            divisors = [g for k in range(1, d // 2 + 1) for g in enumerate_monic(field, k)]
            for f in enumerate_monic(field, d):
                want = not any((f % g).is_zero() for g in divisors)
                assert is_irreducible(f) == want, f


def _encode_reference(F, a):
    """The digit string by its definition: m base-p digits, w^0 first."""
    digits = [(a // F.p ** k) % F.p for k in range(F.m)]
    return ("." if F.p > 10 else "").join(map(str, digits))


def _decode_reference(F, s):
    """decode_str digit by digit, as it was before the string tables, but
    with ASCII digits only (str.isdigit and int() also take "\u0663" as 3)."""
    digs = s.split(".") if F.p > 10 else s
    if len(digs) != F.m:
        raise DegreeMismatch(s)
    value = 0
    for tok in reversed(digs):
        if not (tok.isascii() and tok.isdigit()):
            raise UsageError(tok)
        d = int(tok)
        if d >= F.p:
            raise UsageError(tok)
        value = value * F.p + d
    return value


def _to_string_reference(f, var="T"):
    """Poly.to_string term by term, as it was before the bulk encoder."""
    F, terms = f.field, []
    for i in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        name = str(c) if F.m == 1 else f"[{_encode_reference(F, c)}]"
        cs = "" if (c == 1 and i > 0) else name
        terms.append((cs or "1") if i == 0 else f"{cs}{var}" if i == 1
                     else f"{cs}{var}^{i}")
    return "+".join(terms) if terms else "0"


class TestParsing:
    def test_roundtrip(self):
        for s in ("T^3+T+1", "T^2+2T+2", "1", "T", "T^10+12T"):
            F = F3
            assert poly_parse(F, poly_parse(F, s).to_string()) == poly_parse(F, s)

    def test_extension_coefficients(self):
        f = poly_parse(F4, "[01]T^2+[11]")
        assert f.coeffs == (3, 0, 2)

    def test_minus_over_f3(self):
        assert poly_parse(F3, "T-1") == poly_parse(F3, "T+2")
        assert poly_parse(F3, "-T+1-T^2") == poly_parse(F3, "2T^2+2T+1")

    @pytest.mark.parametrize("text", [
        "T+", "T++1", "+", "-", "T^2+T+1+", "T+-1", "--T",   # a sign without a term
        "T^", "T^1_0", "T^\u0663", "\u0663T", "1_0T",       # not ASCII digits
        "T+[\u0663]", "T+[\u0661\u0660]",                   # nor in brackets
    ])
    def test_malformed_terms_rejected(self, text):
        # int() reads "1_0" as 10 and the Arabic-Indic digit "\u0663" as 3,
        # so "[\u0663]" read as 3 over F_5 and "[\u0661\u0660]" as 1 over F_4
        field = {"T+[\u0663]": F5, "T+[\u0661\u0660]": F4}.get(text, F3)
        with pytest.raises(UsageError):
            poly_parse(field, text)

    @pytest.mark.parametrize("field,text", [
        (F4, "[21]T+1"),                 # 2 + 1*2 = 4 would wrap to 0
        (FiniteField(3, 2), "[25]"),     # would wrap to [22]
    ], ids=["F4", "F9"])
    def test_bracket_digit_out_of_range_rejected(self, field, text):
        with pytest.raises(UsageError, match="not below p"):
            poly_parse(field, text)

    @pytest.mark.parametrize("pm", [(11, 1), (11, 2), (13, 2), (2, 1), (3, 1),
                                    (2, 2), (2, 3), (3, 2), (257, 1)], ids=str)
    def test_every_element_round_trips(self, pm):
        # for p > 10 the digits are joined with "."; one character each below
        F = FiniteField(*pm)
        elements = list(range(F.order))
        strings = [F.encode_str(a) for a in elements]
        assert len(set(strings)) == F.order
        assert [F.decode_str(s) for s in strings] == elements
        # the field's string table holds the digit-by-digit definition
        assert strings == [_encode_reference(F, a) for a in elements]
        assert F.encode_strs(elements) == strings
        assert F.decode_strs(strings) == tuple(elements)

    def test_dotted_digits_over_f121(self):
        F121 = FiniteField(11, 2)
        assert F121.encode_str(3 + 10 * 11) == "3.10"
        assert poly_parse(F121, "[3.10]T+1").coeffs == (1, 3 + 10 * 11)
        assert poly_parse(F121, "[3.10]T+1").to_string() == "[3.10]T+[1.0]"
        with pytest.raises(UsageError, match="not below p"):
            poly_parse(F121, "[3.11]")
        with pytest.raises(DegreeMismatch):
            F121.decode_str("310")


TABLE_FIELDS = {"F2": (2, 1), "F3": (3, 1), "F4": (2, 2), "F5": (5, 1),
                "F8": (2, 3), "F9": (3, 2), "F25": (5, 2), "F121": (11, 2),
                "F257": (257, 1)}


class TestDigitStringTables:
    """A field of order <= 512 reads its digit strings from one table (the
    round trip of every element is in TestParsing); what decode_str and
    to_string write and accept is that of the digit-by-digit definition."""

    def test_sample_without_table(self):
        F = FiniteField(65537)
        assert F._strs is None  # above _TABLE_CAP: no table, str and int
        sample = [0, 1, 2, 10, 9999, 65535, 65536] + random.Random(5).sample(
            range(F.order), 200)
        for a in sample:
            assert F.decode_str(F.encode_str(a)) == a
        assert F.decode_strs(F.encode_strs(sample)) == tuple(sample)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(TABLE_FIELDS)),
           st.text(alphabet="0123456789.+-٣ ", max_size=6))
    def test_decode_str_accepts_and_rejects_as_before(self, name, s):
        F = FiniteField(*TABLE_FIELDS[name])
        try:
            want = _decode_reference(F, s)
        except ValueError:
            with pytest.raises(ValueError):
                F.decode_str(s)
        else:
            assert F.decode_str(s) == want

    def test_leading_zero_digits_over_p_above_ten(self):
        F121, F257 = FiniteField(11, 2), FiniteField(257)
        assert F121.decode_str("03.010") == 3 + 10 * 11
        assert F257.decode_str("0007") == 7
        assert F121.decode_strs(["03.10", "1.0"]) == (3 + 10 * 11, 1)
        assert FiniteField(65537).decode_strs(["0065536", "7"]) == (65536, 7)

    @pytest.mark.parametrize("pm,tokens", [
        ((3, 1), ["1", "3"]), ((3, 1), ["12"]), ((3, 1), ["+1"]),
        ((3, 1), ["١"]), ((257, 1), ["257"]), ((257, 1), ["٣"]),
        ((257, 1), ["1.0"]), ((2, 2), ["1"]), ((2, 2), ["١٠"]),
        ((11, 2), ["3.11"]), ((11, 2), ["1.0.0"]), ((11, 2), ["٣.1"]),
        ((11, 2), ["+1.0"]), ((65537, 1), ["65537"]), ((65537, 1), ["1", "+1"]),
        ((65537, 1), ["\u0663"]),
    ])
    def test_decode_strs_rejects(self, pm, tokens):
        with pytest.raises(ValueError):
            FiniteField(*pm).decode_strs(tokens)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(TABLE_FIELDS)), st.data())
    def test_to_string_matches_reference(self, name, data):
        F = FiniteField(*TABLE_FIELDS[name])
        coeffs = data.draw(st.lists(st.sampled_from([0, 1, F.order - 1])
                                    | st.integers(0, F.order - 1), max_size=9))
        f = Poly(F, coeffs)
        assert f.to_string() == _to_string_reference(f)
        assert f.to_string("u") == _to_string_reference(f, "u")
        assert f.to_digit_strings() == [_encode_reference(F, c) for c in f.coeffs]


def _encode_strs_per_element(F, coeffs):
    """FiniteField.encode_strs one table lookup per element, as it was
    before the byte translation over F_p, p < 10."""
    if F._strs is None:
        return list(map(str, coeffs))
    return list(map(F._strs.__getitem__, coeffs))


def _decode_strs_per_token(F, tokens):
    """FiniteField.decode_strs one dict lookup per token, as it was before
    the byte translation over F_p, p < 10."""
    if F._codes is not None:
        values = tuple(map(F._codes.get, tokens))
        if None not in values:
            return values
    return tuple(map(F.decode_str, tokens))


def _to_string_per_term(f, var="T"):
    """Poly.to_string with one encode_str call per term, as it was before
    the prefix tables."""
    if not f.coeffs:
        return "0"
    F = f.field
    terms = []
    for i in reversed(list(compress(range(len(f.coeffs)), f.coeffs))):
        c = f.coeffs[i]
        if c == 1 and i > 0:
            cs = ""
        else:
            cs = F.encode_str(c) if F.m == 1 else f"[{F.encode_str(c)}]"
        if i == 0:
            terms.append(cs if cs else "1")
        elif i == 1:
            terms.append(f"{cs}{var}")
        else:
            terms.append(f"{cs}{var}^{i}")
    return "+".join(terms)


CODEC_FIELDS = {"F2": (2, 1), "F3": (3, 1), "F5": (5, 1), "F7": (7, 1),
                "F4": (2, 2), "F8": (2, 3), "F9": (3, 2), "F25": (5, 2),
                "F121": (11, 2), "F257": (257, 1), "F65537": (65537, 1)}
# what a damaged cache line may hold where a digit string belongs: digits
# at or above p, two digits, NUL and the bytes beside "0" and "9", a
# non-ASCII digit, signs, dots and an empty token
BAD_TOKENS = ["7", "9", "2", "01", "10", "\x00", ":", "/", "\u0661", "\u0663",
              "+1", "-0", "1.0", "0.0.0", "", " ", "a", "\u00b9"]


def _elements(F):
    return st.sampled_from([0, 1, F.order - 1]) | st.integers(0, F.order - 1)


class TestBulkCodecs:
    """encode_strs, decode_strs and to_string, which work on all elements
    at once (a byte translation over F_2, F_3, F_5, F_7; prefix tables in
    to_string), against the per-element code they replaced."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(CODEC_FIELDS)), st.data())
    def test_encode_strs_and_to_string_match_per_element(self, name, data):
        F = FiniteField(*CODEC_FIELDS[name])
        coeffs = data.draw(st.lists(_elements(F), max_size=40))
        want = _encode_strs_per_element(F, coeffs)
        assert F.encode_strs(coeffs) == want
        assert F.encode_strs(tuple(coeffs)) == want
        assert F.decode_strs(want) == tuple(coeffs)
        f = Poly(F, coeffs)
        for var in ("T", "u"):
            assert f.to_string(var) == _to_string_per_term(f, var)
        assert repr(f) == _to_string_per_term(f)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(CODEC_FIELDS)), st.data())
    def test_decode_strs_matches_per_token(self, name, data):
        F = FiniteField(*CODEC_FIELDS[name])
        good = _elements(F).map(F.encode_str)
        tokens = data.draw(st.lists(good | st.sampled_from(BAD_TOKENS), max_size=30))
        try:
            want = _decode_strs_per_token(F, tokens)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                F.decode_strs(tokens)
        else:
            assert F.decode_strs(tokens) == want

    @pytest.mark.parametrize("name", sorted(CODEC_FIELDS))
    def test_long_rows(self, name):
        F = FiniteField(*CODEC_FIELDS[name])
        rng = random.Random(F.order)
        coeffs = [rng.randrange(F.order) for _ in range(20_000)] + [1]
        strings = F.encode_strs(coeffs)
        assert strings == _encode_strs_per_element(F, coeffs)
        assert F.decode_strs(strings) == tuple(coeffs)
        f = Poly(F, coeffs)
        assert f.to_string("u") == _to_string_per_term(f, "u")

    @pytest.mark.parametrize("pm,tokens", [
        ((7, 1), ["1", "7"]), ((3, 1), ["01"]), ((2, 1), ["1", "\x00"]),
        ((2, 1), [":"]), ((2, 1), ["\u0661"]), ((5, 1), ["4", "/"]),
    ], ids=["7-F7", "01-F3", "NUL-F2", "colon-F2", "non-ascii-F2", "slash-F5"])
    def test_byte_path_rejects(self, pm, tokens):
        # every byte but an ASCII digit below p reads as 255
        with pytest.raises(ValueError):
            FiniteField(*pm).decode_strs(tokens)


def test_powmod_agrees_with_pow():
    for F, f, a in ((F3, "T^3+2T+1", "T+2"),
                    (F2, "T^4+T+1", "T^3+T^2+T"),
                    (F4, "T^2+T+[01]", "[11]T+1"),
                    (FiniteField(3, 2), "T^3+[01]T+1", "T^2+[12]"),
                    (FiniteField(131), "T^2+3", "T^5+100T+7")):
        f, a = poly_parse(F, f), poly_parse(F, a)
        for e in (0, 1, 2, 29, 64, 255):
            assert powmod(a, e, f) == (a ** e) % f, (F, e)


class TestSumOfPowers:
    """``Poly.__pow__``, the one F_q[T] power route, against repeated
    schoolbook products: prime fields (packed and bit-int kernels), F_{2^m}
    (bit planes) and F_9, F_25 (Frobenius digits with table products)."""

    @pytest.mark.parametrize("F", [FiniteField(p) for p in (2, 3, 7, 131)]
                             + [FiniteField(2, 2), FiniteField(2, 3),
                                FiniteField(3, 2), FiniteField(5, 2)],
                             ids=repr)
    def test_matches_repeated_products(self, F):
        rng = random.Random(F.order + 7)
        p, q = F.p, F.order
        lists = [[rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]
                 for d in (1, 2, 3)]
        # j = 0; digits of j at p - 1; a zero low digit (j = p, p^2: even j
        # over F_(2^m)); and j whose powers pass the packing cap
        big = next(p ** k - 1 for k in range(1, 9) if 3 * (p ** k - 1) > _SCHOOLBOOK_CAP)
        for j in sorted(j for j in {0, 1, p - 1, p, 2 * p - 1, p * p - 1, p * p, big}
                        if j < 300):
            for cs in lists:
                power = [1]
                for _ in range(j):
                    power = _schoolbook(F, power, cs)
                assert Poly(F, cs) ** j == Poly(F, power), (j, cs)


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
        """add, neg, mul on encodings, digit by digit, reducing products
        by the monic modulus."""
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
                mul)

    @pytest.mark.parametrize("F", [FiniteField(2, 2), FiniteField(2, 3),
                                   FiniteField(3, 2), FiniteField(5, 2),
                                   FiniteField(3, 3), FiniteField(3, 2, (2, 2, 1))],
                             ids=repr)
    def test_tables_match_digitwise_reference(self, F):
        add, neg, mul = self._digitwise(F)
        for a in range(F.order):
            assert F.neg(a) == neg(a)
            if a:
                assert mul(a, F.inv(a)) == 1
            for b in range(F.order):
                assert F.add(a, b) == add(a, b)
                assert F.mul(a, b) == mul(a, b)

    @pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3), (7, 3), (19, 2)])
    def test_add_and_neg_tables_match_numpy(self, p, m):
        # the numpy construction the digit-by-digit tables replaced
        F = FiniteField(p, m)
        table = np.array([[a // p ** i % p for i in range(m)] for a in range(F.order)])
        weights = p ** np.arange(m)
        assert F._add == (((table[:, None] + table[None]) % p) @ weights).tolist()
        assert F._neg == ((-table % p) @ weights).tolist()

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
    enough that packed 16-bit digits would carry; 65537 needs 64-bit
    digits, and 4294967291 < 2^32 products summed chunk by chunk."""

    PRIMES = (2, 3, 5, 7, 11, 131, 137, 251, 257, 65537, 4294967291)

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
        for n in (1800, 1900, 4000):
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
            rem[k + i] = F.add(rem[k + i], F.neg(F.mul(c, x)))
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
