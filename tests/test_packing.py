"""Differential tests of the packed F_p[T] kernels and the Lucas enumerators.

The packed sum ``pk_sum``, the kernels ``pk_mul`` and ``pk_pow`` (p = 2
included, where they are bit-int kernels), ``Poly *`` and ``Poly **`` are
checked against a schoolbook reference kept here and against sympy's
``Poly(..., modulus=p)``, over small and large p and lengths on both sides
of the packing threshold ``_SCHOOLBOOK_CAP`` (96).  The examples are derandomised
and bounded, so every run checks the same cases.

The digit conversions ``_pack`` and ``_unpack`` and the lane-wise
reduction ``digits_mod`` are held to the numpy code they replaced, kept
here as the reference, at every digit width and at bounds up to the top
of a digit.  ``pk_sum`` is also run with every digit full across its
renormalisation edges, where a late renormalisation carries into the next
digit.

``lucas_residue`` is held to the plain list of C(j, t) mod p over every
t <= j, unfiltered at m = 1 and filtered by residue otherwise.
"""

from math import comb

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ffzeta import _packing as pk
from ffzeta.ffpoly import _SCHOOLBOOK_CAP, FiniteField, Poly

PRIMES = (2, 3, 5, 7, 11, 131, 251, 257)
X = sympy.Symbol("x")

bounded = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _schoolbook_sum(terms, p, length):
    """Sum of c * x * T^shift with x given as coefficient lists, mod p."""
    out = [0] * length
    for c, xs, shift in terms:
        for i, v in enumerate(xs):
            if shift + i < length:
                out[shift + i] = (out[shift + i] + c * v) % p
    return _trim(out)


def _schoolbook_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] = (out[i + k] + x * y) % p
    return _trim(out)


def _sympy(cs, p):
    return sympy.Poly(list(reversed(cs)) or [0], X, modulus=p)


def _from_sympy(f, p):
    return _trim(c % p for c in reversed(f.all_coeffs()))


@st.composite
def coeff_list(draw, p, min_size, max_size):
    """Random coefficients, or all p - 1, the case that fills digits fastest."""
    n = draw(st.integers(min_size, max_size))
    if draw(st.booleans()):
        return [p - 1] * n
    return draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))


@st.composite
def sum_case(draw):
    p = draw(st.sampled_from(PRIMES))
    length = draw(st.integers(1, 80))
    n_terms = draw(st.integers(0, 12))
    terms = [(1 if p == 2 else draw(st.integers(1, p - 1)),
              draw(coeff_list(p, 1, 40)),
              draw(st.integers(0, 90)))
             for _ in range(n_terms)]
    return p, length, terms


@st.composite
def product_case(draw):
    # product lengths from 1 to well past the packing threshold
    p = draw(st.sampled_from(PRIMES))
    n = _SCHOOLBOOK_CAP + 34
    return p, draw(coeff_list(p, 1, n)), draw(coeff_list(p, 1, n))


class TestPackedSum:
    @bounded
    @given(sum_case())
    def test_matches_schoolbook_and_sympy(self, case):
        p, length, terms = case
        got = pk.pk_sum(((c, pk.pk_pack(xs, p), s) for c, xs, s in terms), p, length)
        got = _trim(pk.pk_unpack(got, length, p))
        assert got == _schoolbook_sum(terms, p, length)
        ref = _sympy([], p)
        for c, xs, s in terms:
            ref += _sympy(xs, p) * _sympy([0] * s + [c], p)
        assert got == _trim(_from_sympy(ref, p)[:length])

    @pytest.mark.parametrize("p", [7, 131, 251, 257])
    def test_renormalises_over_many_full_terms(self, p):
        # every term is (p-1) * (p-1) in each digit, and 1500 of them
        # overlap: at p = 131 and 251 that overflows a 16-bit digit every
        # few terms, so the sum is only right if it renormalises in time
        length, n = 60, 1500
        x = pk.pk_pack([p - 1] * length, p)
        got = pk.pk_unpack(pk.pk_sum(((p - 1, x, s % 3) for s in range(n)), p, length),
                           length, p)
        want = [(p - 1) ** 2 * sum(1 for s in range(n) if s % 3 <= k) % p
                for k in range(length)]
        assert tuple(got) == _trim(want)

    @pytest.mark.parametrize("p,digits,counts", [
        (3, [2, 0, 1], (65534, 65535)),
        (3, [2, 2, 2], range(65532, 65537)),
        (251, [250] * 3, range(522, 528)),
        (257, [(1 << 31) - 1] * 3, range(1, 9)),
    ], ids=["F3-2+T^2", "F3-full", "F251-full", "F257-full"])
    def test_full_digits_across_the_renormalisation_edges(self, p, digits, counts):
        # n copies of one term, each digit at x_bound, so the tracked bound
        # is the true largest digit: at these counts it tops a 16-bit (p = 3,
        # 251) or 32-bit (p = 257) digit a first time, and a second time
        # right where a bound that forgot the renormalised digit (up to p - 1)
        # would let the next add carry into the next digit.  At p = 257 the
        # terms' digits are 2^31 - 1, so that two terms fill a 32-bit digit.
        x_bound = max(digits)
        x = pk.pk_pack(digits, p)
        for n in counts:
            got = pk.pk_sum(((1, x, 0) for _ in range(n)), p, len(digits),
                            x_bound=x_bound)
            want = _trim(n * d % p for d in digits)
            assert tuple(pk.pk_unpack(got, len(digits), p)) == want, n


# ---------------------------------------------------------------------------
# digit conversions and the lane-wise reduction, against the numpy code
# they replaced
# ---------------------------------------------------------------------------

DTYPES = {bits: np.dtype(f"<u{bits // 8}") for bits in (16, 32, 64)}
# the characteristics, and the digit widths each one is packed in: every
# width at least that of its reduced format
WIDTHS = {p: [bits for bits in (16, 32, 64) if bits >= pk._bits(p)]
          for p in (3, 5, 251, 257, 65521, (1 << 31) - 1)}


def _np_pack(coeffs, bits):
    return int.from_bytes(np.asarray(coeffs, dtype=DTYPES[bits]).tobytes(), "little")


def _np_unpack(x, length, bits):
    return np.frombuffer(x.to_bytes(bits // 8 * length, "little"), DTYPES[bits]).tolist()


def _np_digits_mod(x, p, bits, bound):
    if not x:
        return 0
    dtype = DTYPES[bits]
    data = x.to_bytes(-(-x.bit_length() // bits) * dtype.itemsize, "little")
    if bound < 256:
        return int.from_bytes(data.translate(bytes(b % p for b in range(256))), "little")
    return int.from_bytes((np.frombuffer(data, dtype) % dtype.type(p)).tobytes(), "little")


@st.composite
def lane_case(draw):
    """(p, bits, bound, digits): every digit at most bound, some at it."""
    p = draw(st.sampled_from(sorted(WIDTHS)))
    bits = draw(st.sampled_from(WIDTHS[p]))
    top = (1 << bits) - 1
    bound = draw(st.one_of(st.just(top), st.just(p), st.just(255 + 256 % p),
                           st.integers(p, top)))
    bound = max(p, min(bound, top))
    digits = draw(st.lists(st.one_of(st.just(bound), st.just(0),
                                     st.integers(0, bound)), max_size=40))
    return p, bits, bound, digits


class TestLanes:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(lane_case())
    def test_digits_mod_matches_numpy(self, case):
        p, bits, bound, digits = case
        x = _np_pack(digits, bits)
        assert pk.digits_mod(x, p, bits, bound) == _np_digits_mod(x, p, bits, bound)

    @pytest.mark.parametrize("p", sorted(WIDTHS))
    def test_digits_mod_at_the_top_of_each_width(self, p):
        for bits in WIDTHS[p]:
            top = (1 << bits) - 1
            for digits in ([top] * 7, [top, 0, top - 1, p, p - 1, 256, 255]):
                x = _np_pack(digits, bits)
                assert pk.digits_mod(x, p, bits, top) == _np_pack([d % p for d in digits], bits)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.sampled_from((16, 32, 64)).flatmap(lambda bits: st.tuples(
        st.just(bits), st.lists(st.one_of(st.just((1 << bits) - 1),
                                          st.integers(0, (1 << bits) - 1)), max_size=60))))
    def test_pack_and_unpack_match_numpy(self, case):
        bits, digits = case
        x = pk._pack(digits, bits)
        assert x == _np_pack(digits, bits)
        for length in (len(digits), len(digits) + 3):
            assert pk._unpack(x, length, bits) == _np_unpack(x, length, bits)


class TestPolyProduct:
    @bounded
    @given(product_case())
    def test_matches_schoolbook_and_sympy(self, case):
        p, a, b = case
        F = FiniteField(p)
        got = (Poly(F, a) * Poly(F, b)).coeffs
        assert got == _schoolbook_mul(a, b, p)
        assert got == _from_sympy(_sympy(a, p) * _sympy(b, p), p)
        length = len(a) + len(b) - 1
        assert _trim(pk.pk_mul(a, b, p, length)) == got
        assert _trim(pk.pk_mul(a, b, p, length // 2)) == _trim(got[:length // 2])


class TestPolyPower:
    @bounded
    @given(st.sampled_from(PRIMES).flatmap(
        lambda p: st.tuples(st.just(p), coeff_list(p, 1, 8), st.integers(0, 60))))
    def test_matches_repeated_products_and_sympy(self, case):
        p, a, j = case
        F = FiniteField(p)
        got = (Poly(F, a) ** j).coeffs
        want = (1,)
        for _ in range(j):
            want = _schoolbook_mul(list(want), a, p) if want and any(a) else ()
        assert got == want
        assert got == _from_sympy(_sympy(a, p) ** j, p)
        length = (len(a) - 1) * j + 1
        assert _trim(pk.pk_unpack(pk.pk_pow(a, j, p), length, p)) == want

    @pytest.mark.parametrize("p", [3, 5, 257])
    def test_digits_near_p_match_the_schoolbook_power(self, p):
        # each base-p digit of j is one power of n by squaring; digits p - 1
        # and p - 2 take the most squarings and products, in the low and in
        # the high place, with n dense (all p - 1, every digit full) or not
        for n in ([p - 1] * 3, [1, 0, 2, 1]):
            for j in (p - 1, p - 2, p + p - 2, (p - 1) * p + p - 2, (p - 2) * p * p + 1):
                if p == 257 and j > 2 * p:
                    continue  # the schoolbook reference is too slow there
                want, x, e = [1], n, j  # square-and-multiply, schoolbook products
                while e:
                    if e & 1:
                        want = _schoolbook_mul(want, x, p)
                    e >>= 1
                    x = _schoolbook_mul(x, x, p) if e else x
                length = (len(n) - 1) * j + 1
                got = pk.pk_unpack(pk.pk_pow(n, j, p), length, p)
                assert tuple(got) == want  # n's top coefficient is a unit
                assert (Poly(FiniteField(p), n) ** j).coeffs == want


# ---------------------------------------------------------------------------
# Lucas enumerators
# ---------------------------------------------------------------------------

def _lucas_oracle(j, p):
    return [(t, c) for t, c in ((t, comb(j, t) % p) for t in range(j + 1)) if c]


# most base-p digits per prime, so that the oracle's j stays below 2401
MAX_DIGITS = {2: 11, 3: 6, 5: 4, 7: 4, 257: 2}


@st.composite
def lucas_case(draw):
    """(j, p, m): q = p^m, and j = 0 or j with an odd or an even number of
    base-p digits, one of them p - 1."""
    p = draw(st.sampled_from(sorted(MAX_DIGITS)))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, MAX_DIGITS[p]))
    digits = [draw(st.integers(0, p - 1)) for _ in range(n)]
    if digits:
        small_top = p == 257 and n == 2  # keeps j below 1028
        digits[-1] = draw(st.integers(1, 3 if small_top else p - 1))
        digits[draw(st.integers(0, n - 1 - small_top))] = p - 1
    return sum(d * p ** i for i, d in enumerate(digits)), p, m


class TestBaseDigits:
    @pytest.mark.parametrize("n,p,digits", [(0, 3, []), (5, 2, [1, 0, 1]),
                                            (26, 3, [2, 2, 2])])
    def test_digits(self, n, p, digits):
        assert pk.base_digits(n, p) == digits

    def test_negative_rejected(self):
        # divmod keeps a negative n at -1, so the digit loop would not end
        with pytest.raises(ValueError, match="n >= 0"):
            pk.base_digits(-1, 3)


class TestLucasEnumerators:
    @bounded
    @given(lucas_case())
    def test_subsets_match_the_binomial_oracle(self, case):
        j, p, _ = case
        got = pk.lucas_residue(j, p, 1, 0)
        assert got[0] == (0, 1)
        assert sorted(got) == _lucas_oracle(j, p)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(lucas_case(), st.data())
    def test_residue_matches_the_filtered_oracle(self, case, data):
        j, p, m = case
        mod = p ** m - 1
        r = data.draw(st.integers(-2 * mod, 2 * mod))
        got = pk.lucas_residue(j, p, mod, r)
        assert sorted(got) == [(t, c) for t, c in _lucas_oracle(j, p) if (t - r) % mod == 0]
        if r % mod == 0:  # the power-sum engine drops t = 0 by slicing it off
            assert got[0] == (0, 1)

    @pytest.mark.parametrize("j,p", [(0, 3), (1, 2), (2, 3), (8, 3), (26, 3),
                                     (80, 3), (242, 3), (255, 2), (511, 2)])
    def test_residue_over_every_class(self, j, p):
        # digit counts 0 to 9, with every digit p - 1 for the longer ones
        for m in (1, 2, 3):
            mod = p ** m - 1
            oracle = _lucas_oracle(j, p)
            got = [pk.lucas_residue(j, p, mod, r) for r in range(mod)]
            assert sorted(x for part in got for x in part) == oracle
            for r, part in enumerate(got):
                assert all(t % mod == r for t, _ in part)
