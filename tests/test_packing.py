"""Differential tests of the packed F_p[T] kernels and the Lucas enumerators.

The packed sum ``pk_sum``, the kernels ``pk_mul`` and ``pk_pow`` (p = 2
included, where they are bit-int kernels), ``Poly *`` and ``Poly **`` are
checked against a schoolbook reference kept here and against sympy's
``Poly(..., modulus=p)``, over small and large p and lengths on both sides
of the packing threshold ``_SCHOOLBOOK_CAP`` (96).  The examples are derandomised
and bounded, so every run checks the same cases.

``lucas_subsets`` and ``lucas_residue`` are held to the plain list of
C(j, t) mod p over every t <= j, filtered by residue.
"""

from math import comb

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
        got = pk.lucas_subsets(j, p)
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
