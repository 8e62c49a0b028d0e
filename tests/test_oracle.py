"""The batched enumeration oracle against a slow per-monic reference.

The reference lists the monics one at a time and raises each to the power
j by square-and-multiply with plain ``Poly`` products; the multiples of f
are those with ``n % f`` zero.  The oracle must agree with it on every
field kind (F_2, F_p with small, medium and 32-bit p, F_(2^m), F_(p^m)),
on index sub-ranges cut anywhere, across row-chunk boundaries, and on
empty ranges; and it must keep answering when the packed kernels of the
fast route are broken.  numpy is the oracle's alone, and over F_2 the
oracle works on Python ints: a request that does not enumerate, or
enumerates over F_2 only, runs without importing it.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffzeta import _packing, ffpoly, oracle
from ffzeta.errors import FieldMismatch, PreconditionViolated
from ffzeta.ffpoly import FiniteField, Poly, monic_by_index, poly_parse
from ffzeta.oracle import (
    coprime_power_sum,
    coprime_power_sums,
    multiples_power_sum,
    power_sum_enumerated,
)
from ffzeta.zeta import power_sum

F2, F3, F4, F5 = FiniteField(2), FiniteField(3), FiniteField(2, 2), FiniteField(5)
F8, F9 = FiniteField(2, 3), FiniteField(3, 2)
F257 = FiniteField(257)
FBIG = FiniteField(4294967291)  # the largest prime below 2^32
FIELDS = [F2, F3, F4, F5, F8, F9, F257, FBIG]


def _power(n: Poly, j: int) -> Poly:
    """n^j by square-and-multiply with Poly products (not Poly.__pow__)."""
    acc, x = Poly.one(n.field), n
    while j:
        if j & 1:
            acc = acc * x
        j >>= 1
        if j:
            x = x * x
    return acc


def _reference(field, d, j, start, stop, divisors=()):
    """(sum of n^j, [sum over the multiples of each f]) over the monics of
    degree d with index in [start, stop), one monic at a time."""
    total = Poly.zero(field)
    multiples = [Poly.zero(field) for _ in divisors]
    for i in range(start, stop):
        n = monic_by_index(field, d, i)
        nj = _power(n, j)
        total = total + nj
        for k, f in enumerate(divisors):
            if (n % f).is_zero():
                multiples[k] = multiples[k] + nj
    return total, multiples


def _oracle(field, d, j, start, stop, divisors=()):
    total, *multiples = oracle._block_sums(field, d, j, divisors, start=start, stop=stop)
    return oracle._poly(field, total), [oracle._poly(field, s) for s in multiples]


@st.composite
def _monic(draw, field, degree):
    low = draw(st.lists(st.integers(0, field.order - 1),
                        min_size=degree, max_size=degree))
    return Poly(field, low + [1])


@st.composite
def _cases(draw):
    field = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(0, 4))
    j = draw(st.integers(0, 240 // max(d, 1) if field.m == 1 else 60 // max(d, 1)))
    total = field.order ** d
    start = draw(st.integers(0, total))
    stop = draw(st.integers(start, min(total, start + 60)))
    divisors = draw(st.lists(st.integers(0, d + 1).flatmap(lambda k: _monic(field, k)),
                             max_size=3))
    chunk = draw(st.sampled_from([1, 7, 64, 1 << 14, oracle._CHUNK]))
    return field, d, j, start, stop, divisors, chunk


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=_cases())
@example(case=(FBIG, 2, 3, FBIG.order ** 2 - 9, FBIG.order ** 2,
               [poly_parse(FBIG, "T+1"), poly_parse(FBIG, "T^2+T")], 2))
@example(case=(F9, 3, 7, 700, 729, [poly_parse(F9, "T^2+[01]")], 22))
@example(case=(F5, 3, 11, 0, 125, [poly_parse(F5, "T+2"), Poly.one(F5)], 64))
def test_block_matches_per_monic_reference(case):
    _check_against_reference(case)


def _check_against_reference(case):
    field, d, j, start, stop, divisors, chunk = case
    want = _reference(field, d, j, start, stop, divisors)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK", chunk)
        assert _oracle(field, d, j, start, stop, divisors) == want
        if (start, stop) == (0, field.order ** d):  # the coprime masks
            total, multiples = want
            assert coprime_power_sums(field, d, j, divisors) == [total - m for m in multiples]


@st.composite
def _f2_cases(draw):
    # the lane kernel of F_2: divisors up to two degrees above the width
    # d*j + 1 of n^j, and chunks from one row to the shipped size
    d = draw(st.integers(0, 7))
    j = draw(st.integers(0, 70))
    start = draw(st.integers(0, 2 ** d))
    stop = draw(st.integers(start, min(2 ** d, start + 40)))
    divisors = draw(st.lists(st.integers(0, d * j + 3).flatmap(lambda k: _monic(F2, k)),
                             max_size=3))
    chunk = draw(st.sampled_from([1, 8, 100, 1000, oracle._CHUNK]))
    return F2, d, j, start, stop, divisors, chunk


def _f2(text):
    return poly_parse(F2, text)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(case=_f2_cases())
@example(case=(F2, 0, 0, 0, 1, [Poly.one(F2)], oracle._CHUNK))  # T^0 mod 1 is 0
@example(case=(F2, 3, 5, 0, 8, [Poly.one(F2), _f2("T")], oracle._CHUNK))
@example(case=(F2, 2, 1, 0, 4, [_f2("T^5+T^2+1"), _f2("T^3")], oracle._CHUNK))
@example(case=(F2, 0, 9, 0, 1, [_f2("T+1")], 1))
@example(case=(F2, 4, 0, 0, 16, [_f2("T+1"), _f2("T^2+T+1")], 8))
@example(case=(F2, 5, 7, 3, 4, [_f2("T+1")], oracle._CHUNK))  # one row
@example(case=(F2, 6, 11, 5, 60, [_f2("T^2+T+1")], 1000))  # odd, across chunks
@example(case=(F2, 7, 9, 1, 128, [_f2("T^3+T+1")], 100))
def test_f2_lanes_match_per_monic_reference(case):
    _check_against_reference(case)


@pytest.mark.parametrize("field", FIELDS[:6], ids=repr)
def test_public_sums_over_whole_degrees(field):
    # every monic f of degree <= 2 that the grid meets, including f = 1
    fs = [Poly.one(field), poly_parse(field, "T"), poly_parse(field, "T+1"),
          poly_parse(field, "T^2+1")]
    for d in range(4 if field.order <= 5 else 3):
        for j in (0, 1, field.p, 2 * field.p + 1, 23):
            full = field.order ** d
            total, multiples = _reference(field, d, j, 0, full, fs)
            assert power_sum_enumerated(field, d, j) == total
            assert coprime_power_sums(field, d, j, fs) == [total - m for m in multiples]
            for f, m in zip(fs, multiples):
                assert multiples_power_sum(field, d, j, f) == m
                assert coprime_power_sum(field, d, j, f) == total - m


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 16, 100, 1000])
def test_chunk_boundaries_do_not_move_the_sums(chunk, monkeypatch):
    # chunk is counted in entries of n^j: width d*j + 1 = 7 here, so the
    # rows split 1, 1, 1, 1, 2, 14 and 142 at a time, and 27 or 81 rows
    # cut anywhere; over F_2 a chunk holds the largest power of 2 of rows
    # whose byte-wide fields fit (at least one), so the 32 and 64 rows
    # split 1, 4 or 32 at a time, and the ranges start and end inside
    cases = [(F3, 3, 2, 0, 27), (F3, 3, 2, 5, 26), (F9, 2, 3, 3, 80),
             (F4, 3, 2, 1, 63), (F257, 1, 6, 0, 257), (F2, 5, 3, 0, 32),
             (F2, 5, 3, 1, 31), (F2, 6, 2, 7, 64), (F2, 6, 2, 13, 14)]
    want = [_oracle(*c, [poly_parse(c[0], "T+1")]) for c in cases]
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    assert [_oracle(*c, [poly_parse(c[0], "T+1")]) for c in cases] == want


@pytest.mark.parametrize("field,d,j", [(F4, 6, 63), (F4, 5, 1023), (F2, 10, 1023)])
def test_blocks_wider_than_a_chunk_match_the_engine(field, d, j):
    # 1.55 M, 5.2 M and 10.5 M entries of n^j: 12 and 41 chunks at the
    # shipped chunk size, and over F_2 128 chunks of 8 rows; S_6(63) over
    # F_4 is zero (6 > B = 3), the other two are not
    assert field.order ** d * (d * j + 1) > 10 * oracle._CHUNK
    assert power_sum_enumerated(field, d, j) == power_sum(field, d, j)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_empty_ranges_sum_to_zero(field):
    f = poly_parse(field, "T")
    for d, at in ((0, 0), (0, 1), (1, 0), (1, field.order), (2, 3)):
        total, multiples = _oracle(field, d, 5, at, at, [f])
        assert total.is_zero() and multiples == [Poly.zero(field)]


def test_large_p_sub_ranges():
    # q^2 > 2^62: the indices of the degree-2 monics are Python ints
    for d, start in ((1, 0), (1, FBIG.order - 40), (2, FBIG.order ** 2 - 30),
                     (2, 123456789 * FBIG.order + 7)):
        for j in (1, 2, 3, 97):
            f = poly_parse(FBIG, "T+5")
            assert _oracle(FBIG, d, j, start, start + 30, [f]) == \
                _reference(FBIG, d, j, start, start + 30, [f])


def test_oracles_answer_without_the_packed_kernels(monkeypatch):
    cases = [(F2, 4, 37), (F3, 3, 20), (F4, 2, 9), (F5, 2, 14), (F9, 2, 10),
             (F257, 1, 300)]
    want = {c: power_sum(*c) for c in cases}  # the fast route, before the patch
    divisor = {c: poly_parse(c[0], "T+1") for c in cases}
    multiples = {c: _reference(*c, 0, c[0].order ** c[1], [divisor[c]])[1][0]
                 for c in cases}

    def broken(*args, **kwargs):
        raise AssertionError("a packed kernel ran")
    monkeypatch.setattr(_packing, "pk_pow", broken)
    monkeypatch.setattr(_packing, "pk_sum", broken)
    with pytest.raises(AssertionError, match="packed kernel"):
        Poly.variable(F3) ** 5  # the patch reaches Poly's own power
    monkeypatch.setattr(ffpoly.Poly, "__pow__", broken)
    for c in cases:
        f = divisor[c]
        assert power_sum_enumerated(*c) == want[c]
        assert multiples_power_sum(*c, f) == multiples[c]
        assert coprime_power_sum(*c, f) == want[c] - multiples[c]
        assert coprime_power_sums(*c, [f, f]) == [want[c] - multiples[c]] * 2


def test_bad_arguments_are_refused():
    with pytest.raises(PreconditionViolated):
        coprime_power_sum(F3, 2, 1, poly_parse(F3, "2T+1"))
    with pytest.raises(FieldMismatch):
        multiples_power_sum(F3, 2, 1, poly_parse(F2, "T"))
    for d, j in ((-1, 1), (1, -1)):
        with pytest.raises(ValueError):
            power_sum_enumerated(F3, d, j)
    with pytest.raises(ValueError):
        power_sum_enumerated(F2, 1, 1, start=0, stop=3)


def _fresh(code: str) -> str:
    """The stdout of ``code`` in a fresh interpreter that imports ffzeta
    from this test's path, under this test's environment (so that
    PYTHONDONTWRITEBYTECODE, when set, holds there too)."""
    env = {**os.environ, "PYTHONPATH": ":".join(sys.path)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env).stdout


def test_no_tables_at_import():
    # a field's numpy tables are built on its first use, so importing the
    # package (the benchmark's set-up) costs nothing more
    code = ("import ffzeta, ffzeta.cli\n"
            "from ffzeta import oracle\n"
            "ffzeta.FiniteField(3, 2)\n"
            "print(oracle._arith.cache_info().currsize)\n")
    assert _fresh(code).strip() == "0"


def test_only_the_oracle_loads_numpy():
    # one fresh process: the package, then one request of each command that
    # never enumerates, then sqrtcar and criterion 8, whose Hecke sums the
    # oracle enumerates over F_2 on ints, and last one enumeration over F_3
    code = ("import contextlib, io, sys\n"
            "import ffzeta, ffzeta.cli\n"
            "def run(*argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = ffzeta.cli.main(list(argv))\n"
            "    print(argv[0], code, 'numpy' in sys.modules)\n"
            "print('import', 0, 'numpy' in sys.modules)\n"
            "run('special', '--p', '3', '--j', '100')\n"
            "run('newton', '--p', '3', '--y', '-2', '--f', 'T^2+1', '--dmax', '4',"
            " '--prec', '16')\n"
            "run('frobenius', '--p', '3', '--f', 'T^2+1', '--tau-coeffs', '1,1')\n"
            "run('lseries', '--p', '2', '--module', 'carlitz', '--degree-bound', '4',"
            " '--j', '1')\n"
            "run('sqrtcar', '--j', '1')\n"
            "run('verify', '--quick', '--criteria', '8')\n"
            "ffzeta.oracle.power_sum_enumerated(ffzeta.FiniteField(3), 2, 5)\n"
            "print('F_3', 0, 'numpy' in sys.modules)\n")
    assert _fresh(code).split("\n")[:-1] == [
        "import 0 False", "special 0 False", "newton 0 False", "frobenius 0 False",
        "lseries 0 False", "sqrtcar 3 False", "verify 3 False", "F_3 0 True"]
