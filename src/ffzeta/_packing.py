"""Packed-integer kernels for dense polynomial arithmetic over small fields.

Three internal representations, chosen by characteristic:

* ``F_2[T]`` -- a polynomial is a plain Python int; bit ``k`` is the
  coefficient of ``T^k``.  Addition is XOR, multiplication is shift-XOR
  over the set bits of the sparser operand.

* ``F_p[T]``, p odd prime -- a polynomial is a Python int built from
  fixed-width digit fields, digit ``k`` being the coefficient of ``T^k``.
  Integer multiplication then performs the convolution exactly as long as
  no digit outgrows its field.  This module alone decides that headroom:
  the reduced format of F_p[T] has digits in ``[0, p)`` and the smallest
  width of 16, 32 or 64 bits that holds p(p-1), one reduced digit plus
  one product of two coefficients (16 bits for every p <= 251).  Sums of
  scaled, shifted terms go through :func:`pk_sum`, which tracks each
  term's digit bound and renormalises only when the next add could carry;
  products take their width from (p-1)^2 * min(len a, len b).  No width
  holds one product once p >= 2^32, so ``FiniteField`` rejects those p.
  Digits go to and from bytes through the stdlib ``array`` module, and
  :func:`digits_mod` reduces all digits of an int at once by folds on the
  whole int, so no kernel here needs numpy (the enumeration oracle alone
  imports it).

* ``F_{2^m}[T]`` -- ``m`` parallel ``F_2[T]`` ints ("planes"), plane ``e``
  carrying the ``w^e``-coordinates of all coefficients for the fixed basis
  ``1, w, ..., w^(m-1)`` of the coefficient field.

The product :func:`pk_mul` and the power :func:`pk_pow` take every
prime, p = 2 included, and keep the bit-int kernels inside for p = 2.
Everything here is private plumbing: its callers are :mod:`ffzeta.ffpoly`,
which picks the kernel for each field kind (``Poly.__pow__`` for powers),
and the power-sum engine in :mod:`ffzeta.zeta`, which adds packed sums
directly.
"""

from __future__ import annotations

import functools
import sys
from array import array
from math import comb


# ---------------------------------------------------------------------------
# base-p digits and Lucas binomials: all t with C(j, t) != 0 mod p, digit by
# digit, or one class of them mod m, by meet in the middle on j's digits
# ---------------------------------------------------------------------------

def base_digits(n: int, p: int) -> list[int]:
    """Base-p digits of n >= 0, least significant first ([] for n = 0)."""
    if n < 0:
        raise ValueError("need n >= 0")
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out


def ceil_log(r: int, x: int) -> int:
    """Smallest L with r^L >= x (x >= 1)."""
    L = 0
    v = 1
    while v < x:
        v *= r
        L += 1
    return L


def _digit_subsets(digits, p: int, pk: int) -> list[tuple[int, int]]:
    """The Lucas subsets, as ``lucas_residue`` lists them at m = 1, of the
    number with these base-p digits, times pk."""
    out = [(0, 1)]
    for d in digits:
        if d:
            row = [(ti * pk, comb(d, ti) % p) for ti in range(1, d + 1)]
            out += [(t + s, c * b % p) for s, b in row for t, c in out]
        pk *= p
    return out


def lucas_residue(j: int, p: int, m: int, r: int) -> list[tuple[int, int]]:
    """All (t, C(j, t) mod p) with C(j, t) nonzero mod p and t = r mod m,
    (0, 1) first when m divides r; m = 1 lists every such t.

    By Lucas' theorem these t are the numbers whose base-p digits t_i
    are at most the digits j_i of j, and C(j, t) = prod C(j_i, t_i) mod p.
    A digit j_i < p makes every C(j_i, t_i) with t_i <= j_i a unit, so no
    listed coefficient vanishes.

    Meet in the middle: t = s + u with s on the low half of j's digits
    and u on the high half, grouped by u mod m.  Each s meets only the
    group of residue r - s: the cost is the halves' lengths plus the output.
    """
    digits = base_digits(j, p)
    if m == 1:
        return _digit_subsets(digits, p, 1)
    h = len(digits) // 2
    groups: dict[int, list[tuple[int, int]]] = {}
    for u, c in _digit_subsets(digits[h:], p, p ** h):
        groups.setdefault(u % m, []).append((u, c))
    return [(s + u, b * c % p) for s, b in _digit_subsets(digits[:h], p, 1)
            for u, c in groups.get((r - s) % m, ())]


# ---------------------------------------------------------------------------
# F_2[T] as bit-packed ints
# ---------------------------------------------------------------------------

_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
_BYTE_BITS = bytes.maketrans(b"\0\1", b"01")


def f2_from_coeffs(coeffs) -> int:
    """The int whose bit i is coeffs[i] & 1; linear time."""
    bits = bytes([c & 1 for c in reversed(coeffs)]).translate(_BYTE_BITS)
    return int(bits, 2) if bits else 0


def f2_to_coeffs(x: int, length: int | None = None) -> list[int]:
    """Bits of x, lowest first, padded or cut to ``length``; linear time."""
    n = x.bit_length() if length is None else length
    bits = bin(x)[:1:-1].encode().translate(_BIT_BYTES)
    return list(bits[:n].ljust(n, b"\0"))


def f2_mul(a: int, b: int) -> int:
    """Carry-less product; iterates over the sparser operand."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


def f2_spread(x: int, step: int) -> int:
    """Map T^i -> T^(i*step); Frobenius power of an F_2 polynomial."""
    if step == 1:
        return x
    acc = 0
    while x:
        low = x & -x
        acc |= 1 << ((low.bit_length() - 1) * step)
        x ^= low
    return acc


def f2_pow(n: int, j: int) -> int:
    """n**j in F_2[T] via the base-2 Frobenius factorisation.

    Every factor n^(2^k) is as sparse as n itself, so the work is
    O(popcount(n) * popcount(j)) big-int shift-XORs.
    """
    if j == 0:
        return 1
    acc = 1
    k = 0
    while j:
        if j & 1:
            acc = f2_mul(acc, f2_spread(n, 1 << k))
        j >>= 1
        k += 1
    return acc


# ---------------------------------------------------------------------------
# F_p[T] as digit-packed ints, and the one packed sum
# ---------------------------------------------------------------------------

def _width(p: int, term_bound: int) -> int:
    """Digit width, the smallest of 16, 32 and 64 bits, that holds a
    renormalised digit (< p) plus one term digit (<= term_bound)."""
    return next(bits for bits in (16, 32, 64) if (p - 1 + term_bound) >> bits == 0)


@functools.cache
def _bits(p: int) -> int:
    """Digit width of the reduced F_p[T] format: 1 (bit ints) for p = 2,
    else room for one reduced digit plus one product of two coefficients."""
    return 1 if p == 2 else _width(p, (p - 1) ** 2)


# array typecodes of unsigned 16-, 32- and 64-bit digits, in machine order
_TYPECODES = {8 * array(code).itemsize: code for code in "QIH"}
_SWAP = sys.byteorder == "big"  # packed ints are little-endian digit strings


def _pack(coeffs, bits: int) -> int:
    digits = array(_TYPECODES[bits], coeffs)
    if _SWAP:
        digits.byteswap()
    return int.from_bytes(digits, "little")


def _unpack(x: int, length: int, bits: int) -> list[int]:
    digits = array(_TYPECODES[bits], x.to_bytes(bits // 8 * length, "little"))
    if _SWAP:
        digits.byteswap()
    return digits.tolist()


def pk_pack(coeffs, p: int) -> int:
    """Coefficients in [0, p) as one int in the reduced format of F_p[T]."""
    return f2_from_coeffs(coeffs) if p == 2 else _pack(coeffs, _bits(p))


def pk_unpack(x: int, length: int, p: int) -> list[int]:
    """The first ``length`` coefficients of a reduced packed int ([] for 0)."""
    if not x:
        return []
    return f2_to_coeffs(x, length) if p == 2 else _unpack(x, length, _bits(p))


@functools.cache
def _byte_mod(p: int) -> bytes:
    return bytes(b % p for b in range(256))


def _lanes(v: int, bits: int, n: int) -> int:
    """The int with v in each of its n lowest ``bits``-bit digit fields."""
    return int.from_bytes(v.to_bytes(bits // 8, "little") * n, "little")


def digits_mod(x: int, p: int, bits: int, bound: int) -> int:
    """Reduce each ``bits``-bit digit field of x, all at most ``bound``,
    modulo p, in a few whole-int steps and no loop over the digits.
    ``bits`` is at least the width of the reduced format of p, as in every
    packed format here, so a field holds (p-1)^2 + p - 1.

    Let 2^k be the smallest power of 256 above p, and r = 2^k mod p.  A
    fold sends every digit v to (v mod 2^k) + (v >> k) r, which is v mod p
    again and fits its field; the exact bound after it is the larger of
    the images of ``bound`` and of the largest v below it with a smaller
    v >> k, so it falls strictly until it is below 2^k (a looser bound can
    stick at 255 + r).  For p < 256 (k = 8) one byte translation then
    reduces every digit.  Above, every digit is below 2^k <= 2^(bits-1),
    so the top bit of each field is free as a guard: from the top i down,
    each digit loses p 2^i where the guard says it is at least that.
    """
    if not x:
        return 0
    n = -(-x.bit_length() // bits)
    k = -(-p.bit_length() // 8) * 8
    if bound >> k:
        mask, r = (1 << k) - 1, (1 << k) % p
        low, high = _lanes(mask, bits, n), _lanes((1 << bits - k) - 1, bits, n)
        while bound >> k:
            x = (x & low) + ((x >> k) & high) * r
            h = bound >> k
            bound = max((bound & mask) + h * r, mask + (h - 1) * r)
    if k == 8:
        return int.from_bytes(x.to_bytes(n * bits // 8, "little").translate(
            _byte_mod(p)), "little")
    guard = bits - 1
    ones = _lanes(1, bits, n)
    for i in reversed(range((bound // p).bit_length())):
        c = p << i
        x -= (((x + ((1 << guard) - c) * ones) >> guard) & ones) * c
    return x


def pk_sum(terms, p: int, length: int, bits: int | None = None,
           x_bound: int | None = None) -> int:
    """Sum of c * x * T^shift over (c, x, shift) in ``terms``, cut to
    ``length`` coefficients and reduced mod p.

    For p = 2 the x are bit ints, c is 1 and the sum is their XOR.
    Otherwise the x are packed in ``bits``-bit digits (default: the reduced
    format of p), each digit at most ``x_bound`` (default p - 1), and
    0 < c < p.  The running digit bound grows by c * x_bound per term, and
    the accumulator is renormalised only when the next add could carry out
    of a digit.
    """
    if p == 2:
        acc = 0
        for _, x, shift in terms:
            acc ^= x << shift
        return acc & ((1 << length) - 1)
    if bits is None:
        bits = _bits(p)
    if x_bound is None:
        x_bound = p - 1
    top = (1 << bits) - 1
    end = length * bits
    acc = bound = 0
    for c, x, shift in terms:
        shift *= bits
        if x.bit_length() + shift > end:
            if shift >= end:
                continue
            x &= (1 << (end - shift)) - 1
        bound += c * x_bound
        if bound > top:
            acc = digits_mod(acc, p, bits, bound)
            bound = p - 1 + c * x_bound
        acc += (x * c) << shift
    # a bound below p means every digit is reduced already (one term, c = 1)
    return acc if bound < p else digits_mod(acc, p, bits, bound)


def pk_mul(a, b, p: int, length: int) -> list[int]:
    """Coefficients of a*b below ``length``, by packed int products.

    At p = 2 this is one carry-less product of bit ints.  Otherwise the
    digit width comes from the product bound (p-1)^2 * min(len a, len b);
    where no 64-bit digit holds it, the shorter operand is cut into chunks
    whose products pk_sum adds up.
    """
    if p == 2:
        return f2_to_coeffs(f2_mul(f2_from_coeffs(a), f2_from_coeffs(b)), length)
    if len(a) < len(b):
        a, b = b, a
    sq = (p - 1) ** 2
    k = min(len(b), ((1 << 64) - p) // sq)
    bits = _width(p, sq * k)
    big = _pack(a, bits)
    terms = ((1, big * _pack(b[i:i + k], bits), i) for i in range(0, len(b), k))
    return _unpack(pk_sum(terms, p, length, bits, sq * k), length, bits)


def pk_spread_terms(coeffs, step: int) -> list[tuple[int, int]]:
    """Sparse term list [(digit position, coefficient)] of the Frobenius power."""
    return [(i * step, c) for i, c in enumerate(coeffs) if c]


def pk_sparse_mul(big: int, terms, p: int, length: int) -> int:
    """big * (sparse polynomial), cut to ``length`` and reduced mod p."""
    return pk_sum([(c, big, pos) for pos, c in terms], p, length)


def _pow_coeffs(coeffs, e: int, p: int) -> list[int]:
    """Coefficients of n^e for e >= 1, by squaring with :func:`pk_mul`."""
    if e == 1:
        return list(coeffs)
    half = _pow_coeffs(coeffs, e // 2, p)
    out = pk_mul(half, half, p, 2 * len(half) - 1)
    return pk_mul(out, coeffs, p, len(out) + len(coeffs) - 1) if e & 1 else out


def pk_pow(coeffs, j: int, p: int) -> int:
    """n**j in F_p[T] via base-p Frobenius factorisation, packed.

    Coefficients of the prime field are Frobenius-fixed, so (n^e)^(p^k) is
    the digit spread of n^e by p^k.  Each nonzero base-p digit e of j
    takes n^e by squaring the short n, then one big-by-sparse product by
    its spread, so a digit near p costs about log2(p) small products and
    not p big ones.  At p = 2 that is :func:`f2_pow` on bit ints.
    """
    if p == 2:
        return f2_pow(f2_from_coeffs(coeffs), j)
    out_len = (len(coeffs) - 1) * j + 1
    acc = 1  # the constant 1 in every packed format
    k = 0
    while j:
        j, digit = divmod(j, p)
        if digit:
            power = _pow_coeffs(coeffs, digit, p)
            if k == 0:  # acc is 1
                acc = pk_pack(power, p)
            else:
                acc = pk_sparse_mul(acc, pk_spread_terms(power, p ** k), p, out_len)
        k += 1
    return acc


# ---------------------------------------------------------------------------
# F_{2^m}[T] as m bit-planes
# ---------------------------------------------------------------------------

class Char2Planes:
    """Plane arithmetic context for one F_{2^m} with a fixed modulus.

    ``fold[k]`` lists the planes holding w^k mod g for k in [m, 2m-2];
    ``frob`` is the coordinate matrix of c -> c^2 stored per target plane
    as the set of source planes to XOR.
    """

    def __init__(self, m: int, reduce_rows):
        # reduce_rows[k]: coordinate vector (length m) of w^(m+k) mod g
        self.m = m
        self.fold = []
        for k in range(m - 1):
            self.fold.append(tuple(e for e, bit in enumerate(reduce_rows[k]) if bit))
        # coordinates of w^(2e) mod g, for e in range(m)
        basis_sq = []
        for e in range(m):
            vec = [0] * (2 * m - 1)
            vec[2 * e] = 1
            basis_sq.append(self._fold_vec(vec, reduce_rows))
        self.frob = []
        for target in range(m):
            self.frob.append(tuple(e for e in range(m) if basis_sq[e][target]))

    def _fold_vec(self, vec, reduce_rows):
        out = list(vec[: self.m])
        for k in range(self.m, 2 * self.m - 1):
            if vec[k]:
                for e, bit in enumerate(reduce_rows[k - self.m]):
                    if bit:
                        out[e] ^= 1
        return out

    def from_encodings(self, coeffs) -> list[int]:
        planes = [0] * self.m
        for i, c in enumerate(coeffs):
            e = 0
            while c:
                if c & 1:
                    planes[e] |= 1 << i
                c >>= 1
                e += 1
        return planes

    def to_encodings(self, planes, length: int) -> list[int]:
        out = [0] * length
        for e, plane in enumerate(planes):
            x = plane
            while x:
                low = x & -x
                out[low.bit_length() - 1] |= 1 << e
                x ^= low
        return out

    def mul(self, a, b):
        m = self.m
        wide = [0] * (2 * m - 1)
        for i in range(m):
            if not a[i]:
                continue
            for k in range(m):
                if b[k]:
                    wide[i + k] ^= f2_mul(a[i], b[k])
        out = wide[:m]
        for k in range(m - 1):
            if wide[m + k]:
                for e in self.fold[k]:
                    out[e] ^= wide[m + k]
        return out

    def coeff_frobenius(self, planes):
        """Apply c -> c^2 to every coefficient (bit positions untouched)."""
        return [
            _xor_all(planes[e] for e in self.frob[target])
            for target in range(self.m)
        ]

    def spread(self, planes, step):
        return [f2_spread(x, step) for x in planes]

    def pow(self, coeffs, j: int):
        """n**j as planes, n given by encoded coefficients (small degree)."""
        acc = self.from_encodings([1])
        if j == 0:
            return acc
        base = self.from_encodings(coeffs)
        k = 0
        while j:
            if j & 1:
                factor = self.spread(base, 1 << k)
                acc = self.mul(acc, factor)
            j >>= 1
            # keep `base` at Frobenius level k+1 for the next set bit
            base = self.coeff_frobenius(base)
            k += 1
        return acc


def _xor_all(items) -> int:
    acc = 0
    for x in items:
        acc ^= x
    return acc
