"""Packed-integer kernels for dense polynomial arithmetic over small fields.

Three internal representations, chosen by characteristic:

* ``F_2[T]`` -- a polynomial is a plain Python int; bit ``k`` is the
  coefficient of ``T^k``.  Addition is XOR, multiplication is shift-XOR
  over the set bits of the sparser operand.

* ``F_p[T]``, p odd prime -- a polynomial is a Python int built from
  fixed-width digit fields (:data:`DIGIT_BITS` bits each), digit ``k``
  being the coefficient of ``T^k`` in ``[0, p)``.  Integer multiplication
  then performs the convolution exactly as long as accumulated digits stay
  below ``2**DIGIT_BITS``; callers track that headroom and call
  :func:`digits_mod` to renormalise.

* ``F_{2^m}[T]`` -- ``m`` parallel ``F_2[T]`` ints ("planes"), plane ``e``
  carrying the ``w^e``-coordinates of all coefficients for the fixed basis
  ``1, w, ..., w^(m-1)`` of the coefficient field.

Everything here is private plumbing for the rest of the package: the
polynomial and series arithmetic, and the power-sum engine and its
enumeration oracle in :mod:`ffzeta.zeta`.
"""

from __future__ import annotations

import numpy as np

DIGIT_BITS = 16
_DIGIT_MAX = (1 << DIGIT_BITS) - 1


# ---------------------------------------------------------------------------
# base-p digits and Lucas binomials
# ---------------------------------------------------------------------------

def base_digits(n: int, p: int) -> list[int]:
    """Base-p digits of n >= 0, least significant first ([] for n = 0)."""
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out


def binom_small(n: int, k: int, p: int) -> int:
    """C(n, k) mod p for 0 <= k <= n < p."""
    num = 1
    den = 1
    for t in range(k):
        num = num * (n - t)
        den = den * (t + 1)
    return (num // den) % p


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem."""
    if k < 0 or k > n:
        return 0
    result = 1
    while n or k:
        ni, n = n % p, n // p
        ki, k = k % p, k // p
        if ki > ni:
            return 0
        result = result * binom_small(ni, ki, p) % p
    return result


def lucas_subsets(j: int, p: int):
    """Yield (t, C(j, t) mod p) over all t with C(j, t) nonzero mod p."""
    digs = base_digits(j, p) or [0]
    # one binomial table per digit value
    small = [[binom_small(d, t, p) for t in range(d + 1)] for d in range(p)]
    choices = [range(d + 1) for d in digs]

    def rec(i, t, c):
        if i == len(digs):
            yield t, c
            return
        pk = p ** i
        d = digs[i]
        for ti in choices[i]:
            cc = c * small[d][ti] % p
            if cc:
                yield from rec(i + 1, t + ti * pk, cc)

    yield from rec(0, 0, 1)


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


def f2_pow(n: int, j: int, trunc: int | None = None) -> int:
    """n**j in F_2[T] via the base-2 Frobenius factorisation.

    Every factor n^(2^k) is as sparse as n itself, so the work is
    O(popcount(n) * popcount(j)) big-int shift-XORs.  ``trunc`` keeps only
    coefficients of T^i with i < trunc (for series work).
    """
    if j == 0:
        return 1
    acc = 1
    k = 0
    while j:
        if j & 1:
            acc = f2_mul(acc, f2_spread(n, 1 << k))
            if trunc is not None:
                acc &= (1 << trunc) - 1
        j >>= 1
        k += 1
    return acc


# ---------------------------------------------------------------------------
# F_p[T] (p odd) as digit-packed ints
# ---------------------------------------------------------------------------

def pk_pack(coeffs) -> int:
    arr = np.asarray(coeffs, dtype="<u2")
    return int.from_bytes(arr.tobytes(), "little")


def pk_unpack(x: int, length: int) -> np.ndarray:
    data = x.to_bytes(2 * length, "little")
    return np.frombuffer(data, dtype="<u2").astype(np.int64)


def digits_mod(x: int, p: int, length: int) -> int:
    """Reduce every 16-bit digit field of x modulo p."""
    if x == 0:
        return 0
    arr = pk_unpack(x, length) % p
    return int.from_bytes(arr.astype("<u2").tobytes(), "little")


def pk_spread_terms(coeffs, step: int) -> list[tuple[int, int]]:
    """Sparse term list [(digit position, coefficient)] of the Frobenius power."""
    return [(i * step, c) for i, c in enumerate(coeffs) if c]


def pk_sparse_mul(big: int, terms) -> int:
    """big * (sparse polynomial); digits grow, caller renormalises."""
    acc = 0
    for pos, c in terms:
        acc += (big * c) << (pos * DIGIT_BITS)
    return acc


def pk_pow(coeffs, j: int, p: int, trunc: int | None = None) -> int:
    """n**j in F_p[T] (p odd) via base-p Frobenius factorisation, packed.

    Coefficients of the prime field are Frobenius-fixed, so n^(p^k) is the
    digit spread of n by p^k.  The genuine multiplications are all
    big-by-sparse; digit headroom is tracked and renormalised lazily.
    """
    d = len(coeffs) - 1
    if j == 0:
        return pk_pack([1])
    out_len = d * j + 1 if trunc is None else trunc
    acc = pk_pack([1])
    bound = 1
    sparse_bound = max(coeffs)
    k = 0
    jj = j
    while jj:
        digit = jj % p
        terms = pk_spread_terms(coeffs, p ** k) if digit else None
        for _ in range(digit):
            new_bound = bound * sparse_bound * (d + 1)
            if new_bound > _DIGIT_MAX:
                acc = digits_mod(acc, p, out_len)
                bound = p - 1
                new_bound = bound * sparse_bound * (d + 1)
            acc = pk_sparse_mul(acc, terms)
            if trunc is not None:
                acc &= (1 << (DIGIT_BITS * trunc)) - 1
            bound = new_bound
        jj //= p
        k += 1
    return digits_mod(acc, p, out_len)


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

    def pow(self, coeffs, j: int, trunc: int | None = None):
        """n**j as planes, n given by encoded coefficients (small degree)."""
        acc = self.from_encodings([1])
        if j == 0:
            return acc
        base = self.from_encodings(coeffs)
        mask = None if trunc is None else (1 << trunc) - 1
        k = 0
        while j:
            if j & 1:
                factor = self.spread(base, 1 << k)
                acc = self.mul(acc, factor)
                if mask is not None:
                    acc = [x & mask for x in acc]
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
