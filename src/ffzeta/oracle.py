"""The enumeration oracle: sums of n^j over monic n of degree d in F_q[T],
each n listed and raised to the power j.

This is the package's one deliberate second arithmetic.  The fast route
(the engine of :mod:`ffzeta.zeta`, on the packed kernels of ``_packing``
that ``Poly.__pow__`` chooses) is never called here, and no ``Poly``
arithmetic runs in the power loop, so a fault in those kernels shows as a
disagreement between the two routes instead of reaching both sides.  The
square-root example's Hecke sums (:mod:`ffzeta.sqrtcar`) come from here.

Over F_2 a chunk of monics is one Python int (bit-slicing), field r of
S bits holding T^d + r, with S wide enough for n^j, n and n mod f.  n^j
is the product of the factors n(T^(2^k)) over the bits of j, each one
AND, shift and XOR per coefficient of n on all fields at once; n mod f
is the XOR of the T^i mod f over the bits of n, and a sum over rows is
an XOR fold of the fields.  Every other field puts the monics in the
rows of a numpy block, one coefficient per column.  Write j = sum_k j_k
p^k in base p.  Then n^j is the product over k of (n^(j_k))^(p^k), and
(sum_i c_i T^i)^(p^k) = sum_i c_i^(p^k) T^(i p^k) is a factor whose
nonzero positions are the same in every row.  So each row's n^(j_k)
takes j_k - 1 products by n, and each factor one shifted multiply-add
per nonzero position, each over the whole block.

Over F_p the entries are residues in the narrowest of 16, 32 and 64 bits
that holds a product (p < 2^32), reduced before a sum could overflow.
Over F_(p^m) a product reads the field's multiplication table and a sum
its addition table (XOR for p = 2).  A sum over rows adds the base-p
digits of the encodings mod p.  The multiples of f are the rows whose
remainder mod f, by long division over the block, is zero; their sums
come from the same powers, so one pass gives the full and the coprime
sums of every divisor asked for.

Rows are taken in chunks of at most ``_CHUNK`` entries of n^j, so memory
stays flat whatever q^d is.  Each chunk repeats the Python loop over the
factor positions, the remainder masks and the digit sums, so a chunk must
be large enough that the arithmetic, not that per-call overhead, sets
the cost.  numpy is imported on the first enumeration over a field other
than F_2, and a field's numpy tables are built on its first use, never
at import: numpy is this module's alone, so ``sqrtcar`` (all over F_2)
and every command that does not enumerate run without it.
"""

from __future__ import annotations

import functools
import operator

from .errors import FieldMismatch, PreconditionViolated
from .ffpoly import FiniteField, Poly, monic_indices

np = None  # numpy, imported by _arith on the first call over a field but F_2

# Most entries of n^j held per chunk of rows: 2^17 (256 KiB of 16-bit
# entries).  Against 2^14 it runs the verify battery's identity checks in
# about 0.6 of the time, as 2^16 nearly does; 2^18 gains little more and
# holds 1.5 MB more at peak (2.6 MB over 2^14, 7% of such a run).  Over
# F_2 a chunk is one int of 2^17 bits (16 KiB): 8 or 16 times wider ran
# slower.
_CHUNK = 1 << 17


class _Arith:
    """Products and sums of the encodings of one field, on numpy arrays."""

    def __init__(self, field: FiniteField):
        p, m = field.p, field.m
        self.p, self.m = p, m
        self.weights = p ** np.arange(m, dtype=np.int64)  # of the base-p digits
        if m == 1:
            # the narrowest entries that hold (p-1) + (p-1)^2, and how many
            # products an entry in [0, p) takes before it must be reduced;
            # 16 bits at least, so that every small field runs the same
            # numpy loops
            self.dtype = np.dtype(np.uint16 if p <= 256
                                  else np.uint32 if p < 1 << 16 else np.uint64)
            self.batch = (int(np.iinfo(self.dtype).max) - p + 1) // (p - 1) ** 2
            return
        # encodings fit 16 bits (q <= 512); the tables are flattened, so
        # a * b is mul[a * q + b], read with one take
        self.dtype = np.dtype(np.uint16)
        self.q = field.order
        self.mul = np.array(field._mul, dtype=np.uint16).ravel()
        self.add = None if p == 2 else np.array(field._add, dtype=np.uint16).ravel()
        # frobs[k][a] = a^(p^k), from a^p by the product table
        every = np.arange(self.q, dtype=np.uint16)
        frob = every
        for _ in range(p - 1):
            frob = self.mul.take(self._index(frob, every))
        self.frobs = [every]
        for _ in range(m - 1):
            self.frobs.append(frob[self.frobs[-1]])

    def _index(self, a, b):
        """Where the flattened tables hold a (op) b."""
        return np.multiply(a, self.q, dtype=np.intp) + b

    def add_products(self, out, terms):
        """view += a * c entrywise for each (view, a, c) of ``terms``, every
        view a slice of ``out`` (numpy broadcasting applies); ``out`` ends
        reduced into [0, p), and an entry takes ``batch`` products between
        two reductions."""
        for i, (view, a, c) in enumerate(terms, 1):
            if self.m == 1:
                view += a * c
                if i % self.batch == 0:
                    out %= self.p
                continue
            product = self.mul.take(self._index(c, a))
            if self.add is None:
                view ^= product
            else:
                view[...] = self.add.take(self._index(product, view))
        if self.m == 1:
            out %= self.p

    def frobenius(self, a, k: int):
        """a^(p^k) entrywise."""
        return a if self.m == 1 else self.frobs[k % self.m][a]

    def digit_sums(self, block):
        """Column sums of ``block`` as base-p digit sums mod p: shape
        (columns,) over F_p, (columns, m) over F_(p^m)."""
        if self.p == 2:  # the bits of an encoding are its digits
            sums = np.bitwise_xor.reduce(block, axis=0)
            return sums[:, None] >> np.arange(self.m) & 1
        if self.m == 1:
            return block.sum(axis=0, dtype=np.uint64) % self.p
        # one base-p digit at a time, so no temporary is wider than the block
        return np.stack([(block // w % self.p).sum(axis=0, dtype=np.int64) % self.p
                         for w in self.weights.tolist()], axis=1)

    def encodings(self, sums) -> list[int]:
        return (sums if self.m == 1 else sums @ self.weights).tolist()


@functools.cache
def _arith(field: FiniteField) -> _Arith:
    """The field's arithmetic; every array helper below takes it, so the
    first enumeration over a field but F_2 imports numpy here."""
    global np
    import numpy as np
    return _Arith(field)


def _times(ar: _Arith, acc, cols, step: int):
    """Each row of ``acc`` times sum_i cols[:, i] T^(i * step)."""
    rows, width = acc.shape
    out = np.zeros((rows, width + (cols.shape[1] - 1) * step), ar.dtype)
    ar.add_products(out, ((out[:, i * step:i * step + width], acc, cols[:, i:i + 1])
                          for i in range(cols.shape[1])))
    return out


def _power_rows(ar: _Arith, rows, j: int):
    """n^j for each row n of ``rows`` (coefficients, lowest degree first)."""
    if j == 0:
        return np.ones((rows.shape[0], 1), ar.dtype)
    digits = []
    while j:
        j, digit = divmod(j, ar.p)
        digits.append(digit)
    powers, power, e = {}, rows, 1  # powers[digit] = n^digit
    for digit in sorted(set(digits) - {0}):
        for _ in range(digit - e):
            power = _times(ar, power, rows, 1)
        powers[digit], e = power, digit
    acc = None
    for k, digit in enumerate(digits):
        if not digit:
            continue
        factor, step = ar.frobenius(powers[digit], k), ar.p ** k
        if acc is None:
            acc = np.zeros((rows.shape[0], (factor.shape[1] - 1) * step + 1), ar.dtype)
            acc[:, ::step] = factor
        else:
            acc = _times(ar, acc, factor, step)
    return acc


def _monic_rows(ar: _Arith, q: int, d: int, lo: int, hi: int):
    """The coefficients of the monics of degree d with index in [lo, hi)."""
    index = np.arange(lo, hi, dtype=np.int64 if q ** d <= 1 << 62 else object)
    rows = np.empty((hi - lo, d + 1), ar.dtype)
    for k in range(d):
        rows[:, k] = index % q
        index //= q
    rows[:, d] = 1
    return rows


def _remainder_table(ar: _Arith, field: FiniteField, d: int, divisors):
    """(table, spans): row k of ``table`` holds T^k mod f for each monic f
    of ``divisors``, in the columns ``spans[i]`` of the i-th, by long
    division of the rows T^0 .. T^d.  A row n of a block is then n mod f
    = sum_k n_k (T^k mod f)."""
    blocks, spans, at = [], [], 0
    for f in divisors:
        df = len(f.coeffs) - 1
        neg_low = np.array([[field.neg(c) for c in f.coeffs[:-1]]], ar.dtype)
        rem = np.eye(d + 1, max(d + 1, df), dtype=ar.dtype)
        for k in range(d, df - 1, -1):  # cancel the T^k term of every row
            part = rem[:, k - df:k]
            ar.add_products(part, [(part, neg_low, rem[:, k:k + 1])])
        blocks.append(rem[:, :df])
        spans.append(slice(at, at + df))
        at += df
    return np.concatenate(blocks or [np.zeros((d + 1, 0), ar.dtype)], axis=1), spans


def _fold(x: int, s: int, rows: int) -> int:
    """The XOR of the ``rows`` s-bit fields of x (rows a power of 2)."""
    while rows > 1:
        rows //= 2
        x = (x & (1 << rows * s) - 1) ^ x >> rows * s
    return x


def _lane_sums(d: int, j: int, divisors: list[int], indices: range) -> list[int]:
    """:func:`_block_sums` over F_2, each sum (and each f) an int whose bit
    i is its coefficient of T^i.  A chunk is the 2^a monics whose indices
    share all bits from a up: n_i for i < a is bit i of the field number,
    so one set of masks serves every chunk, and n_i for i >= a is a bit of
    the chunk's ``top``.  A field holds n^j, n and n mod f, and its top
    bit stays free for the zero test of n mod f."""
    s = -(-(max([d * j, d] + [f.bit_length() - 1 for f in divisors]) + 1) // 8) * 8
    a = min(d, max(1, _CHUNK // s).bit_length() - 1,
            max(len(indices) - 1, 0).bit_length())
    # 1 and r in field r, by doubling (a row loop or big division is slower)
    rows, ones, index, w = 1 << a, 1, 0, 1
    while w < rows:
        index |= (index + w * ones) << w * s
        ones |= ones << w * s
        w *= 2
    bits = [index >> i & ones for i in range(a)]  # 1 where n_i = 1
    masks = [(b << s) - b for b in bits]  # the whole field there
    mods, rems = [], []  # T^i mod f for i <= d (T^0 mod 1 is 0), n mod f for n < T^a
    for f in divisors:
        top, r, row = f.bit_length() - 1, 1, []
        for _ in range(d + 1):
            if r >> top & 1:
                r ^= f
            row.append(r)
            r <<= 1
        mods.append(row)
        rems.append(functools.reduce(operator.xor, map(operator.mul, bits, row), 0))
    sums = [0] * (1 + len(divisors))
    for base in range(indices.start >> a << a, indices.stop, rows):
        top = (1 << d) + base  # the bits from a up of every n of the chunk
        high = [i for i in range(a, d + 1) if top >> i & 1]
        power = ones
        for k in range(j.bit_length()):
            if j >> k & 1:  # times n(T^(2^k))
                terms = [(power & m) << (i << k) for i, m in enumerate(masks)]
                terms += [power << (i << k) for i in high]
                power = functools.reduce(operator.xor, terms)
        lo, hi = max(indices.start - base, 0), min(indices.stop - base, rows)
        if (lo, hi) != (0, rows):  # rows outside [start, stop) drop out
            power &= (1 << hi * s) - (1 << lo * s)
        sums[0] ^= _fold(power, s, rows)
        for t, (row, rem) in enumerate(zip(mods, rems), 1):
            rem ^= functools.reduce(operator.xor, (row[i] for i in high)) * ones
            # a field of rem plus 2^(s-1) - 1 reaches its top bit iff it is
            # not zero; zero marks the multiples of f
            zero = ones ^ ((rem + (ones << s - 1) - ones) >> s - 1 & ones)
            sums[t] ^= _fold(power & (zero << s) - zero, s, rows)
    return sums


def _block_sums(field: FiniteField, d: int, j: int, divisors=(), *,
                start: int = 0, stop: int | None = None):
    """Digit sums of n^j over the monics of degree d with index in
    [start, stop): over all of them, then over the multiples of each monic
    f of ``divisors``.  Over F_2 they are ints (:func:`_lane_sums`), over
    any other field numpy arrays."""
    if d < 0 or j < 0:
        raise ValueError("need d >= 0 and j >= 0")
    indices = monic_indices(field, d, start, stop)
    for f in divisors:
        if f.field != field:
            raise FieldMismatch("divisor over a different field")
        if not f.is_monic:
            raise PreconditionViolated("the divisor must be monic")
    if field.order == 2:
        fs = [sum(c << i for i, c in enumerate(f.coeffs)) for f in divisors]
        return _lane_sums(d, j, fs, indices)
    ar = _arith(field)
    table, spans = _remainder_table(ar, field, d, divisors)
    width = d * j + 1
    sums = [ar.digit_sums(np.zeros((0, width), ar.dtype))] * (1 + len(spans))
    step = max(1, _CHUNK // width)
    for lo in range(indices.start, indices.stop, step):
        rows = _monic_rows(ar, field.order, d, lo, min(lo + step, indices.stop))
        powers = _power_rows(ar, rows, j)
        blocks = [powers]
        if spans:
            rem = np.zeros((rows.shape[0], table.shape[1]), ar.dtype)
            ar.add_products(rem, ((rem, table[k:k + 1], rows[:, k:k + 1])
                                  for k in range(d + 1)))
            blocks += [powers[~rem[:, span].any(axis=1)] for span in spans]
        sums = [(s + ar.digit_sums(b)) % ar.p for s, b in zip(sums, blocks)]
    return sums


def _poly(field: FiniteField, sums) -> Poly:
    if field.order == 2:
        return Poly._of_reduced(field, map(int, bin(sums)[:1:-1]))
    return Poly._of_reduced(field, _arith(field).encodings(sums))


def power_sum_enumerated(field: FiniteField, d: int, j: int, *,
                         start: int = 0, stop: int | None = None) -> Poly:
    """S_d(j) by direct enumeration over monic index range [start, stop).

    Field addition is exact and order-independent, so the sums over any
    partition of the full range add up to the full sum.
    """
    total, = _block_sums(field, d, j, start=start, stop=stop)
    return _poly(field, total)


def multiples_power_sum(field: FiniteField, d: int, j: int, f: Poly) -> Poly:
    """Sum of n^j over the monic degree-d multiples of the monic f: the
    rows of the degree-d block that f divides."""
    _, multiples = _block_sums(field, d, j, [f])
    return _poly(field, multiples)


def coprime_power_sums(field: FiniteField, d: int, j: int, fs) -> list[Poly]:
    """For each monic f of ``fs``, the sum of n^j over monic degree-d n that
    f does not divide, all from one pass over the degree-d block: the full
    sum minus the sum over the rows f divides.  No Euler-factor identity is
    consulted, which is the point: this is the oracle side of those
    identities."""
    total, *multiples = _block_sums(field, d, j, fs)
    if field.order == 2:
        return [_poly(field, total ^ s) for s in multiples]
    p = field.p
    return [_poly(field, (total + p - s) % p) for s in multiples]


def coprime_power_sum(field: FiniteField, d: int, j: int, f: Poly) -> Poly:
    """Sum of n^j over monic degree-d n with f not dividing n, enumerated
    (:func:`coprime_power_sums` for one f)."""
    return coprime_power_sums(field, d, j, [f])[0]
