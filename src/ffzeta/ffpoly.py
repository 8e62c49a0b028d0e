"""Exact arithmetic in F_q and F_q[T], with monic enumeration and primes.

Field elements are encoded as integers in ``[0, q)``: the element
``e_0 + e_1*w + ... + e_{m-1}*w^(m-1)`` (w a root of the field modulus)
has encoding ``e_0 + e_1*p + ... + e_{m-1}*p^(m-1)``.  For prime fields
the encoding is just the residue.  Polynomials are immutable coefficient
tuples, lowest degree first, with no trailing zeros; the zero polynomial
is the empty tuple and has degree ``-inf``.

Monic polynomials of degree d are enumerated in a fixed, documented order:
index ``i`` in ``[0, q^d)`` has coefficient ``k`` equal to base-q digit
``k`` of ``i`` (constant term varies fastest), plus the leading 1.  Cache
files and golden outputs depend on this order; do not change it.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left
from itertools import chain, compress
from operator import xor
from typing import Iterator, Sequence

from . import _packing as pk
from .errors import (
    CompositeCharacteristic,
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    ReducibleModulus,
    UnsupportedField,
    UsageError,
    ZeroPolynomial,
)

NEG_INF = float("-inf")

_TABLE_CAP = 512          # largest field order for which op and string tables are built
_SCHOOLBOOK_CAP = 96      # largest product length multiplied without packing

# F_p for p < 10 writes each element as one ASCII digit, so a run of
# elements is a run of bytes, translated in C: value v <-> the digit v.
# Reading over F_p, every byte but a digit below p becomes 255.
_TO_DIGIT = bytes.maketrans(bytes(range(10)), b"0123456789")
_FROM_DIGIT = {p: bytes(b - 48 if 48 <= b < 48 + p else 255 for b in range(256))
               for p in (2, 3, 5, 7)}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class FiniteField:
    """Descriptor of F_{p^m}: its elements are the integer encodings, and
    its methods are the arithmetic on them.

    When no modulus is given and m > 1, the modulus is the monic
    irreducible of degree m over F_p whose non-leading coefficient encoding
    is smallest; that choice is deterministic so downstream output is
    byte-reproducible.  A characteristic p >= 2^32 raises UnsupportedField,
    and an extension field of order above 512 raises DegreeMismatch before
    its modulus is chosen or tested.
    """

    def __init__(self, p: int, m: int = 1, modulus: Sequence[int] | None = None):
        if p >= 1 << 32:
            raise UnsupportedField(
                f"characteristic {p} >= 2^32: no packed digit holds a product")
        if not _is_prime(p):
            raise CompositeCharacteristic(f"characteristic {p} is not prime")
        if m < 1:
            raise DegreeMismatch(f"extension degree must be >= 1, got {m}")
        # p^m > _TABLE_CAP, told without forming p^m, before any modulus work
        if m > 1 and m >= len(pk.base_digits(_TABLE_CAP, p)):
            raise DegreeMismatch(
                f"field order {p}^{m} exceeds the supported desk scale {_TABLE_CAP}")
        if m == 1:
            if modulus is not None:
                raise DegreeMismatch("prime field takes no modulus")
            modulus = (0, 1)
        elif modulus is None:
            modulus = _default_modulus(p, m)
        else:
            if not all(0 <= c < p for c in modulus):
                raise UsageError(f"modulus digits must lie in [0, {p})")
            modulus = tuple(modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise DegreeMismatch(f"modulus must be monic of degree {m} over F_{p}")
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus: tuple[int, ...] = modulus
        self._add, self._neg, self._mul, self._inv, self._planes = _field_tables(
            p, m, modulus)
        self._strs, self._codes, self._prefixes = _string_tables(p, m)
        # over F_p, p < 10, digit strings go through bytes (encode_strs)
        self._from_digit = _FROM_DIGIT.get(p) if m == 1 else None

    # -- element ops on encodings ----------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._add[a][b]

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero field element")
        if self.m == 1:
            return pow(a, -1, self.p)
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return square_multiply(a, e, 1, self.mul)

    def encode_str(self, a: int) -> str:
        """Base-p digit string of an element, w^0 digit first (see
        :func:`join_digits`); over F_p the one digit is the residue."""
        if self._strs is None:
            return str(a)
        return self._strs[a]

    def encode_strs(self, coeffs: Sequence[int]) -> list[str]:
        """:meth:`encode_str` of each element, in bulk: over F_p, p < 10,
        as one byte translation of all of them."""
        if self._from_digit:
            return list(bytes(coeffs).translate(_TO_DIGIT).decode("ascii"))
        if self._strs is None:
            return list(map(str, coeffs))
        return list(map(self._strs.__getitem__, coeffs))

    def decode_str(self, s: str) -> int:
        """Inverse of :meth:`encode_str`; rejects a wrong digit count and
        any digit that is not ASCII or not below p.  A string in the table
        (what encode_str writes) is read from it; any other is decoded digit
        by digit, so over p > 10 a digit may carry leading zeros."""
        if self._codes is not None:
            value = self._codes.get(s)
            if value is not None:
                return value
        p = self.p
        digs = s.split(".") if p > 10 else s
        if len(digs) != self.m:
            raise DegreeMismatch(f"element digit string {s!r} must have {self.m} digits")
        value = 0
        for tok in reversed(digs):
            if not (tok.isascii() and tok.isdigit()):
                raise UsageError(f"{tok!r} in {s!r} is not a base-p digit")
            d = int(tok)
            if d >= p:
                raise UsageError(f"digit {d} of {s!r} is not below p = {p}")
            value = value * p + d
        return value

    def decode_strs(self, tokens: Sequence[str]) -> tuple[int, ...]:
        """:meth:`decode_str` of each token, in bulk; raises ValueError if
        any token is bad.  Over F_p, p < 10, tokens that are each one ASCII
        digit below p are read as one byte translation of their join; a
        field with a string table looks every token up at once.  Only when
        that fails are the tokens decoded one by one, which raises."""
        if self._from_digit:
            line = "".join(tokens)
            if len(line) == len(tokens) and line.isascii():
                values = line.encode("ascii").translate(self._from_digit)
                if 255 not in values:
                    return tuple(values)
        if self._codes is not None:
            values = tuple(map(self._codes.get, tokens))
            if None not in values:
                return values
        return tuple(map(self.decode_str, tokens))

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"F({self.p})"
        return f"F({self.p}^{self.m})"


def _digits(v: int, p: int, m: int) -> list[int]:
    """The m base-p digits of v, lowest first."""
    return (pk.base_digits(v, p) + [0] * m)[:m]


def join_digits(digits, p: int) -> str:
    """Base-p digits as one string: one character each when p <= 10,
    else their decimal forms joined with ".", so that no string is
    ambiguous."""
    return ("." if p > 10 else "").join(map(str, digits))


@functools.cache
def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """The monic irreducible of degree m over F_p with the smallest
    encoding of its non-leading coefficients."""
    Fp = FiniteField(p)
    return next(c for c in (tuple(_digits(v, p, m)) + (1,) for v in range(p ** m))
                if is_irreducible(Poly(Fp, c)))


@functools.cache
def _string_tables(p: int, m: int):
    """(strs, codes, prefixes) for a field of order q = p^m <= _TABLE_CAP:
    strs[a] is the digit string of the element a, codes its inverse, and
    prefixes[a] how ``Poly.to_string`` writes a before a power of the
    variable ("" for 1, the string bracketed over F_(p^m)).  A larger
    (prime) field gets (None, None, None) and writes its residues with
    ``str``."""
    q = p ** m
    if q > _TABLE_CAP:
        return None, None, None
    if m == 1:  # one digit: the residue itself
        strs = tuple(map(str, range(q)))
        names = strs
    else:
        strs = tuple(join_digits(_digits(v, p, m), p) for v in range(q))
        names = tuple(f"[{s}]" for s in strs)
    prefixes = names[:1] + ("",) + names[2:]
    return strs, {s: v for v, s in enumerate(strs)}, prefixes


@functools.cache
def _field_tables(p: int, m: int, modulus: tuple[int, ...]):
    """(add, neg, mul, inv, planes) for F_{p^m} with the given modulus.

    Memoised: equal fields share their tables, and nothing mutates them.
    The modulus is checked with ``is_irreducible`` over F_p; mul and inv
    come from the powers of a generator of F_q^*, add and neg (odd p)
    digit by digit.  Prime fields get no tables: their elements are
    residues mod p, for p up to 2^32.
    """
    if m == 1:
        return None, None, None, None, None
    Fp = FiniteField(p)
    if not is_irreducible(Poly(Fp, modulus)):
        raise ReducibleModulus(f"modulus {list(modulus)} is reducible over F_{p}")
    q = p ** m
    g = Poly(Fp, modulus)

    def encode(a: Poly) -> int:
        return sum(c * p ** i for i, c in enumerate(a.coeffs))

    for v in range(2, q):
        x = Poly(Fp, _digits(v, p, m))
        powers, y = [1], x
        while not y.is_one():
            powers.append(encode(y))
            y = y * x % g
        if len(powers) == q - 1:
            break
    log = [0] * q
    for k, v in enumerate(powers):
        log[v] = k
    mul = [[0] * q] + [[0] + [powers[(log[a] + log[b]) % (q - 1)] for b in range(1, q)]
                       for a in range(1, q)]
    inv = [0] + [powers[-log[a] % (q - 1)] for a in range(1, q)]
    if p == 2:
        rows = [(Poly.monomial(Fp, m + k) % g).coeffs for k in range(m - 1)]
        planes = pk.Char2Planes(m, [list(r) + [0] * (m - len(r)) for r in rows])
        return None, None, mul, inv, planes
    # digit by digit: a table over the low digits extends to one more digit
    # w p^i by blocks, the row of a = low + w top being the blocks of
    # row(low) + w ((top + t) mod p), for t the next digit of b
    add = [[(a + b) % p for b in range(p)] for a in range(p)]
    neg = [-a % p for a in range(p)]
    for w in (p ** i for i in range(1, m)):
        blocks = [[[x + w * t for x in row] for t in range(p)] for row in add]
        add = [list(chain.from_iterable(low[(top + t) % p] for t in range(p)))
               for top in range(p) for low in blocks]
        neg = [v + w * (-top % p) for top in range(p) for v in neg]
    return add, neg, mul, inv, None


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Immutable dense polynomial over a FiniteField.

    Coefficients are encoded integers, lowest degree first, trailing zeros
    stripped.  Arithmetic is exact; large products and powers route through
    the packed-integer kernels.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: Sequence[int] = ()):
        self.field = field
        cs = [int(c) for c in coeffs]  # reject stray numpy scalars
        while cs and cs[-1] == 0:
            cs.pop()
        if cs and (min(cs) < 0 or max(cs) >= field.order):
            raise UsageError(f"coefficients must be encodings in [0, {field.order})")
        self.coeffs = tuple(cs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def _of_trimmed(cls, field: FiniteField, coeffs: tuple[int, ...]) -> "Poly":
        """A Poly over ``coeffs`` as given: a tuple of Python ints, each an
        encoding of ``field``, with no trailing zero.  It skips the checks of
        ``__init__``, for the cache reader (which makes them) and for results
        of arithmetic on Poly operands, which keep all three over a field."""
        poly = object.__new__(cls)
        poly.field = field
        poly.coeffs = coeffs
        return poly

    @classmethod
    def _of_reduced(cls, field: FiniteField, coeffs: Sequence[int]) -> "Poly":
        """A Poly over ``coeffs``, Python ints that are encodings of
        ``field`` by construction (a kernel's or an oracle's output, a cut of
        a Poly), trailing zeros trimmed.  It skips ``__init__``'s range
        check, which every path that reads input keeps."""
        cs = tuple(coeffs)
        n = len(cs)
        while n and not cs[n - 1]:
            n -= 1
        return cls._of_trimmed(field, cs[:n])

    @classmethod
    def zero(cls, field):
        return cls._of_trimmed(field, ())

    @classmethod
    def one(cls, field):
        return cls._of_trimmed(field, (1,))

    @classmethod
    def variable(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field, k: int, c: int = 1):
        return cls(field, (0,) * k + (c,))

    # -- structure --------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        # no call per coefficient: XOR at p = 2, residues over F_p, and
        # rows of the add table over odd-p extension fields
        if F.p == 2:
            out = list(map(xor, a, b))
        elif F.m == 1:
            p = F.p
            out = [(x + y) % p for x, y in zip(a, b)]
        else:
            add = F._add
            out = [add[x][y] for x, y in zip(a, b)]
        out += a[len(b):]
        while out and out[-1] == 0:
            out.pop()
        return Poly._of_trimmed(F, tuple(out))

    def __neg__(self):
        # one comprehension, not scale(-1): subtraction runs through here,
        # mostly on short residues, where the extra calls cost more
        F = self.field
        if F.p == 2:
            return self
        if F.m == 1:
            p = F.p
            return Poly._of_trimmed(F, tuple([-x % p for x in self.coeffs]))
        neg = F._neg
        return Poly._of_trimmed(F, tuple([neg[x] for x in self.coeffs]))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.field)
        return Poly._of_trimmed(self.field, tuple(_mul_dispatch(self.field, a, b)))

    __rmul__ = __mul__

    def scale(self, c: int) -> "Poly":
        if c == 1:
            return self
        F = self.field
        if not 0 < c < F.order:
            if c == 0:
                return Poly.zero(F)
            raise UsageError(f"scalar {c} is not an encoding in [0, {F.order})")
        # no call per coefficient: residues over F_p, a row of the mul
        # table over F_(p^m)
        if F.m == 1:
            p = F.p
            return Poly._of_trimmed(F, tuple([c * x % p for x in self.coeffs]))
        row = F._mul[c]
        return Poly._of_trimmed(F, tuple([row[x] for x in self.coeffs]))

    def shift(self, k: int) -> "Poly":
        """Multiply by T^k."""
        if not self.coeffs:
            return self
        return Poly._of_trimmed(self.field, (0,) * k + self.coeffs)

    def __pow__(self, j: int):
        """The one place that picks a power kernel for a field kind: packed
        Frobenius powers over F_p, bit planes over F_(2^m), and otherwise
        base-p digits of j with table products (n^(p^k) is as sparse as n)."""
        if j < 0:
            raise ValueError("negative polynomial power")
        if j == 0:
            return Poly.one(self.field)
        if not self.coeffs:
            return self
        F, p = self.field, self.field.p
        length = (len(self.coeffs) - 1) * j + 1
        if F.m == 1:
            return Poly._of_reduced(F, pk.pk_unpack(pk.pk_pow(self.coeffs, j, p), length, p))
        if p == 2:
            return Poly._of_reduced(
                F, F._planes.to_encodings(F._planes.pow(self.coeffs, j), length))
        power, frob = Poly.one(F), self  # frob = n^(p^k)
        while j:
            j, digit = divmod(j, p)
            for _ in range(digit):
                power = power * frob
            if j:
                frob = Poly(F, [F.pow(c, p) for c in frob.coeffs]).substitute_spread(p)
        return power

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if not other.coeffs:
            raise DivisionByZero("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        df = other.degree
        lead = other.leading()
        inv_lead = 1 if lead == 1 else F.inv(lead)
        quot = [0] * max(len(rem) - df, 0)
        # each step cancels the top coefficient of rem exactly, so it is
        # popped and only the df coefficients below it take -c * other
        low = other.coeffs[:-1]
        p = F.p
        while len(rem) > df:
            c = F.mul(rem.pop(), inv_lead)
            k = len(rem) - df
            quot[k] = c
            if F.m == 1:
                nc = p - c
                rem[k:] = [(r + nc * fc) % p for r, fc in zip(rem[k:], low)]
            elif p == 2:  # -c = c, and adding is XOR
                row = F._mul[c]
                rem[k:] = [r ^ row[fc] for r, fc in zip(rem[k:], low)]
            else:
                row, add = F._mul[F.neg(c)], F._add
                rem[k:] = [add[r][row[fc]] for r, fc in zip(rem[k:], low)]
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly._of_trimmed(F, tuple(quot)), Poly._of_trimmed(F, tuple(rem))

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self) -> "Poly":
        if not self.coeffs:
            raise ZeroPolynomial("cannot normalise the zero polynomial")
        if self.is_monic:
            return self
        return self.scale(self.field.inv(self.leading()))

    def substitute_spread(self, k: int) -> "Poly":
        """T -> T^k on coefficients (used for T -> u^2 style maps)."""
        if not self.coeffs or k == 1:
            return self
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return Poly(self.field, out)

    # -- io -----------------------------------------------------------------

    def to_string(self, var: str = "T") -> str:
        """The nonzero terms, highest first, joined by "+": the coefficient
        (bracketed over F_(p^m), left out when it is 1 unless the term is
        constant), then ``var`` and its exponent above 1."""
        cs = self.coeffs
        if not cs:
            return "0"
        F = self.field
        pre = F._prefixes  # None without string tables: str, "" for 1
        # the nonzero degrees, highest first, found in C by compress
        degrees = list(compress(range(len(cs)), cs))
        degrees.reverse()
        terms = [f"{pre[cs[i]] if pre else '' if cs[i] == 1 else cs[i]}{var}^{i}"
                 for i in degrees if i > 1]
        if len(cs) > 1 and cs[1]:
            c = cs[1]
            terms.append(f"{pre[c] if pre else '' if c == 1 else c}{var}")
        if cs[0]:
            name = F.encode_str(cs[0])
            terms.append(name if F.m == 1 else f"[{name}]")
        return "+".join(terms)

    def to_digit_strings(self) -> list[str]:
        return self.field.encode_strs(self.coeffs)

    def __repr__(self):
        return self.to_string()


def _mul_dispatch(F: FiniteField, a, b, length: int | None = None):
    """Coefficients of a*b; only the first ``length`` when it is given."""
    if length is not None:
        a, b = a[:length], b[:length]
    la, lb = len(a), len(b)
    out_len = la + lb - 1 if length is None else min(la + lb - 1, length)
    if F.m == 1:
        if F.p == 2 or out_len > _SCHOOLBOOK_CAP:
            return pk.pk_mul(a, b, F.p, out_len)
    elif F.p == 2 and out_len > _SCHOOLBOOK_CAP:
        pl = F._planes
        mask = (1 << out_len) - 1
        prod = pl.mul(pl.from_encodings(a), pl.from_encodings(b))
        return pl.to_encodings([x & mask for x in prod], out_len)
    out = [0] * out_len
    if F.m == 1:
        p = F.p
        for i, ai in enumerate(a):
            if ai:
                for k, bk in enumerate(b if i + lb <= out_len else b[:out_len - i]):
                    out[i + k] = (out[i + k] + ai * bk) % p
    else:  # no call per term: XOR at p = 2, else the add table
        add, p2 = F._add, F.p == 2
        for i, ai in enumerate(a):
            if ai:
                row = F._mul[ai]
                for k, bk in enumerate(b if i + lb <= out_len else b[:out_len - i], i):
                    if bk:
                        out[k] = out[k] ^ row[bk] if p2 else add[out[k]][row[bk]]
    return out


# ---------------------------------------------------------------------------
# gcd family
# ---------------------------------------------------------------------------

def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd."""
    while b.coeffs:
        a, b = b, a % b
    if a.coeffs and not a.is_monic:
        a = a.monic()
    return a


def poly_xgcd(a: Poly, b: Poly):
    """(g, s, t) with s*a + t*b = g, g monic (or zero)."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(F), Poly.zero(F)
    t0, t1 = Poly.zero(F), Poly.one(F)
    while r1.coeffs:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.coeffs and not r0.is_monic:
        c = F.inv(r0.leading())
        r0, s0, t0 = r0.scale(c), s0.scale(c), t0.scale(c)
    return r0, s0, t0


def square_multiply(x, e: int, one, mul):
    """x^e for e >= 0 under ``mul``, by right-to-left square-and-multiply;
    no square is taken after the top bit of e."""
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return acc


def powmod(a: Poly, e: int, f: Poly) -> Poly:
    """a^e mod f."""
    return square_multiply(a % f, e, Poly.one(a.field), lambda u, v: u * v % f)


# ---------------------------------------------------------------------------
# enumeration of monic polynomials and primes
# ---------------------------------------------------------------------------

def monic_by_index(field: FiniteField, d: int, i: int) -> Poly:
    """The i-th monic polynomial of degree d in enumeration order."""
    out = [0] * d + [1]
    for k in range(d):
        i, out[k] = divmod(i, field.order)
    return Poly(field, out)


def monic_indices(field: FiniteField, d: int,
                  start: int = 0, stop: int | None = None) -> range:
    """Indices [start, stop) of degree-d monics; ValueError outside [0, q^d]."""
    total = field.order ** d
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise ValueError("index range out of bounds")
    return range(start, stop)


def enumerate_monic(field: FiniteField, d: int) -> Iterator[Poly]:
    """The q^d monic polynomials of degree d, in enumeration order."""
    for i in range(field.order ** d):
        yield monic_by_index(field, d, i)


def is_irreducible(f: Poly) -> bool:
    """Ben-Or's irreducibility test, deterministic form.

    f of degree d is irreducible iff gcd(T^(q^i) - T, f) = 1 for every
    i <= d/2: a reducible f has a prime factor of some degree i <= d/2,
    which divides T^(q^i) - T.  Most reducible f fail at a small i.
    """
    if f.is_zero():
        raise ZeroPolynomial("irreducibility of the zero polynomial")
    d = int(f.degree)
    if d == 0:
        return False
    x = Poly.variable(f.field)
    y = x
    for _ in range(d // 2):
        y = powmod(y, f.field.order, f)
        if poly_gcd(y - x, f).degree != 0:
            return False
    return True


# (field, d) -> (indices, primes): every monic prime of degree d and its
# enumeration index, in enumeration order; built once by Ben-Or's test
_PRIMES: dict[tuple[FiniteField, int], tuple[tuple[int, ...], tuple[Poly, ...]]] = {}


def _primes_of_degree(field: FiniteField, d: int):
    got = _PRIMES.get((field, d))
    if got is None:
        found = [(i, f) for i, f in enumerate(enumerate_monic(field, d))
                 if is_irreducible(f)]
        got = _PRIMES[(field, d)] = (tuple(i for i, _ in found),
                                     tuple(f for _, f in found))
    return got


def enumerate_monic_primes(field: FiniteField, d: int) -> Iterator[Poly]:
    """Monic irreducibles of degree d, in enumeration order.  The list for
    (field, d) is built once per process and kept; every call reads it."""
    if d < 1:
        raise ValueError("primes have degree >= 1")
    yield from _primes_of_degree(field, d)[1]


def is_monic_prime(f: Poly) -> bool:
    """f is monic irreducible.  Read from the kept list of f's degree when
    ``enumerate_monic_primes`` has built it, else Ben-Or's test."""
    if not f.is_monic:
        return False
    d = int(f.degree)
    got = _PRIMES.get((f.field, d))
    if got is None:
        return is_irreducible(f)
    index = 0
    for c in reversed(f.coeffs[:d]):
        index = index * f.field.order + c
    indices = got[0]
    k = bisect_left(indices, index)
    return k < len(indices) and indices[k] == index


def _mobius(n: int) -> int:
    mu = 1
    for ell in _prime_divisors(n):
        if n % (ell * ell) == 0:
            return 0
        mu = -mu
    return mu


def monic_prime_count(r: int, d: int) -> int:
    """Number of monic primes of degree d over F_r (necklace formula)."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _mobius(e) * r ** (d // e)
    return total // d


# ---------------------------------------------------------------------------
# parsing (shared grammar with the command line)
# ---------------------------------------------------------------------------

_SIGN = re.compile("([+-])")
_DIGITS = re.compile("[0-9]+")  # ASCII only, unlike str.isdigit and int()


def poly_parse(field: FiniteField, text: str) -> Poly:
    """Parse ``T^2+T+1`` style input; extension coefficients as ``[digits]``.

    A bracketed coefficient lists base-p digits of the element, w^0 digit
    first, e.g. ``[01]`` is w over F_4 and ``[3.10]`` is 3 + 10w over
    F_121 (see :func:`join_digits`).  Whitespace is ignored; ``-`` is
    accepted and means the additive inverse (relevant for odd p).  Every
    sign must be followed by a term, and exponents and integer
    coefficients are ASCII digits: ``T+``, ``T+-1`` and ``T^1_0`` are
    usage errors.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    # signs and terms alternate; a sign may open the string
    pieces = _SIGN.split(s)
    pieces = pieces[1:] if not pieces[0] and len(pieces) > 1 else ["+", *pieces]
    if "" in pieces[1::2]:
        raise UsageError(f"a sign without a term in {text!r}")
    coeffs: dict[int, int] = {}
    for sign, term in zip(pieces[0::2], pieces[1::2]):
        c, k = _parse_term(field, term)
        if sign == "-":
            c = field.neg(c)
        coeffs[k] = field.add(coeffs.get(k, 0), c)
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return Poly(field, out)


def _parse_term(field: FiniteField, term: str):
    c = 1
    k = 0
    rest = term
    if rest.startswith("["):
        close = rest.index("]")
        c = field.decode_str(rest[1:close])
        rest = rest[close + 1:]
    elif digits := _DIGITS.match(rest):
        c = int(digits.group()) % field.p
        rest = rest[digits.end():]
    if rest:
        if not rest.startswith("T"):
            raise UsageError(f"cannot parse term {term!r}")
        rest = rest[1:]
        if rest.startswith("^"):
            if not _DIGITS.fullmatch(rest[1:]):
                raise UsageError(f"exponent of {term!r} is not ASCII digits")
            k = int(rest[1:])
        elif rest == "":
            k = 1
        else:
            raise UsageError(f"cannot parse term {term!r}")
    return c, k
