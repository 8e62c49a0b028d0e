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
from typing import Iterator, Sequence

import numpy as np

from . import _packing as pk
from .errors import (
    CompositeCharacteristic,
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    ReducibleModulus,
    ZeroPolynomial,
)

NEG_INF = float("-inf")

_TABLE_CAP = 512          # largest field order for which op tables are built
_SCHOOLBOOK_CAP = 96      # largest product length multiplied without packing


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
    """Descriptor of F_{p^m} with encoded-integer element arithmetic.

    When no modulus is given and m > 1, the modulus is the monic
    irreducible of degree m over F_p whose non-leading coefficient encoding
    is smallest; that choice is deterministic so downstream output is
    byte-reproducible.
    """

    def __init__(self, p: int, m: int = 1, modulus: Sequence[int] | None = None):
        if not _is_prime(p):
            raise CompositeCharacteristic(f"characteristic {p} is not prime")
        if m < 1:
            raise DegreeMismatch(f"extension degree must be >= 1, got {m}")
        if m == 1:
            if modulus is not None:
                raise DegreeMismatch("prime field takes no modulus")
            modulus = (0, 1)
        elif modulus is None:
            modulus = _default_modulus(p, m)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise DegreeMismatch(f"modulus must be monic of degree {m} over F_{p}")
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus: tuple[int, ...] = modulus
        self._add, self._neg, self._mul, self._inv, self._planes = _field_tables(
            p, m, modulus)

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

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero field element")
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def elem(self, value: int) -> "FqElement":
        if self.m == 1:
            return FqElement(self, value % self.p)
        if not 0 <= value < self.order:
            raise ValueError(f"encoding {value} out of range for {self!r}")
        return FqElement(self, value)

    def encode_str(self, a: int) -> str:
        """Base-p digit string of an element, w^0 digit first."""
        digs = pk.base_digits(a, self.p)
        digs += [0] * (self.m - len(digs))
        return "".join(str(d) for d in digs)

    def decode_str(self, s: str) -> int:
        if len(s) != self.m:
            raise DegreeMismatch(f"element digit string must have length {self.m}")
        return sum(int(ch) * self.p ** i for i, ch in enumerate(s))

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


@functools.cache
def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """The monic irreducible of degree m over F_p with the smallest
    encoding of its non-leading coefficients."""
    Fp = FiniteField(p)
    return next(c for c in (tuple(_digits(v, p, m)) + (1,) for v in range(p ** m))
                if is_irreducible(Poly(Fp, c)))


@functools.cache
def _field_tables(p: int, m: int, modulus: tuple[int, ...]):
    """(add, neg, mul, inv, planes) for F_{p^m} with the given modulus.

    Memoised: equal fields share their tables, and nothing mutates them.
    The modulus is checked with ``is_irreducible`` over F_p; mul and inv
    come from the powers of a generator of F_q^*.
    """
    if m == 1:
        return None, None, None, [0] + [pow(a, p - 2, p) for a in range(1, p)], None
    Fp = FiniteField(p)
    if not is_irreducible(Poly(Fp, modulus)):
        raise ReducibleModulus(f"modulus {list(modulus)} is reducible over F_{p}")
    q = p ** m
    if q > _TABLE_CAP:
        raise DegreeMismatch(
            f"field order {q} exceeds the supported desk scale {_TABLE_CAP}")
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
    table = np.array([_digits(v, p, m) for v in range(q)])
    weights = p ** np.arange(m)
    add = (((table[:, None] + table[None]) % p) @ weights).tolist()
    neg = ((-table % p) @ weights).tolist()
    return add, neg, mul, inv, None


class FqElement:
    """A field element bound to its field; thin wrapper over the encoding."""

    __slots__ = ("field", "value")

    def __init__(self, field: FiniteField, value: int):
        self.field = field
        self.value = value

    def _coerce(self, other) -> int:
        if isinstance(other, FqElement):
            if other.field != self.field:
                raise FieldMismatch("elements of different fields")
            return other.value
        if isinstance(other, int):
            # plain ints are prime-subfield scalars
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.sub(self.value, v))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.mul(self.value, v))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return FqElement(self.field, self.field.pow(self.value, e))

    def __neg__(self):
        return FqElement(self.field, self.field.neg(self.value))

    def inverse(self):
        return FqElement(self.field, self.field.inv(self.value))

    def __eq__(self, other):
        if isinstance(other, FqElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        if self.field.m == 1:
            return str(self.value)
        digs = pk.base_digits(self.value, self.field.p)
        terms = []
        for i, d in enumerate(digs):
            if not d:
                continue
            if i == 0:
                terms.append(str(d))
            else:
                c = "" if d == 1 else str(d)
                terms.append(f"{c}w" if i == 1 else f"{c}w^{i}")
        return "+".join(reversed(terms)) if terms else "0"


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
        self.coeffs = tuple(cs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def constant(cls, field, c: int):
        return cls(field, (c % field.order,))

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
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __neg__(self):
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

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
        return Poly(self.field, _mul_dispatch(self.field, a, b))

    __rmul__ = __mul__

    def scale(self, c: int) -> "Poly":
        F = self.field
        c %= F.order if F.m > 1 else F.p
        if c == 0:
            return Poly.zero(F)
        if c == 1:
            return self
        return Poly(F, [F.mul(c, x) for x in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by T^k."""
        if not self.coeffs:
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def __pow__(self, j: int):
        if j < 0:
            raise ValueError("negative polynomial power")
        if j == 0:
            return Poly.one(self.field)
        if not self.coeffs:
            return self
        return Poly(self.field, _pow_dispatch(self.field, self.coeffs, j))

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if not other.coeffs:
            raise DivisionByZero("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        df = other.degree
        inv_lead = F.inv(other.leading())
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
            else:
                row = F._mul[F.neg(c)]
                rem[k:] = [F.add(r, row[fc]) for r, fc in zip(rem[k:], low)]
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(F, quot), Poly(F, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __call__(self, x: int) -> int:
        """Evaluate at a field element given by its encoding."""
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

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
        if not self.coeffs:
            return "0"
        F = self.field
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if F.m == 1:
                cs = "" if (c == 1 and i > 0) else str(c)
            else:
                cs = "" if (c == 1 and i > 0) else f"[{F.encode_str(c)}]"
            if i == 0:
                terms.append(cs if cs else "1")
            elif i == 1:
                terms.append(f"{cs}{var}")
            else:
                terms.append(f"{cs}{var}^{i}")
        return "+".join(terms)

    def to_digit_strings(self) -> list[str]:
        return [self.field.encode_str(c) for c in self.coeffs]

    def __repr__(self):
        return self.to_string()


def _mul_dispatch(F: FiniteField, a, b, length: int | None = None):
    """Coefficients of a*b; only the first ``length`` when it is given.

    The packed odd-p product is exact only while no 16-bit digit can carry,
    i.e. (p-1)^2 * min(len a, len b) <= _DIGIT_MAX; beyond that the table
    loop runs.
    """
    if length is not None:
        a, b = a[:length], b[:length]
    la, lb = len(a), len(b)
    out_len = la + lb - 1 if length is None else min(la + lb - 1, length)
    if F.m == 1:
        if F.p == 2:
            x = pk.f2_mul(pk.f2_from_coeffs(a), pk.f2_from_coeffs(b))
            return pk.f2_to_coeffs(x, out_len)
        if out_len > _SCHOOLBOOK_CAP and (F.p - 1) ** 2 * min(la, lb) <= pk._DIGIT_MAX:
            prod = pk.pk_pack(a) * pk.pk_pack(b)
            prod &= (1 << (pk.DIGIT_BITS * out_len)) - 1
            return pk.pk_unpack(pk.digits_mod(prod, F.p, out_len), out_len).tolist()
    elif F.p == 2 and F._planes is not None and out_len > _SCHOOLBOOK_CAP:
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
    else:
        for i, ai in enumerate(a):
            if ai:
                row = F._mul[ai]
                for k, bk in enumerate(b if i + lb <= out_len else b[:out_len - i]):
                    if bk:
                        out[i + k] = F.add(out[i + k], row[bk])
    return out


def _pow_dispatch(F: FiniteField, coeffs, j: int):
    if F.m == 1:
        if F.p == 2:
            x = pk.f2_pow(pk.f2_from_coeffs(coeffs), j)
            return pk.f2_to_coeffs(x)
        packed = pk.pk_pow(list(coeffs), j, F.p)
        out_len = (len(coeffs) - 1) * j + 1
        return pk.pk_unpack(packed, out_len).tolist()
    if F.p == 2 and F._planes is not None:
        out_len = (len(coeffs) - 1) * j + 1
        planes = F._planes.pow(list(coeffs), j)
        return F._planes.to_encodings(planes, out_len)
    # generic Frobenius-digit exponentiation: factors n^(p^k) stay sparse
    acc = [1]
    base = list(coeffs)
    k = 0
    jj = j
    while jj:
        d = jj % F.p
        if d:
            spread = [0] * ((len(base) - 1) * F.p ** k + 1)
            for i, c in enumerate(base):
                spread[i * F.p ** k] = c
            for _ in range(d):
                acc = _mul_dispatch(F, acc, spread)
        jj //= F.p
        # coefficient Frobenius for the next digit level
        base = [F.pow(c, F.p) for c in base]
        k += 1
    return acc


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


def powmod(a: Poly, e: int, f: Poly) -> Poly:
    """a^e mod f by square-and-multiply."""
    acc = Poly.one(a.field)
    base = a % f
    while e:
        if e & 1:
            acc = (acc * base) % f
        base = (base * base) % f
        e >>= 1
    return acc


# ---------------------------------------------------------------------------
# enumeration of monic polynomials and primes
# ---------------------------------------------------------------------------

def monic_coeffs(field: FiniteField, d: int, i: int) -> list[int]:
    """Coefficient list of the i-th monic polynomial of degree d."""
    out = [0] * d + [1]
    for k in range(d):
        i, out[k] = divmod(i, field.order)
    return out


def monic_by_index(field: FiniteField, d: int, i: int) -> Poly:
    """The i-th monic polynomial of degree d in enumeration order."""
    return Poly(field, monic_coeffs(field, d, i))


def monic_indices(field: FiniteField, d: int,
                  start: int = 0, stop: int | None = None) -> range:
    """Indices [start, stop) of degree-d monics; ValueError outside [0, q^d]."""
    total = field.order ** d
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise ValueError("index range out of bounds")
    return range(start, stop)


def enumerate_monic(field: FiniteField, d: int,
                    start: int = 0, stop: int | None = None) -> Iterator[Poly]:
    """Monic degree-d polynomials for indices in [start, stop).

    The full range is [0, q^d); disjoint index sub-ranges partition the
    degree-d monics exactly, so sums over the pieces add up to the sum over
    the whole range.
    """
    for i in monic_indices(field, d, start, stop):
        yield monic_by_index(field, d, i)


def is_irreducible(f: Poly) -> bool:
    """Finite-field irreducibility test (q-power Frobenius criterion)."""
    if f.is_zero():
        raise ZeroPolynomial("irreducibility of the zero polynomial")
    d = int(f.degree)
    if d == 0:
        return False
    F = f.field
    q = F.order
    x = Poly.variable(F)
    y = x % f
    for _ in range(d):
        y = powmod(y, q, f)
    if y != x % f:
        return False
    for ell in _prime_divisors(d):
        y = x % f
        for _ in range(d // ell):
            y = powmod(y, q, f)
        if poly_gcd(y - x, f).degree != 0:
            return False
    return True


def enumerate_monic_primes(field: FiniteField, d: int,
                           start: int = 0, stop: int | None = None) -> Iterator[Poly]:
    """Monic irreducibles of degree d, in enumeration order."""
    if d < 1:
        raise ValueError("primes have degree >= 1")
    for f in enumerate_monic(field, d, start, stop):
        if is_irreducible(f):
            yield f


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

def poly_parse(field: FiniteField, text: str, var: str = "T") -> Poly:
    """Parse ``T^2+T+1`` style input; extension coefficients as ``[digits]``.

    A bracketed coefficient lists base-p digits of the element, w^0 digit
    first, e.g. ``[01]`` is w over F_4.  Whitespace is ignored; ``-`` is
    accepted and means the additive inverse (relevant for odd p).
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    # tokenise into signed terms
    terms = []
    i = 0
    sign = 1
    cur = ""
    while i < len(s):
        ch = s[i]
        if ch in "+-" and cur:
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif ch in "+-" and not cur:
            sign = sign * (1 if ch == "+" else -1)
        else:
            cur += ch
        i += 1
    if cur:
        terms.append((sign, cur))
    coeffs: dict[int, int] = {}
    for sign, term in terms:
        c, k = _parse_term(field, term, var)
        if sign < 0:
            c = field.neg(c)
        coeffs[k] = field.add(coeffs.get(k, 0), c)
    if not coeffs:
        return Poly.zero(field)
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return Poly(field, out)


def _parse_term(field: FiniteField, term: str, var: str):
    c = 1
    k = 0
    rest = term
    if rest.startswith("["):
        close = rest.index("]")
        c = field.decode_str(rest[1:close])
        rest = rest[close + 1:]
    elif rest and rest[0].isdigit():
        j = 0
        while j < len(rest) and rest[j].isdigit():
            j += 1
        c = int(rest[:j]) % field.p
        if field.m > 1:
            c = c % field.p
        rest = rest[j:]
    if rest:
        if not rest.startswith(var):
            raise ValueError(f"cannot parse term {term!r}")
        rest = rest[len(var):]
        if rest.startswith("^"):
            k = int(rest[1:])
        elif rest == "":
            k = 1
        else:
            raise ValueError(f"cannot parse term {term!r}")
    return c % field.order if field.m > 1 else c % field.p, k
