"""Truncated local-field arithmetic at infinity and at finite primes.

At the infinite place the completion is F_r((pi)) with pi = 1/T; a series
is stored as a coefficient window [start, prec): ``start`` is the
valuation of the first stored coefficient and coefficients are trusted
for valuations < ``prec`` only.  Precision propagates pessimistically
(min rule) and is never upgraded, so "zero to the working precision" and
"known zero" stay distinguishable downstream.

At a finite prime f the integers of the completion are worked with as
A/(f^M), with f itself as the uniformizer; elements are polynomials
reduced mod f^M.  One-unit powers take p-adic exponents through the
characteristic-p binomial identity (1+w)^(p^N) = 1 + w^(p^N): once
p^N >= M, digits of the exponent beyond N cannot move anything inside
the window.

An exponent s = (s1, s2) at f acts on a unit n as
omega(n)^s1 * (n / omega(n))^e with e = s2 mod p^N and omega(n) the
Teichmueller lift of n mod f.  Since omega(n)^(Q-1) = 1 for the residue
order Q, this equals n^e * omega(n)^k with k = (s1 - e) mod (Q-1), so
``pow_sv`` takes one power of n and one product.  omega(n)^k depends on
n mod f and k alone, and ``VadicRing`` memoises it under that key.
"""

from __future__ import annotations

from . import _packing as pk
from .errors import (
    DivisionByZero,
    FieldMismatch,
    InsufficientPadicPrecision,
    NonConvergence,
    NotAOneUnit,
    NotCoprime,
    ReducibleModulus,
    ZeroInput,
)
from .ffpoly import FiniteField, Poly, _mul_dispatch, is_irreducible, poly_xgcd


class PadicExponent:
    """An element of Z_p known modulo p^n, stored as n base-p digits."""

    __slots__ = ("p", "digits")

    def __init__(self, p: int, digits):
        self.p = p
        self.digits = tuple(int(d) % p for d in digits)
        if not self.digits:
            raise ValueError("at least one digit of precision is required")

    @classmethod
    def from_int(cls, p: int, value: int, n: int) -> "PadicExponent":
        """The image of an integer (any sign), known mod p^n."""
        v = value % p ** n
        digs = pk.base_digits(v, p)
        digs += [0] * (n - len(digs))
        return cls(p, digs)

    @property
    def precision(self) -> int:
        return len(self.digits)

    def value(self) -> int:
        """Representative in [0, p^n)."""
        return sum(d * self.p ** i for i, d in enumerate(self.digits))

    def __neg__(self) -> "PadicExponent":
        return PadicExponent.from_int(self.p, -self.value(), self.precision)

    def scaled(self, k: int) -> "PadicExponent":
        return PadicExponent.from_int(self.p, k * self.value(), self.precision)

    def __eq__(self, other):
        return (isinstance(other, PadicExponent)
                and (self.p, self.digits) == (other.p, other.digits))

    def __hash__(self):
        return hash((self.p, self.digits))

    def __repr__(self):
        return f"PadicExponent(p={self.p}, digits={list(self.digits)})"


class LaurentSeries:
    """Element of F_r((pi)) known to finite precision.

    ``coeffs[k]`` is the coefficient of pi^(start+k); indices in
    [start+len(coeffs), prec) are known zeros; nothing is known from
    ``prec`` on.  Canonical form: leading stored coefficient nonzero, or
    an empty window with start == prec for "zero to precision".
    """

    __slots__ = ("field", "start", "coeffs", "prec")

    def __init__(self, field: FiniteField, start: int, coeffs, prec: int):
        self.field = field
        cs = list(coeffs)
        # trim to the trusted window
        if start + len(cs) > prec:
            cs = cs[: max(prec - start, 0)]
        while cs and cs[0] == 0:
            cs.pop(0)
            start += 1
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            start = prec
        self.start = start
        self.coeffs = tuple(cs)
        self.prec = prec

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, field, prec):
        return cls(field, 0, (1,), prec)

    @classmethod
    def zero_to_precision(cls, field, prec):
        return cls(field, prec, (), prec)

    # -- structure ------------------------------------------------------------

    def is_zero_to_precision(self) -> bool:
        return not self.coeffs

    @property
    def valuation(self):
        """Exact valuation, or None when zero to precision (bound = prec)."""
        return self.start if self.coeffs else None

    def is_one_unit(self) -> bool:
        return bool(self.coeffs) and self.start == 0 and self.coeffs[0] == 1

    def coefficient(self, k: int) -> int:
        if k < self.start:
            return 0
        if k >= self.start + len(self.coeffs):
            return 0
        return self.coeffs[k - self.start]

    def truncate(self, prec: int) -> "LaurentSeries":
        if prec >= self.prec:
            return self
        return LaurentSeries(self.field, self.start, self.coeffs, prec)

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("series over different residue fields")

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check(other)
        prec = min(self.prec, other.prec)
        if self.is_zero_to_precision() and other.is_zero_to_precision():
            return LaurentSeries.zero_to_precision(self.field, prec)
        start = min(s.start for s in (self, other) if s.coeffs) if (
            self.coeffs or other.coeffs) else prec
        start = min(start, prec)
        F = self.field
        out = []
        for k in range(start, prec):
            out.append(F.add(self.coefficient(k), other.coefficient(k)))
        return LaurentSeries(F, start, out, prec)

    def __neg__(self):
        F = self.field
        return LaurentSeries(F, self.start, [F.neg(c) for c in self.coeffs], self.prec)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check(other)
        # min-rule precision; `start` is the known valuation lower bound
        prec = min(self.prec + other.start, other.prec + self.start)
        if not self.coeffs or not other.coeffs:
            return LaurentSeries.zero_to_precision(self.field, prec)
        start = self.start + other.start
        out = _mul_dispatch(self.field, self.coeffs, other.coeffs, prec - start)
        return LaurentSeries(self.field, start, out, prec)

    __rmul__ = __mul__

    def scale(self, c: int) -> "LaurentSeries":
        F = self.field
        c %= F.order if F.m > 1 else F.p
        if c == 0:
            return LaurentSeries.zero_to_precision(F, self.prec)
        return LaurentSeries(F, self.start, [F.mul(c, x) for x in self.coeffs], self.prec)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by pi^k."""
        return LaurentSeries(self.field, self.start + k, self.coeffs, self.prec + k)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = LaurentSeries.one(self.field, self.prec)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            e >>= 1
            if e:
                base = base * base
        return acc

    def inverse(self) -> "LaurentSeries":
        if not self.coeffs:
            raise DivisionByZero("inverse of a series that is zero to precision")
        F = self.field
        s = self.start
        rel = self.prec - s
        u = list(self.coeffs) + [0] * (rel - len(self.coeffs))
        inv0 = F.inv(u[0])
        out = [0] * rel
        out[0] = inv0
        for k in range(1, rel):
            acc = 0
            for i in range(1, min(k, len(self.coeffs) - 1) + 1):
                acc = F.add(acc, F.mul(u[i], out[k - i]))
            out[k] = F.neg(F.mul(inv0, acc))
        return LaurentSeries(F, -s, out, rel - s)

    def __truediv__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self * other.inverse()

    # -- comparison ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.field == other.field
                and (self.start, self.coeffs, self.prec)
                == (other.start, other.coeffs, other.prec))

    def __hash__(self):
        return hash((self.field, self.start, self.coeffs, self.prec))

    def agrees_with(self, other: "LaurentSeries") -> bool:
        """Equality on the shared trusted window."""
        self._check(other)
        lo = min(self.start, other.start)
        hi = min(self.prec, other.prec)
        return all(self.coefficient(k) == other.coefficient(k) for k in range(lo, hi))

    def __repr__(self):
        if not self.coeffs:
            return f"O(pi^{self.prec})"
        terms = []
        for k in range(self.start, self.start + len(self.coeffs)):
            c = self.coefficient(k)
            if not c:
                continue
            cs = "" if c == 1 and k != 0 else (str(c) if self.field.m == 1
                                               else f"[{self.field.encode_str(c)}]")
            if k == 0:
                terms.append(cs if cs else "1")
            elif k == 1:
                terms.append(f"{cs}pi")
            else:
                terms.append(f"{cs}pi^{k}")
        return " + ".join(terms) + f" + O(pi^{self.prec})"


# ---------------------------------------------------------------------------
# the infinite place
# ---------------------------------------------------------------------------

def bracket_infty(n: Poly, prec: int) -> LaurentSeries:
    """The unit part n / T^deg(n) as a series in pi = 1/T.

    For monic n this is a 1-unit: 1 + a_{d-1} pi + ... + a_0 pi^d.
    """
    if n.is_zero():
        raise ZeroInput("the bracket of zero is undefined")
    d = int(n.degree)
    coeffs = [n.coefficient(d - k) for k in range(d + 1)]
    return LaurentSeries(n.field, 0, coeffs, prec)


def unit_pow_padic(u: LaurentSeries, y: PadicExponent, prec: int) -> LaurentSeries:
    """u**y for a 1-unit u and a p-adic exponent y, to precision `prec`.

    Computed as u**(y mod p^N).  Correct because v(u^(p^N) - 1) >= p^N in
    characteristic p, so once p^N >= prec the unseen digits of y cannot
    affect the window; this also covers negative/inverse exponents.
    """
    if not u.is_one_unit():
        raise NotAOneUnit("padic powers need a 1-unit base")
    if u.prec < prec:
        raise InsufficientPadicPrecision(
            f"base known to precision {u.prec} < requested {prec}")
    p = u.field.p
    if p ** y.precision < prec:
        raise InsufficientPadicPrecision(
            f"need p^N >= {prec}, got p^{y.precision} = {p ** y.precision}")
    return u.truncate(prec) ** y.value()


# ---------------------------------------------------------------------------
# finite primes: A/(f^M) with uniformizer f
# ---------------------------------------------------------------------------

class VadicRing:
    """A/(f^M) for a monic prime f; the desk-scale stand-in for the
    integers of the f-adic completion modulo the M-th power of the
    uniformizer."""

    def __init__(self, f: Poly, precision: int):
        if not f.is_monic or not is_irreducible(f):
            raise ReducibleModulus("the local prime must be monic irreducible")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        self.f = f
        self.precision = precision
        self.field = f.field
        self.deg = int(f.degree)
        self.modulus = f ** precision
        self.residue_order = self.field.order ** self.deg
        self._is_var = (f.coeffs == (0, 1))
        # (coefficients of n mod f, k) -> rep of omega(n)^k
        self._omega_pows: dict[tuple[tuple[int, ...], int], Poly] = {}

    def elem(self, a: Poly) -> "VadicElem":
        if a.field != self.field:
            raise FieldMismatch("polynomial over the wrong field")
        return VadicElem(self, self._reduce(a))

    def _reduce(self, a: Poly) -> Poly:
        if self._is_var:
            cut = self.precision
            return Poly(self.field, a.coeffs[:cut])
        return a % self.modulus

    def zero(self):
        return VadicElem(self, Poly.zero(self.field))

    def one(self):
        return VadicElem(self, Poly.one(self.field))

    def teichmuller(self, n: Poly) -> "VadicElem":
        """The unique root-of-unity lift of n mod f, computed by iterating
        the residue-order power map until it fixes (each step at least
        doubles the contact order, so log2(M)+2 iterations always do)."""
        if (n % self.f).is_zero():
            raise NotCoprime("Teichmueller lift needs gcd(n, f) = 1")
        x = self._reduce(n)
        q = self.residue_order
        cap = max(self.precision.bit_length(), 1) + 2
        for _ in range(cap):
            nxt = self._pow_rep(x, q)
            if nxt == x:
                return VadicElem(self, x)
            x = nxt
        raise NonConvergence("Teichmueller iteration did not stabilise")

    def _teichmuller_pow(self, residue: Poly, k: int) -> Poly:
        """Rep of omega(residue)^k for a nonzero residue of degree < deg f,
        memoised per ring under (residue, k)."""
        key = (residue.coeffs, k)
        rep = self._omega_pows.get(key)
        if rep is None:
            rep = self._pow_rep(self.teichmuller(residue).rep, k)
            self._omega_pows[key] = rep
        return rep

    def _mul_rep(self, a: Poly, b: Poly) -> Poly:
        return self._reduce(a * b)

    def _pow_rep(self, a: Poly, e: int) -> Poly:
        acc = Poly.one(self.field)
        base = a
        while e:
            if e & 1:
                acc = self._mul_rep(acc, base)
            e >>= 1
            if e:
                base = self._mul_rep(base, base)
        return acc

    def inverse(self, a: Poly) -> Poly:
        g, s, _ = poly_xgcd(a, self.modulus)
        if g.degree != 0:
            raise NotCoprime("element is not a unit in A/(f^M)")
        return self._reduce(s.scale(self.field.inv(g.coeffs[0])))

    def __eq__(self, other):
        return (isinstance(other, VadicRing)
                and (self.f, self.precision) == (other.f, other.precision))

    def __hash__(self):
        return hash((self.f, self.precision))

    def __repr__(self):
        return f"A/({self.f})^{self.precision}"


class VadicElem:
    """Element of a VadicRing; rep is a polynomial of degree < M*deg(f)."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: VadicRing, rep: Poly):
        self.ring = ring
        self.rep = rep

    def _check(self, other):
        if self.ring != other.ring:
            raise FieldMismatch("elements of different v-adic rings")

    def __add__(self, other):
        self._check(other)
        return VadicElem(self.ring, self.ring._reduce(self.rep + other.rep))

    def __sub__(self, other):
        self._check(other)
        return VadicElem(self.ring, self.ring._reduce(self.rep - other.rep))

    def __mul__(self, other):
        if isinstance(other, int):
            return VadicElem(self.ring, self.rep.scale(other))
        self._check(other)
        return VadicElem(self.ring, self.ring._mul_rep(self.rep, other.rep))

    __rmul__ = __mul__

    def __neg__(self):
        return VadicElem(self.ring, -self.rep)

    def __pow__(self, e: int):
        if e < 0:
            return VadicElem(self.ring, self.ring.inverse(self.rep)) ** (-e)
        return VadicElem(self.ring, self.ring._pow_rep(self.rep, e))

    def inverse(self) -> "VadicElem":
        return VadicElem(self.ring, self.ring.inverse(self.rep))

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    @property
    def valuation(self):
        """f-order of the representative; None when zero mod f^M
        (the valuation is then only bounded below by M)."""
        if self.rep.is_zero():
            return None
        if self.ring._is_var:
            for i, c in enumerate(self.rep.coeffs):
                if c:
                    return i
        v = 0
        rem = self.rep
        while True:
            q, r = divmod(rem, self.ring.f)
            if not r.is_zero():
                return v
            v += 1
            if v >= self.ring.precision:
                return self.ring.precision
            rem = q

    def __eq__(self, other):
        if not isinstance(other, VadicElem):
            return NotImplemented
        return self.ring == other.ring and self.rep == other.rep

    def __hash__(self):
        return hash((self.ring, self.rep))

    def __repr__(self):
        return f"{self.rep.to_string()} (mod ({self.ring.f})^{self.ring.precision})"


class SvPoint:
    """Exponent at a finite prime: a residue modulo the residue-field unit
    order paired with a p-adic coordinate."""

    __slots__ = ("s1", "s2", "unit_order")

    def __init__(self, s1: int, s2: PadicExponent, unit_order: int):
        if unit_order < 1:
            raise ValueError("unit order must be >= 1")
        self.unit_order = unit_order
        self.s1 = s1 % unit_order
        self.s2 = s2

    @classmethod
    def from_int(cls, j: int, unit_order: int, p: int, n: int) -> "SvPoint":
        return cls(j % unit_order, PadicExponent.from_int(p, j, n), unit_order)

    def __neg__(self):
        return SvPoint(-self.s1, -self.s2, self.unit_order)

    def __eq__(self, other):
        return (isinstance(other, SvPoint)
                and (self.s1, self.s2, self.unit_order)
                == (other.s1, other.s2, other.unit_order))

    def __hash__(self):
        return hash((self.s1, self.s2, self.unit_order))

    def __repr__(self):
        return f"SvPoint(s1={self.s1} mod {self.unit_order}, s2={self.s2})"


def pow_sv(n: Poly, s: SvPoint, ring: VadicRing) -> VadicElem:
    """n**s in A/(f^M): Teichmueller part to the finite-order coordinate,
    1-unit part to the p-adic coordinate.

    With omega = omega(n), e = s2 mod p^N and Q the residue order,
    omega^s1 * (n / omega)^e = n^e * omega^k for k = (s1 - e) mod (Q-1),
    because omega^(Q-1) = 1.  So a call takes one power of n and one
    product; omega^k comes from the ring's memo, which is exact because
    omega depends only on n mod f.

    For s the image of an integer j this equals n^j mod f^M exactly,
    provided p^N >= M for the digit count N of the p-adic coordinate.
    """
    residue = n % ring.f
    if residue.is_zero():
        raise NotCoprime("exponentiation at f needs gcd(n, f) = 1")
    p = ring.field.p
    if p ** s.s2.precision < ring.precision:
        raise InsufficientPadicPrecision(
            f"need p^N >= {ring.precision}, got p^{s.s2.precision}")
    if s.unit_order != ring.residue_order - 1:
        raise ValueError("exponent lives at a different prime (unit order mismatch)")
    e = s.s2.value()
    omega_k = ring._teichmuller_pow(residue, (s.s1 - e) % s.unit_order)
    return ring.elem(n) ** e * VadicElem(ring, omega_k)
