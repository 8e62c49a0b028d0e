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
Teichmueller lift of n mod f.  Since omega(n) is itself a power of n,
this is one plain power n^g, with g from ``VadicRing.integer_exponent``.
"""

from __future__ import annotations

import operator

from . import _packing as pk
from .errors import (
    DivisionByZero,
    FieldMismatch,
    InsufficientPadicPrecision,
    NotAOneUnit,
    NotCoprime,
    ReducibleModulus,
    UsageError,
    ZeroInput,
)
from .ffpoly import (
    FiniteField,
    Poly,
    _mul_dispatch,
    is_monic_prime,
    poly_xgcd,
    square_multiply,
)


class PadicExponent:
    """An element of Z_p known modulo p^n, stored as n base-p digits."""

    __slots__ = ("p", "digits")

    def __init__(self, p: int, digits):
        self.p = p
        self.digits = tuple(int(d) for d in digits)
        if not self.digits:
            raise ValueError("at least one digit of precision is required")
        if not all(0 <= d < p for d in self.digits):
            raise UsageError(f"p-adic digits must lie in [0, {p})")

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

    def require_precision(self, prec: int) -> None:
        """Raise unless p^N >= prec for the digit count N.  One-unit powers
        to precision prec then ignore the unseen digits, because
        v(u^(p^N) - 1) >= p^N in characteristic p."""
        reach = self.p ** self.precision
        if reach < prec:
            raise InsufficientPadicPrecision(
                f"need p^N >= {prec}, got p^{self.precision} = {reach}")

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
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("series over different residue fields")

    def _window(self) -> Poly:
        """The stored coefficients as a polynomial in pi, pi^start read as 1."""
        return Poly._of_trimmed(self.field, self.coeffs)

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check(other)
        prec = min(self.prec, other.prec)
        start = min(self.start, other.start)
        total = (self._window().shift(self.start - start)
                 + other._window().shift(other.start - start))
        return LaurentSeries(self.field, start, total.coeffs, prec)

    def __neg__(self):
        return self.scale(self.field.neg(1))

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
        """c times the series; c = 0 gives zero to precision."""
        return LaurentSeries(self.field, self.start, self._window().scale(c).coeffs,
                             self.prec)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by pi^k."""
        return LaurentSeries(self.field, self.start + k, self.coeffs, self.prec + k)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return square_multiply(self, e, LaurentSeries.one(self.field, self.prec),
                               operator.mul)

    def inverse(self) -> "LaurentSeries":
        """pi^(-start) u^(-1) for the series pi^start u, u the window read as
        a unit.  u^(-1) mod pi^rel, rel = prec - start, is the reverse of
        T^(rel-1+k) // rev(u) for k = deg u (von zur Gathen and Gerhard,
        *Modern Computer Algebra*, section 9.1): rev(u) leads with
        u_0 != 0, so the quotient has degree rel - 1 and reverses into rel
        coefficients."""
        if not self.coeffs:
            raise DivisionByZero("inverse of a series that is zero to precision")
        F, s = self.field, self.start
        rel, k = self.prec - s, len(self.coeffs) - 1
        quot = Poly.monomial(F, rel - 1 + k) // Poly._of_trimmed(F, self.coeffs[::-1])
        return LaurentSeries(F, -s, quot.coeffs[::-1], rel - s)

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
    return LaurentSeries(n.field, 0, n.coeffs[::-1], prec)


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
    y.require_precision(prec)
    return u.truncate(prec) ** y.value()


# ---------------------------------------------------------------------------
# finite primes: A/(f^M) with uniformizer f
# ---------------------------------------------------------------------------

class VadicRing:
    """A/(f^M) for a monic prime f; the desk-scale stand-in for the
    integers of the f-adic completion modulo the M-th power of the
    uniformizer."""

    def __init__(self, f: Poly, precision: int):
        if not is_monic_prime(f):
            raise ReducibleModulus("the local prime must be monic irreducible")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        self.f = f
        self.precision = precision
        self.field = f.field
        self.deg = int(f.degree)
        self.modulus = f ** precision
        self.residue_order = self.field.order ** self.deg
        # the unit group's exponent divides (Q-1) * p^L once p^L >= M
        p = self.field.p
        self.unit_exponent = (self.residue_order - 1) * p ** pk.ceil_log(p, precision)
        self._is_var = (f.coeffs == (0, 1))
        self._zero = VadicElem(self, Poly.zero(self.field))

    def elem(self, a: Poly) -> "VadicElem":
        if a.field != self.field:
            raise FieldMismatch("polynomial over the wrong field")
        return VadicElem(self, self._reduce(a))

    def _reduce(self, a: Poly) -> Poly:
        if len(a.coeffs) < len(self.modulus.coeffs):
            return a
        if self._is_var:
            return Poly._of_reduced(self.field, a.coeffs[:self.precision])
        return a % self.modulus

    def zero(self):
        return self._zero

    def integer_exponent(self, s: "SvPoint") -> int:
        """The g in [0, unit_exponent) with n^s = n^g for every unit n.

        With e = s2 mod p^N and Q the residue order, omega^(Q-1) = 1 gives
        n^s = omega^s1 * (n / omega)^e = n^e * omega^k for k = (s1 - e)
        mod (Q-1); and omega(n) = n^x for x = 1 mod (Q-1), 0 mod p^L
        (p^L kills the 1-units), so n^s = n^(e + k x)."""
        q1, e = self.residue_order - 1, s.s2.value()
        pl = self.unit_exponent // q1
        return (e + (s.s1 - e) % q1 * pl * pow(pl, -1, q1)) % self.unit_exponent

    def _mul_rep(self, a: Poly, b: Poly) -> Poly:
        return self._reduce(a * b)

    def _pow_rep(self, a: Poly, e: int) -> Poly:
        return square_multiply(a, e, Poly.one(self.field), self._mul_rep)

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
        if self.ring is not other.ring and self.ring != other.ring:
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
    def prec(self) -> int:
        """Precision M of the ring A/(f^M), as LaurentSeries.prec."""
        return self.ring.precision

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
    1-unit part to the p-adic coordinate, taken as the one power n^g of
    ``VadicRing.integer_exponent``.

    For s the image of an integer j this equals n^j mod f^M exactly,
    provided p^N >= M for the digit count N of the p-adic coordinate.
    """
    if (n % ring.f).is_zero():
        raise NotCoprime("exponentiation at f needs gcd(n, f) = 1")
    s.s2.require_precision(ring.precision)
    if s.unit_order != ring.residue_order - 1:
        raise ValueError("exponent lives at a different prime (unit order mismatch)")
    return ring.elem(n) ** ring.integer_exponent(s)
