"""Skew polynomials, Drinfeld modules, Frobenius data, Euler products.

The skew ring F{tau} twists multiplication by tau * a = a^r * tau, where
r is the order of the *operator-side* constant field (not of the field
the coefficients happen to live in).  Coefficients lie in A = F_r[T]
(``Poly``) or in a residue ring A/(f^M) (``VadicElem``).

A module is pinned down by phi_T = (gamma(T), g_1, ..., g_rank); phi
extends to all of F_r[T] as the unique ring map, phi_a = sum a_k phi_T^k,
read off one table of the powers phi_T^k that each module keeps and
builds one skew product at a time; the peel below reads it too.

Frobenius characteristic polynomials at a prime f of degree d need no
linear algebra.  With q = r and g the leading coefficient of phi_T, the
norm is Gekeler's closed form mu = (-1)^((rank-1)d) N(g)^(-1) f, where
N(g) = g^((q^d-1)/(q-1)) is the norm from A/(f) to F_q, one power in
A/(f).  Rank 1 checks tau^d = phi_mu.  Rank 2 reads a off
phi_a tau^d = tau^(2d) + phi_mu by tau-degree: phi_a has tau-degree
2 deg a and a unit leading coefficient over the field A/(f), so a is
peeled off from the top against the kept powers phi_T^k, and the zero
remainder is the exact check.

Each verified result is a ``functools.cache`` entry keyed by value as
(base field, phi_T, f), kept for the process, so a module rebuilt for a
later request finds it again.  Each Dirichlet table is kept the same
way, frozen, under (base field, phi_T, degree bound).  A call that
raises (bad reduction, no solution, a field mismatch, an unsupported
module) is not stored and raises again next time.  Special values
sum c(n) n^j come from the Euler product, one kept Frobenius result and
one power f^j per prime, and read no table.  The slow oracle for
``lseries_coeffs``, ``lseries_coeffs_by_expansion``, solves every prime
and builds its table afresh, and neither reads nor writes those entries.

A product a * b twists row i of b by Frobenius^i.  The twisted rows are
kept on b, which is immutable, so the module's one phi_T twists its
coefficients once for every power phi_T^k that multiplies by it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import (
    BadReduction,
    FieldMismatch,
    NoSolution,
    PreconditionViolated,
)
from .ffpoly import FiniteField, Poly, enumerate_monic_primes
from .nonarch import VadicRing


class SkewPoly:
    """Sum of a_i tau^i with the twist tau * a = a^twist * tau."""

    __slots__ = ("coeffs", "twist", "_rows")

    def __init__(self, coeffs: Sequence, twist: int):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)
        self.twist = twist
        self._rows = [self.coeffs]

    def twisted_rows(self, n: int) -> list[tuple]:
        """The coefficients under Frobenius^i for i < n: row i is
        (c^(twist^i) for c in coeffs).  Rows once built are kept."""
        rows = self._rows
        while len(rows) < n:
            rows.append(tuple(c ** self.twist for c in rows[-1]))
        return rows

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "SkewPoly"):
        if self.twist != other.twist:
            raise FieldMismatch("skew polynomials with different twists")

    def __add__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return SkewPoly([x + y for x, y in zip(a, b)] + list(a[len(b):]),
                        self.twist)

    def __neg__(self):
        return SkewPoly([-c for c in self.coeffs], self.twist)

    def __sub__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return SkewPoly((), self.twist)
        out = [a[0] * 0] * (len(a) + len(b) - 1)
        for i, (ai, twisted) in enumerate(zip(a, other.twisted_rows(len(a)))):
            if not ai.is_zero():
                for k, bk in enumerate(twisted):
                    out[i + k] = out[i + k] + ai * bk
        return SkewPoly(out, self.twist)

    def scale(self, c):
        """Left multiplication by the scalar c tau^0."""
        return SkewPoly([c * x for x in self.coeffs], self.twist)

    def __eq__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self.twist == other.twist and list(self.coeffs) == list(other.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            parts.append(f"({c!r})tau^{i}" if i else f"({c!r})")
        return " + ".join(parts)


def skew_tau(one, k: int, twist: int) -> SkewPoly:
    """tau^k as a skew polynomial, given the coefficient ring's one."""
    return SkewPoly([one * 0] * k + [one], twist)


# ---------------------------------------------------------------------------
# Drinfeld modules
# ---------------------------------------------------------------------------

class DrinfeldModule:
    """A module of rank = len(phi_T) - 1 over operators F_r[T].

    ``phi_T`` lists (gamma(T), g_1, ..., g_rank) in the coefficient ring,
    which is A (``Poly``) or a residue ring A/(f^M) (``VadicElem``).  The
    rank is genuine: the leading coefficient must be nonzero.
    """

    def __init__(self, base_field: FiniteField, phi_T: Sequence, label: str = ""):
        if len(phi_T) < 2 or phi_T[-1].is_zero():
            raise PreconditionViolated(
                "leading coefficient of phi_T must be nonzero")
        self.base_field = base_field
        self.phi_T = tuple(phi_T)
        self._one = self.phi_T[0] ** 0
        self._powers = [self.one(), SkewPoly(self.phi_T, self.twist)]
        self.label = label or f"rank-{len(phi_T) - 1} module"

    def scalar(self, c: int):
        """The encoded F_r constant c in the coefficient ring."""
        return self._one * c

    @property
    def rank(self) -> int:
        return len(self.phi_T) - 1

    @property
    def twist(self) -> int:
        return self.base_field.order

    def phi_T_skew(self) -> SkewPoly:
        """phi_T as one skew polynomial per module, so its twisted rows are
        built once: the power phi_T^1 of the kept table."""
        return self._powers[1]

    def one(self) -> SkewPoly:
        return SkewPoly([self.scalar(1)], self.twist)

    def phi_T_powers(self, n: int) -> list[SkewPoly]:
        """The kept powers phi_T^0, phi_T^1, ..., built one skew product
        at a time until at least n are kept."""
        powers = self._powers
        while len(powers) < n:
            powers.append(powers[-1] * powers[1])
        return powers

    def phi(self, a: Poly) -> SkewPoly:
        """Image of a in the skew ring: the sum of a_k phi_T^k over the
        kept powers, each scaled on the left by the constant a_k."""
        if a.field != self.base_field:
            raise FieldMismatch("operand must live over the operator constants")
        powers = self.phi_T_powers(len(a.coeffs))
        return sum((power if c == 1 else power.scale(self.scalar(c))
                    for c, power in zip(a.coeffs, powers) if c),
                   SkewPoly((), self.twist))

    def reduce_mod(self, f: Poly) -> "DrinfeldModule":
        """Coefficient-wise reduction at a prime of A; the coefficients
        must be elements of A (good reduction keeps the leading one)."""
        ring = VadicRing(f, 1)
        if not all(isinstance(c, Poly) for c in self.phi_T):
            raise TypeError("reduce_mod needs A-integral coefficients")
        lead = self.phi_T[-1] % f
        if lead.is_zero():
            raise BadReduction(f"leading coefficient vanishes mod {f}")
        red = [ring.elem(c) for c in self.phi_T]
        return DrinfeldModule(self.base_field, red, label=f"{self.label} mod {f}")


def carlitz_module(field: FiniteField) -> DrinfeldModule:
    """phi_T = theta tau^0 + tau over the scalar copy of A."""
    T = Poly.variable(field)
    return DrinfeldModule(field, (T, Poly.one(field)), label="carlitz")


def module_over_A(field: FiniteField, tau_coeffs: Sequence[Poly],
                  label: str = "") -> DrinfeldModule:
    """Module with phi_T = theta + g_1 tau + ... + g_rank tau^rank, g_i in A."""
    T = Poly.variable(field)
    return DrinfeldModule(field, (T, *tau_coeffs), label=label)


# ---------------------------------------------------------------------------
# Frobenius characteristic polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrobeniusData:
    """Frobenius characteristic polynomial of a module reduced at f:
    1 - mu t in rank 1, 1 - a t + mu t^2 in rank 2, with mu = epsilon f.

    ``mu`` is Gekeler's closed form (-1)^((rank-1)d) N(g)^(-1) f, with g
    the leading coefficient of phi_T, and ``a`` is read off by
    tau-degree; ``verified`` means the Frobenius equation held exactly.
    ``trace_bound_ok`` records 2 deg a <= deg f, the local Riemann
    hypothesis bound.  It follows from tau-degrees in any verified
    answer: phi_a tau^d has tau-degree 2 deg a + d, which is at most the
    2d of tau^(2d) + phi_mu, so it cannot come out False.  Frozen: a
    kept result is shared by every later caller.
    """

    rank: int
    mu: Poly
    a: Poly | None = None
    epsilon: int = 1
    verified: bool = False
    trace_bound_ok: bool = True

    def charpoly_string(self) -> str:
        if self.rank == 1:
            return f"1 - ({self.mu}) t"
        return f"1 - ({self.a}) t + ({self.mu}) t^2"


def frobenius_charpoly(module: DrinfeldModule, f: Poly) -> FrobeniusData:
    """Exact Frobenius trace/norm of the reduction of ``module`` at f.

    ``module`` has coefficients in A; it is reduced at f here.  With
    d = deg f, Fr = tau^d and g the leading coefficient of phi_T, the
    norm is Gekeler's closed form mu = (-1)^((rank-1)d) N(g)^(-1) f,
    where N(g) = g^((q^d-1)/(q-1)) is the norm from A/(f) to F_q
    (Gekeler, "Frobenius distributions of Drinfeld modules over finite
    fields", Trans. AMS 360, 2008).  Rank 1 checks phi_mu = Fr.  Rank 2
    reads a off phi_a Fr = Fr^2 + phi_mu by tau-degree
    (``_phi_preimage``); its zero remainder is the exact check.  Either
    check failing raises NoSolution, so a wrong unit can never give a
    silent wrong answer.  Rank 3 and above raise PreconditionViolated
    before any work (``_supported``).

    A result is a ``functools.cache`` entry of ``_kept_frobenius``,
    keyed by value as (module.base_field, module.phi_T, f) once its check
    has passed, and later calls with equal values return it; a call that
    raises is not stored.
    """
    return _kept_frobenius(*_supported(module, f))


def _supported(module: DrinfeldModule, x) -> tuple:
    """The key (base field, phi_T, x) of a kept result for the module;
    ranks 3 and above raise PreconditionViolated here, before any work."""
    if module.rank > 2:
        raise PreconditionViolated("only ranks 1 and 2 are supported")
    return (module.base_field, module.phi_T, x)


@functools.cache
def _kept_frobenius(base_field: FiniteField, phi_T: tuple, f: Poly) -> FrobeniusData:
    return _solve_frobenius(DrinfeldModule(base_field, phi_T), f)


def _solve_frobenius(module: DrinfeldModule, f: Poly) -> FrobeniusData:
    """``frobenius_charpoly`` without the kept results or the rank check."""
    reduced = module.reduce_mod(f)
    d = int(f.degree)
    eps = _norm_unit(reduced, d)
    mu = f.scale(eps)
    if module.rank == 1:
        if reduced.phi(mu) != skew_tau(reduced.scalar(1), d, reduced.twist):
            raise NoSolution(f"no rank-1 Frobenius norm at {f}")
        return FrobeniusData(1, mu, None, eps, True, True)
    rhs = skew_tau(reduced.scalar(1), 2 * d, reduced.twist) + reduced.phi(mu)
    a = None
    if all(c.is_zero() for c in rhs.coeffs[:d]):
        a = _phi_preimage(reduced, SkewPoly(rhs.coeffs[d:], reduced.twist))
    if a is None:
        raise NoSolution(f"no rank-2 Frobenius charpoly at {f}")
    bound_ok = a.is_zero() or 2 * int(a.degree) <= d
    return FrobeniusData(2, mu, a, eps, True, bound_ok)


def _norm_unit(reduced: DrinfeldModule, d: int) -> int:
    """eps = (-1)^((rank-1)d) / N(g) in F_q for g the leading coefficient
    of phi_T, so that mu = eps f; the norm N(g) = g^((q^d-1)/(q-1)) is
    one power in A/(f)."""
    field = reduced.base_field
    q = field.order
    norm = (reduced.phi_T[-1] ** ((q ** d - 1) // (q - 1))).rep
    if norm.degree != 0:
        raise NoSolution(f"norm of the leading coefficient is not in F_{q}")
    eps = field.inv(norm.coeffs[0])
    return field.neg(eps) if (reduced.rank - 1) * d % 2 else eps


def _phi_preimage(reduced: DrinfeldModule, target: SkewPoly) -> Poly | None:
    """The x in A with phi_x == target in a module reduced at a prime, or
    None when there is none.

    Over the field A/(f), phi_T^k has tau-degree rank * k and a unit
    leading coefficient, so x is peeled off from the top: the remainder's
    top coefficient sits at tau^(rank k), its quotient by the leading
    coefficient of phi_T^k must lie in F_q and is x_k, and x_k phi_T^k is
    subtracted.  The powers are the module's kept ones, those phi_f built.
    A zero remainder is the exact check phi_x == target.
    """
    n = max(target.degree, 0) // reduced.rank + 1
    powers = reduced.phi_T_powers(n)
    coeffs = [0] * n
    rem = target
    while not rem.is_zero():
        k, off = divmod(rem.degree, reduced.rank)
        if off:
            return None
        power = powers[k]
        c = (rem.coeffs[-1] * power.coeffs[-1].inverse()).rep
        if c.degree != 0:
            return None
        coeffs[k] = c.coeffs[0]
        rem = rem - power.scale(reduced.scalar(coeffs[k]))
    return Poly(reduced.base_field, coeffs)


# ---------------------------------------------------------------------------
# Euler products and Dirichlet coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirichletCoefficients:
    """c(n) for monic n up to a degree bound, multiplicative, with the
    rank-local recursion at prime powers; bad primes are omitted from the
    product and recorded.  Frozen, with ``c`` a read-only mapping in
    output order (degree, then coefficients): a kept table is shared by
    every later caller."""

    field: FiniteField
    c: Mapping[Poly, Poly]
    skipped: tuple[Poly, ...] = ()

    def at(self, n: Poly) -> Poly:
        return self.c.get(n, Poly.zero(self.field))


def _frozen_table(field: FiniteField, c: dict, skipped: list
                  ) -> DirichletCoefficients:
    order = sorted(c, key=lambda n: (int(n.degree), n.coeffs))
    return DirichletCoefficients(
        field, MappingProxyType({n: c[n] for n in order}), tuple(skipped))


def local_factor_coeffs(data: FrobeniusData, kmax: int) -> list[Poly]:
    """h_k with 1/f_P(t) = sum h_k t^k, by h_k = a h_(k-1) - mu h_(k-2)
    for f_P = 1 - a t + mu t^2; rank 1 is a = mu with no t^2 term."""
    field = data.mu.field
    a, mu = (data.mu, Poly.zero(field)) if data.rank == 1 else (data.a, data.mu)
    hs = [Poly.one(field), a]
    while len(hs) <= kmax:
        hs.append(a * hs[-1] - mu * hs[-2])
    return hs[:kmax + 1]


def lseries_coeffs(module: DrinfeldModule, degree_bound: int
                   ) -> DirichletCoefficients:
    """Dirichlet coefficients of the module's L-series up to the bound,
    built multiplicatively from per-prime Frobenius data; bad primes are
    skipped and recorded.  A table is a ``functools.cache`` entry of
    ``_kept_dirichlet``, keyed by value as (module.base_field,
    module.phi_T, degree_bound); a build that raises is not stored."""
    return _kept_dirichlet(*_supported(module, degree_bound))


@functools.cache
def _kept_dirichlet(base_field: FiniteField, phi_T: tuple, degree_bound: int
                    ) -> DirichletCoefficients:
    return _build_dirichlet(DrinfeldModule(base_field, phi_T), degree_bound)


def _build_dirichlet(module: DrinfeldModule, degree_bound: int
                     ) -> DirichletCoefficients:
    """``lseries_coeffs`` without the kept tables."""
    field = module.base_field
    c = {Poly.one(field): Poly.one(field)}
    skipped = []
    for f, data in _good_primes(module, degree_bound, skipped):
        deg_f = int(f.degree)
        kmax = degree_bound // deg_f
        hs = local_factor_coeffs(data, kmax)
        for n, cn in list(c.items()):  # the n prime to f
            nf = n  # n f^k
            for k in range(1, (degree_bound - int(n.degree)) // deg_f + 1):
                nf = nf * f
                c[nf] = cn * hs[k]
    return _frozen_table(field, c, skipped)


def _good_primes(module: DrinfeldModule, degree_bound: int, skipped: list):
    """(f, kept Frobenius data) per good prime; bad ones go to ``skipped``."""
    for deg_f in range(1, degree_bound + 1):
        for f in enumerate_monic_primes(module.base_field, deg_f):
            try:
                data = frobenius_charpoly(module, f)
            except BadReduction:
                skipped.append(f)
                continue
            yield f, data


def lseries_coeffs_by_expansion(module: DrinfeldModule, degree_bound: int
                                ) -> DirichletCoefficients:
    """Independent route: expand every local factor as a truncated
    geometric series (actual polynomial powers of a t - mu t^2) and
    combine the local dictionaries pairwise, in reverse prime order.
    The Frobenius data are solved afresh and the table is built afresh:
    neither is read from or written to the results that
    ``frobenius_charpoly`` and ``lseries_coeffs`` keep."""
    _supported(module, degree_bound)
    field = module.base_field
    locals_: list[tuple[Poly, list[Poly]]] = []
    skipped = []
    for deg_f in range(1, degree_bound + 1):
        for f in enumerate_monic_primes(field, deg_f):
            try:
                data = _solve_frobenius(module, f)
            except BadReduction:
                skipped.append(f)
                continue
            kmax = degree_bound // deg_f
            # g = a t - mu t^2 as a t-coefficient list over A
            if data.rank == 1:
                g = [Poly.zero(field), data.mu]
            else:
                g = [Poly.zero(field), data.a, -data.mu]
            hs = [Poly.zero(field)] * (kmax + 1)
            hs[0] = Poly.one(field)
            power = [Poly.one(field)]
            for _ in range(kmax):
                power = _tpoly_mul(power, g, kmax)
                for k, v in enumerate(power):
                    hs[k] = hs[k] + v
            locals_.append((f, hs))
    c = {Poly.one(field): Poly.one(field)}
    for f, hs in reversed(locals_):
        deg_f = int(f.degree)
        new = dict(c)
        for n, cn in c.items():
            nd = int(n.degree) if n.coeffs else 0
            for k in range(1, degree_bound // deg_f + 1):
                if nd + k * deg_f > degree_bound:
                    break
                if hs[k].is_zero():
                    continue
                key = n * f ** k
                prev = new.get(key, Poly.zero(field))
                new[key] = prev + cn * hs[k]
        c = new
    c = {n: v for n, v in c.items() if not v.is_zero() or n.is_one()}
    return _frozen_table(field, c, skipped)


def _tpoly_mul(a: list[Poly], b: list[Poly], kmax: int) -> list[Poly]:
    field = a[0].field
    out = [Poly.zero(field)] * min(len(a) + len(b) - 1, kmax + 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for k, bk in enumerate(b):
            if i + k > kmax:
                break
            if not bk.is_zero():
                out[i + k] = out[i + k] + ai * bk
    return out


def lseries_special_coeffs(module: DrinfeldModule, j: int, dmax: int
                           ) -> list[Poly]:
    """Exact A-coefficients sum over deg n = d of c(n) n^j, for d <= dmax,
    from the Euler product: in ascending degree, each good prime f divides
    the series by 1 - a y + mu y^2 (rank 1: 1 - mu y), y = f^j x^(deg f)."""
    _supported(module, dmax)
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    out = [Poly.one(module.base_field)] + [Poly.zero(module.base_field)] * dmax
    for f, data in _good_primes(module, dmax, []):
        e, fj = int(f.degree), f ** j
        A = (data.mu if data.rank == 1 else data.a) * fj
        M = data.mu * fj * fj if data.rank == 2 else None
        for d in range(e, dmax + 1):
            out[d] = out[d] + A * out[d - e]
            if M is not None and d >= 2 * e:
                out[d] = out[d] - M * out[d - 2 * e]
    return out
