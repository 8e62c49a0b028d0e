"""The square-root Carlitz example: complex multiplication by F_2[sqrt(T)].

Everything here lives over F_2.  Write A = F_2[T] for the operator ring
and A' = F_2[u] for its quadratic-inseparable extension with u^2 = T.
In characteristic 2 every a in A has a unique square root a' in A', and
the coefficient tuples agree: (sum a_i u^i)^2 = sum a_i u^(2i) = a(u^2).
So the square-root map and its inverse are pure reinterpretation of the
same data: a Poly over F_2 is read in T or in u as the context says, and
no conversion function is needed.

The objects computed here:

* the Hecke-style character n -> n' and its L-series coefficients
  l_d(j) = sum over monic deg-d n of n' * n^j, exact in A';
* the identity l_d(j) = S'_d(2j+1) with S' the power sum in A';
* the rank-2 module psi with psi_T = theta + (theta + sqrt(theta)) tau
  + tau^2 over F_2(sqrt(theta)), which is the composition of the
  degree-one Carlitz action for A' with itself; its Euler factor at
  every prime is the square of the character's factor, checked through
  the rank-2 Frobenius charpoly coming out as (a, mu) = (0, g);
* zero-valuation parity observables: u-adic slopes of the v-adic family
  (the removed Euler factor contributes the odd slope 2j+1) and the
  even slopes of the same data at infinity.

One structural fact shows up in every v-adic parity run: the degree-1
coefficient sum over the single coprime monic (T+1) is (u+1)^(2j+1), a
u-adic unit, so the polygon always opens with a slope-0 segment of
length 1 (the analog of the twist's trivial zero).  Slope 0 is even;
the parity check therefore reports that one segment as a violation at
every exponent, and the report keeps it visible instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _packing as pk
from .drinfeld import DrinfeldModule, FrobeniusData, frobenius_charpoly
from .errors import ProvisionalPolygon
from .ffpoly import FiniteField, Poly, enumerate_monic_primes
from .newton import minus_degree, polygon_of
from .zeta import power_sum

_F2 = FiniteField(2)


def base_field() -> FiniteField:
    return _F2


# ---------------------------------------------------------------------------
# Hecke character sums
# ---------------------------------------------------------------------------

def hecke_special(j: int, dmax: int, *, coprime_to_T: bool = False) -> list[Poly]:
    """l_d(j) = sum of n' * n^j over monic deg-d n, exact in A'.

    n^j is computed in T and mapped through T -> u^2, then multiplied by
    n'; with ``coprime_to_T`` only n with nonzero constant term enter.
    """
    if j < 0:
        raise ValueError("need j >= 0")
    out = []
    for d in range(dmax + 1):
        acc = 0
        lead = 1 << d
        for i in range(1 << d):
            nb = i | lead
            if coprime_to_T and not (nb & 1):
                continue
            npow = pk.f2_pow(nb, j)         # n^j in T
            spread = pk.f2_spread(npow, 2)  # T -> u^2
            acc ^= pk.f2_mul(nb, spread)    # times n'
        out.append(Poly(_F2, pk.f2_to_coeffs(acc)))
    return out


@dataclass
class HeckeIdentityReport:
    j: int
    dmax: int
    per_degree: list[bool]
    passed: bool


def hecke_identity(j: int, dmax: int, *, cache=None) -> HeckeIdentityReport:
    """l_d(j) == S'_d(2j+1) for d <= dmax, exactly in A'.

    The left side is enumerated term by term; the right side comes from
    the power-sum recursion, so the routes are independent.
    """
    ls = hecke_special(j, dmax)
    per = []
    for d in range(dmax + 1):
        per.append(ls[d] == power_sum(_F2, d, 2 * j + 1, cache=cache))
    return HeckeIdentityReport(j, dmax, per, all(per))


# ---------------------------------------------------------------------------
# the CM module
# ---------------------------------------------------------------------------

def carlitz_prime_module() -> DrinfeldModule:
    """The Carlitz action of A' on itself: C'_u = sqrt(theta) tau^0 + tau."""
    u = Poly.variable(_F2)
    return DrinfeldModule(_F2, (u, Poly.one(_F2)),
                          label="carlitz for the square-root ring")


def psi_module() -> DrinfeldModule:
    """The rank-2 A-module psi_T = theta + (theta + sqrt(theta)) tau + tau^2,
    coefficients in A' with theta = u^2."""
    u = Poly.variable(_F2)
    theta = u * u
    return DrinfeldModule(_F2, (theta, theta + u, Poly.one(_F2)),
                          label="sqrt-carlitz CM module")


def psi_composition_check() -> bool:
    """psi_T equals C'_u composed with itself, exactly in the skew ring."""
    cprime = carlitz_prime_module().phi_T_skew()
    return cprime * cprime == psi_module().phi_T_skew()


@dataclass
class PsiFactorizationReport:
    per_prime: list[tuple[Poly, FrobeniusData, bool]]
    passed: bool


def psi_factorization_check(max_degree: int = 4) -> PsiFactorizationReport:
    """At every prime (g') of A' with deg <= max_degree, the rank-2
    Frobenius charpoly of psi must be (a, mu) = (0, g), i.e. the Euler
    factor 1 + g t^2 = (1 + g' t)^2, the square of the character's factor."""
    psi = psi_module()
    rows = []
    for d in range(1, max_degree + 1):
        for gprime in enumerate_monic_primes(_F2, d):
            data = frobenius_charpoly(psi, gprime)
            ok = (data.a is not None and data.a.is_zero()
                  and data.mu == gprime and data.verified)
            rows.append((gprime, data, ok))
    return PsiFactorizationReport(rows, all(ok for _, _, ok in rows))


# ---------------------------------------------------------------------------
# parity of zero valuations
# ---------------------------------------------------------------------------

@dataclass
class ParityReport:
    j: int
    dmax: int
    precision: int
    vadic_slopes: list[Fraction]
    vadic_violations: list[Fraction]
    infty_slopes: list[Fraction]
    infty_violations: list[Fraction]
    removed_factor_slope: int
    vadic_all_odd: bool
    infty_all_even: bool

    @property
    def passed(self) -> bool:
        return self.vadic_all_odd and self.infty_all_even


def parity_report(j: int, dmax: int = 8, precision: int = 64) -> ParityReport:
    """Slope parities of the character's family at v = (T) and at infinity.

    The v-adic family at the integer point is the exact coprime sum
    sum n' n^j in A' (it already contains the removed Euler factor's zero
    of slope 2j+1); its Newton polygon is taken with respect to u-order.
    The infinity side uses the full sums with valuation -deg_u.  Both
    sides are exact, so neither polygon is ever provisional; if an exact
    valuation reaches the presentation precision, the A'/(u^M) view would
    lose a genuine point and ProvisionalPolygon is raised instead.
    """
    def u_order(c: Poly) -> int | None:
        if c.is_zero():
            return None
        v = next(i for i, cc in enumerate(c.coeffs) if cc)
        if v >= precision:
            raise ProvisionalPolygon(
                f"exact u-valuation {v} >= presentation precision {precision}")
        return v

    poly_v = polygon_of(hecke_special(j, dmax, coprime_to_T=True), u_order)
    slopes_v = [s.slope for s in poly_v.segments]
    bad_v = [s for s in slopes_v if s.denominator != 1 or s.numerator % 2 == 0]

    poly_i = polygon_of(hecke_special(j, dmax), minus_degree)
    slopes_i = [s.slope for s in poly_i.segments]
    bad_i = [s for s in slopes_i if s.denominator != 1 or s.numerator % 2 != 0]

    return ParityReport(
        j, dmax, precision,
        slopes_v, bad_v, slopes_i, bad_i,
        removed_factor_slope=2 * j + 1,
        vadic_all_odd=not bad_v,
        infty_all_even=not bad_i)
