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
* the identity l_d(j) = S'_d(2j+1) with S' the power sum in A': n' * n^j(u^2)
  = (n')^(2j+1), so l_d(j) comes from the enumeration oracle and S'_d(2j+1)
  from the power-sum engine, two routes that share no kernel;
* the rank-2 module psi with psi_T = theta + (theta + sqrt(theta)) tau
  + tau^2 over F_2(sqrt(theta)), which is the composition of the
  degree-one Carlitz action for A' with itself; its Euler factor at
  every prime is the square of the character's factor, checked through
  the rank-2 Frobenius charpoly coming out as (a, mu) = (0, g);
* zero-valuation parity observables of the one enumeration of l_d(j):
  even slopes at infinity; odd u-adic slopes at v = (T) (the removed Euler
  factor gives 2j+1) of the coprime sums l_d(j) - u^(2j+1) l_(d-1)(j), as
  a multiple of T is n = T m with n' = u m' and n^j = u^(2j) m(u^2)^j.

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

from .drinfeld import DrinfeldModule, FrobeniusData, carlitz_module, frobenius_charpoly
from .errors import ProvisionalPolygon
from .ffpoly import FiniteField, Poly, enumerate_monic_primes
from .newton import minus_degree, polygon_of
from .oracle import power_sum_enumerated
from .zeta import special_polynomial

_F2 = FiniteField(2)


# ---------------------------------------------------------------------------
# Hecke character sums
# ---------------------------------------------------------------------------

def hecke_special(j: int, dmax: int) -> list[Poly]:
    """l_d(j) = sum of n' * n^j over monic deg-d n, exact in A'.

    Each term n' * n^j(u^2) is (n')^(2j+1), so l_d(j) is the enumerated
    power sum S_d(2j+1) of the oracle, read in u.  Over n = T m,
    n' n^j = u^(2j+1) m' m(u^2)^j, so the sums over n coprime to T are
    l_d(j) - u^(2j+1) l_(d-1)(j) (``_coprime_sums``).
    """
    if j < 0 or dmax < 0:
        raise ValueError("need j >= 0 and dmax >= 0")
    return [power_sum_enumerated(_F2, d, 2 * j + 1) for d in range(dmax + 1)]


def _coprime_sums(sums: list[Poly], j: int) -> list[Poly]:
    """l_d(j) - u^(2j+1) l_(d-1)(j): the multiples n = T m drop out."""
    return sums[:1] + [s - t.shift(2 * j + 1) for t, s in zip(sums, sums[1:])]


@dataclass
class HeckeIdentityReport:
    """l_d(j) == S'_d(2j+1) per degree, and the sums l_d(j) that
    ``parity_report`` reads (``_coprime_sums`` gives their coprime part)."""
    j: int
    dmax: int
    per_degree: list[bool]
    passed: bool
    sums: list[Poly]


def hecke_identity(j: int, dmax: int) -> HeckeIdentityReport:
    """l_d(j) == S'_d(2j+1) for d <= dmax, exactly in A'.

    The left side comes from the enumeration oracle (monics as the bit
    fields of one int), the right side from the power-sum engine on the
    packed kernels, in one layered pass (the special polynomial at
    2j+1); the two routes share no kernel, and neither reads a cache.
    """
    ls = hecke_special(j, dmax)
    rhs = special_polynomial(_F2, 2 * j + 1, dmax).coeffs
    per = [s == t for s, t in zip(ls, rhs)]
    return HeckeIdentityReport(j, dmax, per, all(per), ls)


# ---------------------------------------------------------------------------
# the CM module
# ---------------------------------------------------------------------------

def psi_module() -> DrinfeldModule:
    """The rank-2 A-module psi_T = theta + (theta + sqrt(theta)) tau + tau^2,
    coefficients in A' with theta = u^2."""
    u = Poly.variable(_F2)
    theta = u * u
    return DrinfeldModule(_F2, (theta, theta + u, Poly.one(_F2)),
                          label="sqrt-carlitz CM module")


def psi_composition_check() -> bool:
    """psi_T equals C'_u composed with itself, exactly in the skew ring.
    C'_u = sqrt(theta) tau^0 + tau is the Carlitz module over F_2 read in u."""
    cprime = carlitz_module(_F2).phi_T_skew()
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


def parity_report(identity: HeckeIdentityReport, precision: int = 64) -> ParityReport:
    """Slope parities at v = (T) and at infinity of the sums of ``identity``.

    The v-adic family at the integer point is the exact coprime sum
    sum n' n^j in A' (it contains the removed Euler factor's zero of slope
    2j+1): l_d(j) - u^(2j+1) l_(d-1)(j), as n = T m gives n' n^j =
    u^(2j+1) m' m(u^2)^j.  Its polygon is taken with respect to u-order;
    the infinity side uses the full sums l_d(j) with valuation -deg_u.  Both
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

    poly_v = polygon_of(_coprime_sums(identity.sums, identity.j), u_order)
    slopes_v = [s.slope for s in poly_v.segments]
    bad_v = [s for s in slopes_v if s.denominator != 1 or s.numerator % 2 == 0]

    poly_i = polygon_of(identity.sums, minus_degree)
    slopes_i = [s.slope for s in poly_i.segments]
    bad_i = [s for s in slopes_i if s.denominator != 1 or s.numerator % 2 != 0]

    return ParityReport(
        identity.j, slopes_v, bad_v, slopes_i, bad_i,
        removed_factor_slope=2 * identity.j + 1,
        vadic_all_odd=not bad_v,
        infty_all_even=not bad_i)
