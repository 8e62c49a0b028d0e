"""Power sums, special polynomials, and coefficient families of zeta data.

The central quantity is the exact power sum

    S_d(j) = sum of n^j over monic n of degree d in F_q[T].

Two independent routes compute it:

* :func:`power_sum` expands (T^d + m)^j binomially over the coefficient
  subspace V_d = {deg < d} and uses that the inner character sum over
  F_q kills every exponent not divisible by q-1.  All values lie in the
  prime subfield (the monic family is Galois stable), so the recursion
  runs on packed prime-field polynomials and is fast enough for
  four-digit exponents.  ``_subspace_sum`` gives the subspace sums
  E_d(t), each a ``functools.cache`` entry under (p, q, d, t) kept for
  the process, and ``_monic_sum`` combines them into S_d(j).

* :func:`power_sum_enumerated` (from :mod:`ffzeta.oracle`) lists the
  monic polynomials (optionally a sub-range of their indices) as rows of
  a numpy block and raises them all to the power j at once, in its own
  arithmetic: no packed kernel and no ``Poly`` product.  This is the
  oracle route: slow, transparent, exactly the definition.  The test
  suite pins the two routes against each other across fields, and the
  identity checks below take their enumerated sides from it.

Families of local-field coefficients (the d-th coefficient of the zeta
series at a fixed exponent) come from the same recursion in closed form:
at infinity and at every finite prime each coefficient is a binomial sum
of subspace or monic power sums, at primes of degree >= 2 paired with
residue sums built once per family.  The tests' oracle sums n^s, taken
from its definition, over the coprime monics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import _packing as pk
from ._packing import ceil_log
from .errors import CacheCorruption, PreconditionViolated, ZeroPolynomial
from .ffpoly import FiniteField, Poly, enumerate_monic
from .nonarch import (
    LaurentSeries,
    PadicExponent,
    SvPoint,
    VadicElem,
    VadicRing,
)
# the enumeration oracle; multiples_power_sum and power_sum_enumerated are
# re-exported here, where the benchmark's spans wrap them
from .oracle import (  # noqa: F401
    coprime_power_sum,
    coprime_power_sums,
    multiples_power_sum,
    power_sum_enumerated,
)


# ---------------------------------------------------------------------------
# fast route: subspace binomial recursion on prime-field packed polynomials
# ---------------------------------------------------------------------------

@functools.cache
def _subspace_sum(p: int, q: int, d: int, t: int) -> int:
    """E_d(t) = sum of m^t over all m with deg m < d, over F_q.

    Writing m = c T^(d-1) + m' expands m^t over the Lucas sub-exponents s
    of t, and the sum over c in F_q keeps -1 exactly where s > 0 and
    (q-1) | s.  ``lucas_residue`` lists only those s, by meet in the middle
    on the digits of t; each C(t, s) it returns is a unit mod p.  The
    values live in F_p[T] and are kept in the reduced packed format of
    :mod:`ffzeta._packing`; every sum goes through ``pk_sum``.
    """
    if d == 0:
        return int(t == 0)  # the constant 1 in every packed format
    terms = [((p - 1) * c % p, _subspace_sum(p, q, d - 1, t - s), (d - 1) * s)
             for s, c in pk.lucas_residue(t, p, q - 1, 0)[1:]]
    return pk.pk_sum(terms, p, (d - 1) * t + 1)


def _monic_sum(p: int, q: int, d: int, j: int) -> int:
    """S_d(j) over F_q, packed like the subspace sums."""
    terms = [(c, _subspace_sum(p, q, d, t), d * (j - t))
             for t, c in pk.lucas_subsets(j, p)]
    return pk.pk_sum(terms, p, d * j + 1)


def _monic_poly(field: FiniteField, d: int, j: int) -> Poly:
    """S_d(j) as a polynomial over ``field``."""
    packed = _monic_sum(field.p, field.order, d, j)
    return Poly._of_reduced(field, pk.pk_unpack(packed, d * j + 1, field.p))


def _binomial_window(p: int, e: int, prec: int, part, scale: int = 1) -> list[int]:
    """Coefficients of T^0 .. T^(prec-1) in scale * sum_t C(e,t) T^t part(t).

    t runs over the Lucas subsets of e below prec; ``part(t)`` is a
    packed polynomial (0 to skip t).  Digits of e at p^L >= prec only
    pair with t >= prec, so they are dropped before the subsets are
    listed.
    """
    low = e % p ** ceil_log(p, prec)
    terms = [(c * scale % p, part(t), t)
             for t, c in pk.lucas_subsets(low, p) if t < prec]
    return pk.pk_unpack(pk.pk_sum(terms, p, prec), prec, p)


def power_sum(field: FiniteField, d: int, j: int, *, cache=None) -> Poly:
    """Exact S_d(j); consults/updates the cache when one is supplied."""
    if d < 0 or j < 0:
        raise ValueError("need d >= 0 and j >= 0")
    if cache is not None:
        hit = cache.get(field, d, j)
        if hit is not None:
            if cache.should_spot_check() and _monic_poly(field, d, j) != hit:
                raise CacheCorruption(
                    f"cache entry S_{d}({j}) disagrees with recomputation")
            return hit
    value = _monic_poly(field, d, j)
    if cache is not None:
        cache.put(field, d, j, value)
    return value


# ---------------------------------------------------------------------------
# special polynomials
# ---------------------------------------------------------------------------

def special_degree_bound(field: FiniteField, j: int) -> int:
    """B(j) = l_q(j) // (q-1), with l_q the base-q digit sum: S_d(j) = 0
    for every d > B(j) (Carlitz; Thakur, *Function Field Arithmetic*,
    2004, ch. 5; Sheats, J. Number Theory 71, 1998).

    Proof, read off the recursion: ``_monic_sum`` adds C(j, t)
    T^(d(j-t)) E_d(t) over the Lucas subsets t of j in base p, and
    ``_subspace_sum`` is nonzero only if t splits without base-p carries
    into d parts, each a positive multiple of q-1 (the sum of a^s over
    F_q vanishes unless s > 0 and (q-1) | s).  A base-p carry-free sum is
    base-q carry-free, so l_q(t) is the sum of the parts' digit sums, and
    each is at least q-1 (positive and = 0 mod q-1): l_q(t) >= d(q-1).
    A Lucas subset t of j has l_q(t) <= l_q(j).  So every E_d(t) in
    S_d(j) vanishes once d(q-1) > l_q(j), over F_p and F_(p^m) alike.
    """
    if j < 0:
        raise ValueError("need j >= 0")
    q = field.order
    return sum(pk.base_digits(j, q)) // (q - 1)


@dataclass
class SpecialPolynomial:
    """z(x, -j) = sum over d of S_d(j) x^(-d): the coefficients S_d(j) in
    A for d up to at least :func:`special_degree_bound`, past which every
    S_d(j) is proved zero, and the degree of the last nonzero one."""

    field: FiniteField
    coeffs: list[Poly]
    observed_degree: int


def special_polynomial(field: FiniteField, j: int, dmax_hint: int | None = None,
                       *, cache=None) -> SpecialPolynomial:
    """S_d(j) for d <= max(B(j), dmax_hint), B(j) = l_q(j) // (q-1).

    The list is the whole polynomial, certified: S_d(j) = 0 for d > B(j)
    is proved (Carlitz; Thakur, *Function Field Arithmetic*, 2004, ch. 5;
    the proof is at :func:`special_degree_bound`), not observed.  A
    ``dmax_hint`` above B(j) pads it with zeros, each still computed.
    """
    top = max(special_degree_bound(field, j), dmax_hint or 0)
    coeffs = [power_sum(field, d, j, cache=cache) for d in range(top + 1)]
    observed = max((d for d, c in enumerate(coeffs) if c.coeffs), default=0)
    return SpecialPolynomial(field, coeffs, observed)


# ---------------------------------------------------------------------------
# coefficient families
# ---------------------------------------------------------------------------

@dataclass
class CoefficientFamily:
    """d -> coefficient of x^(-d) of a series at a fixed exponent.

    At infinity the coefficients are LaurentSeries in pi = 1/T; at a
    finite prime they are VadicElem in A/(f^M), and ``ring`` is A/(f^M).
    """

    field: FiniteField
    coeffs: list
    ring: VadicRing | None = None


def zeta_family_infty(field: FiniteField, y: PadicExponent, dmax: int,
                      prec: int) -> CoefficientFamily:
    """c_d(y) = sum over monic n of degree d of <n>^(-y), to precision prec.

    Note the sign: the exponent actually applied is e = (-y) mod p^N.
    Every bracket is <n> = 1 + pi*m(pi) with m running over V_d, so
    c_d = sum_t C(e,t) pi^t E_d(t)(pi) mod pi^prec; the unseen digits of
    -y cannot move the window once p^N >= prec.
    """
    y.require_precision(prec)
    e = (-y).value()
    p, q = field.p, field.order
    out = []
    for d in range(dmax + 1):
        coeffs = _binomial_window(p, e, prec, lambda t: _subspace_sum(p, q, d, t))
        out.append(LaurentSeries(field, 0, coeffs, prec))
    return CoefficientFamily(field, out)


def zeta_family_vadic(field: FiniteField, s: SvPoint, f: Poly, dmax: int,
                      prec: int) -> CoefficientFamily:
    """Coefficient d is the sum of n^(-s) over monic degree-d n coprime
    to f, in A/(f^prec).

    At f = T write n = c(1 + T g/c) with g monic of degree d-1; the sum
    over c in F_q^* keeps the t with (q-1) | (t-a), so for d >= 1
    c_d = -sum_t C(e,t) T^t S_(d-1)(t) mod T^prec with a = (-s).s1 and
    e = (-s).s2.  Any other degree-1 prime is T + c, reached by the ring
    automorphism T -> T + c.

    At f of degree k >= 2, n^(-s) = n^g for one integer g
    (``VadicRing.integer_exponent``).  Write n = f h + c mu with h monic
    of degree d-k, c in F_q^* and mu monic of degree < k.  Expanding
    (f h + c mu)^g and summing over c, which keeps -1 where (q-1) | (g-t),
    gives c_d = -sum_t C(g,t) f^t S_(d-k)(t) W(t) mod f^prec for d >= k,
    with t < prec and W(t) = sum over mu of mu^(g-t), built once per
    family.  For d < k the coprime monics are the mu of degree d, so
    c_d = sum of their mu^g.

    The second form holds at k = 1 too and gives the same elements there,
    but the first is faster at degree-1 primes: one packed binomial window
    per coefficient, where the second multiplies polynomials per Lucas
    term.  With the second form forced at f = T, the 54 f = T requests of
    the seed-11 ``spectra`` list took a median 38 ms in process against
    27 ms, the first form faster in 9 of 10 rounds (2 shared vCPUs,
    Python 3.11), with the same outputs.  So both stay, chosen by deg f.
    """
    ring = VadicRing(f, prec)
    s.s2.require_precision(prec)
    if s.unit_order != ring.residue_order - 1 and ring.residue_order > 2:
        raise ValueError("exponent lives at a different prime (unit order mismatch)")
    minus_s = -s
    p, q = field.p, field.order
    out = []
    if ring.deg == 1:
        a, e = minus_s.s1, minus_s.s2.value()
        shift_c = f.coefficient(0)
        for d in range(dmax + 1):
            if d == 0:
                rep = Poly.one(field)
            else:
                rep = Poly(field, _binomial_window(
                    p, e, prec,
                    lambda t: _monic_sum(p, q, d - 1, t) if (t - a) % (q - 1) == 0 else 0,
                    scale=p - 1))
                if shift_c:  # degree < prec: already reduced mod f^prec
                    rep = _compose_linear(rep, f)
            out.append(VadicElem(ring, rep))
    else:
        k, q1 = ring.deg, q - 1
        g = ring.integer_exponent(minus_s)
        ts = [(t, c) for t, c in pk.lucas_residue(g % p ** ceil_log(p, prec), p, q1, g)
              if t < prec]
        t0 = g % q1  # the smallest t with (q-1) | (g-t)
        top = max((t for t, _ in ts), default=t0)
        W = {t: ring.zero() for t, _ in ts}  # complete only when dmax >= k
        out = [ring.zero() for _ in range(min(k, dmax + 1))]
        for dd in range(len(out)):
            for mu in enumerate_monic(field, dd):
                m = ring.elem(mu)
                x, step = m ** (g - top), m ** q1
                for t in range(top, t0 - 1, -q1):  # x = mu^(g-t)
                    if t in W:
                        W[t] = W[t] + x
                    if t > t0:
                        x = x * step
                out[dd] = out[dd] + x * m ** t0
        fw = {t: (ring.elem(f ** t) * w).rep for t, w in W.items()}  # f^t W(t)
        for d in range(k, dmax + 1):
            acc = Poly.zero(field)
            for t, c in ts:
                s_t = _monic_poly(field, d - k, t)
                acc = acc + fw[t] * s_t * (p - c)  # -C(g,t) f^t W(t) S_(d-k)(t)
            out.append(ring.elem(acc))
    return CoefficientFamily(field, out, ring)


# ---------------------------------------------------------------------------
# identity reports
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    per_degree: list[bool]
    passed: bool


def interp_consistency(field: FiniteField, j: int, dmax: int, prec: int,
                       *, cache=None) -> IdentityReport:
    """Check c_d(-j) = S_d(j) * pi^(d*j) to the working precision.

    The left side goes through the p-adic machinery at the integer image
    of -j; the right side is the exact power sum placed into the window.
    """
    n_digits = max(ceil_log(field.p, prec), 1)
    y = PadicExponent.from_int(field.p, -j, n_digits)
    fam = zeta_family_infty(field, y, dmax, prec)
    results = []
    for d in range(dmax + 1):
        s = power_sum(field, d, j, cache=cache)
        rhs = poly_to_series_infty(s, prec).shift(d * j) if s.coeffs else \
            LaurentSeries.zero_to_precision(field, prec)
        results.append(fam.coeffs[d].agrees_with(rhs))
    return IdentityReport(results, all(results))


def poly_to_series_infty(a: Poly, prec: int) -> LaurentSeries:
    """View a nonzero polynomial in T inside K = F_r((pi)): T^k = pi^(-k)."""
    if a.is_zero():
        raise ZeroPolynomial("zero has no leading behaviour at infinity")
    return LaurentSeries(a.field, -int(a.degree), a.coeffs[::-1], prec)


def euler_removed_identities(field: FiniteField, j: int, primes,
                             *, cache=None) -> list[IdentityReport]:
    """Exact check, for each f of ``primes``, that removing the Euler
    factor at f multiplies the special polynomial by (1 - x^(-deg f) f^j).

    Left side: the coprime power sums, enumerated by the oracle in one pass
    per degree for every f at once.  Right side: S_d(j) - f^j S_(d-deg f)(j)
    from the recursion route.  Both sides are exact elements of A;
    equality is coefficient-by-coefficient, for d up to the observed
    degree of the special polynomial plus deg f + 2.
    """
    top = special_polynomial(field, j, cache=cache).observed_degree + 2
    dfs = [int(f.degree) for f in primes]
    fjs = [f ** j for f in primes]
    per_degree: list[list[bool]] = [[] for _ in primes]
    for d in range(top + max(dfs, default=0) + 1):
        live = [i for i, df in enumerate(dfs) if d <= top + df]
        lhs = coprime_power_sums(field, d, j, [primes[i] for i in live])
        s_d = power_sum(field, d, j, cache=cache)
        for i, left in zip(live, lhs):
            rhs = s_d
            if d >= dfs[i]:
                rhs = rhs - fjs[i] * power_sum(field, d - dfs[i], j, cache=cache)
            per_degree[i].append(left == rhs)
    return [IdentityReport(pd, all(pd)) for pd in per_degree]


def euler_removed_identity(field: FiniteField, j: int, f: Poly, *, cache=None,
                           totals: dict | None = None) -> IdentityReport:
    """:func:`euler_removed_identities` for the one prime f.

    ``totals`` is read by nothing: it memoised the enumerated full sums
    across calls that share j, and the one pass per degree now gives the
    full and the coprime sums together.  It is accepted because the
    benchmark's ``identities`` workload passes it.
    """
    return euler_removed_identities(field, j, [f], cache=cache)[0]


def twist_identity_deg1(field: FiniteField, j: int, f: Poly | None = None,
                        *, cache=None) -> IdentityReport:
    """Exact check of the degree-1 finite-place twist:

        (coprime sums, T -> 1/T)  ==  (1 - x^(-1)) * (bracket sums)

    coefficient-by-coefficient as polynomials in pi.  Requires (r-1) | j.
    The coprime sums are the oracle's (:func:`coprime_power_sum`: the rows
    of the degree-d block that f does not divide); the bracket sums come
    from the recursion.  A degree-1 prime other than (T) is first moved to
    (T) by the affine substitution T -> T - c; the polygon data is
    unaffected.
    """
    r = field.order
    if (r - 1) > 1 and j % (r - 1) != 0:
        raise PreconditionViolated(f"need (r-1) | j, got j = {j}, r = {r}")
    if f is None:
        f = Poly.variable(field)
    if f.degree != 1 or not f.is_monic:
        raise PreconditionViolated("the twist is for monic degree-1 primes")
    shift_c = f.coefficient(0)
    dmax = special_polynomial(field, j, cache=cache).observed_degree + 3
    T = Poly.variable(field)
    per_degree = []
    prev_bracket: Poly | None = None
    for d in range(dmax + 1):
        csum = coprime_power_sum(field, d, j, f)
        if shift_c:
            csum = _compose_linear(csum, T - Poly.constant(field, shift_c))
        lhs = csum  # same coefficient tuple read in pi after T -> 1/T
        s = power_sum(field, d, j, cache=cache)
        bracket_d = _reverse_into_pi(s, d * j)
        rhs = bracket_d - prev_bracket if prev_bracket is not None else bracket_d
        prev_bracket = bracket_d
        per_degree.append(lhs == rhs)
    return IdentityReport(per_degree, all(per_degree))


def _compose_linear(a: Poly, lin: Poly) -> Poly:
    """a(lin) by Horner; lin has degree 1."""
    acc = Poly.zero(a.field)
    for c in reversed(a.coeffs):
        acc = acc * lin + Poly.constant(a.field, c)
    return acc


def _reverse_into_pi(s: Poly, pivot: int) -> Poly:
    """s(T) * pi^pivot as an exact polynomial in pi (pivot >= deg s)."""
    return Poly._of_reduced(s.field, (0,) * (pivot + 1 - len(s.coeffs)) + s.coeffs[::-1])
