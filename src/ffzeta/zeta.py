"""Power sums, special polynomials, and coefficient families of zeta data.

The central quantity is the exact power sum

    S_d(j) = sum of n^j over monic n of degree d in F_q[T].

Two independent routes compute it:

* :func:`power_sum` expands (T^d + m)^j binomially over the coefficient
  subspace V_d = {deg < d} and uses that the inner character sum over
  F_q kills every exponent not divisible by q-1.  All values lie in the
  prime subfield (the monic family is Galois stable), so the recursion
  runs on packed prime-field polynomials and is fast enough for
  four-digit exponents.  ``_layers`` walks the Lucas lattice of one
  exponent: layer d holds the nonzero subspace sums E_d(t) and is built
  from layer d-1 alone, skipping every t that the degree bound proves
  zero.  ``_monic_sum`` combines one layer into S_d(j).  Each caller
  takes the layers of its one lattice in a single pass, so at most two
  layers are alive at once, and nothing outlives the call.

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
of subspace or monic power sums, at primes other than T paired with
residue sums built once per family; the layers there are those of the
window of the exponent below the precision.  The tests' oracle sums n^s, taken
from its definition, over the coprime monics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import _packing as pk
from ._packing import ceil_log
from .errors import PreconditionViolated, ZeroPolynomial
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
# fast route: layered subspace sums on prime-field packed polynomials
# ---------------------------------------------------------------------------

def _layers(p: int, q: int, lattice):
    """Yield layer d = {t: E_d(t)} for d = 0, 1, 2, ..., each built from
    the one before it alone.

    E_d(t) = sum of m^t over all m with deg m < d, over F_q, for the t of
    ``lattice``: exponents that are multiples of q-1, closed under taking
    Lucas sub-exponents in base p.  For deg m <= d write m = c T^d + m';
    m^t expands over the Lucas sub-exponents s of t, and the sum over c
    in F_q keeps -1 exactly where s > 0 and (q-1) | s:

        E_(d+1)(t) = -sum_s C(t, s) T^(d s) E_d(t-s).

    ``lucas_residue`` lists those s, each C(t, s) a unit mod p.  A layer
    holds only the nonzero sums.  E_d(t) = 0 once l_q(t) < d(q-1), by the
    proof at :func:`special_degree_bound`, so those t are not visited.
    Layers past the last nonzero one are empty.  Values live in F_p[T] in
    the reduced packed format of :mod:`ffzeta._packing`.
    """
    q1 = q - 1
    by_weight = sorted(((sum(pk.base_digits(t, q)), t) for t in lattice), reverse=True)
    layer = {0: 1}  # E_0(t) = [t == 0], the constant 1 in every packed format
    for d in itertools.count():
        yield layer
        prev, layer = layer, {}
        need = (d + 1) * q1
        for weight, t in by_weight:
            if weight < need:
                break
            terms = [(p - c, e, d * s) for s, c in pk.lucas_residue(t, p, q1, 0)[1:]
                     if (e := prev.get(t - s))]
            if terms and (e := pk.pk_sum(terms, p, d * t + 1)):
                layer[t] = e


def _monic_sum(p: int, d: int, j: int, pairs, layer: dict) -> int:
    """S_d(j), packed: the sum of C(j, t) T^(d(j-t)) E_d(t) over the
    (t, C(j, t)) of ``pairs``, which lists the Lucas sub-exponents of j
    that are multiples of q-1 (no other E_d(t) is nonzero for d >= 1)."""
    terms = [(c, e, d * (j - t)) for t, c in pairs if (e := layer.get(t))]
    return pk.pk_sum(terms, p, d * j + 1)


def _monic_poly(field: FiniteField, d: int, j: int, pairs, layer: dict) -> Poly:
    """S_d(j) as a polynomial over ``field``."""
    packed = _monic_sum(field.p, d, j, pairs, layer)
    return Poly._of_reduced(field, pk.pk_unpack(packed, d * j + 1, field.p))


def _window_layers(p: int, q: int, e: int, prec: int):
    """_layers over the Lucas sub-exponents t < prec of e: all that a
    binomial window of e below T^prec reads."""
    low = e % p ** ceil_log(p, prec)
    return _layers(p, q, [t for t, _ in pk.lucas_residue(low, p, q - 1, 0) if t < prec])


def _power_sums(field: FiniteField, j: int):
    """Yield S_d(j) as polynomials over ``field`` for d = 0, 1, 2, ...

    All come from one layered pass over the Lucas lattice of j, opened at
    the first value taken: taking S_d(j) builds layers 0..d.
    """
    p, q = field.p, field.order
    pairs = pk.lucas_residue(j, p, q - 1, 0)
    for d, layer in enumerate(_layers(p, q, [t for t, _ in pairs])):
        yield _monic_poly(field, d, j, pairs, layer)


def _binomial_window(p: int, e: int, prec: int, part, scale: int = 1) -> list[int]:
    """Coefficients of T^0 .. T^(prec-1) in scale * sum_t C(e,t) T^t part(t).

    t runs over the Lucas subsets of e below prec; ``part(t)`` is a
    packed polynomial (0 or None to skip t).  Digits of e at p^L >= prec
    only pair with t >= prec, so they are dropped before the subsets are
    listed.
    """
    low = e % p ** ceil_log(p, prec)
    terms = [(c * scale % p, x, t)
             for t, c in pk.lucas_residue(low, p, 1, 0) if t < prec and (x := part(t))]
    return pk.pk_unpack(pk.pk_sum(terms, p, prec), prec, p)


def power_sum(field: FiniteField, d: int, j: int) -> Poly:
    """Exact S_d(j)."""
    if d < 0 or j < 0:
        raise ValueError("need d >= 0 and j >= 0")
    return next(itertools.islice(_power_sums(field, j), d, None))


# ---------------------------------------------------------------------------
# special polynomials
# ---------------------------------------------------------------------------

def special_degree_bound(field: FiniteField, j: int) -> int:
    """B(j) = l_q(j) // (q-1), with l_q the base-q digit sum: S_d(j) = 0
    for every d > B(j) (Carlitz; Thakur, *Function Field Arithmetic*,
    2004, ch. 5; Sheats, J. Number Theory 71, 1998).

    Proof, read off the recursion: S_d(j) adds C(j, t) T^(d(j-t)) E_d(t)
    over the Lucas subsets t of j in base p (``_monic_sum``), and by the
    recursion of ``_layers`` E_d(t) is nonzero only if t splits without
    base-p carries into d parts, each a positive multiple of q-1 (the sum of a^s over
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
    ``dmax_hint`` above B(j) pads it with zeros; the engine's layers past
    B(j) are empty by that proof, so the pads are read from its prune.
    Every coefficient comes from one layered pass.  With a cache, its
    ``read_through`` takes from the pass only the degrees that miss or
    are spot-checked: a warm request builds layers only up to the
    highest such degree and reads its other coefficients from the cache.
    """
    top = max(special_degree_bound(field, j), dmax_hint or 0)
    sums = _power_sums(field, j)
    if cache is None:
        coeffs = list(itertools.islice(sums, top + 1))
    else:
        coeffs = cache.read_through(field, j, sums, top)
    return SpecialPolynomial(field, coeffs, _observed_degree(coeffs))


def _observed_degree(coeffs: list[Poly]) -> int:
    return max((d for d, c in enumerate(coeffs) if c.coeffs), default=0)


def _past_observed(field: FiniteField, j: int, extra: int) -> list[Poly]:
    """S_0(j) .. S_(o+extra)(j), o the observed degree of the special
    polynomial, from one layered pass."""
    sums = _power_sums(field, j)
    out = list(itertools.islice(sums, special_degree_bound(field, j) + 1))
    top = _observed_degree(out) + extra
    out += itertools.islice(sums, max(0, top + 1 - len(out)))
    return out[:top + 1]


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
    -y cannot move the window once p^N >= prec.  The E_d come from one
    layered pass over the window's lattice.
    """
    y.require_precision(prec)
    e = (-y).value()
    p = field.p
    out = [LaurentSeries(field, 0, _binomial_window(p, e, prec, layer.get), prec)
           for _, layer in zip(range(dmax + 1), _window_layers(p, field.order, e, prec))]
    return CoefficientFamily(field, out)


def zeta_family_vadic(field: FiniteField, s: SvPoint, f: Poly, dmax: int,
                      prec: int) -> CoefficientFamily:
    """Coefficient d is the sum of n^(-s) over monic degree-d n coprime
    to f, in A/(f^prec).

    At f = T write n = c(1 + T g/c) with g monic of degree d-1; the sum
    over c in F_q^* keeps the t with (q-1) | (t-a), so for d >= 1
    c_d = -sum_t C(e,t) T^t S_(d-1)(t) mod T^prec with a = (-s).s1 and
    e = (-s).s2.

    At every other f, of degree k >= 1, n^(-s) = n^g for one integer g
    (``VadicRing.integer_exponent``).  Write n = f h + c mu with h monic
    of degree d-k, c in F_q^* and mu monic of degree < k.  Expanding
    (f h + c mu)^g and summing over c, which keeps -1 where (q-1) | (g-t),
    gives c_d = -sum_t C(g,t) f^t S_(d-k)(t) W(t) mod f^prec for d >= k,
    with t < prec and W(t) = sum over mu of mu^(g-t), built once per
    family.  For d < k the coprime monics are the mu of degree d, so
    c_d = sum of their mu^g.

    The second form holds at f = T too and gives the same elements there,
    but the first is faster: one packed binomial window per coefficient,
    where the second multiplies polynomials per Lucas term.  With the
    second form forced at f = T, the 54 f = T requests of the seed-11
    ``spectra`` list took a median 38 ms in process against 27 ms, the
    first form faster in 9 of 10 rounds (2 shared vCPUs, Python 3.11),
    with the same outputs.  So f = T keeps the first form.  A prime T + c
    with c != 0 takes the second: no benchmark list reaches one, and 288
    families at such primes over F_2 to F_9 (dmax 5 and 8) came out the
    same as by the first form and the substitution T -> T + c, in about
    the same time (0.09 s in all).
    """
    ring = VadicRing(f, prec)
    s.s2.require_precision(prec)
    if s.unit_order != ring.residue_order - 1 and ring.residue_order > 2:
        raise ValueError("exponent lives at a different prime (unit order mismatch)")
    minus_s = -s
    p, q = field.p, field.order
    out = []
    if f.coeffs == (0, 1):
        a, e = minus_s.s1, minus_s.s2.value()
        out.append(VadicElem(ring, Poly.one(field)))
        for d, layer in zip(range(dmax), _window_layers(p, q, e, prec)):
            def part(t):  # S_d(t) where (q-1) | (t-a)
                if (t - a) % (q - 1) == 0:
                    return _monic_sum(p, d, t, pk.lucas_residue(t, p, q - 1, 0), layer)
            rep = _binomial_window(p, e, prec, part, scale=p - 1)
            out.append(VadicElem(ring, Poly(field, rep)))
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
        for dk, layer in zip(range(dmax + 1 - k), _window_layers(p, q, g, prec)):
            acc = Poly.zero(field)
            for t, c in ts:
                s_t = _monic_poly(field, dk, t, pk.lucas_residue(t, p, q1, 0), layer)
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


def interp_consistency(field: FiniteField, j: int, dmax: int, prec: int) -> IdentityReport:
    """Check c_d(-j) = S_d(j) * pi^(d*j) to the working precision.

    The left side goes through the p-adic machinery at the integer image
    of -j; the right side is the exact power sum placed into the window.
    Each side takes one layered pass over its own lattice, and reads no cache.
    """
    n_digits = max(ceil_log(field.p, prec), 1)
    y = PadicExponent.from_int(field.p, -j, n_digits)
    fam = zeta_family_infty(field, y, dmax, prec)
    results = []
    for d, s in zip(range(dmax + 1), _power_sums(field, j)):
        rhs = poly_to_series_infty(s, prec).shift(d * j) if s.coeffs else \
            LaurentSeries.zero_to_precision(field, prec)
        results.append(fam.coeffs[d].agrees_with(rhs))
    return IdentityReport(results, all(results))


def poly_to_series_infty(a: Poly, prec: int) -> LaurentSeries:
    """View a nonzero polynomial in T inside K = F_r((pi)): T^k = pi^(-k)."""
    if a.is_zero():
        raise ZeroPolynomial("zero has no leading behaviour at infinity")
    return LaurentSeries(a.field, -int(a.degree), a.coeffs[::-1], prec)


def euler_removed_identities(field: FiniteField, j: int, primes) -> list[IdentityReport]:
    """Exact check, for each f of ``primes``, that removing the Euler
    factor at f multiplies the special polynomial by (1 - x^(-deg f) f^j).

    Left side: the coprime power sums, enumerated by the oracle in one pass
    per degree for every f at once.  Right side: S_d(j) - f^j S_(d-deg f)(j)
    from the recursion route.  Both sides are exact elements of A;
    equality is coefficient-by-coefficient, for d up to the observed
    degree of the special polynomial plus deg f + 2.  The right side's
    S_d(j) come from one layered pass, never from a cache.
    """
    dfs = [int(f.degree) for f in primes]
    fjs = [f ** j for f in primes]
    top_df = max(dfs, default=0)
    sums = _past_observed(field, j, 2 + top_df)
    top = len(sums) - 1 - top_df
    per_degree: list[list[bool]] = [[] for _ in primes]
    for d, s_d in enumerate(sums):
        live = [i for i, df in enumerate(dfs) if d <= top + df]
        lhs = coprime_power_sums(field, d, j, [primes[i] for i in live])
        for i, left in zip(live, lhs):
            rhs = s_d
            if d >= dfs[i]:
                rhs = rhs - fjs[i] * sums[d - dfs[i]]
            per_degree[i].append(left == rhs)
    return [IdentityReport(pd, all(pd)) for pd in per_degree]


def euler_removed_identity(field: FiniteField, j: int, f: Poly, *,
                           totals: dict | None = None) -> IdentityReport:
    """:func:`euler_removed_identities` for the one prime f.

    ``totals`` is read by nothing: it memoised the enumerated full sums
    across calls that share j, and the one pass per degree now gives the
    full and the coprime sums together.  It is accepted because the
    benchmark's ``identities`` workload passes it.
    """
    return euler_removed_identities(field, j, [f])[0]


def twist_identity_deg1(field: FiniteField, j: int) -> IdentityReport:
    """Exact check of the degree-1 finite-place twist at the prime T:

        (coprime sums, T -> 1/T)  ==  (1 - x^(-1)) * (bracket sums)

    coefficient-by-coefficient as polynomials in pi.  Requires (r-1) | j.
    The coprime sums are the oracle's (:func:`coprime_power_sum`: the rows
    of the degree-d block that T does not divide); the bracket sums come
    from one layered pass of the recursion, never from a cache.
    """
    r = field.order
    if (r - 1) > 1 and j % (r - 1) != 0:
        raise PreconditionViolated(f"need (r-1) | j, got j = {j}, r = {r}")
    T = Poly.variable(field)
    per_degree = []
    prev_bracket: Poly | None = None
    for d, s in enumerate(_past_observed(field, j, 3)):
        lhs = coprime_power_sum(field, d, j, T)  # the same tuple read in pi after T -> 1/T
        bracket_d = _reverse_into_pi(s, d * j)
        rhs = bracket_d - prev_bracket if prev_bracket is not None else bracket_d
        prev_bracket = bracket_d
        per_degree.append(lhs == rhs)
    return IdentityReport(per_degree, all(per_degree))


def _reverse_into_pi(s: Poly, pivot: int) -> Poly:
    """s(T) * pi^pivot as an exact polynomial in pi (pivot >= deg s)."""
    return Poly._of_reduced(s.field, (0,) * (pivot + 1 - len(s.coeffs)) + s.coeffs[::-1])
