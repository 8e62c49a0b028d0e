"""Skew polynomials, Drinfeld modules, Frobenius data, Euler products.

The skew ring F{tau} twists multiplication by tau * a = a^r * tau, where
r is the order of the *operator-side* constant field (not of the field
the coefficients happen to live in).  Coefficients are duck-typed: field
elements, polynomials, or residue-ring elements all work, as long as
they support +, -, * and integer **.

A module is pinned down by phi_T = (gamma(T), g_1, ..., g_rank); phi
extends to all of F_r[T] as the unique ring map, evaluated by a
noncommutative Horner scheme with left scalar action.

Frobenius characteristic polynomials at a prime f are found by exact
linear algebra over F_p: tau^d = phi_mu in rank 1, and
Fr^2 - phi_a Fr + phi_mu = 0 with mu = eps * f in rank 2, both verified
by substitution in the skew ring before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

from . import _packing as pk
from .errors import (
    AmbiguousSolution,
    BadPrimeUnhandled,
    BadReduction,
    FieldMismatch,
    NoSolution,
)
from .ffpoly import FiniteField, Poly, enumerate_monic, enumerate_monic_primes
from .nonarch import (
    LaurentSeries,
    PadicExponent,
    SvPoint,
    VadicElem,
    VadicRing,
    bracket_infty,
    pow_sv,
    unit_pow_padic,
)
from .zeta import CoefficientFamily, poly_to_series_infty


def _czero(c):
    return c - c


def _is_zero(c) -> bool:
    return c == _czero(c)


class SkewPoly:
    """Sum of a_i tau^i with the twist tau * a = a^twist * tau."""

    __slots__ = ("coeffs", "twist")

    def __init__(self, coeffs: Sequence, twist: int):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)
        self.twist = twist

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
        if not a:
            return other
        if not b:
            return self
        zero = _czero(a[0])
        out = []
        for i in range(max(len(a), len(b))):
            x = a[i] if i < len(a) else zero
            y = b[i] if i < len(b) else zero
            out.append(x + y)
        return SkewPoly(out, self.twist)

    def __neg__(self):
        return SkewPoly([_czero(c) - c for c in self.coeffs], self.twist)

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
        zero = _czero(a[0])
        out = [zero] * (len(a) + len(b) - 1)
        twisted = list(b)  # b under Frobenius^i, updated per row
        for i, ai in enumerate(a):
            if not _is_zero(ai):
                for k, bk in enumerate(twisted):
                    out[i + k] = out[i + k] + ai * bk
            if i + 1 < len(a):
                twisted = [c ** self.twist for c in twisted]
        return SkewPoly(out, self.twist)

    def scale(self, c):
        """Left multiplication by the scalar c tau^0."""
        return SkewPoly([c * x for x in self.coeffs], self.twist)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative skew power")
        acc = None
        base = self
        while e:
            if e & 1:
                acc = base if acc is None else acc * base
            e >>= 1
            if e:
                base = base * base
        if acc is None:
            raise ValueError("tau^0 needs a coefficient ring; use skew_one")
        return acc

    def __eq__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self.twist == other.twist and list(self.coeffs) == list(other.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if _is_zero(c):
                continue
            parts.append(f"({c!r})tau^{i}" if i else f"({c!r})")
        return " + ".join(parts)


def skew_one(one, twist: int) -> SkewPoly:
    return SkewPoly([one], twist)


def skew_tau(one, k: int, twist: int) -> SkewPoly:
    """tau^k as a skew polynomial, given the coefficient ring's one."""
    zero = _czero(one)
    return SkewPoly([zero] * k + [one], twist)


# ---------------------------------------------------------------------------
# Drinfeld modules
# ---------------------------------------------------------------------------

class DrinfeldModule:
    """A module of rank = len(phi_T) - 1 over operators F_r[T].

    ``phi_T`` lists (gamma(T), g_1, ..., g_rank) in the coefficient ring;
    ``scalar`` embeds encoded F_r constants into that ring.  The rank is
    genuine: the leading coefficient must be nonzero.
    """

    def __init__(self, base_field: FiniteField, phi_T: Sequence,
                 scalar: Callable[[int], object], label: str = ""):
        if len(phi_T) < 2 or _is_zero(phi_T[-1]):
            raise BadReduction("leading coefficient of phi_T must be nonzero")
        self.base_field = base_field
        self.phi_T = tuple(phi_T)
        self.scalar = scalar
        self.label = label or f"rank-{len(phi_T) - 1} module"

    @property
    def rank(self) -> int:
        return len(self.phi_T) - 1

    @property
    def twist(self) -> int:
        return self.base_field.order

    def phi_T_skew(self) -> SkewPoly:
        return SkewPoly(self.phi_T, self.twist)

    def one(self) -> SkewPoly:
        return skew_one(self.scalar(1), self.twist)

    def phi(self, a: Poly) -> SkewPoly:
        """Image of a in the skew ring (noncommutative Horner)."""
        if a.field != self.base_field:
            raise FieldMismatch("operand must live over the operator constants")
        if a.is_zero():
            return SkewPoly((), self.twist)
        phiT = self.phi_T_skew()
        acc = None
        for c in reversed(a.coeffs):
            if acc is not None:
                acc = acc * phiT
            term = skew_one(self.scalar(c), self.twist) if c else None
            if acc is None:
                acc = term if term is not None else SkewPoly((), self.twist)
            elif term is not None:
                acc = acc + term
        return acc

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
        return DrinfeldModule(self.base_field, red,
                              lambda c: ring.elem(Poly.constant(f.field, c)),
                              label=f"{self.label} mod {f}")


def carlitz_module(field: FiniteField) -> DrinfeldModule:
    """phi_T = theta tau^0 + tau over the scalar copy of A."""
    T = Poly.variable(field)
    return DrinfeldModule(field, (T, Poly.one(field)),
                          lambda c: Poly.constant(field, c), label="carlitz")


def module_over_A(field: FiniteField, tau_coeffs: Sequence[Poly],
                  label: str = "") -> DrinfeldModule:
    """Module with phi_T = theta + g_1 tau + ... + g_rank tau^rank, g_i in A."""
    T = Poly.variable(field)
    return DrinfeldModule(field, (T, *tau_coeffs),
                          lambda c: Poly.constant(field, c), label=label)


# ---------------------------------------------------------------------------
# Frobenius characteristic polynomials
# ---------------------------------------------------------------------------

@dataclass
class FrobeniusData:
    f: Poly
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

    With d = deg f, rank 1 solves tau^d = phi_mu with deg mu <= d.  Rank 2
    solves Fr^2 - phi_a Fr + phi_mu = 0 with Fr = tau^d, deg a <= floor(d/2)
    and mu = eps * f over the unit candidates eps.  Solutions are obtained
    as an F_p-linear system and verified by exact substitution; zero or
    several survivors raise.
    """
    base = module.base_field
    reduced = module.reduce_mod(f) if isinstance(module.phi_T[0], Poly) and \
        module.phi_T[0].field == f.field else module
    ring = reduced.phi_T[0].ring if isinstance(reduced.phi_T[0], VadicElem) else None
    if ring is None:
        raise TypeError("reduction did not land in a residue ring")
    d = int(f.degree)
    one = reduced.scalar(1)
    fr = skew_tau(one, d, reduced.twist)
    if module.rank == 1:
        candidates = _solve_phi_equation(
            reduced, rhs=fr, factor=None, max_deg=d)
        survivors = []
        for mu in candidates:
            if reduced.phi(mu) == fr:
                survivors.append(mu)
        if not survivors:
            raise NoSolution(f"no rank-1 Frobenius norm at {f}")
        if len(survivors) > 1:
            raise AmbiguousSolution(f"{len(survivors)} norms at {f}")
        mu = survivors[0]
        eps = _unit_multiple_of(mu, f)
        return FrobeniusData(f, 1, mu, None, eps, True, True)

    if module.rank != 2:
        raise NoSolution("only ranks 1 and 2 are supported")
    fr2 = fr * fr
    survivors = []
    for eps in range(1, base.order):
        mu = f.scale(eps)
        rhs = fr2 + reduced.phi(mu)
        for a in _solve_phi_equation(reduced, rhs=rhs, factor=fr,
                                     max_deg=d // 2):
            if reduced.phi(a) * fr == rhs:
                survivors.append((a, mu, eps))
    if not survivors:
        raise NoSolution(f"no rank-2 Frobenius charpoly at {f}")
    if len(survivors) > 1:
        raise AmbiguousSolution(
            f"{len(survivors)} verified (a, eps) pairs at {f}")
    a, mu, eps = survivors[0]
    bound_ok = a.is_zero() or 2 * int(a.degree) <= d
    return FrobeniusData(f, 2, mu, a, eps, True, bound_ok)


def _unit_multiple_of(mu: Poly, f: Poly) -> int:
    if mu.degree == f.degree and (mu - f.scale(mu.leading())).is_zero():
        return mu.leading()
    return 0


def _solve_phi_equation(reduced: DrinfeldModule, rhs: SkewPoly,
                        factor: SkewPoly | None, max_deg: int) -> list[Poly]:
    """All x in A with deg x <= max_deg and phi_x * factor == rhs,
    as an F_p-linear system (phi is F_r-linear in x)."""
    base = reduced.base_field
    p, m = base.p, base.m
    ring = reduced.phi_T[0].ring

    unknowns = []
    images = []
    for i in range(max_deg + 1):
        for e in range(m):
            enc = p ** e
            img = reduced.phi(Poly.monomial(base, i, enc))
            if factor is not None:
                img = img * factor
            unknowns.append((i, enc))
            images.append(img)
    tau_len = 1 + max(
        [int(rhs.degree)] if rhs.coeffs else [0],
        default=0)
    tau_len = max([tau_len] + [int(im.degree) + 1 for im in images if im.coeffs])

    def flatten(sk: SkewPoly) -> list[int]:
        out = []
        zero_rep = Poly.zero(ring.field)
        for t in range(tau_len):
            rep = sk.coeffs[t].rep if t < len(sk.coeffs) else zero_rep
            for kk in range(ring.deg * ring.precision):
                enc = rep.coefficient(kk)
                digs = pk.base_digits(enc, p)
                digs += [0] * (m - len(digs))
                out.extend(digs[:m])
        return out

    columns = [flatten(im) for im in images]
    target = flatten(rhs)
    out = []
    for x in _solve_linear_mod_p(columns, target, p):
        coeffs = [0] * (max_deg + 1)
        for (i, enc), xv in zip(unknowns, x):
            if xv:
                coeffs[i] += xv * enc  # independent base-p digits
        out.append(Poly(base, coeffs))
    return out


def _solve_linear_mod_p(columns: list[list[int]], target: list[int], p: int,
                        cap: int = 64) -> list[list[int]]:
    """All solutions x (up to `cap` of them) of sum_u x_u columns[u] = target
    over F_p; [] when inconsistent."""
    n_unknowns = len(columns)
    n_rows = len(target)
    mat = [[columns[u][r] % p for u in range(n_unknowns)] + [target[r] % p]
           for r in range(n_rows)]
    pivots = []
    row = 0
    for col in range(n_unknowns):
        sel = next((r for r in range(row, n_rows) if mat[r][col] % p), None)
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        inv = pow(mat[row][col], p - 2, p)
        mat[row] = [(v * inv) % p for v in mat[row]]
        for r in range(n_rows):
            if r != row and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    for r in range(row, n_rows):
        if mat[r][n_unknowns] % p:
            return []
    free = [c for c in range(n_unknowns) if c not in pivots]
    sols: list[list[int]] = []

    def rec(idx, assign):
        if len(sols) >= cap:
            return
        if idx == len(free):
            x = [0] * n_unknowns
            for fcol, v in assign.items():
                x[fcol] = v
            for r, col in enumerate(pivots):
                v = mat[r][n_unknowns]
                for fcol in free:
                    if x[fcol]:
                        v = (v - mat[r][fcol] * x[fcol]) % p
                x[col] = v
            sols.append(x)
            return
        for v in range(p):
            assign[free[idx]] = v
            rec(idx + 1, assign)
        del assign[free[idx]]

    rec(0, {})
    return sols


# ---------------------------------------------------------------------------
# Euler products and Dirichlet coefficients
# ---------------------------------------------------------------------------

@dataclass
class DirichletCoefficients:
    """c(n) for monic n up to a degree bound, multiplicative, with the
    rank-local recursion at prime powers; bad primes are omitted from the
    product and recorded."""

    field: FiniteField
    degree_bound: int
    c: dict[Poly, Poly]
    skipped: list[Poly] = dc_field(default_factory=list)
    local: dict[Poly, FrobeniusData] = dc_field(default_factory=dict)

    def at(self, n: Poly) -> Poly:
        return self.c.get(n, Poly.zero(self.field))


def local_factor_coeffs(data: FrobeniusData, kmax: int) -> list[Poly]:
    """h_k with 1/f_P(t) = sum h_k t^k, by the linear recursion."""
    field = data.mu.field
    hs = [Poly.one(field)]
    if data.rank == 1:
        for _ in range(kmax):
            hs.append(hs[-1] * data.mu)
        return hs
    a = data.a if data.a is not None else Poly.zero(field)
    for k in range(1, kmax + 1):
        nxt = a * hs[k - 1]
        if k >= 2:
            nxt = nxt - data.mu * hs[k - 2]
        hs.append(nxt)
    return hs


def lseries_coeffs(module: DrinfeldModule, degree_bound: int, *,
                   strict: bool = False) -> DirichletCoefficients:
    """Dirichlet coefficients of the module's L-series up to the bound,
    built multiplicatively from per-prime Frobenius data."""
    field = module.base_field
    out = DirichletCoefficients(field, degree_bound,
                                {Poly.one(field): Poly.one(field)})
    for deg_f in range(1, degree_bound + 1):
        for f in enumerate_monic_primes(field, deg_f):
            try:
                data = frobenius_charpoly(module, f)
            except BadReduction:
                if strict:
                    raise BadPrimeUnhandled(f"bad prime {f} in strict mode")
                out.skipped.append(f)
                continue
            out.local[f] = data
            hs = local_factor_coeffs(data, degree_bound // deg_f)
            updates = {}
            for n, cn in out.c.items():
                nd = int(n.degree) if n.coeffs else 0
                for k in range(1, degree_bound // deg_f + 1):
                    if nd + k * deg_f > degree_bound:
                        break
                    updates[n * f ** k] = cn * hs[k]
            out.c.update(updates)
    return out


def lseries_coeffs_by_expansion(module: DrinfeldModule, degree_bound: int
                                ) -> DirichletCoefficients:
    """Independent route: expand every local factor as a truncated
    geometric series (actual polynomial powers of a t - mu t^2) and
    combine the local dictionaries pairwise, in reverse prime order."""
    field = module.base_field
    locals_: list[tuple[Poly, list[Poly]]] = []
    skipped = []
    for deg_f in range(1, degree_bound + 1):
        for f in enumerate_monic_primes(field, deg_f):
            try:
                data = frobenius_charpoly(module, f)
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
    return DirichletCoefficients(field, degree_bound, c, skipped)


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


def lseries_special_coeffs(module: DrinfeldModule, j: int, dmax: int,
                           coeffs: DirichletCoefficients | None = None
                           ) -> list[Poly]:
    """Exact A-coefficients sum over deg n = d of c(n) n^j, for d <= dmax."""
    field = module.base_field
    if coeffs is None:
        coeffs = lseries_coeffs(module, dmax)
    out = []
    for d in range(dmax + 1):
        acc = Poly.zero(field)
        for n in enumerate_monic(field, d):
            cn = coeffs.at(n)
            if not cn.is_zero():
                acc = acc + cn * n ** j
        out.append(acc)
    return out


def lseries_family_infty(module: DrinfeldModule, y: PadicExponent, dmax: int,
                         prec: int,
                         coeffs: DirichletCoefficients | None = None
                         ) -> CoefficientFamily:
    """Coefficient of x^(-d) is sum over deg n = d of c(n) <n>^(-y).

    The Dirichlet coefficient c(n) sits in K with valuation -deg c(n), so
    the one-unit factor is computed in an enlarged window; the p-adic
    exponent must carry enough digits for that window (p^N >= prec + deg c).
    """
    field = module.base_field
    if coeffs is None:
        coeffs = lseries_coeffs(module, dmax)
    out = []
    for d in range(dmax + 1):
        acc = LaurentSeries.zero_to_precision(field, prec)
        for n in enumerate_monic(field, d):
            cn = coeffs.at(n)
            if cn.is_zero():
                continue
            work = prec + int(cn.degree)
            u = bracket_infty(n, work)
            term = poly_to_series_infty(cn, work) * unit_pow_padic(u, -y, work)
            acc = acc + term.truncate(prec)
        out.append(acc)
    return CoefficientFamily("infinity", field, y, out, prec,
                             label=module.label)


def lseries_family_vadic(module: DrinfeldModule, s: SvPoint, f: Poly,
                         dmax: int, prec: int,
                         coeffs: DirichletCoefficients | None = None
                         ) -> CoefficientFamily:
    """v-adic family: Euler factors over f are omitted, i.e. the Dirichlet
    sum runs over n coprime to f."""
    field = module.base_field
    ring = VadicRing(f, prec)
    if coeffs is None:
        coeffs = lseries_coeffs(module, dmax)
    minus_s = -s
    out = []
    for d in range(dmax + 1):
        acc = ring.zero()
        for n in enumerate_monic(field, d):
            if (n % f).is_zero():
                continue
            cn = coeffs.at(n)
            if cn.is_zero():
                continue
            acc = acc + ring.elem(cn) * pow_sv(n, minus_s, ring)
        out.append(acc)
    return CoefficientFamily("finite", field, s, out, prec, ring=ring,
                             label=module.label)
