"""The verification battery: one runner per acceptance criterion.

Each criterion runs at its stated grid (``quick=True`` shrinks the grid
for smoke runs) and returns a CriterionResult with a machine-readable
parameter record, a pass/fail verdict and details.  All checks are
exact; there are no numeric tolerances anywhere.  Pseudo-random
exponents come from a fixed seed so every run sees the same sample.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field

from .drinfeld import (
    carlitz_module,
    frobenius_charpoly,
    lseries_coeffs,
    lseries_coeffs_by_expansion,
    module_over_A,
)
from .errors import FFZetaError, UsageError
from .ffpoly import FiniteField, Poly, enumerate_monic, enumerate_monic_primes
from .newton import polygon_verdict
from .nonarch import PadicExponent, SvPoint
from .sqrtcar import (
    hecke_identity,
    parity_report,
    psi_composition_check,
    psi_factorization_check,
)
from .zeta import (
    euler_removed_identity,
    power_sum,
    power_sum_enumerated,
    special_degree_bound,
    twist_identity_deg1,
    zeta_family_infty,
    zeta_family_vadic,
)

RANDOM_SEED = 0x5EED  # fixed: identical samples on every run
PADIC_DIGITS = 8      # "precision p^8" for sampled exponents


@dataclass
class CriterionResult:
    cid: str
    title: str
    params: dict
    passed: bool
    seconds: float
    details: dict = dc_field(default_factory=dict)

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[criterion {self.cid}] {mark}  {self.title}  ({self.seconds:.2f}s)"


def _result(cid, title, params, passed, t0, details=None) -> CriterionResult:
    return CriterionResult(cid, title, params, passed, time.perf_counter() - t0,
                           details or {})


# ---------------------------------------------------------------------------

def criterion_1(quick=False, cache=None) -> CriterionResult:
    """Special values are polynomials: S_d(j) = 0 for d in B+1 .. B+3,
    B = l_q(j) // (q-1) the digit-sum degree bound
    (:func:`ffzeta.zeta.special_degree_bound`; Carlitz, see Thakur,
    *Function Field Arithmetic*, 2004, ch. 5), for every exponent in the
    grid.  The sums come from the engine itself, not from the bound, so
    this checks that the engine computes the zeros the bound proves."""
    t0 = time.perf_counter()
    jmax = 60 if quick else 200
    rs = (2, 3) if quick else (2, 3, 4, 5)
    failures = []
    for r in rs:
        field = _field_of_order(r)
        for j in range(jmax + 1):
            bound = special_degree_bound(field, j)
            for d in (bound + 1, bound + 2, bound + 3):
                if not power_sum(field, d, j, cache=cache).is_zero():
                    failures.append({"r": r, "j": j, "d": d})
    return _result("1", "vanishing window after the degree bound",
                   {"r": list(rs), "jmax": jmax}, not failures, t0,
                   {"failures": failures})


def _field_of_order(r: int) -> FiniteField:
    if r in (2, 3, 5, 7):
        return FiniteField(r)
    if r == 4:
        return FiniteField(2, 2)
    if r == 9:
        return FiniteField(3, 2)
    raise ValueError(f"no standard field of order {r} wired up")


def _sample_exponents(field: FiniteField, count: int, digits: int,
                      multiple_of: int = 1) -> list[PadicExponent]:
    rng = random.Random(RANDOM_SEED + field.order)
    out = []
    for _ in range(count):
        v = rng.randrange(field.p ** digits)
        out.append(PadicExponent.from_int(field.p, v * multiple_of, digits))
    return out


def _simplicity_failures(r: int, families) -> list[dict]:
    """One failure record per family whose polygon is provisional or has
    a segment longer than 1; families are indexed in the order given."""
    failures = []
    for idx, fam in enumerate(families):
        poly, verdict = polygon_verdict(fam)
        if poly.provisional or not verdict.passed:
            failures.append({"r": r, "exponent_index": idx,
                             "provisional": poly.provisional,
                             "lengths": [s.length for s in poly.segments]})
    return failures


def criterion_2(quick=False, cache=None) -> CriterionResult:
    """Every segment of the zeta family polygon at infinity has length 1
    and the polygon is non-provisional, across integer and sampled
    exponents."""
    t0 = time.perf_counter()
    jmax, nrand, dmax, prec = (6, 3, 5, 32) if quick else (30, 20, 12, 256)
    rs = (2,) if quick else (2, 3)
    failures = []
    for r in rs:
        field = _field_of_order(r)
        exps = [PadicExponent.from_int(field.p, -j, PADIC_DIGITS)
                for j in range(jmax + 1)]
        exps += _sample_exponents(field, nrand, PADIC_DIGITS)
        failures += _simplicity_failures(
            r, (zeta_family_infty(field, y, dmax, prec) for y in exps))
    return _result("2", "simplicity of zeta zero spectra at infinity",
                   {"r": list(rs), "jmax": jmax, "random": nrand,
                    "dmax": dmax, "precision": prec},
                   not failures, t0, {"failures": failures})


def criterion_3(quick=False, cache=None) -> CriterionResult:
    """Exact Euler-factor removal identity over primes of degree <= 3."""
    t0 = time.perf_counter()
    jmax, fdeg = (10, 2) if quick else (50, 3)
    rs = (2,) if quick else (2, 3)
    failures = []
    for r in rs:
        field = _field_of_order(r)
        primes = [f for dd in range(1, fdeg + 1)
                  for f in enumerate_monic_primes(field, dd)]
        for j in range(jmax + 1):
            totals: dict = {}
            for f in primes:
                rep = euler_removed_identity(field, j, f, cache=cache,
                                             totals=totals)
                if not rep.passed:
                    failures.append({"r": r, "j": j, "f": f.to_string()})
    return _result("3", "euler factor removal identity",
                   {"r": list(rs), "jmax": jmax, "prime_deg_max": fdeg},
                   not failures, t0, {"failures": failures})


def criterion_4(quick=False, cache=None) -> CriterionResult:
    """Exact degree-1 twist identity between the finite place and infinity."""
    t0 = time.perf_counter()
    jmax = 20 if quick else 100
    rs = (2,) if quick else (2, 3, 4)
    failures = []
    for r in rs:
        field = _field_of_order(r)
        step = max(r - 1, 1)
        for j in range(0, jmax + 1, step):
            rep = twist_identity_deg1(field, j, cache=cache)
            if not rep.passed:
                failures.append({"r": r, "j": j})
    return _result("4", "degree-1 finite-place twist identity",
                   {"r": list(rs), "jmax": jmax}, not failures, t0,
                   {"failures": failures})


def criterion_5(quick=False, cache=None) -> CriterionResult:
    """Simplicity of the v-adic zeta spectra at f = T for exponents in
    (r-1) times the exponent space."""
    t0 = time.perf_counter()
    jmax, nrand, dmax, prec = (6, 3, 5, 32) if quick else (30, 20, 12, 256)
    rs = (2,) if quick else (2, 3)
    failures = []
    for r in rs:
        field = _field_of_order(r)
        T = Poly.variable(field)
        unit_order = r - 1
        svs = [SvPoint.from_int(-(r - 1) * j, unit_order, field.p, PADIC_DIGITS)
               for j in range(jmax + 1)]
        for y in _sample_exponents(field, nrand, PADIC_DIGITS, multiple_of=r - 1):
            svs.append(SvPoint(0, y, unit_order))
        failures += _simplicity_failures(
            r, (zeta_family_vadic(field, s, T, dmax, prec) for s in svs))
    return _result("5", "simplicity of v-adic zeta spectra at a degree-1 prime",
                   {"r": list(rs), "jmax": jmax, "random": nrand,
                    "dmax": dmax, "precision": prec},
                   not failures, t0, {"failures": failures})


def criterion_6(quick=False, cache=None) -> CriterionResult:
    """Carlitz Frobenius norm equals the prime, and the L-series has
    c(n) = n exactly: Carlitz has Delta = 1, so every unit factor is 1."""
    t0 = time.perf_counter()
    fdeg, dbound = (3, 4) if quick else (5, 6)
    rs = (2,) if quick else (2, 3)
    failures = []
    epsilons: dict = {}
    for r in rs:
        field = _field_of_order(r)
        module = carlitz_module(field)
        for dd in range(1, fdeg + 1):
            eps_seen = set()
            for f in enumerate_monic_primes(field, dd):
                data = frobenius_charpoly(module, f)
                eps_seen.add(data.epsilon)
                if data.epsilon != 1 or not data.verified:
                    failures.append({"r": r, "f": f.to_string(),
                                     "reason": "norm is not the prime"})
            epsilons[f"r{r}_deg{dd}"] = sorted(eps_seen)
        coeffs = lseries_coeffs(module, dbound)
        for d in range(dbound + 1):
            for n in enumerate_monic(field, d):
                if coeffs.at(n) != n:
                    failures.append({"r": r, "n": n.to_string(),
                                     "reason": "c(n) != n"})
    return _result("6", "carlitz frobenius and shifted-zeta coefficients",
                   {"r": list(rs), "prime_deg_max": fdeg, "degree_bound": dbound},
                   not failures, t0,
                   {"failures": failures[:20], "unit_factors": epsilons})


def criterion_7(quick=False, cache=None) -> CriterionResult:
    """Rank-2 Frobenius charpoly verifies exactly and obeys the local
    degree bound 2 deg a <= deg f.

    mu is Gekeler's closed form (-1)^d N(g_2)^(-1) f (Trans. AMS 360,
    2008), and a is peeled off phi_a tau^d = tau^(2d) + phi_mu by
    tau-degree, with a zero remainder as the exact check.  The bound
    follows from tau-degrees in any verified answer: 2 deg a + d <= 2d.
    So ``trace_bound_ok`` cannot fail once ``verified`` holds."""
    t0 = time.perf_counter()
    fdeg = 2 if quick else 4
    rs = (2,) if quick else (2, 3)
    failures = []
    for r in rs:
        field = _field_of_order(r)
        one = Poly.one(field)
        T = Poly.variable(field)
        modules = [module_over_A(field, [one, one], "g1=1"),
                   module_over_A(field, [T, one], "g1=theta")]
        for module in modules:
            for dd in range(1, fdeg + 1):
                for f in enumerate_monic_primes(field, dd):
                    try:
                        data = frobenius_charpoly(module, f)
                    except FFZetaError as exc:
                        failures.append({"r": r, "module": module.label,
                                         "f": f.to_string(), "error": str(exc)})
                        continue
                    if not (data.verified and data.trace_bound_ok):
                        failures.append({"r": r, "module": module.label,
                                         "f": f.to_string(),
                                         "verified": data.verified,
                                         "bound": data.trace_bound_ok})
    return _result("7", "rank-2 local degree bound and exact charpoly",
                   {"r": list(rs), "prime_deg_max": fdeg},
                   not failures, t0, {"failures": failures})


def criterion_8(quick=False, cache=None) -> CriterionResult:
    """The square-root CM example: composition, coefficient identity,
    Euler-factor squares, and slope parities."""
    t0 = time.perf_counter()
    jmax_id, dmax_id = (10, 6) if quick else (50, 8)
    fac_deg = 2 if quick else 4
    jmax_par = 5 if quick else 20
    a_ok = psi_composition_check()
    b_reps = [hecke_identity(j, dmax_id, cache=cache)
              for j in range(jmax_id + 1)]
    b_fail = [rep.j for rep in b_reps if not rep.passed]
    c_rep = psi_factorization_check(fac_deg)
    # parity reads the sums of an identity report at dmax 8
    d_reps = [parity_report(b_reps[j] if dmax_id == 8
                            else hecke_identity(j, 8, cache=cache), 64)
              for j in range(jmax_par + 1)]
    d_v_fail = [{"j": r.j, "violations": [str(s) for s in r.vadic_violations]}
                for r in d_reps if not r.vadic_all_odd]
    d_i_fail = [{"j": r.j, "violations": [str(s) for s in r.infty_violations]}
                for r in d_reps if not r.infty_all_even]
    details = {"a_composition": a_ok, "b_identity_failures": b_fail,
               "c_factorization": c_rep.passed,
               "d_vadic_odd_failures": d_v_fail,
               "d_infty_even_failures": d_i_fail}
    passed = (a_ok and not b_fail and c_rep.passed
              and not d_v_fail and not d_i_fail)
    return _result("8", "square-root CM example suite",
                   {"jmax_identity": jmax_id, "dmax": dmax_id,
                    "factorization_deg": fac_deg, "jmax_parity": jmax_par},
                   passed, t0, details)


def criterion_9(quick=False, cache=None) -> CriterionResult:
    """Oracle equivalences: enumeration summed over three index sub-ranges
    against one pass, and Euler-product recursion against symbolic
    expansion."""
    t0 = time.perf_counter()
    samples = 12 if quick else 50
    dbound = 3 if quick else 5
    rng = random.Random(RANDOM_SEED)
    failures = []
    fields = [_field_of_order(r) for r in (2, 3, 4, 5)]
    for _ in range(samples):
        field = rng.choice(fields)
        d = rng.randint(0, 4)
        j = rng.randint(0, 50)
        total = field.order ** d
        cuts = [0, total // 3, 2 * total // 3, total]
        a = Poly.zero(field)
        for lo, hi in zip(cuts, cuts[1:]):
            a = a + power_sum_enumerated(field, d, j, start=lo, stop=hi)
        b = power_sum_enumerated(field, d, j)
        if a != b:
            failures.append({"r": field.order, "d": d, "j": j,
                             "reason": "partitioned != single"})
    F2, F3 = _field_of_order(2), _field_of_order(3)
    one2 = Poly.one(F2)
    targets = [carlitz_module(F2), carlitz_module(F3),
               module_over_A(F2, [one2, one2], "rank2")]
    for module in targets:
        rec = lseries_coeffs(module, dbound)
        exp = lseries_coeffs_by_expansion(module, dbound)
        for d in range(dbound + 1):
            for n in enumerate_monic(module.base_field, d):
                if rec.at(n) != exp.at(n):
                    failures.append({"module": module.label,
                                     "n": n.to_string(),
                                     "reason": "recursion != expansion"})
    return _result("9", "independent-route equivalences",
                   {"samples": samples, "degree_bound": dbound},
                   not failures, t0, {"failures": failures})


def criterion_10(quick=False, cache=None) -> CriterionResult:
    """Byte determinism: the quick battery serialises identically twice
    (timing excluded)."""
    t0 = time.perf_counter()
    from . import cli  # late import; cli owns the serialisation

    def blob():
        results = run_battery(quick=True, cache=cache,
                              criteria="1,2,3,4,5,6,7,8,9")
        doc = cli.envelope("verify", {}, cli.battery_result(results))
        return cli.render_json(doc)

    blob1, blob2 = blob(), blob()
    same = blob1 == blob2
    return _result("10", "byte-identical reports modulo timing",
                   {"battery": "quick 1-9"}, same, t0,
                   {"bytes": len(blob1)})


_RUNNERS = {
    "1": criterion_1, "2": criterion_2, "3": criterion_3, "4": criterion_4,
    "5": criterion_5, "6": criterion_6, "7": criterion_7, "8": criterion_8,
    "9": criterion_9, "10": criterion_10,
}


def run_battery(quick=False, cache=None,
                criteria: str | None = None) -> list[CriterionResult]:
    """Run the requested criteria (comma-separated ids; default all ten)."""
    if criteria is None:
        wanted = [str(k) for k in range(1, 11)]
    else:
        wanted = [tok.strip() for tok in criteria.split(",") if tok.strip()]
        unknown = [tok for tok in wanted if tok not in _RUNNERS]
        if unknown:
            raise UsageError(f"unknown criteria: {unknown}")
    return [_RUNNERS[cid](quick=quick, cache=cache)
            for cid in wanted]
