"""The verification battery: one runner per acceptance criterion.

``GRIDS`` holds every criterion's grid, full and quick (the smoke run),
as data.  :func:`run_battery` picks the grid, runs the criterion on it
and times it; a runner reads only its grid.  The grid is the record's
``params``, so the record names exactly what was checked.  A grid may be
raised but never lowered: ``tests/golden/grid_floor.json`` is the floor,
and a tier-1 test fails on a grid below it.  All checks are exact; there
are no numeric tolerances anywhere.  Pseudo-random exponents come from a
fixed seed so every run sees the same sample.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .drinfeld import (
    carlitz_module,
    frobenius_charpoly,
    frobenius_charpoly_by_peel,
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
    euler_removed_identities,
    power_sum_enumerated,
    special_degree_bound,
    special_polynomial,
    twist_identity_deg1,
    zeta_family_infty,
    zeta_family_vadic,
)

RANDOM_SEED = 0x5EED  # fixed: identical samples on every run
PADIC_DIGITS = 8      # "precision p^8" for sampled exponents

# criterion id -> "full" / "quick" -> grid, which is also the record's params
GRIDS = {
    "1": {"full": {"r": [2, 3, 4, 5], "jmax": 200}, "quick": {"r": [2, 3], "jmax": 60}},
    "2": {"full": {"r": [2, 3], "jmax": 30, "random": 20, "dmax": 12, "precision": 256},
          "quick": {"r": [2], "jmax": 6, "random": 3, "dmax": 5, "precision": 32}},
    "3": {"full": {"r": [2, 3], "jmax": 50, "prime_deg_max": 3},
          "quick": {"r": [2], "jmax": 10, "prime_deg_max": 2}},
    "4": {"full": {"r": [2, 3, 4], "jmax": 100}, "quick": {"r": [2], "jmax": 20}},
    "6": {"full": {"r": [2, 3], "prime_deg_max": 5, "degree_bound": 6},
          "quick": {"r": [2], "prime_deg_max": 3, "degree_bound": 4}},
    "7": {"full": {"r": [2, 3], "prime_deg_max": 4},
          "quick": {"r": [2], "prime_deg_max": 2}},
    "8": {"full": {"jmax_identity": 50, "dmax": 8, "factorization_deg": 4,
                   "jmax_parity": 20},
          "quick": {"jmax_identity": 10, "dmax": 6, "factorization_deg": 2,
                    "jmax_parity": 5}},
    "9": {"full": {"samples": 50, "degree_bound": 5},
          "quick": {"samples": 12, "degree_bound": 3}},
    "10": {"full": {"battery": "quick 1-9"}, "quick": {"battery": "quick 1-9"}},
}
GRIDS["5"] = GRIDS["2"]  # v-adic simplicity at f = T, on the grid at infinity


@dataclass
class CriterionResult:
    cid: str
    title: str
    params: dict
    passed: bool
    seconds: float
    details: dict

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[criterion {self.cid}] {mark}  {self.title}  ({self.seconds:.2f}s)"


# ---------------------------------------------------------------------------

def criterion_1(g):
    """Special values are polynomials: S_d(j) = 0 for d in B+1 .. B+3,
    B = l_q(j) // (q-1) the digit-sum degree bound
    (:func:`ffzeta.zeta.special_degree_bound`; Carlitz, see Thakur,
    *Function Field Arithmetic*, 2004, ch. 5), for every exponent in the
    grid.  The sums are the padded special polynomial, one layered pass
    of the engine per exponent.  The engine skips every subspace sum that
    the bound's proof makes zero, so past B its layers are empty and these
    zeros are read from that prune, not computed.  So S_B(j) and
    S_(B+1)(j), the last degree the bound allows and the first it
    forbids, are also compared with the enumeration oracle
    (``power_sum_enumerated``) at every grid point: a wrong recursion or a
    prune that cuts a nonzero layer fails there.  A degree that fails
    either test is listed once.  The enumeration window tests of
    ``tests/test_zeta.py`` check the zeros past B with the engine barred:
    ``test_vanishing_window_by_enumeration`` takes the window from the
    enumeration oracle, and ``test_degree_bound_matches_enumeration``
    checks S_(B+1)(j) = 0 by enumeration."""
    failures = []
    for r in g["r"]:
        field = _field_of_order(r)
        for j in range(g["jmax"] + 1):
            bound = special_degree_bound(field, j)
            coeffs = special_polynomial(field, j, bound + 3).coeffs
            wrong = {d for d in (bound, bound + 1)
                     if coeffs[d] != power_sum_enumerated(field, d, j)}
            wrong.update(d for d in range(bound + 1, bound + 4) if not coeffs[d].is_zero())
            failures += [{"r": r, "j": j, "d": d} for d in sorted(wrong)]
    return ("vanishing window after the degree bound", not failures,
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


def criterion_2(g):
    """Every segment of the zeta family polygon at infinity has length 1
    and the polygon is non-provisional, across integer and sampled
    exponents."""
    failures = []
    for r in g["r"]:
        field = _field_of_order(r)
        exps = [PadicExponent.from_int(field.p, -j, PADIC_DIGITS)
                for j in range(g["jmax"] + 1)]
        exps += _sample_exponents(field, g["random"], PADIC_DIGITS)
        failures += _simplicity_failures(
            r, (zeta_family_infty(field, y, g["dmax"], g["precision"])
                for y in exps))
    return ("simplicity of zeta zero spectra at infinity", not failures,
            {"failures": failures})


def criterion_3(g):
    """Exact Euler-factor removal identity over primes of degree <= 3; the
    enumerated sides of every prime share one oracle pass per (r, d, j)."""
    failures = []
    for r in g["r"]:
        field = _field_of_order(r)
        primes = [f for dd in range(1, g["prime_deg_max"] + 1)
                  for f in enumerate_monic_primes(field, dd)]
        for j in range(g["jmax"] + 1):
            reps = euler_removed_identities(field, j, primes)
            failures += [{"r": r, "j": j, "f": f.to_string()}
                         for f, rep in zip(primes, reps) if not rep.passed]
    return "euler factor removal identity", not failures, {"failures": failures}


def criterion_4(g):
    """Exact degree-1 twist identity between the finite place and infinity."""
    failures = []
    for r in g["r"]:
        field = _field_of_order(r)
        step = max(r - 1, 1)
        for j in range(0, g["jmax"] + 1, step):
            rep = twist_identity_deg1(field, j)
            if not rep.passed:
                failures.append({"r": r, "j": j})
    return ("degree-1 finite-place twist identity", not failures,
            {"failures": failures})


def criterion_5(g):
    """Simplicity of the v-adic zeta spectra at f = T for exponents in
    (r-1) times the exponent space."""
    failures = []
    for r in g["r"]:
        field = _field_of_order(r)
        T = Poly.variable(field)
        unit_order = r - 1
        svs = [SvPoint.from_int(-(r - 1) * j, unit_order, field.p, PADIC_DIGITS)
               for j in range(g["jmax"] + 1)]
        for y in _sample_exponents(field, g["random"], PADIC_DIGITS,
                                   multiple_of=r - 1):
            svs.append(SvPoint(0, y, unit_order))
        failures += _simplicity_failures(
            r, (zeta_family_vadic(field, s, T, g["dmax"], g["precision"])
                for s in svs))
    return ("simplicity of v-adic zeta spectra at a degree-1 prime",
            not failures, {"failures": failures})


def criterion_6(g):
    """Carlitz Frobenius norm equals the prime, and the L-series has
    c(n) = n exactly: Carlitz has Delta = 1, so every unit factor is 1."""
    dbound = g["degree_bound"]
    failures = []
    epsilons: dict = {}
    for r in g["r"]:
        field = _field_of_order(r)
        module = carlitz_module(field)
        for dd in range(1, g["prime_deg_max"] + 1):
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
    return ("carlitz frobenius and shifted-zeta coefficients", not failures,
            {"failures": failures[:20], "unit_factors": epsilons})


def criterion_7(g):
    """Rank-2 Frobenius charpoly verifies exactly, obeys the local
    degree bound 2 deg a <= deg f, and agrees with its oracle.

    mu is Gekeler's closed form (-1)^d N(g_2)^(-1) f (Trans. AMS 360,
    2008), and a is peeled off phi_a tau^d = tau^(2d) + phi_mu by
    tau-degree, with a zero remainder as the exact check.  The bound
    follows from tau-degrees in any verified answer: 2 deg a + d <= 2d.
    So ``trace_bound_ok`` cannot fail once ``verified`` holds.  At every
    prime, (a, mu, epsilon) of ``frobenius_charpoly``, solved on flat
    residues, is compared with the oracle peel on skew polynomials
    (``frobenius_charpoly_by_peel``); a disagreement is a failure."""
    failures = []
    for r in g["r"]:
        field = _field_of_order(r)
        one = Poly.one(field)
        T = Poly.variable(field)
        modules = [module_over_A(field, [one, one], "g1=1"),
                   module_over_A(field, [T, one], "g1=theta")]
        for module in modules:
            for dd in range(1, g["prime_deg_max"] + 1):
                for f in enumerate_monic_primes(field, dd):
                    where = {"r": r, "module": module.label, "f": f.to_string()}
                    try:
                        data = frobenius_charpoly(module, f)
                        peel = frobenius_charpoly_by_peel(module, f)
                    except FFZetaError as exc:
                        failures.append({**where, "error": str(exc)})
                        continue
                    if not (data.verified and data.trace_bound_ok):
                        failures.append({**where, "verified": data.verified,
                                         "bound": data.trace_bound_ok})
                    if (data.a, data.mu, data.epsilon) != (peel.a, peel.mu, peel.epsilon):
                        failures.append({**where, "reason": "fast != peel"})
    return ("rank-2 local degree bound and exact charpoly", not failures,
            {"failures": failures})


def criterion_8(g):
    """The square-root CM example: composition, coefficient identity,
    Euler-factor squares, and slope parities."""
    a_ok = psi_composition_check()
    b_reps = [hecke_identity(j, g["dmax"]) for j in range(g["jmax_identity"] + 1)]
    b_fail = [rep.j for rep in b_reps if not rep.passed]
    c_rep = psi_factorization_check(g["factorization_deg"])
    # parity reads the sums of an identity report at dmax 8
    d_reps = [parity_report(b_reps[j] if g["dmax"] == 8
                            else hecke_identity(j, 8), 64)
              for j in range(g["jmax_parity"] + 1)]
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
    return "square-root CM example suite", passed, details


def criterion_9(g):
    """Oracle equivalences: enumeration summed over three index sub-ranges
    against one pass, and Euler-product recursion against symbolic
    expansion."""
    dbound = g["degree_bound"]
    rng = random.Random(RANDOM_SEED)
    failures = []
    fields = [_field_of_order(r) for r in (2, 3, 4, 5)]
    for _ in range(g["samples"]):
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
    return "independent-route equivalences", not failures, {"failures": failures}


def criterion_10(g):
    """Byte determinism: the quick battery serialises identically twice
    (timing excluded)."""
    from . import cli  # late import; cli owns the serialisation

    def blob():
        results = run_battery(quick=True, criteria="1,2,3,4,5,6,7,8,9")
        doc = cli.envelope("verify", {}, cli.battery_result(results))
        return cli.render_json(doc)

    blob1, blob2 = blob(), blob()
    return ("byte-identical reports modulo timing", blob1 == blob2,
            {"bytes": len(blob1)})


_RUNNERS = {
    "1": criterion_1, "2": criterion_2, "3": criterion_3, "4": criterion_4,
    "5": criterion_5, "6": criterion_6, "7": criterion_7, "8": criterion_8,
    "9": criterion_9, "10": criterion_10,
}


def run_battery(quick=False, criteria: str | None = None) -> list[CriterionResult]:
    """Run the requested criteria (comma-separated ids, each at most once;
    default all ten), each at its quick or full grid of ``GRIDS``.  No
    criterion reads the power-sum cache: the engine meets the oracle."""
    if criteria is None:
        wanted = list(_RUNNERS)
    else:
        wanted = [tok.strip() for tok in criteria.split(",") if tok.strip()]
        unknown = [tok for tok in wanted if tok not in _RUNNERS]
        if unknown:
            raise UsageError(f"unknown criteria: {unknown}")
        if not wanted or len(set(wanted)) < len(wanted):
            raise UsageError(f"criteria must name at least one id, each once: "
                             f"{criteria!r}")
    kind = "quick" if quick else "full"
    results = []
    for cid in wanted:
        grid = GRIDS[cid][kind]
        t0 = time.perf_counter()
        title, passed, details = _RUNNERS[cid](grid)
        results.append(CriterionResult(cid, title, dict(grid), passed,
                                       time.perf_counter() - t0, details))
    return results
