"""Command-line driver and report serialisation.

Every run prints one JSON envelope (or a text rendering of the same
data, or for ``newton`` a csv export of the polygon).  Each ``cmd_*``
function computes only its ``result``; ``main`` builds the envelope
around it.  ``config`` is every parsed option except the subcommand, so
outputs are reproducible byte-for-byte; ``main`` also times the command
and owns the ``timing`` object: ``seconds`` for every command, next to
what a command adds (the per-criterion times of ``verify``, and for
``special`` with a cache ``counters.cache``, the power-sum cache's hits,
misses, writes and spot checks), which consumers strip before comparing
runs.

``render_json`` is the one writer of indented JSON.  It prints the bytes
of ``json.dumps(doc, sort_keys=True, indent=2)``, its oracle in the tests.
CPython's C encoder serves only ``indent=None``, so the writer walks the
containers itself.  It writes a list of strings (the digit strings of a
polynomial) with one join, and escapes strings with the C
``encode_basestring_ascii``, skipping it for a list whose strings are all
printable ASCII without a quote or backslash.

Exit codes: 0 success, 2 usage error, 3 a mathematical verification
failed, 4 resource problems (e.g. a cache directory that is a file or
cannot be written).  An empty ``--cache-dir`` is a usage error.

Polynomial syntax on the command line: ``T^2+T+1`` over the prime
field; extension-field coefficients are bracketed base-p digit strings
with the w^0 digit first, e.g. ``[01]T^2+[11]`` over F_4, the digits
joined with "." when p > 10, e.g. ``[3.10]T+1`` over F_121.  ``special``
is the one command with a power-sum cache, which it opens at
``--cache-dir``.  ``sqrtcar`` and ``verify`` always compute their power
sums, so their checks compare the engine with the oracle.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .acceptance import CriterionResult, run_battery
from .cache import PowerSumCache
from .drinfeld import (
    carlitz_module,
    frobenius_charpoly,
    lseries_coeffs,
    lseries_special_coeffs,
    module_over_A,
)
from .errors import AllCoefficientsVanish, FFZetaError, ReducibleModulus, UsageError
from .ffpoly import FiniteField, Poly, poly_parse
from .newton import NewtonPolygon, hensel_root, hensel_slack, polygon_verdict
from .nonarch import LaurentSeries, PadicExponent, SvPoint, VadicElem
from .sqrtcar import (
    hecke_identity,
    parity_report,
    psi_composition_check,
    psi_factorization_check,
)
from .zeta import ceil_log, special_polynomial, zeta_family_infty, zeta_family_vadic

SCHEMA_VERSION = 1
EXIT_OK, EXIT_USAGE, EXIT_MATH, EXIT_RESOURCE = 0, 2, 3, 4


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def poly_json(p: Poly) -> dict:
    return {"string": p.to_string(), "digits": p.to_digit_strings()}


def series_json(s: LaurentSeries) -> dict:
    return {"start": s.start if s.coeffs else None,
            "coeffs": s.field.encode_strs(s.coeffs),
            "precision": s.prec}


def vadic_json(e: VadicElem) -> dict:
    return {"rep": e.rep.to_string(), "digits": e.rep.to_digit_strings(),
            "precision": e.ring.precision}


def polygon_json(np_: NewtonPolygon) -> dict:
    points = [{"d": d, "kind": "finite", "valuation": v} for d, v in np_.finite]
    points += [{"d": d, "kind": "zero_to_precision", "bound": b}
               for d, b in np_.bounds]
    points += [{"d": d, "kind": "exact_zero"} for d in np_.exact_zeros]
    points.sort(key=lambda row: row["d"])
    segs = [{"slope": str(s.slope), "length": s.length,
             "zero_valuation": str(s.zero_valuation),
             "abs_value_exponent": str(s.abs_value_exponent)}
            for s in np_.segments]
    return {"points": points, "vertices": [list(v) for v in np_.vertices],
            "segments": segs, "provisional": np_.provisional}


def verdict_json(v) -> dict:
    return {"passed": v.passed, "all_simple_beyond": v.all_simple_beyond,
            "unique_abs_value": v.unique_abs_value,
            "exceptions": [{"slope": str(s.slope), "length": s.length}
                           for s in v.exceptions]}


def envelope(command: str, config: dict, result: dict) -> dict:
    """A report without its ``timing``, which ``main`` adds."""
    return {"schemaVersion": SCHEMA_VERSION,
            "command": command,
            "config": config,
            "result": result}


def _write_json(o, pad: str, out: list[str]) -> None:
    """Append the parts of ``o`` to ``out``, indented by two spaces a
    level, its first line at ``pad``; no part is copied into another, so
    a large body is copied once, by the join of ``out``.  Dict keys must
    be strings; a key json.dumps would convert (int, float, bool, None)
    raises TypeError, and no report has one."""
    if type(o) is str:  # the common scalars first, by exact type
        out.append(_quote(o))
    elif type(o) is int:
        out.append(repr(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = pad + "  "
        opening, sep = "{\n" + inner, ",\n" + inner
        for k, v in sorted(o.items()):
            out.append(opening + _quote(k) + ": ")
            _write_json(v, inner, out)
            opening = sep
        out.append("\n" + pad + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = pad + "  "
        opening, sep = "[\n" + inner, ",\n" + inner
        try:  # a list of strings, such as digit strings, is joined at once
            text = "".join(o) if type(o[0]) is str else None
        except TypeError:  # a list that only starts with a string
            text = None
        if text is None:
            for x in o:
                out.append(opening)
                _write_json(x, inner, out)
                opening = sep
        elif text.isascii() and text.isprintable() and '"' not in text \
                and "\\" not in text:  # no string in the list needs escaping
            out.append(opening + '"')
            out.append(('"' + sep + '"').join(o))
            out.append('"')
        else:
            out.append(opening)
            out.append(sep.join(map(_quote, o)))
        out.append("\n" + pad + "]")
    else:
        out.append(json.dumps(o))  # any other scalar: indent does not change it


def render_json(doc: dict) -> str:
    out: list[str] = []
    _write_json(doc, "", out)
    out.append("\n")
    return "".join(out)


def battery_result(results: list[CriterionResult]) -> dict:
    records = [{"id": res.cid, "title": res.title, "params": res.params,
                "passed": res.passed, "details": res.details}
               for res in results]
    return {"records": records, "all_passed": all(r.passed for r in results)}


def _render_text(doc: dict) -> str:
    out = [f"# {doc['command']} (schema {doc['schemaVersion']})"]
    out.append("config: " + json.dumps(doc["config"], sort_keys=True))
    out.append(render_json(doc["result"])[:-1])
    out.append("timing: " + json.dumps(doc["timing"], sort_keys=True))
    return "\n".join(out) + "\n"


def _render_csv(doc: dict) -> str:
    polygon = doc["result"]["polygon"]
    lines = ["kind,d,valuation_or_bound"]
    for row in polygon["points"]:
        val = row.get("valuation", row.get("bound", ""))
        lines.append(f"{row['kind']},{row['d']},{val}")
    for d, v in polygon["vertices"]:
        lines.append(f"vertex,{d},{v}")
    for seg in polygon["segments"]:
        lines.append(f"segment,{seg['slope']},{seg['length']}")
    return "\n".join(lines) + "\n"


# argparse offers csv only on newton, the one command with a polygon
_RENDER = {"json": render_json, "text": _render_text, "csv": _render_csv}


# ---------------------------------------------------------------------------
# shared argument handling
# ---------------------------------------------------------------------------

_INTEGER = re.compile("[+-]?[0-9]+")  # ASCII: int() also takes "\u0661" and "1_0"


def _ascii_int(text: str) -> int:
    """An optionally signed integer in ASCII digits, with the surrounding
    whitespace that int() allows: each item of a comma list, and through
    :func:`_int_at_least` every integer flag."""
    if not _INTEGER.fullmatch(text.strip()):
        raise UsageError(f"{text!r} is not an integer in ASCII digits")
    return int(text)


def _int_at_least(low: int | None):
    """argparse type for an integer flag: ASCII digits, and >= low unless
    low is None."""
    def integer(text: str) -> int:
        try:
            value = _ascii_int(text)
        except UsageError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


_ANY_INT = _int_at_least(None)


def _add_field_args(sp):
    sp.add_argument("--p", type=_ANY_INT, required=True, help="prime characteristic")
    sp.add_argument("--m", type=_ANY_INT, default=1, help="extension degree")
    sp.add_argument("--modulus", type=str, default=None,
                    help="field modulus digits, lowest first, e.g. 1,1,1")


def _add_module_args(sp):
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--module", choices=("carlitz",), default=None)
    group.add_argument("--tau-coeffs", type=str, default=None,
                       help="comma list of A-polynomials g_1,...,g_rank")


def _add_format(sp, *extra):
    sp.add_argument("--format", choices=("json", "text", *extra), default="json")


def _field_from(args) -> FiniteField:
    modulus = None
    if args.modulus:
        modulus = [_ascii_int(tok) for tok in args.modulus.split(",")]
    return FiniteField(args.p, args.m, modulus)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# Each command takes its parsed arguments and returns (result, exit code,
# timing); timing holds what the command measures itself (None if
# nothing), and main adds the total seconds.

def cmd_special(args) -> tuple[dict, int, dict | None]:
    if args.cache_dir == "":
        raise UsageError("--cache-dir needs a directory name")
    field = _field_from(args)
    cache = None if args.cache_dir is None else PowerSumCache(args.cache_dir)
    z = special_polynomial(field, args.j, args.dmax, cache=cache)
    result = {"coefficients": [poly_json(c) for c in z.coeffs],
              "observed_degree": z.observed_degree,
              "certified_polynomial": True}  # S_d(j) = 0 past the bound is proved
    if cache is None:
        return result, EXIT_OK, None
    return result, EXIT_OK, {"counters": {"cache": {
        "hits": cache.hits, "misses": cache.misses,
        "writes": cache.writes, "spot_checks": cache.spot_checks}}}


def _exponent_from(args, field: FiniteField, prec: int) -> PadicExponent:
    if args.y is None:  # argparse takes exactly one of --y and --y-digits
        digs = [_ascii_int(tok) for tok in args.y_digits.split(",")]
        return PadicExponent(field.p, digs)
    n = max(ceil_log(field.p, prec + 1), 8)
    return PadicExponent.from_int(field.p, args.y, n)


def cmd_newton(args) -> tuple[dict, int, None]:
    if args.s1 is not None and not args.f:
        raise UsageError("--s1 is a coordinate at --f; give --f")
    if args.refine and args.f:
        raise UsageError("--refine works at infinity only; drop --f")
    field = _field_from(args)
    prec = args.prec
    y = _exponent_from(args, field, prec)
    refined = []
    if args.f:
        f = poly_parse(field, args.f)
        if not f.is_monic:  # before deg f, which 0 lacks; VadicRing checks the rest
            raise ReducibleModulus("the local prime must be monic irreducible")
        unit_order = field.order ** int(f.degree) - 1
        s1 = args.s1 if args.s1 is not None else (args.y or 0)
        s = SvPoint(s1, y, max(unit_order, 1))
        fam = zeta_family_vadic(field, s, f, args.dmax, prec)
    else:
        fam = zeta_family_infty(field, y, args.dmax, prec)
    poly, verdict = polygon_verdict(fam)
    if args.refine:
        for seg in poly.segments:
            if seg.length == 1 and seg.slope.denominator == 1:
                target = prec - hensel_slack(int(seg.slope), len(fam.coeffs) - 1)
                if target <= 0:
                    refined.append({"slope": str(seg.slope),
                                    "skipped": "insufficient precision"})
                    continue
                root = hensel_root(fam.coeffs, int(seg.slope), target)
                refined.append({"slope": str(seg.slope),
                                "root": series_json(root),
                                "residual_valuation_at_least": target})
    result = {"polygon": polygon_json(poly),
              "verdict": verdict_json(verdict),
              "coefficients": [series_json(c) if isinstance(c, LaurentSeries)
                               else vadic_json(c) for c in fam.coeffs]}
    if refined:
        result["refined_roots"] = refined
    return result, EXIT_OK, None


def _module_from(args, field: FiniteField):
    if args.module == "carlitz":
        return carlitz_module(field)
    gs = [poly_parse(field, tok) for tok in args.tau_coeffs.split(",")]
    return module_over_A(field, gs, label=f"tau-coeffs {args.tau_coeffs}")


def cmd_frobenius(args) -> tuple[dict, int, None]:
    field = _field_from(args)
    f = poly_parse(field, args.f)
    module = _module_from(args, field)
    data = frobenius_charpoly(module, f)
    result = {"f": poly_json(f), "rank": data.rank,
              "mu": poly_json(data.mu),
              "a": poly_json(data.a) if data.a is not None else None,
              "epsilon": data.epsilon,
              "verified": data.verified,
              "trace_bound_ok": data.trace_bound_ok,
              "charpoly": data.charpoly_string()}
    return result, EXIT_OK, None


def cmd_lseries(args) -> tuple[dict, int, None]:
    field = _field_from(args)
    module = _module_from(args, field)
    coeffs = lseries_coeffs(module, args.degree_bound)
    table = [{"n": n.to_string(), "c": poly_json(v)} for n, v in coeffs.c.items()]
    result = {"degree_bound": args.degree_bound,
              "coefficients": table,
              "skipped_primes": [f.to_string() for f in coeffs.skipped]}
    if args.j is not None:
        specials = lseries_special_coeffs(module, args.j, args.degree_bound)
        result["special_coefficients"] = {
            "j": args.j, "values": [poly_json(c) for c in specials]}
    return result, EXIT_OK, None


def cmd_sqrtcar(args) -> tuple[dict, int, None]:
    identity = hecke_identity(args.j, args.dmax)
    parity = parity_report(identity, args.prec)
    composition = psi_composition_check()
    factorization = psi_factorization_check(min(args.dmax, 4))
    result = {
        "composition_ok": composition,
        "identity": {"j": identity.j, "dmax": identity.dmax,
                     "per_degree": identity.per_degree,
                     "passed": identity.passed},
        "factorization": {
            "passed": factorization.passed,
            "per_prime": [{"g_prime": g.to_string("u"),
                           "a": poly_json(data.a),
                           "mu": poly_json(data.mu), "ok": ok}
                          for g, data, ok in factorization.per_prime]},
        "parity": {
            "vadic_slopes": [str(s) for s in parity.vadic_slopes],
            "vadic_violations": [str(s) for s in parity.vadic_violations],
            "vadic_all_odd": parity.vadic_all_odd,
            "infty_slopes": [str(s) for s in parity.infty_slopes],
            "infty_violations": [str(s) for s in parity.infty_violations],
            "infty_all_even": parity.infty_all_even,
            "removed_factor_slope": parity.removed_factor_slope},
    }
    passed = composition and identity.passed and factorization.passed \
        and parity.passed
    return result, EXIT_OK if passed else EXIT_MATH, None


def cmd_verify(args) -> tuple[dict, int, dict]:
    results = run_battery(quick=args.quick, criteria=args.criteria)
    for res in results:
        print(res.line(), file=sys.stderr)
    result = battery_result(results)
    timing = {"per_criterion": {r.cid: round(r.seconds, 6) for r in results}}
    return result, EXIT_OK if result["all_passed"] else EXIT_MATH, timing


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

@functools.cache  # built on the first request, reused by later ones
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ffzeta",
        description="exact zeta/L-series data over F_r[T]: special "
                    "polynomials, Newton polygons, Frobenius data, and the "
                    "verification battery")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("special", help="special polynomial coefficients")
    _add_field_args(sp)
    sp.add_argument("--j", type=_ANY_INT, required=True)
    sp.add_argument("--dmax", type=_int_at_least(0), default=None,
                    help="list coefficients up to at least this degree")
    _add_format(sp)
    sp.add_argument("--cache-dir", type=str, default=None,
                    help="power-sum cache directory")

    sp = sub.add_parser("newton", help="coefficient family polygon and verdict")
    _add_field_args(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--y", type=_ANY_INT, default=None,
                       help="integer exponent (the family applies -y)")
    group.add_argument("--y-digits", type=str, default=None,
                       help="explicit base-p digits of the exponent, lowest first")
    sp.add_argument("--f", type=str, default=None,
                    help="finite prime (v-adic family instead of infinity)")
    sp.add_argument("--s1", type=_ANY_INT, default=None,
                    help="finite-order exponent coordinate at f (default: "
                         "--y, or 0 with --y-digits)")
    sp.add_argument("--dmax", type=_int_at_least(0), default=8)
    sp.add_argument("--prec", type=_int_at_least(1), default=64)
    sp.add_argument("--refine", action="store_true",
                    help="Hensel-refine roots on unit integer slopes "
                         "(infinite place only)")
    _add_format(sp, "csv")

    sp = sub.add_parser("frobenius", help="Frobenius characteristic polynomial")
    _add_field_args(sp)
    sp.add_argument("--f", type=str, required=True)
    _add_module_args(sp)
    _add_format(sp)

    sp = sub.add_parser("lseries", help="Dirichlet coefficients of a module")
    _add_field_args(sp)
    _add_module_args(sp)
    sp.add_argument("--degree-bound", type=_int_at_least(0), required=True)
    sp.add_argument("--j", type=_int_at_least(0), default=None,
                    help="also emit exact special coefficients at this exponent")
    _add_format(sp)

    sp = sub.add_parser("sqrtcar", help="square-root CM example checks")
    sp.add_argument("--j", type=_ANY_INT, required=True)
    sp.add_argument("--dmax", type=_int_at_least(0), default=8)
    sp.add_argument("--prec", type=_int_at_least(1), default=64)
    _add_format(sp)

    sp = sub.add_parser("verify", help="run the acceptance battery")
    sp.add_argument("--quick", action="store_true")
    sp.add_argument("--criteria", type=str, default=None,
                    help="comma-separated criterion ids, default all")
    _add_format(sp)

    ap.command_parsers = sub.choices  # name -> subparser, read by _parse_args
    return ap


_DISPATCH = {
    "special": cmd_special,
    "newton": cmd_newton,
    "frobenius": cmd_frobenius,
    "lseries": cmd_lseries,
    "sqrtcar": cmd_sqrtcar,
    "verify": cmd_verify,
}


def _parse_args(argv) -> argparse.Namespace:
    """The parsed request.  When argv[0] names a command, its own subparser
    reads the rest, which skips the top-level parse and gives the same
    namespace; anything else, and a request with arguments that subparser
    leaves over, takes the full parse, so every error keeps its text."""
    parser = build_parser()
    sub = parser.command_parsers.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    config = {k: v for k, v in vars(args).items() if k != "command"}
    t0 = time.perf_counter()
    try:
        result, code, timing = _DISPATCH[args.command](args)
        seconds = time.perf_counter() - t0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FFZetaError as exc:
        hint = ""
        if isinstance(exc, AllCoefficientsVanish):
            hint = " (raise --prec: every coefficient vanished to precision)"
        print(f"verification failure: {exc}{hint}", file=sys.stderr)
        return EXIT_MATH
    except ValueError as exc:
        # malformed polynomial/digit inputs surface here
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    doc = envelope(args.command, config, result)
    doc["timing"] = {"seconds": round(seconds, 6), **(timing or {})}
    sys.stdout.write(_RENDER[args.format](doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
