"""Spans at the public functions of each ffzeta layer, installed from the
benchmark by rebinding names; ffzeta itself is not edited.

A wrapper measures every call while the tracer is active.  Self time is a
call's duration minus the time covered by wrapped calls beneath it; it is
accumulated exactly as calls return.  Calls of the fine-grained kernels
(packing, Poly and series arithmetic, skew products) are aggregated only;
every other call is also kept as a span (name, start, end, parent, task)
in memory and written out when the run ends.

A wrapped name that the package no longer defines is recorded as absent;
the metrics built on it are then reported as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# span name -> (module, attribute path); a dotted path is Class.method
WRAPPED = {
    # the scalar helpers base_digits, binom_small and binom_mod_p are left
    # out: they run millions of times per run, and a wrapper costs more
    # than they do; their time counts towards their caller
    **{f"packing.{n}": ("_packing", n) for n in (
        "f2_from_coeffs", "f2_to_coeffs", "f2_mul", "f2_spread", "f2_pow", "pk_pack",
        "pk_unpack", "digits_mod", "pk_spread_terms", "pk_sparse_mul",
        "pk_pow")},
    **{f"packing.planes_{n}": ("_packing", f"Char2Planes.{n}") for n in (
        "from_encodings", "to_encodings", "mul", "coeff_frobenius", "spread",
        "pow")},
    "ffpoly.field_build": ("ffpoly", "FiniteField.__init__"),
    "ffpoly.arith.mul": ("ffpoly", "Poly.__mul__"),
    "ffpoly.arith.pow": ("ffpoly", "Poly.__pow__"),
    "ffpoly.arith.divmod": ("ffpoly", "Poly.__divmod__"),
    "zeta.power_sum": ("zeta", "power_sum"),
    "zeta.enumerated.power_sum": ("zeta", "power_sum_enumerated"),
    "zeta.enumerated.coprime": ("zeta", "coprime_power_sum"),
    "zeta.enumerated.multiples": ("zeta", "multiples_power_sum"),
    "zeta.special": ("zeta", "special_polynomial"),
    "zeta.family.infty": ("zeta", "zeta_family_infty"),
    "zeta.family.vadic": ("zeta", "zeta_family_vadic"),
    "zeta.identity.interp": ("zeta", "interp_consistency"),
    "zeta.identity.euler": ("zeta", "euler_removed_identity"),
    "zeta.identity.twist": ("zeta", "twist_identity_deg1"),
    "nonarch.pow_sv": ("nonarch", "pow_sv"),
    "nonarch.unit_pow_padic": ("nonarch", "unit_pow_padic"),
    "nonarch.bracket_infty": ("nonarch", "bracket_infty"),
    **{f"nonarch.series{n}": ("nonarch", f"LaurentSeries.{n}") for n in (
        "__add__", "__sub__", "__mul__", "__pow__", "__truediv__", "inverse")},
    **{f"nonarch.vadic{n}": ("nonarch", f"VadicElem.{n}") for n in (
        "__add__", "__sub__", "__mul__", "__pow__")},
    "newton.polygon": ("newton", "newton_polygon"),
    "newton.spectrum": ("newton", "zero_spectrum"),
    "newton.verdict": ("newton", "rh_verdict"),
    "newton.hensel": ("newton", "hensel_root"),
    "drinfeld.frobenius": ("drinfeld", "frobenius_charpoly"),
    "drinfeld.skew_mul": ("drinfeld", "SkewPoly.__mul__"),
    "drinfeld.lseries.coeffs": ("drinfeld", "lseries_coeffs"),
    "drinfeld.lseries.special": ("drinfeld", "lseries_special_coeffs"),
    "drinfeld.lseries.local": ("drinfeld", "local_factor_coeffs"),
    **{f"sqrtcar.{n}": ("sqrtcar", n) for n in (
        "hecke_identity", "hecke_special", "parity_report",
        "psi_composition_check", "psi_factorization_check")},
    "cache.get": ("cache", "PowerSumCache.get"),
    "cache.put": ("cache", "PowerSumCache.put"),
    "cache.should_spot_check": ("cache", "PowerSumCache.should_spot_check"),
    "cli.main": ("cli", "main"),
}

# generators whose yields are counted (no timing: a generator's time
# belongs to whoever iterates it)
COUNTED_GENERATORS = {
    "ffpoly.monics_enumerated": ("ffpoly", "enumerate_monic"),
    "ffpoly.primes_enumerated": ("ffpoly", "enumerate_monic_primes"),
}

AGGREGATE_ONLY = ("packing.", "ffpoly.arith.", "nonarch.series",
                  "nonarch.vadic", "drinfeld.skew_mul", "cache.should_")


class Tracer:
    def __init__(self):
        self.active = False
        self.task = None
        self.stack: list[list] = []   # per open call: [child seconds, span id]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, task)
        self.next_id = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every name of WRAPPED and COUNTED_GENERATORS in the loaded
        ffzeta modules; call it once per process, after importing ffzeta."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ffzeta"
                                         or name.startswith("ffzeta."))]
        for span, (mod, path) in WRAPPED.items():
            self._rebind(modules, span, mod, path, self._timed(span))
        for metric, (mod, path) in COUNTED_GENERATORS.items():
            self._rebind(modules, metric, mod, path, self._counted(metric))

    def _rebind(self, modules, name, mod, path, make):
        owner = sys.modules.get(f"ffzeta.{mod}")
        attr = path.split(".")
        for part in attr[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr[-1], None) if owner is not None else None
        if original is None or getattr(original, "_perfbench_wrapped", False):
            self.absent.append(name)
            return
        wrapper = make(original)
        wrapper._perfbench_wrapped = True
        if len(attr) > 1:
            setattr(owner, attr[-1], wrapper)
            return
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is original:
                    setattr(m, key, wrapper)

    def _timed(self, name: str):
        record = not name.startswith(AGGREGATE_ONLY)
        on_result = RESULT_HOOKS.get(name)

        def make(fn):
            tracer = self

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                stack = tracer.stack
                parent = stack[-1][1] if stack else None
                if record:
                    span_id = tracer.next_id
                    tracer.next_id += 1
                else:
                    span_id = parent
                frame = [0.0, span_id]
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer.counts[name + ".raised"] += 1
                    raise
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    dur = t1 - t0
                    tracer.calls[name] += 1
                    tracer.self_s[name] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
                    if record:
                        tracer.spans.append((span_id, name, t0, t1, parent,
                                             tracer.task))
                if on_result is not None:
                    on_result(tracer.counts, result)
                return result
            return wrapper
        return make

    def _counted(self, name: str):
        def make(fn):
            tracer = self

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    if tracer.active:
                        tracer.counts[name] += 1
                    yield item
            return wrapper
        return make

    # -- output ------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span_id\tname\tstart_s\tend_s\tparent\ttask\n")
            for sid, name, t0, t1, parent, task in self.spans:
                fh.write(f"{sid}\t{name}\t{t0:.9f}\t{t1:.9f}\t"
                         f"{'' if parent is None else parent}\t{task}\n")


def _count_len(key):
    def hook(counts, result):
        counts[key] += len(result)
    return hook


def _count_flag(key, attr):
    def hook(counts, result):
        counts[key] += bool(getattr(result, attr, False))
    return hook


def _count_cache_get(counts, result):
    counts["cache.hits" if result is not None else "cache.misses"] += 1


RESULT_HOOKS = {
    "packing.f2_to_coeffs": _count_len("packing.coeffs_out"),
    "packing.pk_unpack": _count_len("packing.coeffs_out"),
    "packing.planes_to_encodings": _count_len("packing.coeffs_out"),
    "newton.polygon": _count_flag("newton.provisional", "provisional"),
    "drinfeld.frobenius": _count_flag("drinfeld.frobenius.verified", "verified"),
    "cache.get": _count_cache_get,
    "cache.put": lambda counts, result: counts.update(["cache.writes"]),
    "cache.should_spot_check":
        lambda counts, result: counts.update(["cache.spot_checks"] * bool(result)),
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric name -> unit, in the order of the report, as BENCHMARK.json lists them
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)["per_layer"]}

# metric -> the span or counter names it is built from
_SOURCES = {
    "packing.f2_to_coeffs.self_s": ["packing.f2_to_coeffs"],
    "packing.coeffs_out": ["packing.f2_to_coeffs", "packing.pk_unpack",
                           "packing.planes_to_encodings"],
    "ffpoly.divmod.calls": ["ffpoly.arith.divmod"],
    "ffpoly.monics_enumerated": ["ffpoly.monics_enumerated"],
    "ffpoly.primes_enumerated": ["ffpoly.primes_enumerated"],
    "nonarch.pow_sv.self_s": ["nonarch.pow_sv"],
    "newton.provisional_ratio": ["newton.polygon"],
    "newton.hensel.calls": ["newton.hensel"],
    "newton.hensel.fail_ratio": ["newton.hensel"],
    "drinfeld.frobenius.verified_ratio": ["drinfeld.frobenius"],
    "cache.hits": ["cache.get"], "cache.misses": ["cache.get"],
    "cache.hit_ratio": ["cache.get"], "cache.writes": ["cache.put"],
    "cache.spot_checks": ["cache.should_spot_check"],
    "cache.io_s": ["cache.get", "cache.put"],
    "cli.requests": ["cli.main"], "cli.self_s": ["cli.main"],
}


def _prefix_of(metric: str) -> str:
    for suffix in (".calls", ".self_s"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)]
    return metric


def per_layer_metrics(tr: Tracer, bytes_out: int,
                      overhead_ratio: float | None) -> dict:
    """{metric: (value, unit, absent reason or None)}."""
    wrapped = set(WRAPPED) | set(COUNTED_GENERATORS)

    def names(prefix):
        return [n for n in wrapped if n == prefix or n.startswith(prefix + ".")]

    def total(counter, prefix):
        return sum(counter[n] for n in names(prefix))

    def ratio(num, den, what):
        return (num / den, None) if den else (0.0, f"no {what} in this workload")

    c = tr.counts
    out = {}
    for metric, unit in PER_LAYER.items():
        reason = None
        prefix = _prefix_of(metric)
        if metric == "trace.overhead_ratio":
            value = overhead_ratio if overhead_ratio is not None else 0.0
            if overhead_ratio is None:
                reason = "untraced reference run failed"
        elif metric == "cli.bytes_out":
            value = bytes_out
        elif metric == "packing.coeffs_out":
            value = c["packing.coeffs_out"]
        elif metric in ("ffpoly.monics_enumerated", "ffpoly.primes_enumerated"):
            value = c[metric]
        elif metric == "newton.provisional_ratio":
            value, reason = ratio(c["newton.provisional"],
                                  tr.calls["newton.polygon"], "polygons")
        elif metric == "newton.hensel.fail_ratio":
            value, reason = ratio(c["newton.hensel.raised"],
                                  tr.calls["newton.hensel"], "Hensel refinements")
        elif metric == "drinfeld.frobenius.verified_ratio":
            value, reason = ratio(c["drinfeld.frobenius.verified"],
                                  tr.calls["drinfeld.frobenius"]
                                  - c["drinfeld.frobenius.raised"],
                                  "Frobenius solutions")
        elif metric in ("cache.hits", "cache.misses", "cache.writes",
                        "cache.spot_checks"):
            value = c[metric]
        elif metric == "cache.hit_ratio":
            value, reason = ratio(c["cache.hits"],
                                  c["cache.hits"] + c["cache.misses"],
                                  "cache lookups")
        elif metric == "cache.io_s":
            value = tr.self_s["cache.get"] + tr.self_s["cache.put"]
        elif metric == "cli.requests":
            value = tr.calls["cli.main"]
        elif metric == "cli.self_s":
            value = tr.self_s["cli.main"]
        elif metric.endswith(".calls"):
            value = total(tr.calls, prefix)
        else:
            value = total(tr.self_s, prefix)
        sources = _SOURCES.get(metric, names(prefix))
        missing = [s for s in sources if s in tr.absent]
        if sources and len(missing) == len(sources):
            value, reason = 0, "wrapped name absent: " + ", ".join(missing)
        out[metric] = (value, unit, reason)
    return out
