import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from ffzeta import cli, ffpoly
from ffzeta.cache import PowerSumCache
from ffzeta.errors import CacheCorruption
from ffzeta.ffpoly import FiniteField, Poly, enumerate_monic_primes, poly_parse
from ffzeta.zeta import (
    _power_sums,
    power_sum,
    special_degree_bound,
    special_polynomial,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)

GOLDEN = Path(__file__).parent / "golden"


class CheckedAt(PowerSumCache):
    """A cache that spot-checks the hits at the given degrees."""

    def __init__(self, root, degrees):
        super().__init__(root)
        self.degrees = set(degrees)

    def should_spot_check(self, field, d, j):
        self.spot_checks += d in self.degrees
        return d in self.degrees


class TestReadThrough:
    """``PowerSumCache.read_through`` against a fake engine pass that
    records how far it was advanced."""

    @staticmethod
    def fake_sums(field, j, taken):
        for d, value in enumerate(_power_sums(field, j)):
            taken.append(d)
            yield value

    def test_cold_takes_every_degree_and_writes_it(self, tmp_path):
        taken = []
        cache = PowerSumCache(tmp_path)
        got = cache.read_through(F3, 1931, self.fake_sums(F3, 1931, taken), 5)
        assert got == special_polynomial(F3, 1931).coeffs
        assert taken == list(range(6))
        assert (cache.misses, cache.writes, cache.hits) == (6, 6, 0)
        assert [cache.get(F3, d, 1931) for d in range(6)] == got

    def test_warm_without_checks_never_advances(self, tmp_path):
        want = special_polynomial(F3, 1931, cache=PowerSumCache(tmp_path)).coeffs
        taken = []
        cache = CheckedAt(tmp_path, ())
        got = cache.read_through(F3, 1931, self.fake_sums(F3, 1931, taken), 5)
        assert got == want and taken == []
        assert (cache.hits, cache.writes, cache.spot_checks) == (6, 0, 0)

    @pytest.mark.parametrize("checked", [{0}, {2}, {1, 3}, {5}])
    def test_warm_stops_at_the_highest_check(self, tmp_path, checked):
        want = special_polynomial(F3, 1931, cache=PowerSumCache(tmp_path)).coeffs
        taken = []
        cache = CheckedAt(tmp_path, checked)
        got = cache.read_through(F3, 1931, self.fake_sums(F3, 1931, taken), 5)
        assert got == want and taken == list(range(max(checked) + 1))
        assert cache.spot_checks == len(checked) and cache.writes == 0

    def test_a_miss_among_hits_is_written(self, tmp_path):
        special_polynomial(F3, 1931, cache=PowerSumCache(tmp_path))
        PowerSumCache(tmp_path).path(F3, 3, 1931).unlink()
        taken = []
        cache = CheckedAt(tmp_path, ())
        cache.read_through(F3, 1931, self.fake_sums(F3, 1931, taken), 5)
        assert taken == [0, 1, 2, 3]
        assert (cache.misses, cache.writes) == (1, 1)
        assert cache.get(F3, 3, 1931) == power_sum(F3, 3, 1931)

    def test_a_checked_mismatch_is_corruption(self, tmp_path):
        want = special_polynomial(F3, 1931, cache=PowerSumCache(tmp_path)).coeffs
        cache = CheckedAt(tmp_path, {4})
        cache.put(F3, 4, 1931, want[4] + Poly.one(F3))
        taken = []
        with pytest.raises(CacheCorruption, match=r"S_4\(1931\) disagrees"):
            cache.read_through(F3, 1931, self.fake_sums(F3, 1931, taken), 5)
        assert taken == list(range(5))


class TestCache:
    def test_roundtrip(self, tmp_path):
        cache = PowerSumCache(tmp_path)
        value = power_sum(F3, 2, 7)
        cache.put(F3, 2, 7, value)
        assert cache.get(F3, 2, 7) == value

    def test_zero_entry(self, tmp_path):
        cache = PowerSumCache(tmp_path)
        cache.put(F2, 3, 0, Poly.zero(F2))
        got = cache.get(F2, 3, 0)
        assert got is not None and got.is_zero()

    def test_extension_field_digits(self, tmp_path):
        cache = PowerSumCache(tmp_path)
        value = power_sum(F4, 1, 5)
        cache.put(F4, 1, 5, value)
        assert cache.get(F4, 1, 5) == value
        assert "mod111" in str(cache.field_dir(F4))

    @pytest.mark.parametrize("field,coeffs,name", [
        (FiniteField(257), (200, 3, 1), "p257_m1"),
        (FiniteField(11, 2), (3 + 10 * 11, 0, 120, 1), "p11_m2_mod1.0.1"),
    ], ids=["F257", "F121"])
    def test_multi_character_digits_round_trip(self, tmp_path, field, coeffs, name):
        # for p > 10 a digit takes several characters, so digits join with "."
        cache = PowerSumCache(tmp_path)
        value = Poly(field, coeffs)
        cache.put(field, 1, 5, value)
        assert cache.get(field, 1, 5) == value
        assert cache.field_dir(field).name == name
        # every element, and the file is the digit-by-digit rendering
        value = Poly(field, list(range(field.order)) + [1])
        cache.put(field, 2, 9, value)
        got = cache.get(field, 2, 9)
        assert got == value and all(type(c) is int for c in got.coeffs)
        digits = [".".join(str(c // field.p ** k % field.p) for k in range(field.m))
                  for c in value.coeffs]
        assert cache.path(field, 2, 9).read_text() == \
            f"deg {field.order}: {' '.join(digits)}\n"

    def test_miss_returns_none(self, tmp_path):
        cache = PowerSumCache(tmp_path)
        assert cache.get(F2, 1, 1) is None

    def test_corrupt_entry_detected(self, tmp_path):
        cache = PowerSumCache(tmp_path)
        cache.put(F2, 1, 1, power_sum(F2, 1, 1))
        path = cache.path(F2, 1, 1)
        path.write_text("deg 2: 1 1\n")  # inconsistent degree
        with pytest.raises(CacheCorruption):
            cache.get(F2, 1, 1)

    def test_digit_out_of_range_is_corruption(self, tmp_path):
        cache = PowerSumCache(tmp_path)
        cache.put(F2, 1, 3, power_sum(F2, 1, 3))
        cache.path(F2, 1, 3).write_text("deg 2: 1 2 1\n")  # 2 is no F_2 digit
        with pytest.raises(CacheCorruption):
            cache.get(F2, 1, 3)

    def test_spot_check_catches_tampering(self, tmp_path):
        cache = CheckedAt(tmp_path, range(3))
        cache.put(F2, 1, 3, poly_parse(F2, "T+1"))  # wrong on purpose
        with pytest.raises(CacheCorruption, match=r"S_1\(3\) disagrees"):
            special_polynomial(F2, 3, cache=cache)

    def test_non_ascii_bytes_are_corruption(self, tmp_path):
        # the locale's decoder raised UnicodeDecodeError, a ValueError,
        # which the CLI reported as a usage error (exit 2)
        cache = PowerSumCache(tmp_path)
        cache.put(F3, 1, 5, power_sum(F3, 1, 5))
        cache.path(F3, 1, 5).write_bytes(b"deg 1: \xff 1\n")
        with pytest.raises(CacheCorruption):
            cache.get(F3, 1, 5)
        code, out, err = run_cli("special", "--p", "3", "--j", "5",
                                 "--cache-dir", str(tmp_path))
        assert code == 3 and out == ""
        assert err.startswith("verification failure: unreadable cache entry")

    def test_spot_checks_reach_every_degree(self, tmp_path):
        # the key decides: a fresh cache per run checks the same entries,
        # and over many reads they fall on several degrees
        class Recording(PowerSumCache):
            def should_spot_check(self, field, d, j):
                hit = super().should_spot_check(field, d, j)
                if hit:
                    self.checked.append((d, j))
                return hit

        runs = []
        for _ in range(3):  # cold, then warm twice
            cache = Recording(tmp_path)
            cache.checked = []
            for j in range(100, 301):
                special_polynomial(F3, j, cache=cache)
            runs.append(cache.checked)
        assert runs[0] == [] and cache.misses == 0 and cache.hits > 0
        assert runs[1] == runs[2] and len(runs[1]) == cache.spot_checks
        assert len({d for d, _ in runs[1]}) >= 3

    def test_tampered_entry_at_a_high_degree_is_caught(self, tmp_path):
        probe = PowerSumCache(tmp_path)
        d, j = next((d, j) for j in range(100, 301)
                    for d in range(3, special_degree_bound(F3, j) + 1)
                    if probe.should_spot_check(F3, d, j))
        argv = ("special", "--p", "3", "--j", str(j), "--cache-dir", str(tmp_path))
        assert run_cli(*argv)[0] == 0  # cold: writes every S_d(j)
        good = probe.get(F3, d, j)
        assert good is not None
        probe.put(F3, d, j, good + Poly.one(F3))  # well formed, wrong
        code, out, err = run_cli(*argv)
        assert code == 3 and out == ""
        assert f"S_{d}({j}) disagrees with recomputation" in err

    def test_file_format_is_line_oriented(self, tmp_path):
        cache = PowerSumCache(tmp_path)
        cache.put(F2, 1, 3, power_sum(F2, 1, 3))  # T^2+T+1
        text = cache.path(F2, 1, 3).read_text()
        assert text == "deg 2: 1 1 1\n"

    @pytest.mark.parametrize("pm,line", [
        ((3, 1), "deg 1: 1 3"), ((257, 1), "deg 0: 257"), ((11, 2), "deg 0: 11.0"),
        ((65537, 1), "deg 1: 1 65537"),
        ((3, 1), "deg 0: 12"), ((2, 2), "deg 0: 1"), ((11, 2), "deg 0: 1.0.0"),
        ((3, 1), "deg 1: 1 \u0661"), ((257, 1), "deg 0: \u0663"),
        ((3, 2), "deg 0: \u0661\u0660"), ((11, 2), "deg 0: \u0663.1"),
        ((3, 1), "deg 1: 1 +1"), ((257, 1), "deg 0: +1"), ((11, 2), "deg 0: +1.0"),
        ((3, 1), "deg 1: 1 0"), ((11, 2), "deg 1: 1.0 0.0"),
        ((3, 1), "deg 2: 1 1"), ((11, 2), "deg 0: 1.0 1.0"), ((3, 1), "deg 0:"),
        ((3, 1), "deg -inf: 1"), ((3, 1), "1 1"), ((3, 1), "deg 1 1 1"),
        ((7, 1), "deg 1: 1 7"), ((3, 1), "deg 1: 01"), ((2, 1), "deg 1: \x00 1"),
        ((2, 1), "deg 1: 1 :"), ((2, 1), "deg 1: 1 \u0661"),
        # a degree the writer never writes: only -inf or ASCII digits read
        ((2, 1), "deg \u0661: 1 1"), ((2, 1), "deg +1: 1 1"),
        ((2, 1), "deg 1_0: " + " ".join(["1"] * 11)),
        ((2, 1), "deg -1:"), ((2, 1), "deg +1: 0 1"),
    ], ids=["digit-ge-p", "digit-ge-p-F257", "digit-ge-p-F121", "digit-ge-p-F65537",
            "digit-count", "digit-count-F4", "digit-count-F121",
            "non-ascii", "non-ascii-F257", "non-ascii-F9", "non-ascii-F121",
            "plus", "plus-F257", "plus-F121", "trailing-zero", "trailing-zero-F121",
            "degree", "degree-F121", "degree-empty", "zero-with-coefficients",
            "no-header", "no-colon",
            # lines the byte path (F_p, p < 10) meets first
            "digit-p-F7", "two-digits-F3", "nul-F2", "colon-F2", "non-ascii-digit-F2",
            "non-ascii-degree", "plus-degree", "underscore-degree",
            "degree-minus-one", "signed-degree"])
    def test_malformed_line_is_corruption(self, tmp_path, pm, line):
        field = FiniteField(*pm)
        cache = PowerSumCache(tmp_path)
        cache.put(field, 1, 1, Poly.one(field))
        cache.path(field, 1, 1).write_text(line + "\n")
        with pytest.raises(CacheCorruption):
            cache.get(field, 1, 1)

    @pytest.mark.parametrize("pm,line,coeffs", [
        ((3, 1), "  deg 1:  2\t1 \n\n", (2, 1)),
        ((11, 2), "deg 1: 03.010 01.0\n", (3 + 10 * 11, 1)),
        ((257, 1), "deg 1: 0007 256\n", (7, 256)),
        ((2, 1), "deg \t1 : 0 1\n", (0, 1)),
    ], ids=["whitespace", "leading-zeros-F121", "leading-zeros-F257",
            "whitespace-around-degree"])
    def test_lenient_lines_read_as_before(self, tmp_path, pm, line, coeffs):
        # lines the writer never makes, that the per-token reader took
        field = FiniteField(*pm)
        cache = PowerSumCache(tmp_path)
        cache.put(field, 1, 1, Poly.one(field))
        cache.path(field, 1, 1).write_text(line)
        assert cache.get(field, 1, 1) == Poly(field, coeffs)

    def test_concurrent_writes_stay_parseable(self, tmp_path):
        cache = PowerSumCache(tmp_path)
        value = power_sum(F3, 3, 11)

        def write(_):
            cache.put(F3, 3, 11, value)

        with ThreadPoolExecutor(max_workers=8) as ex:
            list(ex.map(write, range(64)))
        assert cache.get(F3, 3, 11) == value
        leftovers = [p for p in cache.field_dir(F3).iterdir()
                     if p.name.startswith(".tmp_")]
        assert not leftovers


def run_cli(*argv):
    import io
    from contextlib import redirect_stderr, redirect_stdout
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# fields of order above 512, which must exit 2 before a modulus is searched
# for or tested: at p = 2, m = 800 the search alone takes about 90 s
OVERSIZE_FIELDS = [
    ("special", "--p", "2", "--m", "800", "--j", "1"),
    ("special", "--p", "3", "--m", "1000000", "--j", "1"),
    ("special", "--p", "2", "--m", "800", "--j", "1",
     "--modulus", ",".join(["1"] + ["0"] * 799 + ["1"])),
]

# one cheap invocation of every subcommand
EVERY_COMMAND = [
    ("special", "--p", "2", "--j", "1"),
    ("newton", "--p", "2", "--y", "-1", "--dmax", "2", "--prec", "8"),
    ("frobenius", "--p", "2", "--f", "T", "--module", "carlitz"),
    ("lseries", "--p", "2", "--module", "carlitz", "--degree-bound", "2"),
    ("sqrtcar", "--j", "0", "--dmax", "2"),
    ("verify", "--quick", "--criteria", "7"),
]


def option_dests(command: str) -> set[str]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


class TestCli:
    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
    def test_envelope_config_and_timing_keys(self, argv):
        code, out, _ = run_cli(*argv)
        assert code in (0, 3)
        doc = json.loads(out)
        assert set(doc) == {"schemaVersion", "command", "config", "result",
                            "timing"}
        assert doc["command"] == argv[0]
        assert set(doc["config"]) == option_dests(argv[0])
        if argv[0] == "verify":
            assert set(doc["timing"]) == {"seconds", "per_criterion"}
            assert set(doc["timing"]["per_criterion"]) == {"7"}
        else:
            assert set(doc["timing"]) == {"seconds"}

    def test_parser_reuse_leaks_nothing(self):
        # main builds its parser once per process; every request must read
        # as it does with a parser of its own (no default or flag carried
        # over from the request before)
        seq = [("newton", "--p", "2", "--y", "-1", "--dmax", "3",
                "--prec", "24", "--refine"),
               ("newton", "--p", "2", "--y", "-1", "--dmax", "3",
                "--prec", "24"),
               ("newton", "--p", "2", "--y", "-1", "--dmax", "-1"),
               ("frobenius", "--p", "2", "--f", "T", "--module", "carlitz")]

        def without_timing(code, out, err):
            doc = json.loads(out) if out else None
            if doc is not None:
                del doc["timing"]
            return code, doc, err

        cli.build_parser.cache_clear()
        shared = [without_timing(*run_cli(*argv)) for argv in seq]
        assert cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in seq:
            cli.build_parser.cache_clear()
            fresh.append(without_timing(*run_cli(*argv)))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2, 0]
        assert shared[0][1]["config"]["refine"] is True
        assert shared[1][1]["config"]["refine"] is False
        assert "refined_roots" not in shared[1][1]["result"]

    def test_special_golden(self):
        code, out, _ = run_cli("special", "--p", "2", "--j", "1")
        assert code == 0
        doc = json.loads(out)
        del doc["timing"]
        expected = json.loads((GOLDEN / "special_p2_j1.json").read_text())
        assert doc == expected

    def test_special_j0(self):
        code, out, _ = run_cli("special", "--p", "2", "--j", "0")
        doc = json.loads(out)
        coeffs = [c["string"] for c in doc["result"]["coefficients"]]
        assert coeffs == ["1"]
        assert doc["result"]["observed_degree"] == 0
        assert doc["result"]["certified_polynomial"] is True

    def test_usage_error_for_composite_p(self):
        code, _, err = run_cli("special", "--p", "4", "--j", "1")
        assert code == 2 and "not prime" in err

    def test_reducible_modulus_is_usage_error(self):
        code, _, err = run_cli("special", "--p", "3", "--m", "2",
                               "--modulus", "2,0,1", "--j", "1")
        assert code == 2 and "reducible" in err

    def test_newton_infinity(self):
        code, out, _ = run_cli("newton", "--p", "2", "--y", "-1",
                               "--dmax", "4", "--prec", "16")
        assert code == 0
        doc = json.loads(out)
        segs = doc["result"]["polygon"]["segments"]
        assert segs == [{"slope": "1", "length": 1, "zero_valuation": "-1",
                         "abs_value_exponent": "1"}]
        assert doc["result"]["verdict"]["passed"] is True
        assert doc["result"]["polygon"]["provisional"] is False

    def test_newton_vadic_degree_two_prime_reports_length_two(self):
        # removed Euler factor at a degree-2 prime: two zeroes of one size
        code, out, _ = run_cli("newton", "--p", "3", "--y", "-2",
                               "--f", "T^2+1", "--dmax", "6", "--prec", "24")
        assert code == 0
        doc = json.loads(out)
        exceptions = doc["result"]["verdict"]["exceptions"]
        assert any(e["length"] == 2 for e in exceptions)

    def test_newton_refine(self):
        code, out, _ = run_cli("newton", "--p", "2", "--y", "-1",
                               "--dmax", "3", "--prec", "24", "--refine")
        doc = json.loads(out)
        roots = doc["result"]["refined_roots"]
        assert roots and roots[0]["root"]["start"] == -1

    def test_newton_csv(self):
        code, out, _ = run_cli("newton", "--p", "2", "--y", "-1",
                               "--dmax", "3", "--prec", "16",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,d,valuation_or_bound"
        assert any(line.startswith("vertex,") for line in lines)
        assert any(line.startswith("segment,") for line in lines)

    @pytest.mark.parametrize("argv", [
        ("special", "--p", "2", "--j", "5"),
        ("lseries", "--p", "2", "--module", "carlitz", "--degree-bound", "3"),
    ], ids=lambda argv: argv[0])
    def test_csv_outside_newton_is_usage_error(self, argv):
        code, out, err = run_cli(*argv, "--format", "csv")
        assert code == 2 and out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,plain_code", [
        pytest.param(("newton", "--p", "2", "--y", "-1", "--dmax", "2", "--prec", "8"),
                     0, id="newton"),
        pytest.param(("frobenius", "--p", "2", "--f", "T", "--module", "carlitz"),
                     0, id="frobenius"),
        pytest.param(("lseries", "--p", "2", "--module", "carlitz", "--degree-bound", "2"),
                     0, id="lseries"),
        pytest.param(("sqrtcar", "--j", "1", "--dmax", "2"), 3,  # the parity exception
                     id="sqrtcar"),
        pytest.param(("verify", "--quick", "--criteria", "1"), 0, id="verify"),
    ])
    def test_cache_dir_only_where_the_cache_is_read(self, argv, plain_code, tmp_path):
        assert run_cli(*argv)[0] == plain_code
        code, out, _ = run_cli(*argv, "--cache-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("newton", "--p", "2", "--y", "-1", "--dmax", "-1"),
        ("newton", "--p", "2", "--y", "-1", "--prec", "0"),
        ("sqrtcar", "--j", "1", "--dmax", "-1"),
        ("lseries", "--p", "2", "--module", "carlitz", "--degree-bound", "-1"),
        ("special", "--p", "2", "--j", "1", "--dmax", "-5"),
        ("lseries", "--p", "3", "--module", "carlitz", "--degree-bound", "6",
         "--j", "-1"),
    ], ids=["newton-dmax", "newton-prec", "sqrtcar-dmax", "lseries-degree-bound",
            "special-dmax", "lseries-negative-j"])
    def test_size_out_of_range_is_usage_error(self, argv, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started before the arguments were checked")
        monkeypatch.setattr(cli, "lseries_coeffs", no_work)
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert "must be >=" in err

    @pytest.mark.parametrize("argv", [
        ("sqrtcar", "--j", "-1"),
        ("special", "--p", "2", "--j", "-1"),
        ("newton", "--p", "2", "--m", "2", "--f", "T+[21]", "--y", "-1",
         "--dmax", "2", "--prec", "8"),
        ("newton", "--p", "2", "--y-digits", "3,1,1,1,1", "--dmax", "2",
         "--prec", "8"),
        ("special", "--p", "2", "--m", "2", "--modulus", "1,1,3", "--j", "1"),
        ("newton", "--p", "11", "--m", "2", "--f", "T+[3.11]", "--y", "-1",
         "--dmax", "2", "--prec", "8"),
        ("frobenius", "--p", "2", "--f", "T^2+T+1", "--tau-coeffs", "1,1,1"),
        ("lseries", "--p", "2", "--tau-coeffs", "1,1,1", "--degree-bound", "2",
         "--j", "1"),
        # bound 0 lists no prime, so no Frobenius solve refused it (exit 0)
        ("lseries", "--p", "2", "--tau-coeffs", "1,1,1", "--degree-bound", "0",
         "--j", "1"),
        ("frobenius", "--p", "2", "--f", "T^2+T+1", "--tau-coeffs", "0"),
        ("newton", "--p", "2", "--y", "-1", "--s1", "5"),
        ("newton", "--p", "2", "--y", "-1", "--f", "T", "--dmax", "2",
         "--prec", "8", "--refine"),
        # each read as a prime of F_2[T] while a sign could go without a
        # term and int() read the exponent ("0_1" is 1, "\u0663" is 3)
        *[("frobenius", "--p", "2", "--module", "carlitz", f"--f={f}")
          for f in ("T+", "T++1", "T^2+T+1+", "T+-1", "T^0_1", "T^\u0663+T+1")],
        # int() read the Arabic-Indic digit as 3
        ("frobenius", "--p", "5", "--module", "carlitz", "--f", "T+[\u0663]"),
        *OVERSIZE_FIELDS,
        # int() read "\u0661" and "0_1" as 1: the modulus 1,1,1 and the
        # digits 1,0,1,0, and both commands exited 0
        ("special", "--p", "2", "--m", "2", "--modulus", "1,1,\u0661", "--j", "1"),
        ("special", "--p", "2", "--m", "2", "--modulus", "1,1,0_1", "--j", "1"),
        ("newton", "--p", "2", "--y-digits", "\u0661,0,1,0", "--dmax", "2",
         "--prec", "8"),
        ("newton", "--p", "2", "--y-digits", "0_1,0,1,0", "--dmax", "2",
         "--prec", "8"),
        # an empty selection ran nothing and exited 0 with "all_passed";
        # a repeated id ran twice and timing kept one of the two
        ("verify", "--quick", "--criteria", ""),
        ("verify", "--quick", "--criteria", ","),
        ("verify", "--quick", "--criteria", "7,7"),
    ], ids=["sqrtcar-negative-j", "special-negative-j", "bracket-digit", "y-digit", "modulus-digit",
            "dotted-bracket-digit", "frobenius-rank-3", "lseries-rank-3",
            "lseries-rank-3-bound-0",
            "frobenius-zero-leading", "newton-s1-without-f", "newton-refine-at-f",
            "trailing-sign", "sign-without-term", "trailing-sign-after-prime",
            "two-signs", "underscore-exponent", "non-ascii-exponent",
            "non-ascii-bracket-digit", "oversize-field", "oversize-field-p3",
            "oversize-modulus", "non-ascii-modulus-digit", "underscore-modulus-digit",
            "non-ascii-y-digit", "underscore-y-digit", "verify-empty-criteria",
            "verify-empty-criteria-comma", "verify-repeated-criterion"])
    def test_input_out_of_range_is_usage_error(self, argv, monkeypatch):
        def no_work(*args):
            raise AssertionError("a family was built before the arguments were checked")
        monkeypatch.setattr(cli, "zeta_family_infty", no_work)
        monkeypatch.setattr(cli, "zeta_family_vadic", no_work)
        if argv in OVERSIZE_FIELDS:
            def no_search(*args):
                raise AssertionError("a modulus was searched for or tested")
            monkeypatch.setattr(ffpoly, "_default_modulus", no_search)
            monkeypatch.setattr(ffpoly, "is_irreducible", no_search)
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("argv", [
        ("special", "--p", "\u0662", "--j", "1"),
        ("special", "--p", "2", "--m", "\u0662", "--j", "1"),
        ("special", "--p", "2", "--j", "1_0"),
        ("special", "--p", "2", "--j", "1", "--dmax", "\u0662"),
        ("newton", "--p", "2", "--y", "\u0661", "--dmax", "2", "--prec", "8"),
        ("newton", "--p", "2", "--f", "T", "--y", "1", "--s1", "\u0661"),
        ("newton", "--p", "2", "--y", "-1", "--prec", "1_6"),
        ("lseries", "--p", "2", "--module", "carlitz", "--degree-bound", "\u0662"),
        ("sqrtcar", "--j", "\u0661"),
    ], ids=["p", "m", "special-j", "special-dmax", "newton-y", "newton-s1",
            "newton-prec", "lseries-degree-bound", "sqrtcar-j"])
    def test_integer_flag_takes_ascii_digits_only(self, argv, monkeypatch):
        # int() reads "\u0661" as 1 and "1_0" as 10, so each of these ran
        # (sqrtcar to exit 3, the others to exit 0); argparse now rejects
        # it before any work
        def no_work(*args):
            raise AssertionError("work started before the arguments were checked")
        for name in ("special_polynomial", "zeta_family_infty", "zeta_family_vadic",
                     "lseries_coeffs", "hecke_identity"):
            monkeypatch.setattr(cli, name, no_work)
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert "is not an integer in ASCII digits" in err

    @pytest.mark.parametrize("argv", [
        ("frobenius", "--p", "2", "--f", "T^2+T+1", "--module", "foo",
         "--tau-coeffs", "1,1"),
        ("frobenius", "--p", "2", "--f", "T^2+T+1", "--module", "carlitz",
         "--tau-coeffs", "1,1"),
        ("frobenius", "--p", "2", "--f", "T^2+T+1"),
        ("lseries", "--p", "2", "--module", "foo", "--degree-bound", "2"),
        ("lseries", "--p", "2", "--module", "carlitz", "--tau-coeffs", "1,1",
         "--degree-bound", "2"),
    ], ids=["frobenius-unknown-module", "frobenius-both", "frobenius-neither",
            "lseries-unknown-module", "lseries-both"])
    def test_module_is_carlitz_or_tau_coeffs(self, argv, monkeypatch):
        # argparse rejects these, with its own wording, before any work
        def no_work(*args):
            raise AssertionError("work started before the arguments were checked")
        monkeypatch.setattr(cli, "frobenius_charpoly", no_work)
        monkeypatch.setattr(cli, "lseries_coeffs", no_work)
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert "error: " in err and "--module" in err

    @pytest.mark.parametrize("argv", [
        ("newton", "--p", "2", "--y", "3", "--y-digits", "1,0,1"),
        ("newton", "--p", "2", "--y", "-1", "--y-digits", "1", "--f", "T"),
        ("newton", "--p", "2", "--dmax", "2"),
    ], ids=["newton-both-y", "newton-both-y-at-f", "newton-neither-y"])
    def test_exponent_is_y_or_y_digits(self, argv, monkeypatch):
        # argparse rejects these, with its own wording, before any family
        def no_work(*args):
            raise AssertionError("a family was built before the arguments were checked")
        monkeypatch.setattr(cli, "zeta_family_infty", no_work)
        monkeypatch.setattr(cli, "zeta_family_vadic", no_work)
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert "error: " in err and "--y" in err

    @pytest.mark.parametrize("p,f", [("2", "0"), ("3", "0"), ("3", "2T+1")])
    def test_newton_zero_prime_is_usage_error(self, p, f, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started before the prime was checked")
        monkeypatch.setattr(cli, "zeta_family_vadic", no_work)
        monkeypatch.setattr(cli, "SvPoint", no_work)
        code, out, err = run_cli("newton", "--p", p, "--f", f, "--y", "3")
        assert code == 2 and out == ""
        assert err == "usage error: the local prime must be monic irreducible\n"

    def test_frobenius_command(self):
        code, out, _ = run_cli("frobenius", "--p", "2", "--f", "T^2+T+1",
                               "--module", "carlitz")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["mu"]["string"] == "T^2+T+1"
        assert doc["result"]["verified"] is True

    def test_frobenius_reducible_f_after_primes_are_kept(self):
        """The F_2 degree-2 prime list is built first; T^2+1 is still
        refused as a usage error."""
        assert len(list(enumerate_monic_primes(FiniteField(2), 2))) == 1
        for module in (("--module", "carlitz"), ("--tau-coeffs", "1,1")):
            code, out, err = run_cli("frobenius", "--p", "2", "--f", "T^2+1",
                                     *module)
            assert code == 2 and out == "" and "monic irreducible" in err

    def test_frobenius_rank2(self):
        code, out, _ = run_cli("frobenius", "--p", "3", "--f", "T^2+1",
                               "--tau-coeffs", "1,1")
        doc = json.loads(out)
        assert doc["result"]["rank"] == 2
        assert doc["result"]["trace_bound_ok"] is True

    def test_lseries_command(self):
        code, out, _ = run_cli("lseries", "--p", "2", "--module", "carlitz",
                               "--degree-bound", "3", "--j", "1")
        doc = json.loads(out)
        table = {row["n"]: row["c"]["string"] for row in doc["result"]["coefficients"]}
        assert table["T^2+T+1"] == "T^2+T+1"
        specials = doc["result"]["special_coefficients"]["values"]
        # sum of n * n over monic linear n = S_1(2) = 1 over F_2
        assert specials[1]["string"] == "1"

    def test_sqrtcar_reports_parity_exception(self):
        code, out, _ = run_cli("sqrtcar", "--j", "1", "--dmax", "6")
        doc = json.loads(out)
        assert doc["result"]["identity"]["passed"] is True
        assert doc["result"]["factorization"]["passed"] is True
        assert doc["result"]["composition_ok"] is True
        parity = doc["result"]["parity"]
        assert parity["infty_all_even"] is True
        assert parity["vadic_violations"] == ["0"]
        assert code == 3  # the documented even trivial slope makes this red

    def test_verify_quick_subset_passes(self):
        code, out, err = run_cli("verify", "--quick", "--criteria", "1,7,9")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["all_passed"] is True
        assert [r["id"] for r in doc["result"]["records"]] == ["1", "7", "9"]
        assert "[criterion 1] PASS" in err

    def test_verify_determinism_bytes(self):
        runs = []
        for _ in range(2):
            code, out, _ = run_cli("verify", "--quick", "--criteria", "1,6,7")
            doc = json.loads(out)
            del doc["timing"]
            runs.append(json.dumps(doc, sort_keys=True))
        assert runs[0] == runs[1]

    def test_unknown_criterion_is_usage_error(self):
        code, _, err = run_cli("verify", "--criteria", "42")
        assert code == 2

    def test_cache_dir_flag(self, tmp_path):
        code, _, _ = run_cli("special", "--p", "3", "--j", "5",
                             "--cache-dir", str(tmp_path))
        assert code == 0
        files = list((tmp_path / "p3_m1").glob("S_d*_j5.txt"))
        assert files

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "below-a-file"])
    def test_cache_dir_that_is_no_directory_is_a_resource_error(self, tmp_path, below):
        # both exited 3, as an unreadable entry ("Not a directory")
        plain = tmp_path / "plain"
        plain.write_text("kept")
        root = plain.joinpath(*below)
        with pytest.raises(OSError):
            PowerSumCache(root)
        code, out, err = run_cli("special", "--p", "2", "--j", "3",
                                 "--cache-dir", str(root))
        assert (code, out) == (4, "") and err.startswith("resource error:")
        assert plain.read_text() == "kept"

    def test_entry_that_is_a_directory_is_corruption(self, tmp_path):
        (tmp_path / "p2_m1" / "S_d0_j3.txt").mkdir(parents=True)
        code, out, err = run_cli("special", "--p", "2", "--j", "3",
                                 "--cache-dir", str(tmp_path))
        assert (code, out) == (3, "")
        assert err.startswith("verification failure: unreadable cache entry")

    def test_empty_cache_dir_is_a_usage_error(self, tmp_path, monkeypatch):
        # ran without a cache and exited 0
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli("special", "--p", "2", "--j", "3", "--cache-dir", "")
        assert (code, out) == (2, "") and "--cache-dir" in err
        assert not list(tmp_path.iterdir())

    def test_warm_special_reports_its_cache_counters(self, tmp_path):
        # F_3, j = 1931: B = 5, so six entries, of which the CRC-32 rule
        # spot-checks one
        argv = ("special", "--p", "3", "--j", "1931", "--cache-dir", str(tmp_path))
        counters = [json.loads(run_cli(*argv)[1])["timing"]["counters"] for _ in range(2)]
        assert counters == [
            {"cache": {"hits": 0, "misses": 6, "writes": 6, "spot_checks": 0}},
            {"cache": {"hits": 6, "misses": 0, "writes": 0, "spot_checks": 1}}]

    @pytest.mark.parametrize("argv", [
        ("sqrtcar", "--j", "1", "--dmax", "2"),
        ("verify", "--quick", "--criteria", "1"),
        ("special", "--p", "2", "--j", "3"),
    ], ids=lambda argv: argv[0])
    def test_env_cache_dir_reaches_special_only(self, argv, tmp_path, monkeypatch):
        # sqrtcar and verify compare the engine with the oracle, so they
        # always compute and never read or write a cache; special reads
        # one only at --cache-dir, and the old variable names none
        monkeypatch.setenv("FFZETA_CACHE_DIR", str(tmp_path))
        code, out, _ = run_cli(*argv)
        assert code in (0, 3)
        assert "counters" not in json.loads(out)["timing"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("special", "--p", "2", "--j", "7"),
    ], ids=lambda argv: argv[0])
    def test_cache_counters_go_in_timing_only(self, argv, tmp_path):
        code, out, _ = run_cli(*argv)
        plain = json.loads(out)
        assert "counters" not in plain["timing"]
        cached_code, out, _ = run_cli(*argv, "--cache-dir", str(tmp_path))
        cached = json.loads(out)
        counters = cached["timing"].pop("counters")
        assert set(counters["cache"]) == {"hits", "misses", "writes", "spot_checks"}
        assert counters["cache"]["writes"] == counters["cache"]["misses"] > 0
        assert set(cached["timing"]) == set(plain["timing"])
        assert (cached_code, cached["result"]) == (code, plain["result"])

    def test_bad_polynomial_is_usage_error(self):
        code, _, err = run_cli("frobenius", "--p", "2", "--f", "garbage!!",
                               "--module", "carlitz")
        assert code == 2 and "cannot parse" in err

    def test_newton_explicit_digits(self):
        code, out, _ = run_cli("newton", "--p", "2",
                               "--y-digits", "1,1,1,1,1,1,1,1",  # -1 mod 2^8
                               "--dmax", "3", "--prec", "16")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["polygon"]["segments"][0]["slope"] == "1"

    def test_newton_extension_field(self):
        code, out, _ = run_cli("newton", "--p", "2", "--m", "2", "--y", "-3",
                               "--dmax", "3", "--prec", "12")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["polygon"]["provisional"] is False

    def test_entry_point_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ffzeta.cli", "special", "--p", "2", "--j", "1"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["observed_degree"] == 1

    def test_text_format(self):
        code, out, _ = run_cli("special", "--p", "2", "--j", "1",
                               "--format", "text")
        assert code == 0 and out.startswith("# special")
