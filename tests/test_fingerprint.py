"""The committed output fingerprints (``tests/fingerprint.py``): every
request of the seed-11 ``sums`` (cold and warm), ``spectra`` and
``modules`` lists, ``newton`` at every degree-1 prime T + c != T,
and ``verify --criteria 6,7,9``, full ``verify`` and
``verify --quick``, writes
the bytes it wrote when its golden file under ``tests/golden/`` was made,
outside ``timing``."""

import json

import pytest

import fingerprint


def test_sums_outputs_match_the_golden_fingerprint(tmp_path):
    want = json.loads(fingerprint.GOLDEN["sums"].read_text())
    got = fingerprint.fingerprints(tmp_path)
    assert fingerprint.differences(want, got) == []
    assert got == want
    assert {r["cold"] for r in got["requests"]} == {True, False}


@pytest.mark.parametrize("workload,kinds", [
    ("spectra", {"newton"}), ("modules", {"frobenius", "lseries", "sqrtcar"}),
    ("verify", {"verify"}), ("t_plus_c", {"newton"})])
def test_outputs_match_the_golden_fingerprint(tmp_path, workload, kinds):
    want = json.loads(fingerprint.GOLDEN[workload].read_text())
    got = fingerprint.fingerprints(tmp_path, workload)
    assert fingerprint.differences(want, got) == []
    assert got == want
    assert {r["argv"][0] for r in got["requests"]} == kinds
    if workload == "spectra":
        assert any("--refine" in r["argv"] for r in got["requests"])
    if workload == "t_plus_c":  # 1 + 2 + 3 + 4 + 8 primes, two exponents each, and --s1
        assert len(got["requests"]) == 37
        assert any("--s1" in r["argv"] for r in got["requests"])


def test_digest_ignores_timing_only():
    argv = ["special", "--p", "2", "--j", "3"]
    body = '{\n  "command": "special",\n  "result": {\n    "x": "1"\n  }'
    a = body + ',\n  "timing": {\n    "seconds": 0.01\n  }\n}\n'
    b = body + ',\n  "timing": {\n    "seconds": 0.02\n  }\n}\n'
    assert fingerprint.digest(argv, 0, a) == fingerprint.digest(argv, 0, b)
    assert fingerprint.digest(argv, 0, a) != fingerprint.digest(argv, 0, a.replace('"1"', '"0"'))
    assert fingerprint.digest(argv, 0, a) != fingerprint.digest(argv, 3, a)
    assert fingerprint.digest(argv, 0, a) != fingerprint.digest(argv + ["--dmax", "2"], 0, a)
