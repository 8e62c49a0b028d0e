"""The committed output fingerprint (``tests/fingerprint.py``): every
request of the seed-11 ``sums`` list, cold and warm, writes the bytes it
wrote when ``tests/golden/fingerprint.json`` was made, outside
``timing``."""

import json

import fingerprint


def test_sums_outputs_match_the_golden_fingerprint(tmp_path):
    want = json.loads(fingerprint.GOLDEN.read_text())
    got = fingerprint.fingerprints(tmp_path)
    assert fingerprint.differences(want, got) == []
    assert got == want
    assert {r["cold"] for r in got["requests"]} == {True, False}


def test_digest_ignores_timing_only():
    argv = ["special", "--p", "2", "--j", "3"]
    body = '{\n  "command": "special",\n  "result": {\n    "x": "1"\n  }'
    a = body + ',\n  "timing": {\n    "seconds": 0.01\n  }\n}\n'
    b = body + ',\n  "timing": {\n    "seconds": 0.02\n  }\n}\n'
    assert fingerprint.digest(argv, 0, a) == fingerprint.digest(argv, 0, b)
    assert fingerprint.digest(argv, 0, a) != fingerprint.digest(argv, 0, a.replace('"1"', '"0"'))
    assert fingerprint.digest(argv, 0, a) != fingerprint.digest(argv, 3, a)
    assert fingerprint.digest(argv, 0, a) != fingerprint.digest(argv + ["--dmax", "2"], 0, a)
