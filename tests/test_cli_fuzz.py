"""Random argv through ``cli.main``: every request exits 0, 2, 3 or 4.

The argv come from a small grammar of fields, polynomials, integers and
module strings, with malformed tokens mixed in and sizes kept small
(field order <= 9, degree bounds <= 3, exponents <= 4), so each request
takes milliseconds.  No exception may escape ``main``, and a malformed
``--f`` polynomial exits 2.  A request that
exits 0 prints one JSON envelope, and a second run prints the same bytes
outside ``timing``.  ``verify`` is left out: it runs a fixed battery.

The grammar draws from a Hypothesis-controlled ``Random``.  The same
grammar built from nested strategies drew far less evenly: of 200
examples, 15 of 79 ``newton`` requests gave ``--f``, 13 of them ``T``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from ffzeta import cli

# (p, m) with p^m <= 9
FIELDS = [("2", "1"), ("2", "2"), ("2", "3"), ("3", "1"), ("3", "2"),
          ("5", "1"), ("7", "1")]
BAD_FIELDS = [("4", "1"), ("1", "1"), ("-3", "1"), ("2", "0"), ("x", "1"), ("3", "")]
MODULI = ["1,1,1", "2,2,1", "1,1,3", "1,1", "", "a"]
PRIMES = ["T", "T+1", "T+2", "T^2+T+1", "T^2+1", "T^3+T+1", "T+[01]", "T^2+T+[01]"]
CONSTANTS = ["0", "1", "2", "[01]"]
COEFFS = ["", "1", "2", "6", "[01]", "[11]", "[21]", "[2.1]", "[0a]"]
MONOMIALS = ["T^3", "T^2", "T", ""]
BAD_POLYS = ["", "T^", "TT", "x", "T^-1", "[", "[012]T", "T+", "T++1", "+",
             "T^2+T+1+", "T+-1", "--T", "T^1_0", "T^\u0663", "\u0663T"]
BAD_INTS = ["-1", "", "x", "1.5", "-", "0x2"]
TAUS = ["1", "1,1", "T,1", "T^2+1,[01]", "[01]T,T^2", "2,1"]
BAD_TAUS = ["0", "1,0", "1,1,1", "", ",", "T,"]


def _mostly(r, good, bad):
    """A pick from ``good`` nine times in ten, else one from ``bad``."""
    return r.choice(bad if r.randrange(10) == 0 else good)


def _int(r, lo, hi):
    return _mostly(r, [str(k) for k in range(lo, hi + 1)], BAD_INTS)


def _poly(r):
    kind = r.choice(["prime", "prime", "random", "constant", "bad"])
    if kind == "prime":  # irreducible over some of the fields
        return r.choice(PRIMES)
    if kind == "constant":
        return r.choice(CONSTANTS)
    if kind == "bad":
        return r.choice(BAD_POLYS)
    terms = [r.choice(COEFFS) + r.choice(MONOMIALS) for _ in range(r.randint(1, 3))]
    return "+".join(term or "1" for term in terms)


def _field(r):
    p, m = _mostly(r, FIELDS, BAD_FIELDS)
    argv = ["--p", p]
    if m != "1" or r.random() < 0.5:
        argv += ["--m", m]
    if r.randrange(10) == 0:
        argv += ["--modulus", r.choice(MODULI)]
    return argv


def _module(r):
    choice = _mostly(r, ["module", "tau"], ["both", "neither"])
    argv = []
    if choice in ("module", "both"):
        argv += ["--module", _mostly(r, ["carlitz"], ["foo", ""])]
    if choice in ("tau", "both"):
        argv += ["--tau-coeffs", _mostly(r, TAUS, BAD_TAUS)]
    return argv


def _request(r) -> list[str]:
    command = r.choice(["special", "newton", "frobenius", "lseries", "sqrtcar"])
    argv = [command]
    if command == "special":
        argv += _field(r) + ["--j", _int(r, 0, 4)]
        if r.random() < 0.5:
            argv += ["--dmax", _int(r, 0, 3)]
    elif command == "newton":
        argv += _field(r)
        exponent = _mostly(r, ["y", "digits"], ["both", "neither"])
        if exponent in ("y", "both"):
            argv += ["--y", _int(r, -4, 4)]
        if exponent in ("digits", "both"):
            top = _mostly(r, [2], [8])  # digits >= p are out of range
            digits = [str(r.randrange(top)) for _ in range(r.randint(1, 5))]
            argv += ["--y-digits", ",".join(digits)]
        if r.random() < 0.5:
            argv += ["--f", _poly(r)]
        if r.randrange(5) == 0:
            argv += ["--s1", _int(r, -2, 4)]
        argv += ["--dmax", _int(r, 0, 3), "--prec", _int(r, 1, 8)]
        if r.randrange(4) == 0:
            argv.append("--refine")
    elif command == "frobenius":
        argv += _field(r) + ["--f", _poly(r)] + _module(r)
    elif command == "lseries":
        argv += _field(r) + _module(r) + ["--degree-bound", _int(r, 0, 3)]
        if r.random() < 0.5:
            argv += ["--j", _int(r, 0, 4)]
    else:
        argv += ["--j", _int(r, 0, 4), "--dmax", _int(r, 0, 3)]
        if r.random() < 0.5:
            argv += ["--prec", _int(r, 1, 16)]
    if r.randrange(20) == 0:
        argv.insert(r.randint(1, len(argv)), "--bogus")
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(r=st.randoms(use_true_random=False))
def test_every_request_exits_with_a_documented_code(r):
    argv = _request(r)
    code, out = _run(argv)  # no request names a --cache-dir
    assert code in (0, 2, 3, 4), (argv, code)
    if "--f" in argv[:-1] and argv[argv.index("--f") + 1] in BAD_POLYS:
        assert code == 2, argv  # a malformed polynomial is a usage error
    if code != 0:
        return
    assert json.loads(out)["command"] == argv[0]
    again_code, again = _run(argv)
    assert again_code == 0
    assert again.split('"timing"')[0] == out.split('"timing"')[0], argv
