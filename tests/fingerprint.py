"""Output fingerprints of request lists: one SHA-256 per request.

Three lists are the seed-11 lists of ``perfbench/workloads.py``
(``make_tasks(workload, 11, SECONDS)``):

- ``sums``: ``special`` requests over F_2, F_3, F_4, F_5, F_9 and F_257,
  each first cold and then warm through the disk cache;
- ``spectra``: ``newton`` requests at infinity, at f = T and at T^2+1,
  the ``--refine`` ones (Hensel iteration on Laurent series) included;
- ``modules``: ``frobenius``, ``lseries`` and ``sqrtcar`` requests.

The fourth, ``t_plus_c``, is ``newton --f`` at every degree-1 prime
T + c other than T over F_2, F_3, F_4, F_5 and F_9, each at one ``--y``
and one ``--y-digits`` exponent, then one ``--s1`` request: the v-adic
family at the primes that no benchmark list reaches.

The fifth, ``verify``, is three requests: ``verify --criteria 6,7,9`` at
full grids (the Frobenius and L-series checks beyond the ``modules`` list:
rank 2 over F_3 to degree 4, and the expansion oracle), then the whole
battery, full and ``--quick``, so that every criterion's ``params`` (its
grid) is pinned.  Both whole runs exit 3 while criterion 8(d) fails; the
digest covers the exit code, so that is stable.

Each list runs in order, in this process, through ``ffzeta.cli.main``,
with $FFZETA_CACHE_DIR unset and one fixed cache directory: ``cache``,
relative to a fresh working directory, so that argv and the ``config`` of
every output read the same on every machine.  A request's digest covers
its argv, its exit code and its standard output without the ``timing``
member, the one part of an envelope that differs from run to run.

    PYTHONPATH=src python tests/fingerprint.py            # rewrite the golden files
    PYTHONPATH=src python tests/fingerprint.py --check    # list requests that differ

``tests/test_fingerprint.py`` checks the golden files in tier-1.  A change
that alters outputs on purpose regenerates them and names the requests
whose digests changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD, SEED, SECONDS = "sums", 11, 20
GOLDEN = {"sums": ROOT / "tests" / "golden" / "fingerprint.json",
          "spectra": ROOT / "tests" / "golden" / "fingerprint_spectra.json",
          "modules": ROOT / "tests" / "golden" / "fingerprint_modules.json",
          "t_plus_c": ROOT / "tests" / "golden" / "fingerprint_t_plus_c.json",
          "verify": ROOT / "tests" / "golden" / "fingerprint_verify.json"}
VERIFY_REQUESTS = {"verify-6,7,9": ["verify", "--criteria", "6,7,9"],
                   "verify-full": ["verify"],
                   "verify-quick": ["verify", "--quick"]}
# t_plus_c: per field, the --y exponent and the --y-digits digits (p^N >= 16)
T_PLUS_C = {2: (37, "1,0,1,1,0"), 3: (22, "2,1,0,1"), 4: (45, "1,1,0,1,1"),
            5: (31, "3,0,4"), 9: (28, "1,2,2,0")}
T_PLUS_C_S1 = ["newton", "--p", "5", "--dmax", "8", "--prec", "32",
               "--y", "-43", "--s1", "2", "--f", "T+2"]
CACHE = "cache"  # the fixed cache directory, relative to the working directory


def request_list(workload: str = WORKLOAD, seed: int = SEED,
                 seconds: int = SECONDS) -> list[dict]:
    """The benchmark's task list, each task with its argv and cache path;
    for ``verify`` the requests of ``VERIFY_REQUESTS``."""
    if workload == "verify":
        return [{"id": rid, "argv": list(argv)} for rid, argv in VERIFY_REQUESTS.items()]
    perfbench = str(ROOT / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads
    if workload == "t_plus_c":
        return t_plus_c_requests(workloads)
    tasks = workloads.make_tasks(workload, seed, seconds)
    return [dict(t, argv=[CACHE if a == workloads.CACHE_DIR else a for a in t["argv"]])
            for t in tasks]


def t_plus_c_requests(workloads) -> list[dict]:
    """The ``t_plus_c`` list: ``newton --f T+c`` for every c != 0."""
    from ffzeta.ffpoly import FiniteField, enumerate_monic_primes
    rows = []
    for r, (j, digits) in T_PLUS_C.items():
        field = FiniteField(*workloads.FIELD_PM[r])
        head = ["newton", *workloads.FIELD_ARGS[r]]
        for f in enumerate_monic_primes(field, 1):
            if f.coefficient(0):
                rows.append({"id": f"F{r}-{f}-y", "argv": head + [
                    "--dmax", "6", "--prec", "32", "--y", str(-j), "--f", str(f)]})
                rows.append({"id": f"F{r}-{f}-y-digits", "argv": head + [
                    "--dmax", "5", "--prec", "16", "--y-digits", digits, "--f", str(f)]})
    return rows + [{"id": "F5-T+2-s1", "argv": list(T_PLUS_C_S1)}]


def digest(argv: list[str], code: int, stdout: str) -> str:
    """SHA-256 of argv, exit code and stdout with ``timing`` cut out
    (``render_json`` writes it last, at the top level)."""
    cut = stdout.rfind(',\n  "timing": ')
    if cut >= 0:
        stdout = stdout[:cut]
    return hashlib.sha256(json.dumps([argv, code, stdout]).encode()).hexdigest()


def fingerprints(workdir: str | os.PathLike, workload: str = WORKLOAD,
                 seed: int = SEED, seconds: int = SECONDS) -> dict:
    """Run a request list in ``workdir`` (empty, or without ``cache``) and
    return its fingerprint document; a golden file is that of its
    workload's list at the default seed and sizing."""
    from ffzeta import cli
    from ffzeta.cache import ENV_CACHE_DIR
    rows = []
    cwd = os.getcwd()
    env_cache = os.environ.pop(ENV_CACHE_DIR, None)
    os.chdir(workdir)
    try:
        for task in request_list(workload, seed, seconds):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(task["argv"])
            rows.append({"id": task["id"], "argv": task["argv"],
                         "cold": task.get("cold", False),
                         "sha256": digest(task["argv"], code, out.getvalue())})
    finally:
        os.chdir(cwd)
        if env_cache is not None:
            os.environ[ENV_CACHE_DIR] = env_cache
    total = hashlib.sha256("".join(r["sha256"] for r in rows).encode()).hexdigest()
    source = ("; ".join(" ".join(a) for a in VERIFY_REQUESTS.values())
              if workload == "verify" else
              "tests/fingerprint.t_plus_c_requests" if workload == "t_plus_c" else
              f"perfbench/workloads.make_tasks({workload!r}, {seed}, {seconds})")
    return {"what": f"{source}, "
                    "in order, through ffzeta.cli.main with the cache directory "
                    f"{CACHE!r}; sha256 of json.dumps([argv, exit code, stdout "
                    "without timing]) per request, and of their hex digests joined",
            "total": total, "requests": rows}


def differences(want: dict, got: dict) -> list[str]:
    """One line per request whose digest or argv differs."""
    lines = [f"{g['id']}: {' '.join(g['argv'])}"
             for w, g in zip(want["requests"], got["requests"]) if w != g]
    if len(want["requests"]) != len(got["requests"]):
        lines.append(f"{len(want['requests'])} requests expected, "
                     f"{len(got['requests'])} run")
    return lines


def main(argv=None) -> int:
    check = "--check" in (sys.argv[1:] if argv is None else argv)
    failed = False
    for workload, golden in GOLDEN.items():
        with tempfile.TemporaryDirectory() as workdir:
            got = fingerprints(workdir, workload)
        if check:
            lines = differences(json.loads(golden.read_text()), got)
            print(f"{workload}: " + ("\n".join(lines) if lines
                                     else f"all {len(got['requests'])} match"))
            failed = failed or bool(lines)
            continue
        rows = ",\n".join(json.dumps(r) for r in got["requests"])  # a request a line
        head = json.dumps({k: v for k, v in got.items() if k != "requests"}, indent=1)
        golden.write_text(head[:-2] + ',\n "requests": [\n' + rows + "\n ]\n}\n")
        print(f"{golden}: {len(got['requests'])} requests, total {got['total']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
