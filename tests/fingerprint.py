"""Output fingerprint of a benchmark request list: one SHA-256 per request.

The requests are the seed-11 ``sums`` list of ``perfbench/workloads.py``
(``make_tasks("sums", 11, SECONDS)``): ``special`` requests over F_2,
F_3, F_4, F_5, F_9 and F_257, each first cold and then warm through the
disk cache.  They run in order, in this process, through
``ffzeta.cli.main``, with one fixed cache directory: ``cache``, relative
to a fresh working directory, so that argv and the ``config`` of every
output read the same on every machine.  A request's digest covers its
argv, its exit code and its standard output without the ``timing``
member, the one part of an envelope that differs from run to run.

    PYTHONPATH=src python tests/fingerprint.py            # rewrite the golden file
    PYTHONPATH=src python tests/fingerprint.py --check    # list requests that differ

``tests/test_fingerprint.py`` checks the golden file in tier-1.  A change
that alters outputs on purpose regenerates it and names the requests
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
GOLDEN = ROOT / "tests" / "golden" / "fingerprint.json"
WORKLOAD, SEED, SECONDS = "sums", 11, 20
CACHE = "cache"  # the fixed cache directory, relative to the working directory


def request_list(workload: str = WORKLOAD, seed: int = SEED,
                 seconds: int = SECONDS) -> list[dict]:
    """The benchmark's task list, each task with its argv and cache path."""
    perfbench = str(ROOT / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads
    tasks = workloads.make_tasks(workload, seed, seconds)
    return [dict(t, argv=[CACHE if a == workloads.CACHE_DIR else a for a in t["argv"]])
            for t in tasks]


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
    return its fingerprint document; the golden file is that of the
    default list."""
    from ffzeta import cli
    rows = []
    cwd = os.getcwd()
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
    total = hashlib.sha256("".join(r["sha256"] for r in rows).encode()).hexdigest()
    return {"what": f"perfbench/workloads.make_tasks({workload!r}, {seed}, {seconds}), "
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
    with tempfile.TemporaryDirectory() as workdir:
        got = fingerprints(workdir)
    if check:
        lines = differences(json.loads(GOLDEN.read_text()), got)
        print("\n".join(lines) if lines else f"all {len(got['requests'])} match")
        return 1 if lines else 0
    rows = ",\n".join(json.dumps(r) for r in got["requests"])  # a request a line
    head = json.dumps({k: v for k, v in got.items() if k != "requests"}, indent=1)
    GOLDEN.write_text(head[:-2] + ',\n "requests": [\n' + rows + "\n ]\n}\n")
    print(f"{GOLDEN}: {len(got['requests'])} requests, total {got['total']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
