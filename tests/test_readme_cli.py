"""The README's CLI examples, pinned: exit code and envelope outside ``timing``.

Every ``ffzeta ...`` line of the README's CLI block runs in-process.  The
power-sum cache goes to a fresh temporary directory (``./cache`` resolves
there, so the echoed config is unchanged).
Each result is compared byte for byte with ``tests/golden/readme_*.json``.
"""

import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ffzeta import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


def readme_examples() -> list[list[str]]:
    """argv of every ``ffzeta`` line in the README's CLI section."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("ffzeta ")]


def golden_path(index: int, argv: list[str]) -> Path:
    return GOLDEN / f"readme_{index:02d}_{argv[0]}.json"


def run_example(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    doc = json.loads(out.getvalue())
    del doc["timing"]
    return {"argv": argv, "exit": code, "envelope": doc}


EXAMPLES = readme_examples()


def test_readme_has_the_examples():
    assert len(EXAMPLES) == 10
    assert sorted(p.name for p in GOLDEN.glob("readme_*.json")) == \
        sorted(golden_path(i, argv).name for i, argv in enumerate(EXAMPLES))


@pytest.mark.parametrize("index,argv", list(enumerate(EXAMPLES)),
                         ids=[" ".join(argv) for argv in EXAMPLES])
def test_readme_example_matches_golden(index, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_example(argv)
    expected = json.loads(golden_path(index, argv).read_text())
    assert got["exit"] == expected["exit"]
    assert json.dumps(got["envelope"], sort_keys=True) == \
        json.dumps(expected["envelope"], sort_keys=True)


def test_readme_library_block_prints_its_results():
    """The README's "Library use" block runs as written; a public name it
    uses going away fails here, not only in the docs."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library use", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == [
        "T^6+T^4+T^2",
        "True 0",
        "1 - (T^2+1) t",
    ]
