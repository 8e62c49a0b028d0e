"""``cli.render_json`` against its oracle, ``json.dumps(doc,
sort_keys=True, indent=2)``: the same bytes on drawn documents, on every
README golden envelope, on a ``verify --quick`` envelope and on large
``special``-shaped documents, and the text format's result block through
the same writer."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffzeta import cli

GOLDEN = Path(__file__).parent / "golden"


def oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# quotes, backslashes, control characters, non-ASCII (BMP and astral)
AWKWARD = ['"', "\\", "\x00\x1f\x7f", "\b\f\n\r\t", "é", " ", "日本",
           "\U0001F600", "a\"b\\c", "", "٣"]
TEXT = st.one_of(st.sampled_from(AWKWARD), st.text(max_size=12))
SCALARS = st.one_of(TEXT, st.integers(), st.booleans(), st.none(),
                    st.floats(allow_nan=True, allow_infinity=True))
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(TEXT, max_size=5),  # the joined list-of-strings path
        st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=30)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(DOCS)
def test_writer_matches_json_dumps(doc):
    assert cli.render_json(doc) == oracle(doc)


def test_empty_containers_and_special_floats():
    doc = {"a": [], "b": {}, "c": (), "d": [[], {}, ()], "e": [1.5, -0.0, 1e300],
           "f": [float("nan"), float("inf"), float("-inf")],
           "g": {"x": [True, False, None]}}
    assert cli.render_json(doc) == oracle(doc)


def test_unserialisable_values_raise_as_json_does():
    for doc in ({"a": object()}, [1, {2, 3}], {(1, 2): 3}):
        with pytest.raises(TypeError):
            json.dumps(doc, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli.render_json(doc)


def test_non_string_keys_raise():
    # json.dumps would write them as strings; no report has one
    for doc in ({1: "a"}, {"a": {1.5: 0}}, {None: 1}, {True: 1}):
        with pytest.raises(TypeError):
            cli.render_json(doc)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("readme_*.json")),
                         ids=lambda p: p.name)
def test_readme_golden_envelopes(path):
    envelope = json.loads(path.read_text())["envelope"]
    assert cli.render_json(envelope) == oracle(envelope)


def _rendered_docs(monkeypatch, argv):
    """Run ``argv`` in process; return (stdout, the documents rendered)."""
    seen = []

    def spy(render):
        def wrapped(doc):
            seen.append(doc)
            return render(doc)
        return wrapped

    for fmt in ("json", "text"):
        monkeypatch.setitem(cli._RENDER, fmt, spy(cli._RENDER[fmt]))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 3)  # verify is red by design on criterion 8d
    return out.getvalue(), seen


def test_verify_quick_envelope(monkeypatch):
    out, (doc,) = _rendered_docs(monkeypatch, ["verify", "--quick"])
    assert out == oracle(doc)


def test_text_format_result_block(monkeypatch):
    out, (doc,) = _rendered_docs(monkeypatch, ["special", "--p", "3", "--m", "2",
                                               "--j", "40", "--format", "text"])
    lines = out.splitlines()
    assert lines[1] == "config: " + json.dumps(doc["config"], sort_keys=True)
    assert "\n".join(lines[2:-1]) == json.dumps(doc["result"], sort_keys=True,
                                                indent=2)
    assert lines[-1] == "timing: " + json.dumps(doc["timing"], sort_keys=True)


def test_special_document_at_scale():
    # a special envelope with 120k digit strings over eight coefficients:
    # each list is one part of the output, copied once by the final join
    rng = random.Random(7)
    coeffs = []
    for d in range(8):
        digits = [rng.choice("012") for _ in range(15_000)]
        coeffs.append({"string": "+".join(f"T^{i}" for i in range(d, 0, -1)) or "1",
                       "digits": digits})
    doc = {"schemaVersion": 1, "command": "special",
           "config": {"p": 3, "m": 1, "modulus": None, "j": 7197, "dmax": None,
                      "cache_dir": "cache", "format": "json"},
           "result": {"coefficients": coeffs, "certified_polynomial": True,
                      "degree_bound": 7},
           "timing": {"seconds": 0.02}}
    assert sum(len(c["digits"]) for c in coeffs) >= 100_000
    assert cli.render_json(doc) == oracle(doc)


def test_escaped_strings_after_a_large_joined_list():
    plain = [str(i % 10) for i in range(50_000)]
    awkward = ['"', "\\", "é", "\x00", "tab\there", "日本", "ok"]
    for doc in ({"a": plain, "b": awkward},
                [plain, awkward, plain],
                {"a": {"digits": plain}, "b": [awkward, {"c": awkward}]}):
        assert cli.render_json(doc) == oracle(doc)
