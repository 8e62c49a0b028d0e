"""Every name the benchmark's layer tracer wraps must still exist in ffzeta.

``perfbench/spans.py`` rebinds (module, attribute) pairs; a pair that no
longer resolves is recorded as absent and blanks its per-layer metric
silently.  This test makes such a deletion fail loudly instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()
PAIRS = sorted({**_spans.WRAPPED, **_spans.COUNTED_GENERATORS}.items())


@pytest.mark.parametrize("name,target", PAIRS, ids=[name for name, _ in PAIRS])
def test_wrapped_name_resolves(name, target):
    mod, path = target
    owner = importlib.import_module(f"ffzeta.{mod}")
    for part in path.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{name}: ffzeta.{mod}.{path} does not exist"
    assert callable(owner)
