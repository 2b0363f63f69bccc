"""The benchmark tracer wraps soundkb names by attribute: each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _count in spans.WRAPPED]


@pytest.mark.parametrize("module, attr", _wrapped())
def test_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"soundkb.{module}"), attr))
