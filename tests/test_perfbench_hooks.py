"""Every function the traced benchmark wraps still exists under its name."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("module, attr, metric", _wrapped())
def test_wrapped_name_resolves(module, attr, metric):
    target = importlib.import_module(f"superbrauer.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
