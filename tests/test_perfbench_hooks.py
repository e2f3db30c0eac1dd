"""Every function the traced benchmark wraps still exists under its name, and
the counters read the fields they count from real results."""

from __future__ import annotations

import importlib
import importlib.util
import time
from pathlib import Path

import pytest

from superbrauer import REAL_CLOSED, CentralInvolution, VerifyReport, bm_group, build_en, cyclic_group, direct_product
from superbrauer.sharp import sharp_class_table
from superbrauer.twisted import _sample

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr, metric", _spans().WRAPPED)
def test_wrapped_name_resolves(module, attr, metric):
    target = importlib.import_module(f"superbrauer.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_table_cell_counters_read_real_results():
    """sharp.table_cells counts |H^2|^2 for the sharp table and |BM|^2 for BM."""
    recorder = _spans().Recorder(time.perf_counter)
    g = direct_product(cyclic_group(2), cyclic_group(4))
    inv = CentralInvolution(g, 4)  # u = (1, 0): split
    cg = REAL_CLOSED.cohomology(g)
    recorder._count_hook("sharp_class_table")((cg, inv), sharp_class_table(cg, inv))
    assert recorder.counts["sharp.classes_enumerated"] == 8
    assert recorder.counts["sharp.table_cells"] == 8 ** 2
    recorder._count_hook("bm_group")((g, inv, REAL_CLOSED), bm_group(g, inv, REAL_CLOSED))
    assert recorder.counts["sharp.table_cells"] == 8 ** 2 + 32 ** 2


def test_sampled_check_size_resolves():
    """A sampled check counts superbrauer.supergroup.SAMPLED_TRIPLES items: the
    name resolves, and it is the number of tuples a sampled check draws."""
    size = importlib.import_module("superbrauer.supergroup").SAMPLED_TRIPLES
    h = build_en(2)
    assert [_sample(h, arity, 0, 0).shape for arity in (2, 3)] == [(2, size), (3, size)]
    recorder = _spans().Recorder(time.perf_counter)
    recorder._count_hook("is_lazy")((h,), VerifyReport("lazy", True, sampled=True))
    assert recorder.counts["supergroup.check_items"] == size
