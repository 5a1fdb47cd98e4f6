"""The benchmark traces layers by wrapping the package attributes listed in
bench/spans.py TARGETS, and skips any it cannot find.  A renamed or deleted
function would then read 0 in its per-layer metric without an error, so
every target must resolve."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attribute", [target[:2] for target in load_targets()])
def test_benchmark_target_resolves(module_name, attribute):
    obj = importlib.import_module(module_name)
    for part in attribute.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
