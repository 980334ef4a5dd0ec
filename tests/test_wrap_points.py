"""Every name the benchmark's span tracer wraps exists in the package.

``bench/spans.py`` rebinds module attributes of ``condbang`` to timing
wrappers and records a wrap point whose attribute is gone as missing, so a
deletion that drops a wrapped name would otherwise show only in a traced
benchmark run.  This test reads ``bench/spans.py`` and changes nothing there.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up there
    spec.loader.exec_module(spans)
    return [(point.module, attr) for point in spans.WRAP_POINTS for attr in point.attrs]


@pytest.mark.parametrize("module, attr", _wrap_points(), ids=lambda v: v)
def test_every_wrapped_attribute_is_a_callable_of_the_package(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
