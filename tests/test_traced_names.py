"""Every name the benchmark's tracer patches still exists.

fracbench/spans.py looks each traced name up with getattr and no default,
so deleting or renaming one of them breaks the traced benchmark run.
"""

import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "fracbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("fracbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module, attr",
    [(m.__name__, a) for m, a, _, _ in _load_spans().targets()],
)
def test_traced_name_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
