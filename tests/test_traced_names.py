"""Every name the benchmark's tracer patches still exists, and the
arguments its counters read keep their places.

fracbench/spans.py looks each traced name up with getattr and no default,
so deleting or renaming one of them breaks the traced benchmark run.  Its
counters read their arguments by position, or by keyword under the same
name, so moving or renaming one of those miscounts the traced run.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "fracbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("fracbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().targets()

# {position: name} of the arguments each counter of spans.py reads
COUNTED_ARGS = {
    ("fracbesov.frac_wavelets", "psi_frac"): {2: "x"},
    ("fracbesov.splines", "bspline_natural"): {1: "x"},
    ("fracbesov.battle_lemarie", "bspline_natural"): {1: "x"},
    ("fracbesov.frac_wavelets", "frac_bspline"): {0: "spec", 1: "x"},
    ("fracbesov.frac_wavelets", "panel_rule"): {0: "breaks", 1: "npts"},
}


@pytest.mark.parametrize("module, attr", [(m.__name__, a) for m, a, _, _ in TARGETS])
def test_traced_name_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_every_counter_is_listed():
    counted = {(m.__name__, a) for m, a, _, counter in TARGETS if counter is not None}
    assert counted == set(COUNTED_ARGS)


@pytest.mark.parametrize("module, attr", sorted(COUNTED_ARGS))
def test_counted_arguments_keep_their_places(module, attr):
    params = list(inspect.signature(getattr(importlib.import_module(module), attr)).parameters)
    for pos, name in COUNTED_ARGS[(module, attr)].items():
        assert params[pos] == name
