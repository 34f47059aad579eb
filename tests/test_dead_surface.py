"""Every public top-level name of the package is used by the package or
the benchmark.

The names are read from the AST of src/fracbesov/*.py.  A use is a Name
or Attribute node in src/fracbesov/ or fracbench/ outside the name's own
definition, or a name that fracbench/spans.py patches by getattr; tests and
docstrings do not count.  A name that only tests call belongs in tests/,
unless it is listed in ALLOWED with the reason it stays.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "fracbesov").glob("*.py"))
BENCH = sorted((ROOT / "fracbench").glob("*.py"))

ALLOWED = {}


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _used_names(node):
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        or (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))
    }


def _traced_names():
    spec = importlib.util.spec_from_file_location("fracbench_spans", ROOT / "fracbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr for _, attr, _, _ in module.targets()}


def public_names():
    return {
        name
        for path in SRC
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        for name in _defined_names(node)
        if not name.startswith("_")
    }


def used_names():
    used = _traced_names()
    for path in SRC + BENCH:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            used |= _used_names(node) - set(_defined_names(node))
    return used


def test_every_public_name_is_used():
    unused = public_names() - used_names() - set(ALLOWED)
    assert not unused, f"public names only tests use: {sorted(unused)}"


def test_allowed_names_are_still_unused():
    # an entry that is gone, or that the package now uses, leaves the list
    assert set(ALLOWED) <= public_names()
    assert not set(ALLOWED) & used_names()
