"""Every public top-level name of the package, and every public method,
property and field of its classes, is used by the package or the benchmark.

The names are read from the AST of src/fracbesov/*.py.  A use is a Name
or Attribute node in src/fracbesov/ or fracbench/ outside the name's own
definition, or a name that fracbench/spans.py patches by getattr; tests and
docstrings do not count.  A name that only tests call belongs in tests/,
unless it is listed in ALLOWED with the reason it stays.  A class member,
listed as "Class.member", is used where its name is read as an attribute,
or passed as a keyword, in src/fracbesov/ or fracbench/ outside its own
class.
"""

import ast
import importlib.util
import pathlib
from collections import Counter

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


def _member_uses(node):
    """How often each name is read as an attribute or passed as a keyword."""
    return Counter(
        sub.attr if isinstance(sub, ast.Attribute) else sub.arg
        for sub in ast.walk(node)
        if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))
        or (isinstance(sub, ast.keyword) and sub.arg is not None)
    )


def _traced_names():
    spec = importlib.util.spec_from_file_location("fracbench_spans", ROOT / "fracbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr for _, attr, _, _ in module.targets()}


def _trees(paths):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def public_names():
    return {
        name
        for tree in _trees(SRC)
        for node in tree.body
        for name in _defined_names(node)
        if not name.startswith("_")
    }


def used_names():
    used = _traced_names()
    for tree in _trees(SRC + BENCH):
        for node in tree.body:
            used |= _used_names(node) - set(_defined_names(node))
    return used


def unused_members():
    """"Class.member" for each public member used nowhere outside its class."""
    src = _trees(SRC)
    uses = sum((_member_uses(tree) for tree in src + _trees(BENCH)), Counter())
    unused = set()
    for tree in src:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            outside = uses - _member_uses(cls)
            unused |= {
                f"{cls.name}.{name}"
                for node in cls.body
                for name in _defined_names(node)
                if not name.startswith("_") and not outside[name]
            }
    return unused


def test_every_public_name_is_used():
    unused = public_names() - used_names() - set(ALLOWED)
    assert not unused, f"public names only tests use: {sorted(unused)}"


def test_every_public_member_is_used():
    unused = unused_members() - set(ALLOWED)
    assert not unused, f"class members only tests use: {sorted(unused)}"


def test_allowed_names_are_still_unused():
    # an entry that is gone, or that the package now uses, leaves the list
    assert set(ALLOWED) <= (public_names() - used_names()) | unused_members()
