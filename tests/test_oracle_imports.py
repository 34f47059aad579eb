"""No test module imports another, and the oracles reuse none of the
program's internals.

The reference implementations that several test modules read live in
oracles.py, so a module under tests/ imports them from there and never
from a test_* module.  An oracle is an independent computation, so
oracles.py imports no private (_-prefixed) name of fracbesov and reads
none off an imported fracbesov module.  The checks are on the source.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent


def imported_test_modules(tree: ast.AST) -> list[str]:
    """Each test_* module that tree imports, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0].startswith("test_")]
    return [f"{name} at line {line}" for line, name in sorted(found)]


def private_uses(tree: ast.AST) -> list[str]:
    """Each private name of fracbesov that tree imports, or reads as an
    attribute of a name bound to a fracbesov module, by line."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fracbesov":
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
                else:  # a submodule or a public name: its private attributes count
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                        if alias.name.split(".")[0] == "fracbesov"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append((node.lineno, ast.unparse(node)))
    return [f"{name} at line {line}" for line, name in sorted(found)]


def test_no_test_module_imports_another():
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not imported_test_modules(tree), (path.name, imported_test_modules(tree))


def test_oracles_use_no_private_name():
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    assert not private_uses(tree), private_uses(tree)


def test_guard_sees_a_test_import():
    tree = ast.parse(
        "import numpy, test_a\n"
        "from test_b import f\n"
        "from oracles import molecule\n"
        "def g():\n"
        "    import test_c.sub as t\n"
    )
    assert imported_test_modules(tree) == ["test_a at line 1", "test_b at line 2",
                                           "test_c.sub at line 5"]


def test_guard_sees_a_private_name():
    tree = ast.parse(
        "from fracbesov.splines import _integer, bspline_natural\n"
        "from fracbesov import frac_wavelets as fw\n"
        "import fracbesov.battle_lemarie\n"
        "y = fw._GRID_Y + fw.panel_rule([0.0, 1.0], 2)[0]\n"
        "z = fracbesov.battle_lemarie._wavelet_taps\n"
        "w = np._private + bspline_natural(2, 0.5)\n"
    )
    assert private_uses(tree) == ["fracbesov.splines._integer at line 1", "fw._GRID_Y at line 4",
                                  "fracbesov.battle_lemarie._wavelet_taps at line 5"]
