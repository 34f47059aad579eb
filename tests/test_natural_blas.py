"""The natural certification path makes no BLAS-3 call.

A matrix product is numpy's gemm, whose first call in a process costs about
0.3-0.4 MB of BLAS buffers; bspline_ppform sums over the taps instead, and
nothing else on the path multiplies matrices.  The check is on the source:
no function on the path may contain an @ or call matmul, einsum or
tensordot.  The path is the integer rule, the pp-form builder and
evaluator, B_n, the Battle-Lemarie layer, natural_system, molecule_check,
and _certify with its tables and rules.  Import runs the four modules'
top-level code, the (M1) rule among it, so no module-level statement may
hold one either: the decorators and defaults of every function, and
everything of a class body but its methods' bodies, count as module-level.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fracbesov"

PATH = {
    "specfun": ("_integer",),
    "splines": (
        "_bspline_piece_int", "_bspline_pieces", "_shaped", "PPForm",
        "bspline_ppform", "ppform_eval", "_bspline_natural_ppform", "bspline_natural",
    ),
    "battle_lemarie": (
        "BLSystem", "bl_system", "scaling_localized", "translate_weights",
        "wavelet_localized",
    ),
    "frac_wavelets": (
        "MoleculeParams", "molecule_params_for", "MoleculeReport", "_grid_tables",
        "_gauss_legendre", "panel_rule", "_dyadic_cube", "_worst",
        "_certify", "molecule_check", "natural_system",
    ),
}

BLAS3_CALLS = {"matmul", "einsum", "tensordot"}


def blas3_uses(node: ast.AST) -> list[str]:
    """Each @, @= and call of a BLAS3_CALLS name under node, by line."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult):
            found.append((sub.lineno, "@"))
        elif isinstance(sub, ast.Call):
            func = sub.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS3_CALLS:
                found.append((sub.lineno, name))
    return [f"{name} at line {line}" for line, name in sorted(found)]


def import_time(node: ast.stmt) -> list[ast.AST]:
    """The parts of a top-level statement that run when the module is
    imported: a function's decorators and defaults, a class's decorators,
    bases and keywords and its body's own import-time parts, and every
    other statement whole."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [*node.decorator_list, *node.args.defaults,
                *(d for d in node.args.kw_defaults if d is not None)]
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords,
                *(part for stmt in node.body for part in import_time(stmt))]
    return [node]


@pytest.mark.parametrize("module", sorted(PATH))
def test_natural_path_has_no_blas3_call(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    # a renamed or deleted function must leave the list too, not the check
    assert not set(PATH[module]) - set(defs), set(PATH[module]) - set(defs)
    for name in PATH[module]:
        assert not blas3_uses(defs[name]), (module, name, blas3_uses(defs[name]))
    for node in tree.body:
        for part in import_time(node):
            assert not blas3_uses(part), (module, "import", blas3_uses(part))


def test_guard_sees_a_matrix_product():
    tree = ast.parse("def f(a, b):\n    c = a @ b\n    c @= b\n    return np.einsum('ij', c)\n")
    assert blas3_uses(tree) == ["@ at line 2", "@ at line 3", "einsum at line 4"]


def test_guard_sees_import_time_code():
    # lines 1-4 and 6 run at import, the bodies of lines 5 and 7 do not
    tree = ast.parse(
        "T = a @ b\n"
        "@cache(a @ b)\n"
        "def f(x=a @ b, *, y=np.matmul(a, b)):\n"
        "    return x @ y\n"
        "class C(Base, size=np.tensordot(a, b)):\n"
        "    t = a @ b\n"
        "    def g(self):\n"
        "        return self.t @ self.t\n"
    )
    found = [use for node in tree.body for part in import_time(node) for use in blas3_uses(part)]
    assert found == ["@ at line 1", "@ at line 2", "@ at line 3", "matmul at line 3",
                     "tensordot at line 5", "@ at line 6"]
