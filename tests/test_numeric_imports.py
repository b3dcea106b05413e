"""The numeric libraries are imported lazily, each in the one function that
proposes candidates with it, so no other code path can come to depend on
them: numpy finds polynomial roots, sympy reduces integer-relation
lattices, and mpmath bounds the sign of a real cyclotomic number."""

import ast
import glob
import os

import hopfcheck

ALLOWED = {
    ("splitting", "exact_poly_roots", "numpy"),
    ("splitting", "_lll_candidates", "sympy"),
    ("cyclotomic", "CycScalar.sign", "mpmath"),
}


def numeric_imports(path):
    """(module, qualified name of the enclosing def, package) for every
    import of numpy, sympy or mpmath in one source file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    module = os.path.splitext(os.path.basename(path))[0]
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            for name in names:
                package = name.split(".")[0]
                if package in ("numpy", "sympy", "mpmath"):
                    found.add((module, ".".join(scope) or "<module>", package))
            visit(child, scope)

    visit(tree, [])
    return found


def test_numeric_libraries_are_imported_only_where_allowed():
    package = os.path.dirname(os.path.abspath(hopfcheck.__file__))
    paths = sorted(glob.glob(os.path.join(package, "*.py")))
    assert len(paths) > 10
    found = set().union(*map(numeric_imports, paths))
    assert found - ALLOWED == set()
    # the walker sees an import inside a method
    assert ("cyclotomic", "CycScalar.sign", "mpmath") in found
