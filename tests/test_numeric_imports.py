"""The package needs no numeric library but mpmath, and imports it lazily,
in the one function that bounds the sign of a real cyclotomic number, so no
other code path can come to depend on it.  Roots of polynomials are found
with integers alone, so numpy and sympy are not imported at all."""

import ast
import glob
import os
import subprocess
import sys

import hopfcheck

ALLOWED = {
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


def test_the_package_splits_without_numpy_or_sympy():
    # a None entry in sys.modules makes every import of the name fail
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    code = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['sympy'] = None\n"
        "from hopfcheck.catalog import build_algebra\n"
        "from hopfcheck.constructions import FiniteGroup, function_algebra\n"
        "from hopfcheck.corep import peter_weyl\n"
        "F = function_algebra(FiniteGroup.cyclic(5))\n"
        "print(peter_weyl(build_algebra('f_s3')).dims)\n"
        "print(F.field.phi, peter_weyl(F).dims)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[1, 1, 2]", "4 [1, 1, 1, 1, 1]"]
