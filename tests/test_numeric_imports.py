"""The package needs no numeric library: roots of polynomials are found and
signs of real cyclotomic numbers certified with integers alone, so numpy,
sympy and mpmath are not imported anywhere in it."""

import ast
import glob
import os
import subprocess
import sys

import hopfcheck

ALLOWED = set()

PROBE = '''
import os


class Probe:
    def method(self):
        from mpmath import iv
        import numpy.linalg
'''


def numeric_imports(source, module):
    """(module, qualified name of the enclosing def, package) for every
    import of numpy, sympy or mpmath in one module's source."""
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

    visit(ast.parse(source), [])
    return found


def test_the_walker_sees_an_import_inside_a_method():
    assert numeric_imports(PROBE, "probe") == {
        ("probe", "Probe.method", "mpmath"),
        ("probe", "Probe.method", "numpy"),
    }


def test_numeric_libraries_are_imported_only_where_allowed():
    package = os.path.dirname(os.path.abspath(hopfcheck.__file__))
    paths = sorted(glob.glob(os.path.join(package, "*.py")))
    assert len(paths) > 10
    found = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            found |= numeric_imports(fh.read(), os.path.splitext(os.path.basename(path))[0])
    assert found - ALLOWED == set()


def test_the_package_runs_without_numeric_libraries():
    # a None entry in sys.modules makes every import of the name fail; the
    # last algebra's Gram matrix has irrational pivots, whose signs
    # haar_positive certifies
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['sympy'] = sys.modules['mpmath'] = None\n"
        "from hopfcheck.catalog import build_algebra\n"
        "from hopfcheck.constructions import FiniteGroup, function_algebra\n"
        "from hopfcheck.corep import peter_weyl\n"
        "from hopfcheck.hopf import check_axioms\n"
        "from conftest import build_irrational_gram\n"
        "F = function_algebra(FiniteGroup.cyclic(5))\n"
        "print(peter_weyl(build_algebra('f_s3')).dims)\n"
        "print(F.field.phi, peter_weyl(F).dims)\n"
        "print(check_axioms(build_irrational_gram()).ok)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[1, 1, 2]", "4 [1, 1, 1, 1, 1]", "True"]
