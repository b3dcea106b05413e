"""Every check in the package raises a typed error, so `python -O` keeps it."""

import ast
import glob
import os

import hopfcheck


def test_no_assert_statements_in_the_package():
    package = os.path.dirname(os.path.abspath(hopfcheck.__file__))
    paths = sorted(glob.glob(os.path.join(package, "*.py")))
    assert len(paths) > 10
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            "%s:%d" % (os.path.basename(path), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
