"""perfbench reaches into hopfcheck from outside: its tracer wraps functions
and methods by name, its worker reports spans by name, and its linalg
kernel builds and reduces a Matrix.  These tests keep those names working,
so that deleting one fails here and not only in a traced benchmark run
(perfbench's own tests live in perfbench/tests and are run separately).
The perfbench files are imported read-only, from their own paths.
"""

import ast
import importlib
import importlib.util
import os

import hopfcheck.linalg
from hopfcheck.cyclotomic import CycField
from hopfcheck.linalg import Matrix

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(BENCH, name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    tracer = _load("tracer")
    before = tracer.snapshot()
    t = tracer.Tracer().install()
    try:
        map_by = hopfcheck.linalg.Subspace.map_by
        assert map_by.__wrapped__ is before[("hopfcheck.linalg", "Subspace", "map_by")]
    finally:
        t.uninstall()
    after = tracer.snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_reported_spans_name_existing_code():
    with open(os.path.join(BENCH, "worker.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    spans = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SPANS"
    )
    for span, _fields in spans:
        module, *path = span.split(".")
        obj = importlib.import_module("hopfcheck." + module)
        for attr in path:
            obj = getattr(obj, attr)
        assert callable(obj), span


def test_rref_kernel_runs_on_matrix():
    kernels = _load("kernels")
    _seconds, error = kernels.rref(CycField, Matrix, 0)
    assert error is None
