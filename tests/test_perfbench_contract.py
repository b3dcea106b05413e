"""perfbench reaches into hopfcheck from outside: its tracer wraps functions
and methods by name and reads the memo state behind two cache-hit counters,
its worker reports spans by name, and its linalg kernel builds and reduces
a Matrix.  These tests keep those names working, so that deleting one fails
here and not only in a traced benchmark run, where a lost counter would
just read zero (perfbench's own tests live in perfbench/tests and are run
separately).
The perfbench files are imported read-only, from their own paths.
"""

import ast
import importlib
import importlib.util
import inspect
import os

import hopfcheck.linalg
from hopfcheck.catalog import build_algebra
from hopfcheck.corep import peter_weyl
from hopfcheck.cyclotomic import CycField
from hopfcheck.linalg import Matrix
from hopfcheck.subgroup import coset_algebras, full_subgroup

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


def test_cache_state_the_tracer_reads():
    # tracer._pw_hit reads the arguments H and gauge and then H._pw_cache;
    # tracer._coset_hit reads the argument Q and then Q.meta["cosets"]
    assert {"H", "gauge"} <= inspect.signature(peter_weyl).parameters.keys()
    assert "Q" in inspect.signature(coset_algebras).parameters
    H = build_algebra("f_s3")
    assert H._pw_cache is None
    P = peter_weyl(H)
    assert H._pw_cache is P
    Q = full_subgroup(H)
    assert Q.meta.get("cosets") is None
    cosets = coset_algebras(Q)
    assert Q.meta["cosets"] is cosets
