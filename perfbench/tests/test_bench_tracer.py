"""The tracer wraps from outside and puts every original back."""

import hopfcheck.corep
import hopfcheck.hopf
import hopfcheck.linalg
import hopfcheck.structure
import hopfcheck.subgroup
from hopfcheck.catalog import build_algebra

import tracer


def test_wraps_every_binding_and_restores_all():
    before = tracer.snapshot()
    original = hopfcheck.hopf.check_axioms
    t = tracer.Tracer().install()
    try:
        wrapped = hopfcheck.hopf.check_axioms
        assert wrapped is not original and wrapped.__wrapped__ is original
        # `from .hopf import check_axioms` bindings are wrapped too
        assert hopfcheck.subgroup.check_axioms is wrapped
        assert hopfcheck.structure.peter_weyl is hopfcheck.subgroup.peter_weyl
        assert hopfcheck.linalg.Matrix.kernel.__wrapped__ is before[("hopfcheck.linalg", "Matrix", "kernel")]
        assert hopfcheck.linalg.zero_vec is before[("hopfcheck.linalg", "zero_vec")]
    finally:
        t.uninstall()
    after = tracer.snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_counts_self_time_and_cache_hits():
    H = build_algebra("f_s3")
    with tracer.Tracer() as t:
        hopfcheck.corep.peter_weyl(H)
        hopfcheck.corep.peter_weyl(H)
    pw = t.stats["corep.peter_weyl"]
    assert pw.calls == 2 and pw.extra.get("cache_hits") == 1
    verify = t.stats["corep.Corepresentation.verify"]
    assert verify.calls >= 3
    assert 0 <= pw.self_s <= t.root_s


def test_kernel_cells_and_masks():
    from hopfcheck.cyclotomic import CycField

    field = CycField(3)
    with tracer.Tracer() as t:
        hopfcheck.linalg.Matrix(field, [[1, 2, 3, 4, 5], [0, 1, 0, 1, 0], [1, 3, 3, 5, 5]]).kernel()
    k = t.stats["linalg.Matrix.kernel"]
    assert (k.calls, k.extra["cells"]) == (1, 15)
    with tracer.Tracer() as t:
        hopfcheck.structure.enumerate_hopf_subalgebras(build_algebra("c_s3"))
    # C(S3) has six one-dimensional irreducibles: 2^6 masks
    assert t.stats["structure.enumerate_hopf_subalgebras"].extra["masks"] == 64
