import os
import subprocess
import sys
from fractions import Fraction

import pytest

import hopfcheck
import hopfcheck.splitting as splitting
from hopfcheck.constructions import FiniteGroup, function_algebra
from hopfcheck.cyclotomic import CycField
from hopfcheck.errors import SplittingFailed
from hopfcheck.linalg import Matrix
from hopfcheck.splitting import (
    _lll_candidates,
    center_of_dual,
    dual_product,
    dual_unit,
    exact_eigen_split,
    exact_poly_roots,
    split_center,
)

from dense_maps import mat_apply


# --- polynomial roots ------------------------------------------------------


def test_roots_of_quadratics():
    F = CycField(4)
    two = F.from_rational(2)
    # x^2 - 2x + 1
    assert [repr(r) for r in exact_poly_roots(F, [F.one, -two, F.one])] == ["1"]
    # x^2 + 1 has the two imaginary units
    roots = exact_poly_roots(F, [F.one, F.zero, F.one])
    assert sorted(repr(r) for r in roots) == ["-z4", "z4"]
    # x^2 - 2 has no roots in Q(i)
    assert exact_poly_roots(F, [-two, F.zero, F.one]) == []


def test_roots_in_degree_four_extension():
    # sqrt(2) = z8 - z8^3 lives in Q(zeta_8)
    F = CycField(8)
    roots = exact_poly_roots(F, [F.from_rational(-2), F.zero, F.one])
    assert len(roots) == 2
    root2 = F.zeta() - F.zeta(3)
    assert set(map(repr, roots)) == {repr(root2), repr(-root2)}
    for r in roots:
        assert (r * r).as_fraction() == 2


def test_roots_of_cyclotomic_factors():
    # x^4 + x^3 + x^2 + x + 1 splits completely over Q(zeta_5)
    F = CycField(5)
    ones = [F.one] * 5
    roots = exact_poly_roots(F, ones)
    assert sorted(map(repr, roots)) == sorted(repr(F.zeta(k)) for k in (1, 2, 3, 4))


def test_linear_polynomial():
    F = CycField(1)
    roots = exact_poly_roots(F, [F.from_rational(Fraction(3, 2)), F.one])
    assert [r.as_fraction() for r in roots] == [Fraction(-3, 2)]


# --- eigen splitting ---------------------------------------------------------


def test_eigen_split_of_swap():
    F = CycField(4)
    M = Matrix.from_rows(F, [[F.zero, F.one], [F.one, F.zero]])
    out = exact_eigen_split(M)
    vals = sorted(repr(v) for v, _ in out)
    assert vals == ["-1", "1"]
    for val, space in out:
        assert space.dim == 1
        (v,) = space.basis()
        assert mat_apply(M, v) == [val * c for c in v]


def test_eigen_split_requires_splitting_field():
    F = CycField(4)
    M = Matrix.from_rows(F, [[F.zero, F.one], [F.from_rational(2), F.zero]])
    with pytest.raises(SplittingFailed) as exc:
        exact_eigen_split(M)
    assert "field order" in str(exc.value) or "larger field" in str(exc.value)

    F8 = CycField(8)
    M8 = Matrix.from_rows(F8, [[F8.zero, F8.one], [F8.from_rational(2), F8.zero]])
    out = exact_eigen_split(M8)
    assert len(out) == 2
    for val, space in out:
        assert (val * val).as_fraction() == 2
        assert space.dim == 1


def test_eigen_split_identity_is_single_block():
    F = CycField(1)
    out = exact_eigen_split(Matrix.identity(F, 3))
    assert len(out) == 1
    val, space = out[0]
    assert val.is_one() and space.dim == 3


def test_eigen_split_exact_spectrum():
    # a transposition: eigenvalue 1 on a plane, -1 on a line
    F = CycField(6)
    M = Matrix.from_rows(
        F,
        [
            [F.zero, F.one, F.zero],
            [F.one, F.zero, F.zero],
            [F.zero, F.zero, F.one],
        ],
    )
    out = exact_eigen_split(M)
    assert sorted((val.as_fraction(), space.dim) for val, space in out) == [(-1, 1), (1, 2)]
    for val, space in out:
        for v in space.basis():
            assert mat_apply(M, v) == [val * x for x in v]


# --- center splitting --------------------------------------------------------


def test_center_dimensions(algebras):
    # the dual of a function algebra is a group algebra and vice versa
    assert center_of_dual(algebras["f_s3"]).dim == 3
    assert center_of_dual(algebras["c_s3"]).dim == 6
    assert center_of_dual(algebras["f_d4"]).dim == 5
    assert center_of_dual(algebras["f_z6"]).dim == 6


def test_split_center_gives_orthogonal_idempotents(algebras):
    for name in ("f_s3", "c_s3", "f_d4"):
        H = algebras[name]
        idems = split_center(H)
        assert len(idems) == center_of_dual(H).dim
        total = [H.field.zero] * H.dim
        for e in idems:
            assert dual_product(H, e, e) == e
            total = [a + b for a, b in zip(total, e)]
        assert total == dual_unit(H)
        for i, ei in enumerate(idems):
            for j, ej in enumerate(idems):
                if i != j:
                    assert all(c.is_zero() for c in dual_product(H, ei, ej))


def test_split_center_degree_four_fields():
    # phi(5) = phi(8) = 4: exercises root finding in quartic cyclotomic fields
    for n in (5, 8):
        F = function_algebra(FiniteGroup.cyclic(n))
        assert F.field.n == n
        idems = split_center(F)
        assert len(idems) == n
        for e in idems:
            assert dual_product(F, e, e) == e


# --- integer-relation reconstruction ----------------------------------------


def test_lll_reconstructs_an_element_with_a_denominator():
    F = CycField(12)
    x = F.scalar([Fraction(3, 7), Fraction(-1, 7), Fraction(2, 7), Fraction(5, 7)])
    assert x in _lll_candidates(F, x.embed(), 10 ** 6)


def test_lll_failures_are_narrowly_caught(monkeypatch):
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.exceptions import DMRankError

    F = CycField(12)
    z = F.zeta().embed()

    def rank_error(self, *args, **kwargs):
        raise DMRankError("dependent rows")

    monkeypatch.setattr(DomainMatrix, "lll", rank_error)
    assert _lll_candidates(F, z, 10 ** 6) == []

    def bug(self, *args, **kwargs):
        raise RuntimeError("not an LLL failure")

    monkeypatch.setattr(DomainMatrix, "lll", bug)
    with pytest.raises(RuntimeError):
        _lll_candidates(F, z, 10 ** 6)


def test_lll_runs_only_after_the_cheap_guesses_fail(monkeypatch):
    # over Q(zeta_12) (phi = 4) rational eigenvalues and roots are found by the
    # rational guess, so the LLL tier is never entered
    def no_lll(field, z, max_den):
        raise AssertionError("LLL tier entered for a rational value")

    monkeypatch.setattr(splitting, "_lll_candidates", no_lll)
    F = CycField(12)
    M = Matrix.from_rows(
        F,
        [
            [F.zero, F.one, F.zero],
            [F.one, F.zero, F.zero],
            [F.zero, F.zero, F.one],
        ],
    )
    out = exact_eigen_split(M)
    assert sorted((val.as_fraction(), space.dim) for val, space in out) == [(-1, 1), (1, 2)]
    roots = exact_poly_roots(F, [-F.one, F.zero, F.one])
    assert [r.as_fraction() for r in roots] == [-1, 1]

    # sqrt(2) over Q(zeta_8) is real but irrational: the rational guess fails
    # its exact check and the LLL tier is still reached
    calls = []
    monkeypatch.setattr(
        splitting, "_lll_candidates", lambda *args: calls.append(args) or _lll_candidates(*args)
    )
    F8 = CycField(8)
    roots = exact_poly_roots(F8, [F8.from_rational(-2), F8.zero, F8.one])
    assert [(r * r).as_fraction() for r in roots] == [2, 2]
    assert calls


# --- exact verifications survive python -O ---------------------------------------


def test_failed_verifications_raise_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    code = (
        "import hopfcheck.splitting as splitting\n"
        "from hopfcheck.constructions import FiniteGroup, function_algebra\n"
        "from hopfcheck.corep import peter_weyl\n"
        "from hopfcheck.errors import TheoremViolation\n"
        "from hopfcheck.linalg import Subspace, basis_vec, zero_vec\n"
        "assert False, 'asserts are live'\n"
        "def fresh():\n"
        "    return function_algebra(FiniteGroup.symmetric(3))\n"
        "def run(name, call):\n"
        "    try:\n"
        "        call()\n"
        "        print(name, 'accepted')\n"
        "    except TheoremViolation as exc:\n"
        "        print(name, exc)\n"
        "H = fresh()\n"
        "run('clean', lambda: peter_weyl(H))\n"
        "real_center, real_unit = splitting.center_of_dual, splitting.dual_unit\n"
        "def not_closed(H):\n"
        "    idx = [H.labels.index(g) for g in ('(12)', '(13)')]\n"
        "    return Subspace.from_vectors(H.field, H.dim, [basis_vec(H.field, H.dim, i) for i in idx])\n"
        "splitting.center_of_dual = not_closed\n"
        "run('center', lambda: splitting.split_center(fresh()))\n"
        "splitting.center_of_dual = real_center\n"
        "splitting.dual_unit = lambda H: zero_vec(H.field, H.dim)\n"
        "run('unit', lambda: splitting.split_center(fresh()))\n"
        "splitting.dual_unit = real_unit\n"
        "real_product = splitting._Corner.product\n"
        "def squared_wrong(self, x, y):\n"
        "    out = real_product(self, x, y)\n"
        "    if x is y:\n"
        "        out[0] = out[0] + self.H.field.one\n"
        "    return out\n"
        "splitting._Corner.product = squared_wrong\n"
        "run('corner', lambda: peter_weyl(fresh()))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "clean accepted",
        "center center is not closed under products",
        "unit central idempotents do not sum to the counit",
        "corner spectral idempotent verification failed",
    ]
