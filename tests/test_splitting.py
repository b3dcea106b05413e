import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfcheck
import hopfcheck.splitting as splitting
from hopfcheck.catalog import CATALOG_NAMES, build_algebra
from hopfcheck.constructions import FiniteGroup, function_algebra, group_algebra
from hopfcheck.corep import peter_weyl
from hopfcheck.cyclotomic import CycField
from hopfcheck.errors import SplittingFailed, TheoremViolation
from hopfcheck.hopf import dual
from hopfcheck.linalg import Matrix, Subspace, add_terms, sparse_column, sparse_vector
from hopfcheck.splitting import (
    center_of_dual,
    exact_eigen_split,
    exact_poly_roots,
    split_center,
)

from test_hopf import AXIOM_INPUTS, axiom_input

from dense_maps import (
    dense_of,
    dense_product,
    dual_product,
    mat_apply,
    matmul,
    rebase_by,
    rebased,
    reference_min_poly,
)


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
        D = dual(H)
        idems = split_center(H)
        assert len(idems) == center_of_dual(H).dim
        total = [H.field.zero] * H.dim
        for e in idems:
            assert D.product(e, e) == e
            total = [a + b for a, b in zip(total, dense_of(D, e))]
        assert total == D.unit
        for i, ei in enumerate(idems):
            for j, ej in enumerate(idems):
                if i != j:
                    assert D.product(ei, ej) == ()


def test_split_center_degree_four_fields():
    # phi(5) = phi(8) = 4: exercises root finding in quartic cyclotomic fields
    for n in (5, 8):
        F = function_algebra(FiniteGroup.cyclic(n))
        assert F.field.n == n
        idems = split_center(F)
        assert len(idems) == n
        for e in idems:
            assert dual(F).product(e, e) == e


# --- sparse products and minimal polynomials against dense references -------


SPLIT_INPUTS = sorted(CATALOG_NAMES) + ["F(S3)xZ2", "c_s3 rebased"]


def split_input(name, s3_crossed):
    """A catalog algebra, F(S3)x|Z2, or C(S3) in a non-coordinate basis."""
    if name == "F(S3)xZ2":
        return s3_crossed()
    if name == "c_s3 rebased":
        return rebased(build_algebra("c_s3"), random.Random("certificate " + name))
    return build_algebra(name)


@pytest.mark.parametrize("name", SPLIT_INPUTS)
def test_sparse_products_and_min_polys_match_dense_references(name, s3_crossed, monkeypatch):
    calls = []
    real = splitting._min_poly

    def recording(D, unit, x):
        poly, powers = real(D, unit, x)
        calls.append((unit, x, poly))
        return poly, powers

    monkeypatch.setattr(splitting, "_min_poly", recording)
    H = split_input(name, s3_crossed)
    rng = random.Random("sparse products " + name)
    for A in (H, dual(H)):
        field, d = A.field, A.dim
        coeffs = [field.zero, field.zero, field.one, -field.one, field.scalar(2), field.zeta()]
        vecs = [sparse_vector([rng.choice(coeffs) for _ in range(d)]) for _ in range(4)]
        for x in vecs:
            for y in vecs:
                want = dense_product(A, dense_of(A, x), dense_of(A, y))
                assert dense_of(A, A.product(x, y)) == want
        # the dual product on the central idempotents and random functionals
        D = dual(A)
        vecs += split_center(A)
        for f in vecs:
            for g in vecs:
                assert dense_of(D, D.product(f, g)) == dual_product(A, dense_of(D, f), dense_of(D, g))
        # every minimal polynomial found while splitting A
        calls.clear()
        P = peter_weyl(A)
        assert calls or all(dim == 1 for dim in P.dims)
        # the centre is split by central x, so the reference is handed unit x
        for unit, x, poly in calls:
            assert poly == reference_min_poly(A, dense_of(D, unit), dense_of(D, D.product(unit, x)))


# --- a centre split that does not depend on the basis ------------------------


def rebased_centre_matches(seeds):
    """For each seed, whether split_center of C(D6) rebased by T = L L^T
    gives, through T, the central idempotents of C(D6) itself.  L is
    unitriangular with entries below the diagonal from {-1, 0, 0, 1, 2}.

    A functional f of H has the coordinates f(T e_i) = (T^T f)_i in the dual
    basis of the rebased algebra.
    """
    H = group_algebra(FiniteGroup.dihedral(6))
    field, d = H.field, H.dim
    idems = [dense_of(dual(H), e) for e in split_center(H)]
    out = []
    for seed in seeds:
        rng = random.Random(seed)
        below = (-1, 0, 0, 1, 2)
        L = Matrix(
            field, [[1 if i == j else rng.choice(below) if i > j else 0 for j in range(d)] for i in range(d)]
        )
        T = matmul(L, L.transpose())
        want = {sparse_vector(mat_apply(T.transpose(), e)) for e in idems}
        got = split_center(rebase_by(H, T))
        out.append(len(got) == d and set(got) == want)
    return out


def test_rebased_centre_splits_alike_with_and_without_optimize():
    # in the large-coefficient basis of L L^T a numeric search for the
    # eigenvalues of a multiplication operator needs high precision; the
    # roots of exact minimal polynomials do not
    assert rebased_centre_matches([0, 1, 2]) == [True] * 3
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    code = (
        "assert False, 'asserts are live'\n"
        "from test_splitting import rebased_centre_matches\n"
        "print(rebased_centre_matches([0, 1, 2]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[True, True, True]"]


# --- exact root finding by p-adic lifting --------------------------------------


def poly_with_roots(field, roots):
    """The monic polynomial with the given roots, repeats kept, lowest degree
    first."""
    poly = [field.one]
    for r in roots:
        poly = [field.zero] + poly
        for i in range(len(poly) - 1):
            poly[i] -= r * poly[i + 1]
    return poly


def primes_lifted(monkeypatch):
    """The primes exact_poly_roots lifts roots at, in the order it does."""
    seen = []
    real = splitting._level

    def level(field, p, j):
        if j and p not in seen:
            seen.append(p)
        return real(field, p, j)

    monkeypatch.setattr(splitting, "_level", level)
    return seen


def test_root_with_a_denominator():
    F = CycField(12)
    x = F.scalar([Fraction(3, 7), Fraction(-1, 7), Fraction(2, 7), Fraction(5, 7)])
    roots = exact_poly_roots(F, poly_with_roots(F, [x, F.zeta(), -x]))
    assert roots == sorted([x, F.zeta(), -x], key=lambda s: s.sort_key())


def test_repeated_roots_are_kept():
    Q = CycField(1)
    for roots, want in (([3, 9, 9], [3, 9]), ([2, -8, -8], [-8, 2])):
        got = exact_poly_roots(Q, poly_with_roots(Q, [Q.scalar(r) for r in roots]))
        assert [r.as_fraction() for r in got] == want


def test_too_few_roots_mod_p_need_no_lift(monkeypatch):
    # t^3 - 2 over Q(zeta_12): mod 37, the first prime tried, 2 is no cube
    def no_lift(*args):
        raise AssertionError("lifted a root of a polynomial that cannot split")

    monkeypatch.setattr(splitting, "_lifted_root", no_lift)
    F = CycField(12)
    assert exact_poly_roots(F, [F.from_rational(-2), F.zero, F.zero, F.one]) == []


def test_split_mod_p_but_not_over_the_field(monkeypatch):
    # 3 is a square mod 11 and mod 13 but not mod 17, and not in Q
    primes = primes_lifted(monkeypatch)
    Q = CycField(1)
    assert exact_poly_roots(Q, [Q.from_rational(-3), Q.zero, Q.one]) == []
    assert primes == [11, 13]


def test_roots_that_meet_mod_the_first_prime(monkeypatch):
    # 1 = 12 mod 11, and i = i + 13 mod 13: the next prime separates them
    primes = primes_lifted(monkeypatch)
    Q = CycField(1)
    roots = exact_poly_roots(Q, poly_with_roots(Q, [Q.one, Q.scalar(12)]))
    assert [r.as_fraction() for r in roots] == [1, 12]
    assert primes[:2] == [11, 13]
    del primes[:]
    F = CycField(4)
    i = F.zeta()
    assert exact_poly_roots(F, poly_with_roots(F, [i, i + 13])) == [i, i + 13]
    assert primes[:2] == [13, 17]


def small_roots(n):
    field = CycField(n)
    coords = st.lists(st.integers(-6, 6), min_size=field.phi, max_size=field.phi)
    return st.builds(field.from_integers, coords, st.integers(1, 7))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 3, 4, 5, 8, 12)).flatmap(
    lambda n: st.lists(small_roots(n), min_size=1, max_size=4)))
def test_every_root_found_with_repeats_and_denominators(roots):
    F = roots[0].field
    roots = roots + roots[:1]  # one repeat, so a root of multiplicity two or more
    want = sorted(set(roots), key=lambda s: s.sort_key())
    assert exact_poly_roots(F, poly_with_roots(F, roots)) == want


# --- exact verifications survive python -O ---------------------------------------


def test_failed_verifications_raise_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    code = (
        "import hopfcheck.corep as corep\n"
        "import hopfcheck.splitting as splitting\n"
        "from hopfcheck.constructions import FiniteGroup, function_algebra\n"
        "from hopfcheck.corep import peter_weyl\n"
        "from hopfcheck.hopf import dual\n"
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
        "real_center = splitting.center_of_dual\n"
        "def not_closed(H):\n"
        "    idx = [H.labels.index(g) for g in ('(12)', '(13)')]\n"
        "    return Subspace.from_vectors(H.field, H.dim, [basis_vec(H.field, H.dim, i) for i in idx])\n"
        "splitting.center_of_dual = not_closed\n"
        "run('center', lambda: splitting.split_center(fresh()))\n"
        "splitting.center_of_dual = real_center\n"
        "H = fresh()\n"
        "dual(H).unit = zero_vec(H.field, H.dim)\n"
        "run('unit', lambda: splitting.split_center(H))\n"
        "real_find = corep.find_primitive_idempotent\n"
        "real_roots = splitting.exact_poly_roots\n"
        "def root_moved(field, coeffs):\n"
        "    roots = real_roots(field, coeffs)\n"
        "    return [roots[0] + field.one] + roots[1:] if roots else roots\n"
        "def moved_in_corner(H, *args):\n"
        "    splitting.exact_poly_roots = root_moved\n"
        "    try:\n"
        "        return real_find(H, *args)\n"
        "    finally:\n"
        "        splitting.exact_poly_roots = real_roots\n"
        "corep.find_primitive_idempotent = moved_in_corner\n"
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


# --- spectral idempotents certified in K[t] ---------------------------------------


def product_check(D, unit, powers, poly, roots):
    """Whether the Lagrange idempotents of roots, formed without a
    certificate, are orthogonal idempotents of D summing to unit, by
    products in D."""
    qs = []
    for mu in roots:
        quot = splitting._deflate(poly, mu)[0]
        at_mu = splitting._deflate(quot, mu)[1]
        if not at_mu:
            return False
        acc = {}
        for c, v in zip(quot, powers):
            add_terms(acc, c * at_mu.inverse(), v)
        qs.append(sparse_column(acc))
    total = {}
    for q in qs:
        add_terms(total, D.field.one, q)
    return sparse_column(total) == unit and all(
        D.product(q, r) == (q if a == b else ())
        for a, q in enumerate(qs) for b, r in enumerate(qs))


def certified(poly, roots):
    try:
        splitting._lagrange_polynomials(poly, roots)
    except TheoremViolation:
        return False
    return True


def spectral_steps(H, monkeypatch):
    """(D, unit, x) of every spectral step of peter_weyl(H) at gauges 0 and 3."""
    steps = []
    real = splitting._spectral_idempotents

    def recorded(D, unit, x):
        steps.append((D, unit, x))
        return real(D, unit, x)

    monkeypatch.setattr(splitting, "_spectral_idempotents", recorded)
    peter_weyl(H)
    peter_weyl(H, 3)
    monkeypatch.undo()
    return steps


@pytest.mark.parametrize("name", AXIOM_INPUTS + ["F(S4)", "C(S4)"])
def test_certificate_agrees_with_products_in_the_dual(name, s3_crossed, drinfeld_s3, monkeypatch):
    # on the true roots both pass; with any one root moved, both fail
    H = {"F(S4)": lambda: function_algebra(FiniteGroup.symmetric(4)),
         "C(S4)": lambda: group_algebra(FiniteGroup.symmetric(4))}.get(
        name, lambda: axiom_input(name, s3_crossed, drinfeld_s3))()
    steps = spectral_steps(H, monkeypatch)
    assert steps
    split = 0
    for D, unit, x in steps:
        poly, powers = splitting._min_poly(D, unit, x)
        roots = exact_poly_roots(D.field, poly)
        if len(roots) != len(powers):
            continue
        split += 1
        variants = [roots] + [roots[:i] + [r + D.field.one] + roots[i + 1:] for i, r in enumerate(roots)]
        for variant in variants:
            assert certified(poly, variant) == product_check(D, unit, powers, poly, variant)
        assert certified(poly, roots)
    assert split


def test_krylov_relation_that_is_not_a_line_raises(monkeypatch):
    H = function_algebra(FiniteGroup.symmetric(3))
    D = dual(H)
    unit = sparse_vector(D.unit)
    z = center_of_dual(H).rows[-1]
    monkeypatch.setattr(splitting, "sparse_kernel", lambda field, n, cols: Subspace.full(field, len(cols)))
    with pytest.raises(TheoremViolation, match="Krylov"):
        splitting._min_poly(D, unit, z)
    monkeypatch.setattr(splitting, "sparse_kernel", lambda field, n, cols: Subspace.zero(field, len(cols)))
    with pytest.raises(TheoremViolation, match="Krylov"):
        splitting._min_poly(D, unit, z)
