import random
from fractions import Fraction

import pytest
import sympy

from hopfcheck.cyclotomic import CycField
from hopfcheck.errors import SchemaError
from hopfcheck.linalg import (
    Matrix,
    Subspace,
    basis_vec,
    solve_linear,
    sparse_apply,
    sparse_compose,
    sparse_identity,
    sparse_image,
    sparse_kernel,
    sparse_vector,
    tensor_vec,
    zero_vec,
)
from hopfcheck.structure import enumerate_hopf_subalgebras, enumerate_quantum_subgroups

from dense_maps import (
    columns,
    dense_echelon,
    dense_intersection,
    dense_kernel,
    dense_matrix,
    mat_apply,
    matmul,
    sparse_of,
)

Q = CycField(1)


def rational_matrix(field, rows):
    return Matrix.from_rows(
        field, [[field.from_rational(Fraction(v)) for v in row] for row in rows]
    )


def rational_vec(field, vals):
    return [field.from_rational(Fraction(v)) for v in vals]


def random_rational_rows(rng, nrows, ncols, span=5):
    return [
        [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


# --- solving -------------------------------------------------------------


def test_solve_triangular_over_cyclotomic():
    field = CycField(3)
    z = field.zeta()
    A = Matrix.from_rows(field, [[z, field.one], [field.zero, field.one]])
    x = solve_linear(A, [field.zero, field.one])
    assert x == [field.one + z, field.one]
    # substitution check
    assert mat_apply(A, x) == [field.zero, field.one]


def test_solve_identity():
    A = Matrix.identity(Q, 4)
    b = rational_vec(Q, [3, -1, 0, 7])
    assert solve_linear(A, b) == b


def test_solve_inconsistent_returns_none():
    A = rational_matrix(Q, [[1, 1], [2, 2]])
    assert solve_linear(A, rational_vec(Q, [1, 3])) is None


def test_solve_underdetermined_gives_a_solution():
    A = rational_matrix(Q, [[1, 1, 0], [0, 1, 1]])
    b = rational_vec(Q, [2, 3])
    x = solve_linear(A, b)
    assert x is not None and mat_apply(A, x) == b


def test_solve_agrees_with_sympy():
    rng = random.Random(7)
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        rows = random_rational_rows(rng, n, m)
        bvals = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        A = rational_matrix(Q, rows)
        x = solve_linear(A, rational_vec(Q, bvals))
        M = sympy.Matrix(n, m, [sympy.Rational(v) for row in rows for v in row])
        bb = sympy.Matrix(n, 1, [sympy.Rational(v) for v in bvals])
        solvable = M.rank() == M.row_join(bb).rank()
        if solvable:
            assert x is not None
            assert mat_apply(A, x) == rational_vec(Q, bvals)
        else:
            assert x is None


def test_solve_with_complex_entries():
    # i*x = 1 over Q(i) forces x = -i
    field = CycField(4)
    i = field.zeta()
    A = Matrix.from_rows(field, [[i]])
    assert solve_linear(A, [field.one]) == [-i]


# --- rank, kernel, image -------------------------------------------------


def test_rank_matches_sympy():
    rng = random.Random(13)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_rational_rows(rng, n, m)
        A = rational_matrix(Q, rows)
        M = sympy.Matrix(n, m, [sympy.Rational(v) for row in rows for v in row])
        assert A.rank() == M.rank()


def test_rank_nullity():
    rng = random.Random(29)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        A = rational_matrix(Q, random_rational_rows(rng, n, m))
        ker = A.kernel()
        assert A.rank() + ker.dim == m
        for v in ker.basis():
            assert mat_apply(A, v) == zero_vec(Q, n)
        img = A.image()
        assert img.dim == A.rank()
        for col in columns(A):
            assert img.echelon().contains(sparse_vector(col))


def test_kernel_of_projection():
    A = rational_matrix(Q, [[1, 0, 0], [0, 1, 0]])
    ker = A.kernel()
    assert ker.dim == 1
    assert ker.echelon().contains(sparse_vector(rational_vec(Q, [0, 0, 5])))
    assert not ker.echelon().contains(sparse_vector(rational_vec(Q, [1, 0, 0])))


# --- matrix algebra ------------------------------------------------------


def test_matmul_and_transpose():
    # composing sparse columns is the matrix product
    A = rational_matrix(Q, [[1, 2], [3, 4]])
    B = rational_matrix(Q, [[0, 1], [1, 0]])
    AB = sparse_compose(sparse_of(A), sparse_of(B))
    assert dense_matrix(Q, 2, AB) == rational_matrix(Q, [[2, 1], [4, 3]])
    assert sparse_compose(sparse_of(A), sparse_identity(Q, 2)) == sparse_of(A)
    assert matmul(A, B).transpose() == matmul(B.transpose(), A.transpose())


def test_sparse_maps_match_dense_matrices():
    rng = random.Random(41)
    for _ in range(25):
        n, m, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        A = rational_matrix(Q, random_rational_rows(rng, n, m, span=2))
        B = rational_matrix(Q, random_rational_rows(rng, m, k, span=2))
        x = rational_vec(Q, [rng.randint(-3, 3) for _ in range(m)])
        assert sparse_of(dense_matrix(Q, n, sparse_of(A))) == sparse_of(A)
        assert sparse_apply(Q, n, sparse_of(A), x) == mat_apply(A, x)
        assert sparse_compose(sparse_of(A), sparse_of(B)) == sparse_of(matmul(A, B))
        assert sparse_image(Q, n, sparse_of(A)) == A.image()
        assert sparse_kernel(Q, n, sparse_of(A)) == A.kernel()


def test_zeros_and_is_zero():
    Z = Matrix.zeros(Q, 2, 3)
    assert Z.is_zero()
    assert Z.nrows == 2 and Z.ncols == 3
    assert not Matrix.identity(Q, 2).is_zero()


def test_basis_and_tensor_vec():
    e0 = basis_vec(Q, 3, 0)
    e2 = basis_vec(Q, 3, 2)
    t = tensor_vec(e0, e2)
    assert len(t) == 9
    assert t[2] == Q.one and sum(1 for c in t if not c.is_zero()) == 1


# --- subspaces -----------------------------------------------------------


def test_subspace_canonical_under_shuffle():
    rng = random.Random(41)
    vecs = [rational_vec(Q, row) for row in random_rational_rows(rng, 4, 5)]
    U = Subspace.from_vectors(Q, 5, vecs)
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    # also throw in linear combinations
    shuffled.append([a + b for a, b in zip(vecs[0], vecs[1])])
    V = Subspace.from_vectors(Q, 5, shuffled)
    assert U == V
    assert U.sort_key() == V.sort_key()


def test_subspace_membership_and_coordinates():
    U = Subspace.from_vectors(
        Q, 3, [rational_vec(Q, [1, 0, 1]), rational_vec(Q, [0, 1, 1])]
    )
    ech = U.echelon()
    w = rational_vec(Q, [2, 3, 5])
    assert ech.contains(sparse_vector(w))
    coords = ech.coefficients(sparse_vector(w))
    recon = zero_vec(Q, 3)
    for c, b in zip(coords, U.basis()):
        recon = [r + c * x for r, x in zip(recon, b)]
    assert recon == w
    assert not ech.contains(sparse_vector(rational_vec(Q, [1, 0, 0])))
    assert ech.coefficients(sparse_vector(rational_vec(Q, [1, 0, 0]))) is None


def test_zero_and_full_subspace():
    Z = Subspace.zero(Q, 4)
    assert Z.dim == 0 and Z.echelon().contains(sparse_vector(zero_vec(Q, 4)))
    F = Subspace.full(Q, 4)
    assert F.dim == 4
    assert Z <= F and not F <= Z


def test_subspaces_of_different_ambients_do_not_compare():
    # a line of Q^3 is not a subspace of Q^6, whatever its coordinates say
    line = Subspace.from_vectors(Q, 3, [rational_vec(Q, [1, 0, 0])])
    F = Subspace.full(Q, 6)
    for op in (line.__le__, line.sum_with, line.intersect):
        with pytest.raises(SchemaError, match="ambient mismatch"):
            op(F)
    with pytest.raises(SchemaError, match="ambient mismatch"):
        F <= line


def test_dimension_formula_for_sum_and_intersection():
    rng = random.Random(57)
    for _ in range(15):
        amb = rng.randint(2, 5)
        U = Subspace.from_vectors(
            Q,
            amb,
            [rational_vec(Q, r) for r in random_rational_rows(rng, rng.randint(1, 3), amb)],
        )
        V = Subspace.from_vectors(
            Q,
            amb,
            [rational_vec(Q, r) for r in random_rational_rows(rng, rng.randint(1, 3), amb)],
        )
        S = U.sum_with(V)
        I = U.intersect(V)
        assert S.dim + I.dim == U.dim + V.dim
        assert U <= S and V <= S
        assert I <= U and I <= V
        for v in I.basis():
            assert U.echelon().contains(sparse_vector(v)) and V.echelon().contains(sparse_vector(v))


def test_intersection_of_planes():
    U = Subspace.from_vectors(
        Q, 3, [rational_vec(Q, [1, 0, 0]), rational_vec(Q, [0, 1, 0])]
    )
    V = Subspace.from_vectors(
        Q, 3, [rational_vec(Q, [0, 1, 0]), rational_vec(Q, [0, 0, 1])]
    )
    I = U.intersect(V)
    assert I.dim == 1
    assert I.echelon().contains(sparse_vector(rational_vec(Q, [0, 7, 0])))


def test_map_by_image():
    A = rational_matrix(Q, [[1, 1, 0], [0, 0, 1]])
    U = Subspace.from_vectors(
        Q, 3, [rational_vec(Q, [1, 0, 0]), rational_vec(Q, [0, 1, 0])]
    )
    W = U.map_by(sparse_of(A), 2)
    assert W.ambient == 2
    assert W.dim == 1
    assert W.echelon().contains(sparse_vector(rational_vec(Q, [3, 0])))


def test_complement_indices():
    U = Subspace.from_vectors(
        Q, 4, [rational_vec(Q, [1, 0, 2, 0]), rational_vec(Q, [0, 1, 3, 0])]
    )
    comp = U.complement_indices()
    assert len(comp) == 2
    full = Subspace.from_vectors(
        Q, 4, U.basis() + [basis_vec(Q, 4, i) for i in comp]
    )
    assert full.dim == 4


def test_echelon_reduce_and_contains():
    U = Subspace.from_vectors(
        Q, 3, [rational_vec(Q, [1, 2, 0]), rational_vec(Q, [0, 0, 1])]
    )
    ech = U.echelon()
    inside = rational_vec(Q, [2, 4, 9])
    assert ech.contains(sparse_vector(inside))
    assert not ech.contains(sparse_vector(rational_vec(Q, [1, 0, 0])))


def test_subspace_over_cyclotomic_field():
    field = CycField(4)
    i = field.zeta()
    # span{(1, i)} contains (i, -1) = i*(1, i)
    U = Subspace.from_vectors(field, 2, [[field.one, i]])
    assert U.echelon().contains(sparse_vector([i, -field.one]))
    assert not U.echelon().contains(sparse_vector([field.one, -i]))


def test_rref_preserves_row_space():
    rng = random.Random(99)
    A = rational_matrix(Q, random_rational_rows(rng, 4, 4))
    R, pivots = A.rref()
    assert A.row_space() == R.row_space()
    assert R.rref() == (R, pivots)
    assert len(pivots) == A.rank()


# --- sparse rows against the dense reference -------------------------------


def random_scalar(field, rng):
    return field.from_integers([rng.randint(-3, 3) for _ in range(field.phi)], rng.randint(1, 3))


def random_vectors(field, rng, n, count):
    """count dense vectors of length n: sparse ones, full ones, and linear
    combinations of earlier ones, so that most spans are rank-deficient."""
    vecs = []
    for _ in range(count):
        kind = rng.random()
        if vecs and kind < 0.3:
            v = zero_vec(field, n)
            for u in rng.sample(vecs, min(len(vecs), 2)):
                c = random_scalar(field, rng)
                v = [a + c * b for a, b in zip(v, u)]
        else:
            density = 0.3 if kind < 0.65 else 1.0
            v = [random_scalar(field, rng) if rng.random() < density else field.zero for _ in range(n)]
        vecs.append(v)
    return vecs


def dense_sort_key(ech):
    return (len(ech.rows), tuple(ech.pivots), tuple(c.sort_key() for r in ech.rows for c in r))


@pytest.mark.parametrize("order", [1, 4, 12])
def test_sparse_echelon_matches_dense_reference(order):
    field = CycField(order)
    rng = random.Random(order)
    for _ in range(25):
        n = rng.randint(1, 6)
        us = random_vectors(field, rng, n, rng.randint(0, 6))
        vs = random_vectors(field, rng, n, rng.randint(0, 4))
        U, V = Subspace.from_vectors(field, n, us), Subspace.from_vectors(field, n, vs)
        ref = dense_echelon(field, n, us)
        assert U.basis() == ref.rows
        assert list(U.pivots) == ref.pivots
        assert U.sort_key() == dense_sort_key(ref)
        ech = U.echelon()
        assert ech.rows == [sparse_vector(r) for r in ref.rows] == list(U.rows)
        for w in us + vs + [zero_vec(field, n)]:
            sw = sparse_vector(w)
            assert ref.contains(w) == ech.contains(sw)
            assert ref.coefficients(w) == ech.coefficients(sw)
            assert ech.reduce(sw) == sparse_vector(ref.reduce(w))
        assert U.sum_with(V).basis() == dense_echelon(field, n, us + vs).rows
        assert U.intersect(V).basis() == dense_intersection(field, n, us, vs).rows
        # a map field^n -> field^m, its image of U and its kernel both ways
        m = rng.randint(1, 5)
        cols = [sparse_vector(v) for v in random_vectors(field, rng, m, n)]
        M = dense_matrix(field, m, cols)
        images = [mat_apply(M, u) for u in us]
        assert U.map_by(cols, m).basis() == dense_echelon(field, m, images).rows
        ker = dense_kernel(field, n, M.rows)
        assert M.kernel().basis() == ker.rows
        assert sparse_kernel(field, m, cols).basis() == ker.rows


def test_sort_key_matches_the_dense_rows(algebras):
    """Subspace.sort_key, read off the sparse rows, is the key of the dense
    rows entry by entry: on the catalog lattices and on random subspaces."""
    subspaces = []
    for H in algebras.values():
        subspaces += enumerate_hopf_subalgebras(H)
        subspaces += [Q.ideal for Q in enumerate_quantum_subgroups(H)]
    for order in (1, 4, 12):
        field = CycField(order)
        rng = random.Random(100 + order)
        for _ in range(30):
            n = rng.randint(1, 7)
            vecs = random_vectors(field, rng, n, rng.randint(0, 5))
            subspaces.append(Subspace.from_vectors(field, n, vecs))
        subspaces += [Subspace.zero(field, 3), Subspace.full(field, 3)]
    for S in subspaces:
        dense = tuple(c.sort_key() for row in S.basis() for c in row)
        assert S.sort_key() == (S.dim, S.pivots, dense)


def test_from_vectors_coerces_int_and_fraction_entries():
    field = CycField(4)
    quarter = field.from_rational(Fraction(1, 4))
    S = Subspace.from_vectors(field, 3, [[2, Fraction(1, 2), 0], [0, 0, Fraction(-3, 4)]])
    assert S.rows == (((0, field.one), (1, quarter)), ((2, field.one),))
    assert S.basis() == [[field.one, quarter, field.zero], [field.zero, field.zero, field.one]]
    assert S == Subspace.from_vectors(field, 3, [[4, 1, 0], [0, 0, field.one]])
