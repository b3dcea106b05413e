import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import hopfcheck

from hopfcheck.catalog import build_algebra, repo_catalog_dir
from hopfcheck.constructions import (
    FiniteGroup,
    GroupAction,
    crossed_canonical_subgroup,
    crossed_general_subgroup,
    crossed_product,
    function_algebra,
    group_algebra,
    group_of_function_algebra,
    inversion_action,
    lift_algebra,
    quotient_group,
    subgroup_ideal,
    tensor_product,
    tensor_subgroup,
)
from hopfcheck.corep import peter_weyl
from hopfcheck.errors import (
    InvarianceViolated,
    KNotInKernel,
    NotASubgroup,
    NotNormalInner,
    SchemaError,
)
from hopfcheck.hopf import HopfStarAlgebra, check_axioms, compute_haar, morphism_failure
from hopfcheck.linalg import Matrix, Subspace, basis_vec, sparse_identity, sparse_kernel, tensor_vec
from hopfcheck.serialize import load_algebra
from hopfcheck.subgroup import coset_algebras, make_subgroup, normality_report

from dense_maps import dense_entries, map_entries
from product_coreps import crossed_coreps, group_likes, tensor_coreps


def klein_four():
    return FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))


def pair_label(lbl):
    return tuple(lbl[1:-1].split(","))


# --- finite groups ---------------------------------------------------------


def test_group_constructors():
    assert FiniteGroup.cyclic(6).order == 6
    assert FiniteGroup.dihedral(4).order == 8
    assert FiniteGroup.symmetric(3).order == 6
    assert klein_four().order == 4


def test_group_properties():
    z6 = FiniteGroup.cyclic(6)
    assert z6.is_abelian() and z6.exponent() == 6
    s3 = FiniteGroup.symmetric(3)
    assert not s3.is_abelian() and s3.exponent() == 6
    d4 = FiniteGroup.dihedral(4)
    assert d4.exponent() == 4
    assert sorted(d4.element_order(i) for i in range(8)) == [1, 2, 2, 2, 2, 2, 4, 4]
    v4 = klein_four()
    assert v4.exponent() == 2 and v4.is_abelian()


def test_group_inverses_and_identity():
    s3 = FiniteGroup.symmetric(3)
    e = s3.identity
    for i in range(6):
        assert s3.mul(i, s3.inv(i)) == e
        assert s3.mul(e, i) == i


def test_invalid_table_rejected():
    with pytest.raises(SchemaError):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(SchemaError):
        # left translations are bijections but associativity fails
        FiniteGroup(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )


def test_malformed_groups_raise_typed_errors_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    code = (
        "import hopfcheck.constructions as cons\n"
        "from hopfcheck.catalog import build_algebra\n"
        "from hopfcheck.errors import SchemaError, TheoremViolation\n"
        "from hopfcheck.linalg import Subspace\n"
        "from hopfcheck.serialize import group_from_dict\n"
        "from hopfcheck.subgroup import full_subgroup, trivial_subgroup\n"
        "assert False, 'asserts are live'\n"
        "Z2 = cons.FiniteGroup.cyclic(2)\n"
        "F = cons.function_algebra(Z2)\n"
        "X = build_algebra('f_z3_rtimes_z2')\n"
        "A = X.meta['inner']\n"
        "Q = full_subgroup(F)\n"
        "def shrunk(call):\n"
        "    # every subgroup the constructions make comes out trivial\n"
        "    real = cons.make_subgroup\n"
        "    cons.make_subgroup = lambda G, I: trivial_subgroup(G)\n"
        "    try:\n"
        "        return call()\n"
        "    finally:\n"
        "        cons.make_subgroup = real\n"
        "for call in (\n"
        "    lambda: group_from_dict({'order': 2, 'table': [[0, 1], [1, 1]]}),\n"
        "    lambda: cons.FiniteGroup([[0, 1], [0, 1]]),\n"
        "    lambda: cons.FiniteGroup([]),\n"
        "    lambda: cons.FiniteGroup([[0, 1], [1, 0]], ['a', 'a']),\n"
        "    lambda: cons.FiniteGroup.dihedral(0),\n"
        "    lambda: cons.GroupAction(Z2, F, [[[1, 0], [0, 1]]]),\n"
        "    lambda: shrunk(lambda: cons.tensor_subgroup(Q, Q)),\n"
        "    lambda: shrunk(lambda: cons.crossed_general_subgroup(X, Subspace.zero(A.field, A.dim), ['e'])),\n"
        "):\n"
        "    try:\n"
        "        call()\n"
        "        print('accepted')\n"
        "    except (SchemaError, TheoremViolation) as exc:\n"
        "        print(type(exc).__name__, exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "SchemaError invalid group table: row is not a permutation",
        "SchemaError invalid group table: column is not a permutation",
        "SchemaError a group table needs at least one row",
        "SchemaError a group of order 2 needs 2 distinct labels",
        "SchemaError the dihedral group needs n >= 1",
        "SchemaError an action needs one map per group element",
        "TheoremViolation quotient dimension does not match N1 x N2",
        "TheoremViolation quotient dimension does not match (A/I) x| (Gamma/K)",
    ]


def test_subgroup_detection():
    s3 = FiniteGroup.symmetric(3)
    a3 = s3.subset_indices(("e", "(123)", "(132)"))
    assert s3.is_subgroup(a3)
    assert s3.is_normal_subgroup(a3)
    t12 = s3.subset_indices(("e", "(12)"))
    assert s3.is_subgroup(t12)
    assert not s3.is_normal_subgroup(t12)
    assert not s3.is_subgroup(s3.subset_indices(("e", "(123)")))


def test_quotient_group():
    v4 = klein_four()
    q, coset_of = quotient_group(v4, [0, 1])
    assert q.order == 2
    assert coset_of == [0, 0, 1, 1]
    s3 = FiniteGroup.symmetric(3)
    q2, coset2 = quotient_group(s3, s3.subset_indices(("e", "(123)", "(132)")))
    assert q2.order == 2
    with pytest.raises(NotASubgroup):
        quotient_group(s3, s3.subset_indices(("e", "(12)")))  # not normal


# --- function and group algebras --------------------------------------------


def test_function_algebra_flags(algebras):
    F = algebras["f_s3"]
    assert F.is_commutative() and not F.is_cocommutative()
    F6 = algebras["f_z6"]
    assert F6.is_commutative() and F6.is_cocommutative()


def test_group_algebra_flags(algebras):
    C = algebras["c_s3"]
    assert C.is_cocommutative() and not C.is_commutative()
    assert check_axioms(C).ok


def test_preset_haar_matches_solver(algebras):
    """Closed-form Haar states equal the exact solve: uniform on F(G), the
    point mass at the identity on CG, the product state on a tensor product."""
    for name in ("f_s3", "f_d4"):
        H = algebras[name]
        assert compute_haar(H) == [H.field.from_rational(Fraction(1, H.dim))] * H.dim
    C = algebras["c_s3"]
    e = C.meta["group"].identity
    assert compute_haar(C) == [C.field.one if i == e else C.field.zero for i in range(C.dim)]
    T = algebras["f_z2_x_f_z3"]
    A, B = T.meta["factors"]
    assert compute_haar(T) == tensor_vec(compute_haar(A), compute_haar(B))
    for name in ("f_s3", "c_s3", "f_d4", "f_z3_rtimes_z2", "f_z2_x_f_z3"):
        H = algebras[name]
        assert H.haar == compute_haar(H)


def test_group_algebra_haar_is_point_mass():
    C = group_algebra(FiniteGroup.dihedral(4))
    assert C.haar[0].is_one() and all(c.is_zero() for c in C.haar[1:])


def test_function_algebra_haar_is_uniform():
    F = function_algebra(FiniteGroup.cyclic(2))
    half = F.field.from_rational(Fraction(1, 2))
    assert F.haar == [half, half]


def test_group_recovered_from_structure_tensors(algebras):
    F = algebras["f_s3"]
    G = group_of_function_algebra(F)
    assert G.order == 6 and G.labels == list(F.labels)
    with pytest.raises(SchemaError, match="product is not pointwise"):
        group_of_function_algebra(algebras["c_s3"])  # not a function algebra


def test_subgroup_ideal_cases(algebras):
    F = algebras["f_s3"]
    assert subgroup_ideal(F, ("e",)).dim == 5  # functions vanishing at the identity
    assert subgroup_ideal(F, tuple(F.labels)).dim == 0
    assert subgroup_ideal(F, ("e", "(123)", "(132)")).dim == 3
    with pytest.raises(NotASubgroup):
        subgroup_ideal(F, ("e", "(123)"))


# --- tensor products ---------------------------------------------------------


def test_tensor_dimensions_and_axioms(algebras):
    T = algebras["f_z2_x_f_z3"]
    assert T.dim == 6
    assert check_axioms(T).ok
    assert T.field.n == 6  # lifted to the lcm


def test_tensor_of_z2_and_z3_is_z6(algebras):
    # Chinese remainder relabeling k = 3i + 4j identifies the two algebras
    T = algebras["f_z2_x_f_z3"]
    F6 = algebras["f_z6"]
    perm = [(3 * i + 4 * j) % 6 for i in range(2) for j in range(3)]
    for i in range(6):
        assert T.unit[i] == F6.unit[perm[i]]
        assert T.counit[i] == F6.counit[perm[i]]

    def relabeled(entries):
        return {(perm[i], perm[j], perm[k]): c for i, j, k, c in entries}

    # every entry is nonzero, so equal dicts mean equal tensors
    assert relabeled(T.mult_entries()) == {(i, j, k): c for i, j, k, c in F6.mult_entries()}
    assert relabeled(T.comult_entries()) == {(i, j, k): c for i, j, k, c in F6.comult_entries()}


def test_tensor_subgroup_quotient_identity(algebras):
    F = algebras["f_s3"]
    C = group_algebra(FiniteGroup.cyclic(2))
    Q1 = make_subgroup(F, subgroup_ideal(F, ("e", "(123)", "(132)")))
    Q2 = make_subgroup(C, Subspace.zero(C.field, 2))
    QT = tensor_subgroup(Q1, Q2)
    assert QT.parent.dim == 12 and QT.quotient.dim == 6
    assert normality_report(QT).normal
    # coset algebra of the pair equals the tensor of the coset algebras
    A1 = coset_algebras(Q1)[0]
    A2 = coset_algebras(Q2)[0]
    AT = coset_algebras(QT)[0]
    field = QT.parent.field
    lifted = [
        tensor_vec([field.lift(x) for x in b1], [field.lift(x) for x in b2])
        for b1 in A1.basis()
        for b2 in A2.basis()
    ]
    assert AT == Subspace.from_vectors(field, 12, lifted)


def augmentation_ideal(C):
    # span of (gamma - e), the kernel of the counit of a group algebra
    diffs = []
    for i in range(1, C.dim):
        v = [-x for x in basis_vec(C.field, C.dim, 0)]
        v[i] = v[i] + C.field.one
        diffs.append(v)
    return Subspace.from_vectors(C.field, C.dim, diffs)


def test_tensor_with_full_and_trivial_factors(algebras):
    F = algebras["f_z3"]
    C = group_algebra(FiniteGroup.cyclic(2))
    Q1 = make_subgroup(F, Subspace.zero(F.field, 3))  # N1 = G1
    Q2 = make_subgroup(C, augmentation_ideal(C))  # N2 trivial
    QT = tensor_subgroup(Q1, Q2)
    assert QT.quotient.dim == 3 * 1


# --- group actions -----------------------------------------------------------


def test_trivial_action_gives_tensor_structure():
    F = function_algebra(FiniteGroup.symmetric(3))
    Z2 = FiniteGroup.cyclic(2)
    X = crossed_product(F, GroupAction.trivial(Z2, F))
    T = tensor_product(F, group_algebra(Z2))
    assert X.mult == T.mult and X.comult == T.comult
    assert X.unit == T.unit and X.counit == T.counit
    assert X.antipode == T.antipode and X.star == T.star


def test_action_must_be_homomorphism():
    F = function_algebra(klein_four())
    ident = dense_entries(Matrix.identity(F.field, 4).rows)
    bad = dense_entries([[F.field.one] * 4 for _ in range(4)])
    with pytest.raises(SchemaError):
        GroupAction(FiniteGroup.cyclic(2), F, [ident, bad])


def test_action_must_preserve_the_coproduct():
    # swapping 1 <-> 2 and 3 <-> 4 is a *-algebra map of F(Z5) that commutes
    # with S and fixes eps, but it is not an automorphism of Z5
    F = function_algebra(FiniteGroup.cyclic(5))
    perm = [0, 2, 1, 4, 3]
    swap = [[int(i == perm[j]) for j in range(5)] for i in range(5)]
    with pytest.raises(SchemaError, match="^action map 1 does not preserve the coproduct$"):
        GroupAction(
            FiniteGroup.cyclic(2), F, [dense_entries(Matrix.identity(F.field, 5).rows), dense_entries(swap)]
        )


def two_point(counit, antipode, star=((0, 0, 1), (1, 1, 1))):
    """The product and unit of F(Z2) on delta_0, delta_1 with a zero
    coproduct and the given counit, antipode and star entries."""
    return HopfStarAlgebra(1, [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1], [], counit, antipode, star)


IDENT2 = [(0, 0, 1), (1, 1, 1)]
SWAP2 = [(0, 1, 1), (1, 0, 1)]

# (target, the second map of a Z2 action, its message): each map passes the
# checks before the one it fails.  On a Hopf algebra a bijective map that
# preserves unit, product and coproduct also preserves counit and antipode,
# so those two cases act on a two-point algebra with a zero coproduct and a
# counit or antipode that the swap does not fix.
ACTION_FAILURES = {
    # delta_1 -> -delta_1 sends 1 = delta_0 + delta_1 to delta_0 - delta_1
    "unit": (
        lambda: function_algebra(FiniteGroup.cyclic(2)), [(0, 0, 1), (1, 1, -1)],
        "does not fix the unit",
    ),
    # g -> -g on C(Z3) fixes e, but g g2 = e goes to -e
    "product": (
        lambda: group_algebra(FiniteGroup.cyclic(3)), [(0, 0, 1), (1, 1, -1), (2, 2, 1)],
        "is not multiplicative",
    ),
    # delta_1* = delta_0, so swap(delta_1*) = delta_1 but swap(delta_1)* = delta_0
    "star": (
        lambda: two_point([1, 1], IDENT2, star=[(0, 0, 1), (1, 0, 1)]), SWAP2,
        "does not commute with *",
    ),
    # g -> -g on C(Z2) is a *-automorphism, but Delta(g) = g (x) g
    "coproduct": (
        lambda: group_algebra(FiniteGroup.cyclic(2)), [(0, 0, 1), (1, 1, -1)],
        "does not preserve the coproduct",
    ),
    "counit": (lambda: two_point([1, 0], IDENT2), SWAP2, "does not preserve the counit"),
    # S(delta_1) = delta_0, so S(swap(delta_1)) = delta_0 but swap(S(delta_1)) = delta_1
    "antipode": (
        lambda: two_point([1, 1], [(0, 0, 1), (1, 0, 1)]), SWAP2,
        "does not commute with the antipode",
    ),
}


@pytest.mark.parametrize("name", sorted(ACTION_FAILURES))
def test_each_action_failure_is_named(name):
    build, bad, message = ACTION_FAILURES[name]
    A = build()
    ident = [(i, i, 1) for i in range(A.dim)]
    M = GroupAction(FiniteGroup.cyclic(2), A, [ident, bad], validate=False).maps[1]
    assert morphism_failure(A, M, A) == name
    with pytest.raises(SchemaError, match="^action map 1 %s$" % re.escape(message)):
        GroupAction(FiniteGroup.cyclic(2), A, [ident, bad])


def test_inversion_action_needs_abelian(algebras):
    with pytest.raises(SchemaError, match="does not preserve the coproduct"):
        inversion_action(algebras["f_s3"])


def test_inversion_action_needs_a_function_algebra(algebras):
    with pytest.raises(SchemaError, match="^not a function algebra: product is not pointwise$"):
        inversion_action(algebras["c_s3"])


def test_inversion_action_on_a_loaded_algebra_is_call_history_free():
    # the group is recovered from the tensors into the memo, never into meta
    built = function_algebra(FiniteGroup.cyclic(3))
    F = load_algebra(os.path.join(repo_catalog_dir(), "f_z3.hopf.json"))
    assert inversion_action(F).maps == inversion_action(built).maps
    assert F.meta == {}
    G = group_of_function_algebra(F)
    assert F.memo("group", lambda: None) is G


def test_inversion_action_kernel():
    F = function_algebra(FiniteGroup.cyclic(3))
    act = inversion_action(F)
    assert act.kernel_indices() == [0]
    F2 = function_algebra(FiniteGroup.cyclic(2))
    act2 = inversion_action(F2)
    assert act2.kernel_indices() == [0, 1]  # inversion is trivial on Z2


# --- crossed products --------------------------------------------------------


def test_crossed_product_basics(algebras):
    X = algebras["f_z3_rtimes_z2"]
    assert X.dim == 6
    assert check_axioms(X).ok
    assert not X.is_commutative()
    assert X.is_cocommutative()  # the dual of a classical group


def test_crossed_haar_formula(algebras):
    X = algebras["f_z3_rtimes_z2"]
    A = X.meta["inner"]
    h = X.haar
    # h(a gamma) = h_A(a) when gamma = e, else 0
    for i, lbl in enumerate(X.labels):
        a_lbl, g_lbl = lbl.split("|")
        if g_lbl == "e":
            assert h[i] == X.field.lift(A.haar[A.labels.index(a_lbl)])
        else:
            assert h[i].is_zero()
    assert h == compute_haar(X)


def test_crossed_irrep_count(algebras):
    X = algebras["f_z3_rtimes_z2"]
    A = X.meta["inner"]
    n_inner = len(peter_weyl(A).coreps)
    assert len(peter_weyl(X).coreps) == n_inner * X.meta["group"].order


def assert_peter_weyl_spanned_by(X, refs):
    """Every reference corepresentation verifies, and peter_weyl(X) has
    their dimensions and their blocks."""
    for c in refs:
        assert c.verify() is None
    P = peter_weyl(X)
    assert P.dims == sorted(c.dim for c in refs)
    key = Subspace.sort_key
    assert sorted(P.blocks(), key=key) == sorted((c.block() for c in refs), key=key)


def test_tensor_corepresentations_are_products_of_group_likes():
    X = tensor_product(group_algebra(FiniteGroup.symmetric(3)), group_algebra(FiniteGroup.cyclic(3)))
    A, B = X.meta["factors"]
    assert_peter_weyl_spanned_by(A, group_likes(A))
    assert_peter_weyl_spanned_by(B, group_likes(B))
    assert_peter_weyl_spanned_by(X, tensor_coreps(X, peter_weyl(A).coreps, peter_weyl(B).coreps))


@pytest.mark.parametrize("name", ["F(S3)xZ2", "D(S3)"])
def test_crossed_corepresentations_are_inner_ones_times_group_likes(name, s3_crossed, drinfeld_s3):
    X = s3_crossed() if name == "F(S3)xZ2" else drinfeld_s3()
    assert_peter_weyl_spanned_by(X, crossed_coreps(X, peter_weyl(X.meta["inner"]).coreps))


def test_crossed_canonical_subgroup(algebras):
    X = algebras["f_z3_rtimes_z2"]
    Q = crossed_canonical_subgroup(X)
    assert Q.quotient.dim == 2
    rep = normality_report(Q)
    assert rep.agree and rep.normal
    A_XN = coset_algebras(Q)[0]
    assert A_XN.dim == 3
    # the coset algebra is the embedded copy of the inner algebra
    field = X.field
    e_cols = [i for i, lbl in enumerate(X.labels) if lbl.endswith("|e")]
    copy_of_A = Subspace.from_vectors(
        field, X.dim, [basis_vec(field, X.dim, i) for i in e_cols]
    )
    assert A_XN == copy_of_A


def c_z3_inversion_crossed():
    """C(Z3) x| Z2, Z2 acting as g -> g^-1, lifted from Q(zeta_3) to Q(zeta_6)."""
    C = build_algebra("c_z3")
    one = C.field.one
    swap = [((0, one),), ((2, one),), ((1, one),)]
    maps = [map_entries(sparse_identity(C.field, 3)), map_entries(swap)]
    return C, crossed_product(C, GroupAction(FiniteGroup.cyclic(2), C, maps))


def canonical_inputs(name, algebras, s3_crossed, drinfeld_s3):
    if name == "F(S3)xZ2":
        return s3_crossed()
    if name == "D(S3)":
        return drinfeld_s3()
    if name == "C(Z3)xZ2":
        return c_z3_inversion_crossed()[1]
    if name == "F(S3)x{e}":
        F = algebras["f_s3"]
        return crossed_product(F, GroupAction.trivial(FiniteGroup.cyclic(1), F))
    return algebras[name]


@pytest.mark.parametrize("name", ["f_z3_rtimes_z2", "F(S3)xZ2", "D(S3)", "C(Z3)xZ2", "F(S3)x{e}"])
def test_canonical_subgroup_is_the_counit_projection(name, algebras, s3_crossed, drinfeld_s3):
    # the reference is make_subgroup(X, ker P) for P(e_i gamma_t) = eps(e_i) gamma_t
    X = canonical_inputs(name, algebras, s3_crossed, drinfeld_s3)
    A, G = X.meta["inner"], X.meta["group"]
    o = G.order
    P = [((t, A.counit[i]),) if A.counit[i] else () for i in range(A.dim) for t in range(o)]
    ref = make_subgroup(X, sparse_kernel(X.field, o, P))
    Q = crossed_canonical_subgroup(X)

    def constants(H):
        return (H.mult, H.comult, H.unit, H.counit, H.antipode, H.star, H.labels)

    assert Q.parent is X
    assert Q.ideal.rows == ref.ideal.rows
    assert Q.proj_columns == ref.proj_columns
    assert Q.reps == ref.reps
    assert constants(Q.quotient) == constants(ref.quotient)


def test_canonical_is_general_with_full_inner_ideal(algebras):
    X = algebras["f_z3_rtimes_z2"]
    A = X.meta["inner"]
    Qc = crossed_canonical_subgroup(X)
    Qg = crossed_general_subgroup(X, subgroup_ideal(A, ("e",)), ["e"])
    assert Qg.ideal == Qc.ideal
    assert Qg.quotient.dim == Qc.quotient.dim


def test_general_with_zero_ideal_is_everything(algebras):
    # zero inner ideal and trivial K give the full subgroup, not the canonical one
    X = algebras["f_z3_rtimes_z2"]
    A = X.meta["inner"]
    Q = crossed_general_subgroup(X, Subspace.zero(A.field, A.dim), ["e"])
    assert Q.quotient.dim == X.dim
    assert Q.ideal.dim == 0


def test_general_subgroup_lifts_the_inner_ideal():
    # C(Z3) is over Q(zeta_3); crossed by Z2 acting as g -> g^-1 it is lifted
    # to Q(zeta_6).  Its augmentation ideal has the rows e_e - e_g2 and
    # e_g - e_g2, so the lift shows in entries besides the leading ones.
    C, X = c_z3_inversion_crossed()
    A = X.meta["inner"]
    assert (C.field.n, A.field.n) == (3, 6)
    Q = crossed_general_subgroup(X, augmentation_ideal(C), ["e"])
    Q_lifted = crossed_general_subgroup(X, augmentation_ideal(A), ["e"])
    assert Q.ideal.dim > 0 and Q.ideal == Q_lifted.ideal
    inner = Q.meta["inner"].ideal
    assert inner == Q_lifted.meta["inner"].ideal
    assert {c.field.n for row in inner.rows for _j, c in row} == {6}
    for I in (Subspace.zero(A.field, 4), augmentation_ideal(A).basis()):
        with pytest.raises(SchemaError, match="^the inner ideal must be a Subspace of field\\^3$"):
            crossed_general_subgroup(X, I, ["e"])


def klein_action_on_z3():
    F = function_algebra(FiniteGroup.cyclic(3))
    inv = inversion_action(F)
    v4 = klein_four()
    maps = [
        map_entries(inv.maps[1] if pair_label(v4.labels[t])[0] == "g" else inv.maps[0])
        for t in range(4)
    ]
    return F, v4, GroupAction(v4, F, maps)


def test_general_subgroup_with_nontrivial_k():
    F, v4, act = klein_action_on_z3()
    X = crossed_product(F, act)
    assert X.dim == 12 and check_axioms(X).ok
    K = [l for l in v4.labels if pair_label(l)[0] == "e"]
    Q = crossed_general_subgroup(X, Subspace.zero(F.field, 3), K)
    assert Q.quotient.dim == 6
    assert coset_algebras(Q)[0].dim == 2
    assert normality_report(Q).normal
    assert Q.quotient.dim * coset_algebras(Q)[0].dim == X.dim


def test_k_must_act_trivially():
    F, v4, act = klein_action_on_z3()
    X = crossed_product(F, act)
    with pytest.raises(KNotInKernel):
        crossed_general_subgroup(X, Subspace.zero(F.field, 3), ["(e,e)", "(g,e)"])


def test_ideal_must_be_action_invariant():
    v4 = klein_four()
    F = function_algebra(v4)
    swap = {
        i: v4.index_of("(%s,%s)" % tuple(reversed(pair_label(v4.labels[i]))))
        for i in range(4)
    }
    field = F.field
    rows = [
        [field.one if swap[j] == i else field.zero for j in range(4)] for i in range(4)
    ]
    act = GroupAction(
        FiniteGroup.cyclic(2), F, [dense_entries(Matrix.identity(field, 4).rows), dense_entries(rows)]
    )
    X = crossed_product(F, act)
    not_invariant = subgroup_ideal(F, ("(e,e)", "(g,e)"))
    with pytest.raises(InvarianceViolated):
        crossed_general_subgroup(X, not_invariant, ["e"])


def test_inner_pair_must_be_normal(algebras):
    F = algebras["f_s3"]
    X = crossed_product(F, GroupAction.trivial(FiniteGroup.cyclic(1), F))
    with pytest.raises(NotNormalInner):
        crossed_general_subgroup(X, subgroup_ideal(F, ("e", "(12)")), ["e"])


# --- field lifting -----------------------------------------------------------


def test_lift_algebra(algebras):
    F = algebras["f_z2"]
    L = lift_algebra(F, 6)
    assert L.field.n == 6 and L.dim == 2
    assert check_axioms(L).ok
    assert L.unit == tuple(L.field.lift(c) for c in F.unit) or list(L.unit) == [
        L.field.lift(c) for c in F.unit
    ]


def test_lift_requires_divisible_order(algebras):
    with pytest.raises(Exception):
        lift_algebra(algebras["f_z3"], 4)
