import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import hopfcheck
import hopfcheck.structure
import hopfcheck.subgroup
from hopfcheck.catalog import CATALOG_NAMES, build_algebra, build_group
from hopfcheck.constructions import FiniteGroup, lift_algebra, function_algebra, subgroup_ideal
from hopfcheck.corep import peter_weyl
from hopfcheck.errors import NotHopfIdeal, SchemaError, TheoremViolation
from hopfcheck.hopf import (
    HopfStarAlgebra,
    certified_subalgebra,
    check_axioms,
    convolve,
    coproduct_slice,
    counit_unit,
    dual,
)
from hopfcheck.linalg import (
    Matrix,
    Subspace,
    basis_vec,
    sparse_apply,
    sparse_compose,
    sparse_identity,
    sparse_image,
    sparse_kernel,
    sparse_vector,
    zero_vec,
)
from hopfcheck.structure import enumerate_quantum_subgroups, ideal_closure, third_isomorphism_check
from hopfcheck.subgroup import (
    augmentation_part,
    check_hopf_ideal,
    comodule_splitting,
    conditional_expectation,
    coset_algebras,
    exact_sequence_check,
    full_subgroup,
    is_left_a_normal,
    is_normal_coset,
    is_normal_rep,
    is_right_a_normal,
    make_subgroup,
    normality_report,
    phi_map,
    reconstruction_check,
    trivial_subgroup,
)
from hopfcheck.subgroup import _adjoint_terms, _certified_quotient, _coaction, _live_terms

from dense_maps import (
    columns,
    dense_adjoint,
    dense_antipode,
    dense_comult,
    dense_echelon,
    dense_matrix,
    dense_of,
    dense_product,
    dense_star,
    dense_value,
    kron_apply,
    mat_apply,
    matmul,
    reference_convolve,
    reference_counit_unit,
    reference_linear_quotient,
    rebased,
)

A3 = ("e", "(123)", "(132)")
T12 = ("e", "(12)")


def a3_subgroup(algebras):
    H = algebras["f_s3"]
    return make_subgroup(H, subgroup_ideal(H, A3))


def t12_subgroup(algebras):
    H = algebras["f_s3"]
    return make_subgroup(H, subgroup_ideal(H, T12))


def indicator(H, subset):
    field = H.field
    v = zero_vec(field, H.dim)
    for lbl in subset:
        v[H.labels.index(lbl)] = field.one
    return v


# --- construction ------------------------------------------------------------


def test_full_subgroup_is_identity_projection(algebras):
    H = algebras["f_s3"]
    Q = full_subgroup(H)
    assert Q.ideal.dim == 0
    assert Q.quotient.dim == 6
    assert Q.proj_columns == sparse_identity(H.field, 6)


def test_trivial_subgroup_is_counit(algebras):
    H = algebras["f_s3"]
    Q = trivial_subgroup(H)
    assert Q.quotient.dim == 1
    assert Q.ideal.dim == 5
    for i in range(6):
        assert Q.proj_columns[i] == sparse_vector([H.counit[i]])


def test_quotient_by_a3_is_function_algebra_of_a3(algebras):
    Q = a3_subgroup(algebras)
    assert Q.quotient.dim == 3
    assert Q.reps == (0, 3, 4)
    assert Q.quotient.labels == ["e", "(123)", "(132)"]
    # the quotient is F(Z3) lifted to the parent field, rotation = generator
    from hopfcheck.catalog import build_algebra

    model = lift_algebra(build_algebra("f_z3"), 6)
    assert Q.quotient.mult == model.mult
    assert Q.quotient.comult == model.comult
    assert Q.quotient.unit == model.unit
    assert Q.quotient.antipode == model.antipode


def test_projection_restricts_functions(algebras):
    H = algebras["f_s3"]
    Q = a3_subgroup(algebras)
    for i, lbl in enumerate(H.labels):
        img = Q.proj_columns[i]
        if lbl in A3:
            assert img == ((A3.index(lbl), H.field.one),)
        else:
            assert img == ()


def test_ideal_of_another_dimension_is_a_schema_error(algebras):
    H = algebras["f_s3"]
    for I in (Subspace.zero(H.field, 3), Subspace.full(H.field, 8)):
        for decide in (make_subgroup, check_hopf_ideal):
            with pytest.raises(SchemaError, match="^ideal ambient %d != algebra dim 6$" % I.ambient):
                decide(H, I)


def test_ideal_that_is_not_a_subspace_is_a_schema_error(algebras):
    H = algebras["f_s3"]
    vectors = subgroup_ideal(H, A3).basis()
    for decide in (make_subgroup, check_hopf_ideal):
        with pytest.raises(SchemaError, match="^an ideal is a Subspace, not list$"):
            decide(H, vectors)


def test_ideal_is_kernel_of_projection(algebras):
    for Q in (a3_subgroup(algebras), t12_subgroup(algebras)):
        assert Q.ideal == sparse_kernel(Q.parent.field, Q.quotient.dim, Q.proj_columns)


def test_quotient_haar_cross_check(algebras):
    Q = a3_subgroup(algebras)
    third = Q.parent.field.from_rational(Fraction(1, 3))
    assert Q.quotient.haar == [third] * 3
    # h_N(pi(a)) equals averaging over the subgroup
    H = Q.parent
    for i, lbl in enumerate(H.labels):
        expected = third if lbl in A3 else H.field.zero
        assert Q.haar_pi(((i, H.field.one),)) == expected


def test_bad_ideal_raises_with_witness(algebras):
    H = algebras["f_s3"]
    field = H.field
    not_subgroup = Subspace.from_vectors(
        field,
        6,
        [basis_vec(field, 6, H.labels.index(l)) for l in ("(23)", "(12)", "(132)", "(13)")],
    )
    ok, witness = check_hopf_ideal(H, not_subgroup)
    assert not ok and witness["condition"] == "comultiplication"
    with pytest.raises(NotHopfIdeal):
        make_subgroup(H, not_subgroup)


def test_plain_star_ideal_is_not_hopf_ideal(algebras):
    # a central self-adjoint idempotent spans a *-ideal but no Hopf ideal
    C = algebras["c_z3"]
    field = C.field
    third = field.from_rational(Fraction(1, 3))
    w = field.zeta()
    e_w = [third, third * w * w, third * w]
    sparse_e_w = sparse_vector(e_w)
    assert C.product(sparse_e_w, sparse_e_w) == sparse_e_w
    assert C.star_vec(sparse_e_w) == sparse_e_w
    ok, witness = check_hopf_ideal(C, Subspace.from_vectors(field, 3, [e_w]))
    assert not ok
    assert witness["condition"] == "comultiplication"


# --- coset algebras and expectations ------------------------------------------


def test_coset_algebra_extremes(algebras):
    H = algebras["f_s3"]
    A_full, _ = coset_algebras(full_subgroup(H))
    assert A_full == Subspace.from_vectors(H.field, 6, [list(H.unit)])
    A_triv, _ = coset_algebras(trivial_subgroup(H))
    assert A_triv.dim == 6


def test_coset_functions_of_a3(algebras):
    H = algebras["f_s3"]
    A_GN, A_NG = coset_algebras(a3_subgroup(algebras))
    expected = Subspace.from_vectors(
        H.field,
        6,
        [indicator(H, A3), indicator(H, ("(23)", "(12)", "(13)"))],
    )
    assert A_GN == expected
    assert A_NG == expected  # A3 is normal, both sides agree


def test_coset_functions_of_nonnormal_subgroup(algebras):
    H = algebras["f_s3"]
    Q = t12_subgroup(algebras)
    A_GN, A_NG = coset_algebras(Q)
    # left cosets: {e,(12)}, {(123),(13)}, {(132),(23)}
    left = Subspace.from_vectors(
        H.field,
        6,
        [
            indicator(H, ("e", "(12)")),
            indicator(H, ("(123)", "(13)")),
            indicator(H, ("(132)", "(23)")),
        ],
    )
    # right cosets: {e,(12)}, {(123),(23)}, {(132),(13)}
    right = Subspace.from_vectors(
        H.field,
        6,
        [
            indicator(H, ("e", "(12)")),
            indicator(H, ("(123)", "(23)")),
            indicator(H, ("(132)", "(13)")),
        ],
    )
    assert A_GN == left
    assert A_NG == right
    assert A_GN != A_NG


def test_antipode_swaps_coset_sides(algebras):
    H = algebras["f_s3"]
    for Q in (a3_subgroup(algebras), t12_subgroup(algebras)):
        A_GN, A_NG = coset_algebras(Q)
        assert A_GN.map_by(H.antipode, H.dim) == A_NG
        assert A_NG.map_by(H.antipode, H.dim) == A_GN


def test_conditional_expectation_properties(algebras):
    H = algebras["f_s3"]
    for Q in (a3_subgroup(algebras), t12_subgroup(algebras)):
        for side in ("right", "left"):
            E = conditional_expectation(Q, side)
            assert sparse_compose(E, E) == E
            assert sparse_apply(H.field, 6, E, list(H.unit)) == list(H.unit)
            # Haar-compatible: h(E(a)) = h(a)
            for i in range(6):
                assert H.haar_of(E[i]) == H.haar[i]


def test_unknown_side_is_a_schema_error(algebras):
    # a misspelt side is refused rather than read as "left"
    Q = t12_subgroup(algebras)
    assert conditional_expectation(Q, "right") != conditional_expectation(Q, "left")
    for call in (
        lambda: conditional_expectation(Q, "Right"),
        lambda: coproduct_slice(Q.parent, sparse_vector(Q.parent.haar), "middle"),
    ):
        with pytest.raises(SchemaError, match="side"):
            call()


def test_expectation_image_is_coset_algebra(algebras):
    Q = t12_subgroup(algebras)
    A_GN, A_NG = coset_algebras(Q)
    assert sparse_image(Q.parent.field, 6, conditional_expectation(Q, "right")) == A_GN
    assert sparse_image(Q.parent.field, 6, conditional_expectation(Q, "left")) == A_NG


def test_expectation_is_group_averaging(algebras):
    # E(delta_g) = (1/|H|) * indicator of gH
    H = algebras["f_s3"]
    G = build_group("s3")
    Q = t12_subgroup(algebras)
    E = conditional_expectation(Q, "right")
    hidx = [H.labels.index(l) for l in T12]
    half = H.field.from_rational(Fraction(1, 2))
    for g in range(6):
        coset = {G.mul(g, s) for s in hidx}
        expected = [
            half if i in coset else H.field.zero for i in range(6)
        ]
        assert sparse_apply(H.field, 6, E, basis_vec(H.field, 6, g)) == expected


def test_expectation_bimodule_property(algebras):
    H = algebras["f_s3"]
    Q = a3_subgroup(algebras)
    E = conditional_expectation(Q, "right")
    A_GN, _ = coset_algebras(Q)
    for x in A_GN.rows:
        for i in range(6):
            a = ((i, H.field.one),)
            assert sparse_compose(E, [H.product(x, a)]) == [H.product(x, E[i])]


# --- adjoint coactions ----------------------------------------------------------


def adjoint(H, a, side):
    """The nonzero terms {(u, t): c} of _adjoint_terms for the dense vector a
    (the first leg kept), checked against dense_adjoint at index u * d + t."""
    d = H.dim
    live = _live_terms(H, sparse_identity(H.field, d))
    terms = _adjoint_terms(H, sparse_vector(a), side, live, {})
    ad = {k: c for k, c in terms.items() if c}
    assert {u * d + t: c for (u, t), c in ad.items()} == dict(sparse_vector(dense_adjoint(H, a, side)))
    return ad


def test_adjoint_coaction_of_group_like(algebras):
    C = algebras["c_s3"]
    g = basis_vec(C.field, 6, 3)
    assert adjoint(C, g, "left") == {(3, t): u for t, u in enumerate(C.unit) if u}


def test_adjoint_coaction_is_conjugation(algebras):
    H = algebras["f_s3"]
    G = build_group("s3")
    d = 6
    for x in range(d):
        expected = {}
        for c in range(d):
            key = (G.mul(G.mul(c, x), G.inv(c)), G.inv(c))
            expected[key] = expected.get(key, H.field.zero) + H.field.one
        assert adjoint(H, basis_vec(H.field, d, x), "left") == expected


def test_adjoint_coaction_counit_collapse(algebras):
    H = algebras["f_s3"]
    d = H.dim
    for side in ("left", "right"):
        for i in range(d):
            collapsed = zero_vec(H.field, d)
            for (j, k), c in adjoint(H, basis_vec(H.field, d, i), side).items():
                collapsed[j] = collapsed[j] + c * H.counit[k]
            assert collapsed == basis_vec(H.field, d, i)


# --- the four normality criteria --------------------------------------------------


def test_a3_is_normal_every_way(algebras):
    Q = a3_subgroup(algebras)
    rep = normality_report(Q)
    assert rep.agree and rep.normal
    assert rep.rep_criterion and rep.left_a_normal and rep.right_a_normal
    assert rep.coset_equality
    assert rep.trivial_set == (0, 1)


def test_a3_restriction_matrices(algebras):
    # both one dimensional blocks restrict trivially, the two dimensional one dies
    Q = a3_subgroup(algebras)
    rep = normality_report(Q)
    field = Q.parent.field
    assert rep.rep_matrices[0] == Matrix.identity(field, 1)
    assert rep.rep_matrices[1] == Matrix.identity(field, 1)
    assert rep.rep_matrices[2] == Matrix.zeros(field, 2, 2)


def test_t12_fails_every_way(algebras):
    Q = t12_subgroup(algebras)
    rep = normality_report(Q)
    assert rep.agree and not rep.normal
    assert not rep.rep_criterion
    assert not rep.left_a_normal and not rep.right_a_normal
    assert not rep.coset_equality
    # the two dimensional block averages to a rank one idempotent
    M = rep.rep_matrices[2]
    assert matmul(M, M) == M
    assert not M.is_zero()
    assert M != Matrix.identity(Q.parent.field, 2)


def test_extreme_subgroups_are_normal(algebras):
    H = algebras["f_s3"]
    rep_t = normality_report(trivial_subgroup(H))
    assert rep_t.normal and rep_t.trivial_set == (0, 1, 2)
    rep_f = normality_report(full_subgroup(H))
    assert rep_f.normal and rep_f.trivial_set == (peter_weyl(H).triv_index,)


def test_normality_gauge_independent(algebras):
    H = algebras["f_s3"]
    P2 = peter_weyl(H, gauge=2)
    for Q in (a3_subgroup(algebras), t12_subgroup(algebras)):
        base = normality_report(Q)
        again = normality_report(Q, P2)
        assert again.normal == base.normal
        assert again.trivial_set == base.trivial_set


def test_peter_weyl_data_of_another_algebra_is_rejected(algebras):
    # f_s3 and c_s3 both have dimension 6, so nothing else tells them apart
    P = peter_weyl(algebras["c_s3"])
    for Q in (a3_subgroup(algebras), t12_subgroup(algebras)):
        for check in (is_normal_rep, normality_report):
            with pytest.raises(SchemaError, match="^the Peter-Weyl data belong to another algebra$"):
                check(Q, P)


def test_fast_path_matches_report(algebras):
    for Q in (a3_subgroup(algebras), t12_subgroup(algebras)):
        assert is_normal_coset(Q) == normality_report(Q).normal
        ok, _ = is_normal_rep(Q)
        assert ok == is_left_a_normal(Q) == is_right_a_normal(Q)


# --- reconstruction, splitting, exactness -----------------------------------------


def test_reconstruction_for_normal_subgroups(algebras):
    H = algebras["f_s3"]
    for Q in (a3_subgroup(algebras), trivial_subgroup(H), full_subgroup(H)):
        assert reconstruction_check(Q)


def test_comodule_splitting_sections_projection(algebras):
    H = algebras["f_s3"]
    for Q in (a3_subgroup(algebras), t12_subgroup(algebras), trivial_subgroup(H)):
        s = comodule_splitting(Q)
        assert sparse_compose(Q.proj_columns, s) == sparse_identity(H.field, Q.quotient.dim)


def dense_colinear(Q, s):
    """(id (x) pi) Delta_G s = (s (x) id) Delta_N, on dense vectors."""
    H, N = Q.parent, Q.quotient
    d, q = H.dim, N.dim
    s = columns(dense_matrix(H.field, d, s))
    for col in range(q):
        v = s[col]
        lhs = zero_vec(H.field, d * q)
        for i in range(d):
            if v[i].is_zero():
                continue
            for j, k, c in H.comult[i]:
                for t, p in Q.proj_columns[k]:
                    lhs[j * q + t] = lhs[j * q + t] + v[i] * c * p
        rhs = zero_vec(H.field, d * q)
        for j, k, c in N.comult[col]:
            sj = s[j]
            for a in range(d):
                rhs[a * q + k] = rhs[a * q + k] + c * sj[a]
        if lhs != rhs:
            return False
    return True


def test_comodule_splitting_is_comodule_map(s3_crossed, drinfeld_s3):
    # every lattice subgroup of the catalog, F(S3) x| Z2, D(S3) and a
    # rebased F(S3) x| Z2
    inputs = [build_algebra(name) for name in sorted(CATALOG_NAMES)]
    inputs += [s3_crossed(), drinfeld_s3()]
    inputs.append(rebased(s3_crossed(), random.Random("certificate F(S3)xZ2 rebased")))
    count = 0
    for H in inputs:
        for Q in enumerate_quantum_subgroups(H):
            s = comodule_splitting(Q)
            assert sparse_compose(Q.proj_columns, s) == sparse_identity(H.field, Q.quotient.dim)
            assert dense_colinear(Q, s)
            count += 1
    assert count == 36 + 7 + 8 + 7


def test_comodule_splitting_needs_an_invariant_haar_state(monkeypatch):
    # the counit in place of the Haar state of N (normalized, not invariant)
    # averages the canonical section to itself, which is not colinear on a
    # rebased F(S3); twice the Haar state (invariant, not normalized)
    # breaks pi s = id.  Both checks raise under python -O too.
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import random\n"
        "from hopfcheck.catalog import build_algebra\n"
        "from hopfcheck.errors import TheoremViolation\n"
        "from hopfcheck.structure import enumerate_quantum_subgroups\n"
        "from hopfcheck.subgroup import comodule_splitting, make_subgroup\n"
        "from dense_maps import rebased\n"
        "assert False, 'asserts are live'\n"
        "H = rebased(build_algebra('f_s3'), random.Random('splitting'))\n"
        "Q = next(Q for Q in enumerate_quantum_subgroups(H) if Q.quotient.dim == 3)\n"
        "N = Q.quotient\n"
        "for fake in (list(N.counit), [x + x for x in N.haar]):\n"
        "    Q = make_subgroup(H, Q.ideal)\n"
        "    Q.quotient._memo['haar'] = fake\n"
        "    try:\n"
        "        comodule_splitting(Q)\n"
        "    except TheoremViolation as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "the comodule splitting is not colinear",
        "the comodule splitting is not a section of pi",
    ]
    H = rebased(build_algebra("f_s3"), random.Random("splitting"))
    Q = next(Q for Q in enumerate_quantum_subgroups(H) if Q.quotient.dim == 3)
    assert dense_colinear(Q, comodule_splitting(Q))
    monkeypatch.setitem(Q.quotient._memo, "haar", list(Q.quotient.counit))
    with pytest.raises(TheoremViolation, match="not colinear"):
        comodule_splitting(Q)


def test_phi_map_runs_for_all_subgroup_kinds(algebras):
    H = algebras["f_s3"]
    # internal identities are asserted inside phi_map, for normal and not
    for Q in (
        a3_subgroup(algebras),
        t12_subgroup(algebras),
        trivial_subgroup(H),
        full_subgroup(H),
    ):
        phi = phi_map(Q)
        A_GN, _ = coset_algebras(Q)
        for i in range(H.dim):
            assert A_GN.echelon().contains(phi[i])


def test_phi_of_full_subgroup_is_counit_unit(algebras):
    H = algebras["f_s3"]
    assert phi_map(full_subgroup(H)) == counit_unit(H)
    assert dense_matrix(H.field, H.dim, counit_unit(H)) == reference_counit_unit(H)


def test_exact_sequence(algebras):
    H = algebras["f_s3"]
    assert exact_sequence_check(a3_subgroup(algebras))
    assert exact_sequence_check(trivial_subgroup(H))
    assert exact_sequence_check(full_subgroup(H))
    assert not exact_sequence_check(t12_subgroup(algebras))


def test_dimension_multiplicativity(algebras):
    Q = a3_subgroup(algebras)
    A_GN, _ = coset_algebras(Q)
    assert Q.parent.dim == A_GN.dim * Q.quotient.dim


# --- augmentation --------------------------------------------------------------


def test_augmentation_part(algebras):
    H = algebras["f_s3"]
    A_GN, _ = coset_algebras(a3_subgroup(algebras))
    plus = augmentation_part(H, A_GN)
    assert plus.dim == 1
    for v in plus.rows:
        assert H.counit_of(v).is_zero()
    assert plus <= A_GN
    full = augmentation_part(H, Subspace.full(H.field, 6))
    assert full.dim == 5


# --- checks survive python -O -----------------------------------------------------


def test_coset_disagreement_raises_under_optimize(monkeypatch):
    # each fault breaks one check of the coset certificate: a zero
    # expectation has an image of the wrong dimension; on the non-normal t12,
    # the left expectation passed off as the right one has the right
    # dimension but is not coinvariant
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    code = (
        "import hopfcheck.subgroup as subgroup\n"
        "from hopfcheck.constructions import FiniteGroup, function_algebra, subgroup_ideal\n"
        "from hopfcheck.errors import TheoremViolation\n"
        "assert False, 'asserts are live'\n"
        "H = function_algebra(FiniteGroup.symmetric(3))\n"
        "real = subgroup.conditional_expectation\n"
        "faults = [\n"
        "    (('e', '(123)', '(132)'), lambda Q, side='right': [()] * H.dim),\n"
        "    (('e', '(12)'), lambda Q, side='right': real(Q, 'left')),\n"
        "]\n"
        "for subset, fault in faults:\n"
        "    Q = subgroup.make_subgroup(H, subgroup_ideal(H, subset))\n"
        "    subgroup.conditional_expectation = fault\n"
        "    try:\n"
        "        subgroup.coset_algebras(Q)\n"
        "    except TheoremViolation as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    zero, swapped = proc.stdout.splitlines()
    assert "dimension" in zero and "not coinvariant" in swapped
    H = function_algebra(FiniteGroup.symmetric(3))
    Q = make_subgroup(H, subgroup_ideal(H, A3))
    monkeypatch.setattr(
        hopfcheck.subgroup,
        "conditional_expectation",
        lambda Q, side="right": [()] * H.dim,
    )
    with pytest.raises(TheoremViolation, match="dimension"):
        coset_algebras(Q)
    Q = make_subgroup(H, subgroup_ideal(H, T12))
    monkeypatch.setattr(
        hopfcheck.subgroup,
        "conditional_expectation",
        lambda Q, side="right": conditional_expectation(Q, "left"),
    )
    with pytest.raises(TheoremViolation, match="not coinvariant"):
        coset_algebras(Q)


# --- the morphism certificate of a verified parent ------------------------------


def _random_vector(H, rng):
    field = H.field
    coeffs = [field.zero, field.zero, field.one, -field.one, field.scalar(2), field.zeta()]
    return [rng.choice(coeffs) for _ in range(H.dim)]


def _random_subspaces(H, rng, count):
    """Zero, the whole algebra, the lattice ideals and their sums, random
    spans and coordinate subspaces, one-sided and generated two-sided ideals,
    and the two-sided ideals annihilating random sets of dual blocks."""
    field, d = H.field, H.dim
    ideals = [Q.ideal for Q in enumerate_quantum_subgroups(H)]
    dual_blocks = peter_weyl(dual(H)).blocks()
    out = [Subspace.zero(field, d), Subspace.full(field, d)] + ideals
    while len(out) < count:
        kind = rng.randrange(6)
        if kind == 0:
            idx = rng.sample(range(d), rng.randrange(1, d))
            out.append(Subspace.from_vectors(field, d, [basis_vec(field, d, i) for i in idx]))
        elif kind == 1:
            vecs = [_random_vector(H, rng) for _ in range(rng.randrange(1, d))]
            out.append(Subspace.from_vectors(field, d, vecs))
        elif kind == 2:
            out.append(rng.choice(ideals).sum_with(rng.choice(ideals)))
        elif kind == 3:
            seed = Subspace.from_vectors(field, d, [_random_vector(H, rng)])
            out.append(ideal_closure(H, seed))
        elif kind == 4:
            v = _random_vector(H, rng)
            e = [basis_vec(field, d, i) for i in range(d)]
            side = [dense_product(H, x, v) for x in e] if rng.random() < 0.5 else [dense_product(H, v, x) for x in e]
            out.append(Subspace.from_vectors(field, d, side))
        else:
            chosen = rng.sample(dual_blocks, rng.randrange(1, len(dual_blocks)))
            rows = [row for B in chosen for row in B.basis()]
            out.append(Matrix.from_rows(field, rows, ncols=d).kernel())
    return out


def certificate_input(name, s3_crossed, rng):
    """A catalog algebra, or F(S3)x|Z2, optionally rebased by rng."""
    base = name.split()[0]
    H = s3_crossed() if base == "F(S3)xZ2" else build_algebra(base)
    return rebased(H, rng) if name.endswith("rebased") else H


CERTIFICATE_INPUTS = sorted(CATALOG_NAMES) + ["F(S3)xZ2", "F(S3)xZ2 rebased", "c_s3 rebased"]


def dense_hopf_ideal_condition(G, I):
    """The first Hopf *-ideal condition that I fails, or None, tested on
    dense vectors: products with every basis element, *, the dense
    (pi (x) pi) Delta, eps and S of each basis vector of I."""
    d = G.dim
    basis = I.basis()
    ech = dense_echelon(G.field, d, basis)
    for b in basis:
        for i in range(d):
            e = basis_vec(G.field, d, i)
            if not (ech.contains(dense_product(G, e, b)) and ech.contains(dense_product(G, b, e))):
                return "two_sided_ideal"
    if not all(ech.contains(dense_star(G, b)) for b in basis):
        return "star_closed"
    proj, _reps = reference_linear_quotient(I)
    if any(any(kron_apply(proj, proj, dense_comult(G, b))) for b in basis):
        return "comultiplication"
    if any(dense_value(G.field, G.counit, b) for b in basis):
        return "counit"
    if not all(ech.contains(dense_antipode(G, b)) for b in basis):
        return "antipode"
    return None


@pytest.mark.parametrize("name", CERTIFICATE_INPUTS)
def test_certificate_matches_hopf_ideal_check(name, s3_crossed, monkeypatch):
    rng = random.Random("certificate " + name)
    H = certificate_input(name, s3_crossed, rng)
    assert check_axioms(H).ok and H.verified
    subspaces = _random_subspaces(H, rng, 60)

    def forbidden(*args):
        raise AssertionError("a verified parent must not run the full checks")

    monkeypatch.setattr(hopfcheck.subgroup, "check_hopf_ideal", forbidden)
    monkeypatch.setattr(hopfcheck.subgroup, "check_axioms", forbidden)
    seen = set()
    for I in subspaces:
        want = dense_hopf_ideal_condition(H, I)
        try:
            Q = make_subgroup(H, I)
            got = None
        except NotHopfIdeal as exc:
            got = re.fullmatch(r"the (\w+) condition fails", str(exc)).group(1)
        assert got == want, I
        if got is None:
            assert Q.quotient.verified and Q.ideal == I
        seen.add(want)
    assert None in seen and len(seen) >= 3


def test_certificate_rejects_a_corrupted_quotient_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    code = (
        "import hopfcheck.hopf as hopf\n"
        "import hopfcheck.subgroup as subgroup\n"
        "from hopfcheck.constructions import FiniteGroup, function_algebra, subgroup_ideal\n"
        "from hopfcheck.errors import NotHopfIdeal\n"
        "from hopfcheck.hopf import check_axioms\n"
        "assert False, 'asserts are live'\n"
        "H = function_algebra(FiniteGroup.symmetric(3))\n"
        "print(check_axioms(H).ok)\n"
        "I = subgroup_ideal(H, ('e', '(123)', '(132)'))\n"
        "def forbidden(*args):\n"
        "    raise RuntimeError('full path taken')\n"
        "subgroup.check_hopf_ideal = subgroup.check_axioms = forbidden\n"
        "real = hopf.HopfStarAlgebra\n"
        "names = ('mult', 'unit', 'comult', 'counit', 'antipode', 'star')\n"
        "for name in (None, 'mult', 'comult', 'counit', 'antipode', 'star'):\n"
        "    def corrupt(field, *maps, labels, name=name):\n"
        "        maps = list(maps)\n"
        "        if name not in (None, 'unit', 'counit'):\n"
        "            t = {e[:-1]: e[-1] for e in maps[names.index(name)]}\n"
        "            k0 = (0, 0) if name in ('antipode', 'star') else (0, 0, 0)\n"
        "            t[k0] = t.get(k0, field.zero) + field.one\n"
        "            maps[names.index(name)] = [k + (c,) for k, c in t.items()]\n"
        "        elif name is not None:\n"
        "            m = maps[names.index(name)]\n"
        "            while isinstance(m[0], list):\n"
        "                m = m[0]\n"
        "            m[0] = m[0] + field.one\n"
        "        return real(field, *maps, labels=labels)\n"
        "    hopf.HopfStarAlgebra = corrupt\n"
        "    try:\n"
        "        subgroup.make_subgroup(H, I)\n"
        "        print(name, 'accepted')\n"
        "    except NotHopfIdeal as exc:\n"
        "        print(name, exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "True",
        "None accepted",
        "mult the two_sided_ideal condition fails",
        "comult the comultiplication condition fails",
        "counit the counit condition fails",
        "antipode the antipode condition fails",
        "star the star_closed condition fails",
    ]


# --- induced structure against a dense reference ---------------------------------


def dense_induced(G, section, retract, labels):
    """The structure induced through the dense section vectors and the
    dense retraction retract, computed on dense vectors."""
    d = G.dim

    def pair(w):
        """(retract (x) retract) of a flat d*d tensor, as a dict."""
        rows = [retract(w[j * d:(j + 1) * d]) for j in range(d)]
        cols = [retract([row[v] for row in rows]) for v in range(len(section))]
        return {(u, v): col[u] for v, col in enumerate(cols) for u in range(len(section))}

    def entries(vec_of):
        return [(a, j, c) for a, x in enumerate(section) for j, c in enumerate(retract(vec_of(G, x)))]

    mult = [
        (a, b, k, c)
        for a, x in enumerate(section)
        for b, y in enumerate(section)
        for k, c in enumerate(retract(dense_product(G, x, y)))
    ]
    comult = [(a, u, v, c) for a, x in enumerate(section) for (u, v), c in pair(dense_comult(G, x)).items()]
    return HopfStarAlgebra(
        G.field, mult, retract(list(G.unit)), comult, [dense_value(G.field, G.counit, x) for x in section],
        entries(dense_antipode), entries(dense_star), labels=labels,
    )


def same_structure(A, B):
    return all(
        getattr(A, name) == getattr(B, name)
        for name in ("mult", "unit", "comult", "counit", "antipode", "star", "labels")
    )


def test_quotient_unit_failure_is_a_theorem_violation(monkeypatch):
    # the projection maps 1 to the unit it induces, so a quotient whose unit
    # differs is a fault of the construction, not a condition on the ideal
    H = function_algebra(FiniteGroup.symmetric(3))
    I = subgroup_ideal(H, ("e", "(123)", "(132)"))
    real = hopfcheck.subgroup.induced_algebra

    def wrong_unit(*args, **kwargs):
        N = real(*args, **kwargs)
        unit = [u + N.field.one if t == 0 else u for t, u in enumerate(N.unit)]
        return HopfStarAlgebra(
            N.field, N.mult_entries(), unit, N.comult_entries(), N.counit,
            N.antipode_entries(), N.star_entries(), labels=N.labels,
        )

    monkeypatch.setattr(hopfcheck.subgroup, "induced_algebra", wrong_unit)
    for decide in (make_subgroup, check_hopf_ideal):
        with pytest.raises(TheoremViolation, match="unit"):
            decide(H, I)


@pytest.mark.parametrize("name", sorted(CATALOG_NAMES) + ["F(S3)xZ2", "c_s3 rebased"])
def test_induced_algebra_matches_dense_reference(name, s3_crossed):
    rng = random.Random("certificate " + name)
    H = certificate_input(name, s3_crossed, rng)
    field, d = H.field, H.dim
    subspaces = _random_subspaces(H, rng, 12)
    for Q in enumerate_quantum_subgroups(H):
        subspaces += coset_algebras(Q)
    for V in subspaces:
        _proj, reps, quotient, _failed = _certified_quotient(H, V)
        proj, _reps = reference_linear_quotient(V)
        units = [basis_vec(field, d, r) for r in reps]
        reference = dense_induced(H, units, lambda v: mat_apply(proj, v), [H.labels[r] for r in reps])
        assert same_structure(quotient, reference)
        sub, _incl, _failed = certified_subalgebra(H, V)
        labels = ["b%d" % a for a in range(V.dim)]
        reference = dense_induced(H, V.basis(), lambda v: [v[p] for p in V.pivots], labels)
        assert same_structure(sub, reference)


# --- sparse normality criteria against a dense reference -------------------------


def dense_coset_algebras(Q):
    """(A_GN, A_NG) as invariance kernels of dense d*dn tensors."""
    G, field, d, dn = Q.parent, Q.parent.field, Q.parent.dim, Q.quotient.dim
    ident = Matrix.identity(field, d)
    proj, _reps = reference_linear_quotient(Q.ideal)
    unit_N = list(Q.quotient.unit)
    cols_r, cols_l = [], []
    for i in range(d):
        delta = dense_comult(G, basis_vec(field, d, i))
        w = kron_apply(ident, proj, delta)
        v = kron_apply(proj, ident, delta)
        for b in range(dn):
            w[i * dn + b] = w[i * dn + b] - unit_N[b]
            v[b * d + i] = v[b * d + i] - unit_N[b]
        cols_r.append(w)
        cols_l.append(v)
    return tuple(
        Matrix.from_rows(field, [[cols[i][t] for i in range(d)] for t in range(d * dn)], ncols=d).kernel()
        for cols in (cols_r, cols_l)
    )


def dense_expectation(Q, side):
    """The conditional expectation from the coproduct entries and dense pi."""
    G, field, d = Q.parent, Q.parent.field, Q.parent.dim
    proj, _reps = reference_linear_quotient(Q.ideal)
    hpi = [dense_value(field, Q.quotient.haar, mat_apply(proj, basis_vec(field, d, k))) for k in range(d)]
    E = Matrix.zeros(field, d, d)
    for i in range(d):
        for j, k, c in G.comult[i]:
            if side == "right":
                E.rows[j][i] = E.rows[j][i] + c * hpi[k]
            else:
                E.rows[k][i] = E.rows[k][i] + c * hpi[j]
    return E


def dense_a_normal(Q, side):
    ident = Matrix.identity(Q.parent.field, Q.parent.dim)
    proj, _reps = reference_linear_quotient(Q.ideal)
    products = {}
    return not any(
        any(kron_apply(proj, ident, dense_adjoint(Q.parent, b, side, products)))
        for b in Q.ideal.basis()
    )


@pytest.mark.parametrize("name", CERTIFICATE_INPUTS)
def test_sparse_criteria_match_dense_reference(name, s3_crossed):
    # the same rebased inputs as the certificate test
    rng = random.Random("certificate " + name)
    H = certificate_input(name, s3_crossed, rng)
    d = H.dim
    for Q in enumerate_quantum_subgroups(H):
        assert coset_algebras(Q) == dense_coset_algebras(Q)
        for side in ("right", "left"):
            E = dense_expectation(Q, side)
            assert dense_matrix(H.field, d, conditional_expectation(Q, side)) == E
            assert sparse_image(H.field, d, conditional_expectation(Q, side)) == E.image()
        assert is_left_a_normal(Q) == dense_a_normal(Q, "left")
        assert is_right_a_normal(Q) == dense_a_normal(Q, "right")
        for k in range(d):
            assert Q.haar_pi(((k, H.field.one),)) == Q.quotient.haar_of(Q.proj_columns[k])
    for _ in range(3):
        a = _random_vector(H, rng)
        for side in ("left", "right"):
            adjoint(H, a, side)  # asserts the match with dense_adjoint


@pytest.mark.parametrize("name", CERTIFICATE_INPUTS)
def test_live_adjoint_terms_match_dense_reference(name, s3_crossed):
    # (pi (x) id) ad(b) walked through the live legs of the leg index only,
    # against dense_adjoint projected on its first leg, for the ideal rows of
    # every quantum subgroup and two random vectors, on both sides; the
    # dense ad(b) is the combination of the dense ad(e_i), since ad is linear
    rng = random.Random("certificate " + name)
    H = certificate_input(name, s3_crossed, rng)
    field, d = H.field, H.dim
    rng = random.Random("adjoint " + name)
    vectors = [sparse_vector(_random_vector(H, rng)) for _ in range(2)]
    basis_ad = {}
    for side in ("left", "right"):
        products = {}
        basis_ad[side] = [dense_adjoint(H, basis_vec(field, d, i), side, products) for i in range(d)]
    for Q in enumerate_quantum_subgroups(H):
        proj, _reps = reference_linear_quotient(Q.ideal)
        live = _live_terms(H, Q.proj_columns)
        assert sum(map(len, live)) == sum(
            1 for terms in H.comult for y, _, _ in terms if Q.proj_columns[y]
        )
        for side in ("left", "right"):
            products = {}
            for b in list(Q.ideal.rows) + vectors:
                got = _adjoint_terms(H, b, side, live, products)
                ad = zero_vec(field, d * d)
                for i, x in b:
                    ad = [v + x * w for v, w in zip(ad, basis_ad[side][i])]
                want = {}
                for u, row in enumerate(proj.rows):
                    for y, p in enumerate(row):
                        if p:
                            for t in range(d):
                                want[u * d + t] = want.get(u * d + t, field.zero) + p * ad[y * d + t]
                assert {u * d + t: c for (u, t), c in got.items() if c} == {
                    k: c for k, c in want.items() if c
                }


@pytest.mark.parametrize("name", CERTIFICATE_INPUTS)
def test_coaction_matches_dense_reference(name, s3_crossed):
    # on the rebased inputs the projection columns are dense, so few terms
    # of the coproduct are skipped; on the others most are
    rng = random.Random("certificate " + name)
    H = certificate_input(name, s3_crossed, rng)
    field, d = H.field, H.dim
    ident = Matrix.identity(field, d)
    rng = random.Random("coaction " + name)
    for Q in enumerate_quantum_subgroups(H):
        dn = Q.quotient.dim
        proj, _reps = reference_linear_quotient(Q.ideal)
        # random vectors, and the coinvariant rows of both coset algebras
        vectors = [sparse_vector(_random_vector(H, rng)) for _ in range(4)]
        vectors += [row for A in coset_algebras(Q) for row in A.rows]
        for a in vectors:
            delta = dense_comult(H, dense_of(H, a))
            right = _coaction(Q, a, "right")
            left = _coaction(Q, a, "left")
            assert all(right.values()) and all(left.values())
            want = sparse_vector(kron_apply(ident, proj, delta))
            assert {j * dn + b: c for (j, b), c in right.items()} == dict(want)
            want = sparse_vector(kron_apply(proj, ident, delta))
            assert {b * d + j: c for (j, b), c in left.items()} == dict(want)


@pytest.mark.parametrize("name", ["f_d4", "F(S3)xZ2"])
def test_adjoint_products_are_computed_once_per_algebra(name, s3_crossed, monkeypatch):
    H = s3_crossed() if name == "F(S3)xZ2" else build_algebra(name)
    real = hopfcheck.subgroup._adjoint_product
    calls = []

    def counted(G, x, z, side):
        assert G is H
        calls.append((side, x, z))
        return real(G, x, z, side)

    monkeypatch.setattr(hopfcheck.subgroup, "_adjoint_product", counted)
    subs = enumerate_quantum_subgroups(H)
    P = peter_weyl(H)
    first = [normality_report(Q, P).as_dict() for Q in subs]
    assert calls and len(calls) == len(set(calls)) <= 2 * H.dim ** 2
    made = len(calls)
    second = [normality_report(Q, P).as_dict() for Q in reversed(subs)]
    assert second == first[::-1]
    assert len(calls) == made
    # one memo per side, holding exactly the products computed on that side
    for side in ("left", "right"):
        products = H.memo("adjoint_products_" + side, dict)
        assert sorted(products) == sorted((x, z) for s, x, z in calls if s == side)
        assert all(prod == real(H, x, z, side) for (x, z), prod in products.items())
        for Q in subs:
            live = _live_terms(H, Q.proj_columns)
            for b in Q.ideal.rows:
                shared = _adjoint_terms(H, b, side, live, products)
                assert shared == _adjoint_terms(H, b, side, live, {})


# --- sparse maps against their dense recipes ------------------------------------


@pytest.mark.parametrize("name", sorted(CATALOG_NAMES) + ["F(S3)xZ2", "c_s3 rebased"])
def test_sparse_maps_match_dense_recipes(name, s3_crossed, monkeypatch):
    rng = random.Random("certificate " + name)
    H = certificate_input(name, s3_crossed, rng)
    field, d = H.field, H.dim
    subs = enumerate_quantum_subgroups(H)
    S = dense_matrix(field, d, H.antipode)
    for Q in subs:
        # the projection read off the echelon rows, against reducing each e_j
        proj, reps = reference_linear_quotient(Q.ideal)
        assert Q.reps == reps
        assert dense_matrix(field, Q.quotient.dim, Q.proj_columns) == proj
        # phi = (s pi) * S, against the dense convolution
        s = comodule_splitting(Q)
        SP = matmul(dense_matrix(field, d, s), proj)
        phi = reference_convolve(H, SP, S)
        assert dense_matrix(field, d, convolve(H, sparse_compose(s, Q.proj_columns), H.antipode)) == phi
        assert dense_matrix(field, d, phi_map(Q, s)) == phi

    # pi1 of third-iso, the first induced map it builds, against N.proj * H.section
    maps = []
    real = hopfcheck.structure._induced_map

    def recording(I, J):
        phi = real(I, J)
        maps.append(dense_matrix(field, J.quotient.dim, phi))
        return phi

    monkeypatch.setattr(hopfcheck.structure, "_induced_map", recording)
    chains = 0
    for N in subs:
        if not is_normal_coset(N):
            continue
        PN, _reps = reference_linear_quotient(N.ideal)
        for K in subs:
            if not K.ideal <= N.ideal:
                continue
            maps.clear()
            third_isomorphism_check(H, N, K)
            section = Matrix.from_rows(
                field, [[field.one if i == r else field.zero for r in K.reps] for i in range(d)]
            )
            pi1 = matmul(PN, section)
            assert matmul(pi1, reference_linear_quotient(K.ideal)[0]) == PN
            assert maps[0] == pi1
            chains += 1
    assert chains >= 2


def test_normality_report_needs_no_dense_tensor():
    Z2 = FiniteGroup.cyclic(2)
    H = function_algebra(FiniteGroup.direct_product(FiniteGroup.direct_product(Z2, Z2), Z2))
    subs = enumerate_quantum_subgroups(H)
    P = peter_weyl(H)
    P.blocks()
    # subgroup binds no dense vector builder, so none can run below
    assert not {"zero_vec", "basis_vec", "tensor_vec"} & set(vars(hopfcheck.subgroup))
    assert len(subs) == 16
    for Q in subs:
        report = normality_report(Q, P)
        assert report.agree
        assert report.normal == is_normal_coset(Q)
