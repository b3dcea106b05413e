import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import hopfcheck
from hopfcheck.catalog import CATALOG_NAMES, build_algebra
from hopfcheck.constructions import (
    FiniteGroup,
    function_algebra,
    group_algebra,
    lift_algebra,
    tensor_product,
)
from hopfcheck.corep import Corepresentation, peter_weyl
from hopfcheck.cyclotomic import CycField
from hopfcheck.errors import NotCosemisimple, SchemaError
from hopfcheck.structure import enumerate_quantum_subgroups
from hopfcheck.hopf import (
    HopfStarAlgebra,
    _dual_generators,
    _generators,
    _invariance,
    _solve_haar,
    _star_antimult_failures,
    check_axioms,
    compute_haar,
    comult_legs,
    convolve,
    coproduct_slice,
    counit_unit,
    dual,
    linear_quotient,
    sub_hopf_algebra,
    tensor_apply,
)
from hopfcheck.linalg import (
    Matrix,
    Subspace,
    basis_vec,
    sparse_apply,
    sparse_compose,
    sparse_identity,
    sparse_vector,
    zero_vec,
)

from dense_maps import (
    DenseEchelon,
    assert_sparse,
    columns,
    dense_antipode,
    dense_matrix,
    dense_of,
    dense_product,
    dense_star,
    filtering_coproduct_slice,
    filtering_product,
    kron_apply,
    random_sparse,
    rebased,
    reference_antipode,
    reference_antipode_star_involution,
    reference_associativity,
    reference_coassociativity,
    reference_comult_multiplicative,
    reference_comult_unital,
    reference_corep_failure,
    reference_counit,
    reference_counit_multiplicative,
    reference_involution,
    reference_star_antimultiplicative,
    reference_star_comultiplicative,
    reference_star_counit,
    reference_convolve,
    reference_coproduct_slice,
    reference_counit_unit,
    reference_linear_quotient,
    sparse_of,
)

AXIOM_NAMES = {
    "antipode_involutive",
    "antipode_left",
    "antipode_right",
    "antipode_star_involution",
    "associativity",
    "coassociativity",
    "comult_multiplicative",
    "comult_unital",
    "counit",
    "counit_multiplicative",
    "counit_unital",
    "haar_exists",
    "haar_positive",
    "haar_star",
    "haar_tracial",
    "star_antimultiplicative",
    "star_comultiplicative",
    "star_counit",
    "star_involution",
    "unit",
}


def sweedler_four_dim():
    """The smallest Hopf algebra that is neither commutative nor cocommutative.

    Basis (1, g, x, gx) with g*g = 1, x*x = 0, x g = -g x; the star slot is
    filled with the identity map, which is not a valid involution here.
    """
    field = CycField(1)
    one, zero = field.one, field.zero
    d = 4
    mult = [(0, j, j, 1) for j in range(d)] + [(j, 0, j, 1) for j in range(1, d)]
    mult += [(1, 1, 0, 1), (1, 2, 3, 1), (1, 3, 2, 1), (2, 1, 3, -1), (3, 1, 2, -1)]
    comult = [(0, 0, 0, 1), (1, 1, 1, 1), (2, 2, 0, 1), (2, 1, 2, 1), (3, 3, 1, 1), (3, 0, 3, 1)]

    unit = [one, zero, zero, zero]
    counit = [one, one, zero, zero]
    # S(1) = 1, S(g) = g, S(x) = -gx, S(gx) = x
    anti = [(0, 0, one), (1, 1, one), (2, 3, -one), (3, 2, one)]
    star = [(i, i, one) for i in range(d)]
    return HopfStarAlgebra(
        field, mult, unit, comult, counit, anti, star, labels=["1", "g", "x", "gx"]
    )


# --- sparse structure constants --------------------------------------------


def rebuilt(H, mult, comult, star=None):
    """H with its product, coproduct and (when given) star replaced by the
    given entries."""
    star = H.star_entries() if star is None else star
    return HopfStarAlgebra(
        H.field, mult, H.unit, comult, H.counit, H.antipode_entries(), star, labels=H.labels
    )


def test_constructor_sorts_entries_and_drops_zeros():
    F = build_algebra("f_s3")
    zero = F.field.zero
    mult = list(reversed(F.mult_entries())) + [(0, 1, 2, zero), (5, 5, 0, 0)]
    comult = [(i, j, k, c.as_fraction()) for i, j, k, c in reversed(F.comult_entries())]
    H = rebuilt(F, mult, comult)
    assert H.mult == F.mult and H.comult == F.comult
    assert H.mult[0][1] == () and H.mult[2][2] == ((2, F.field.one),)
    for terms in H.comult:
        assert [(j, k) for j, k, _ in terms] == sorted((j, k) for j, k, _ in terms)
        assert all(c for _, _, c in terms)
    assert H.mult_entries() == F.mult_entries() and H.comult_entries() == F.comult_entries()


@pytest.mark.parametrize(
    "tensor, entry, message",
    [
        ("mult", (0, 0, 6, 1), "mult index out of range in (0, 0, 6)"),
        ("mult", (-1, 0, 0, 1), "mult index out of range in (-1, 0, 0)"),
        ("comult", (0, 6, 0, 1), "comult index out of range in (0, 6, 0)"),
        ("comult", (0, 0.0, 0, 1), "comult index out of range in (0, 0.0, 0)"),
        ("mult", (True, 1, 1, 1), "mult index out of range in (True, 1, 1)"),
        ("mult", (1, 1, 1, 0), "repeated mult entry (1, 1, 1)"),
        ("comult", (0, 0, 0, 1), "repeated comult entry (0, 0, 0)"),
        ("mult", (1, 1, 1), "mult entries are (i, j, k, scalar)"),
    ],
)
def test_constructor_rejects_bad_entries(tensor, entry, message):
    F = build_algebra("f_s3")
    tensors = {"mult": F.mult_entries(), "comult": F.comult_entries()}
    tensors[tensor] = tensors[tensor] + [entry]
    with pytest.raises(SchemaError) as exc:
        rebuilt(F, tensors["mult"], tensors["comult"])
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "name, entry, message",
    [
        ("antipode", (0, 6, 1), "antipode index out of range in (0, 6)"),
        ("star", (-1, 0, 1), "star index out of range in (-1, 0)"),
        ("star", (0, 1.0, 1), "star index out of range in (0, 1.0)"),
        ("antipode", (0, 0, 0), "repeated antipode entry (0, 0)"),
        ("star", (5, 5, 1), "repeated star entry (5, 5)"),
        ("antipode", (1, 1), "antipode entries are (i, j, scalar), got (1, 1)"),
        ("star", (1, 1, 1, 1), "star entries are (i, j, scalar), got (1, 1, 1, 1)"),
        ("antipode", 7, "antipode entries are (i, j, scalar), got 7"),
    ],
)
def test_constructor_rejects_bad_map_entries(name, entry, message):
    F = build_algebra("f_s3")
    maps = {"antipode": F.antipode_entries(), "star": F.star_entries()}
    maps[name] = maps[name] + [entry]
    with pytest.raises(SchemaError) as exc:
        HopfStarAlgebra(
            F.field, F.mult_entries(), F.unit, F.comult_entries(), F.counit,
            maps["antipode"], maps["star"],
        )
    assert message in str(exc.value)


def test_constructor_stores_maps_as_sorted_sparse_columns():
    F = build_algebra("f_s3")
    one = F.field.one
    antipode = list(reversed(F.antipode_entries())) + [(1, 2, 0)]
    star = [(i, i, 1) for i in reversed(range(F.dim))]
    H = HopfStarAlgebra(F.field, F.mult_entries(), F.unit, F.comult_entries(), F.counit, antipode, star)
    assert H.antipode == F.antipode and H.star == F.star
    assert H.star == [((i, one),) for i in range(F.dim)]
    assert H.antipode_entries() == F.antipode_entries()


def test_builders_form_no_matrix(monkeypatch):
    F, C = build_algebra("f_s3"), build_algebra("c_z3")
    A, B = build_algebra("f_z2"), build_algebra("f_z3")

    def forbidden(*args, **kwargs):
        raise AssertionError("a dense Matrix was formed")

    for name in ("__init__", "from_rows", "zeros", "identity"):
        monkeypatch.setattr(Matrix, name, forbidden)
    H = HopfStarAlgebra(
        F.field, F.mult_entries(), F.unit, F.comult_entries(), F.counit,
        F.antipode_entries(), F.star_entries(), labels=F.labels,
    )
    D = dual(C)
    L = lift_algebra(F, 12)
    T = tensor_product(A, B)
    monkeypatch.undo()
    assert H.antipode == F.antipode and check_axioms(D).ok
    assert check_axioms(L).ok and check_axioms(T).ok
    assert D.antipode == B.antipode and D.star == B.star  # the dual of C(Z3) is F(Z3)


def test_cocommutativity_from_the_sparse_coproduct(algebras, s3_crossed):
    assert not algebras["f_s3"].is_cocommutative()
    assert algebras["c_s3"].is_cocommutative()
    X = s3_crossed()
    assert not X.is_cocommutative() and not X.is_commutative()
    assert dual(X).is_cocommutative() == X.is_commutative()


def test_tensor_apply_matches_kron_apply():
    # random maps over Q(zeta_3) and random terms, with repeated index pairs
    # and a term that cancels its negative, against the dense f (x) g
    rng = random.Random("tensor_apply")
    field = CycField(3)
    values = [field.zero, field.zero, field.one, -field.one, field.zeta(), field.zeta(2)]

    def random_map(m, n):
        return [sparse_vector([rng.choice(values) for _ in range(n)]) for _ in range(m)]

    for _ in range(80):
        m1, n1, m2, n2 = (rng.randint(1, 4) for _ in range(4))
        f, g = random_map(m1, n1), random_map(m2, n2)
        terms = [
            (rng.randrange(m1), rng.randrange(m2), rng.choice(values[2:]))
            for _ in range(rng.randint(0, 6))
        ]
        terms += [(j, k, -c) for j, k, c in terms[:1]]
        flat = zero_vec(field, m1 * m2)
        for j, k, c in terms:
            flat[j * m2 + k] = flat[j * m2 + k] + c
        want = kron_apply(dense_matrix(field, n1, f), dense_matrix(field, n2, g), flat)
        got = tensor_apply(f, g, terms)
        assert all(got.values())
        assert {u * n2 + v: c for (u, v), c in got.items()} == dict(sparse_vector(want))


def test_coproduct_has_no_zero_entries(algebras):
    # Delta(e_1 - e_1) cancels term by term
    H = algebras["c_s3"]
    one = H.field.one
    assert H.coproduct(((1, one),)) == {(1, 1): one}
    assert H.coproduct(((1, one), (1, -one))) == {}


# --- axiom report ---------------------------------------------------------


def test_axiom_report_names_and_pass(algebras):
    rep = check_axioms(algebras["f_s3"])
    assert rep.ok
    assert set(c.name for c in rep.checks) == AXIOM_NAMES
    rep2 = check_axioms(algebras["c_s3"])
    assert rep2.ok and len(rep2.checks) == 20


def test_broken_antipode_is_named():
    F = build_algebra("f_z3")
    ident = [(i, i, F.field.one) for i in range(3)]
    broken = HopfStarAlgebra(
        F.field,
        F.mult_entries(),
        F.unit,
        F.comult_entries(),
        F.counit,
        ident,
        F.star_entries(),
        labels=F.labels,
    )
    rep = check_axioms(broken)
    assert not rep.ok
    assert sorted(c.name for c in rep.checks if not c.ok) == [
        "antipode_left",
        "antipode_right",
    ]


def test_broken_multiplication_is_named(algebras):
    F = algebras["f_z2"]
    # second indicator no longer idempotent
    mult = [(i, j, k, c) for i, j, k, c in F.mult_entries() if (i, j, k) != (1, 1, 1)]
    assert len(mult) == len(F.mult_entries()) - 1
    broken = HopfStarAlgebra(
        F.field,
        mult,
        F.unit,
        F.comult_entries(),
        F.counit,
        F.antipode_entries(),
        F.star_entries(),
        labels=F.labels,
    )
    rep = check_axioms(broken)
    failed = set(c.name for c in rep.checks if not c.ok)
    assert "unit" in failed and "comult_multiplicative" in failed
    assert "associativity" not in failed  # zero products stay associative


# --- generator certificates ------------------------------------------------


AXIOM_INPUTS = sorted(CATALOG_NAMES) + ["F(S3)xZ2", "D(S3)", "c_s3 rebased"]


def axiom_input(name, s3_crossed, drinfeld_s3):
    if name == "F(S3)xZ2":
        return s3_crossed()
    if name == "D(S3)":
        return drinfeld_s3()
    if name == "c_s3 rebased":
        return rebased(build_algebra("c_s3"), random.Random("certificate " + name))
    return build_algebra(name)


# --- a verified algebra's dual -------------------------------------------------


@pytest.mark.parametrize("name", AXIOM_INPUTS)
def test_dual_of_a_verified_algebra_is_verified(name, s3_crossed, drinfeld_s3):
    H = axiom_input(name, s3_crossed, drinfeld_s3)
    D = dual(H)
    assert D.verified is H.verified is False
    assert dual(D) is not H  # a double dual built before H is verified
    assert check_axioms(H).ok
    assert dual(H) is D and D.verified is H.verified is True
    assert dual(dual(H)) is H
    # the flag records what the axioms say
    assert check_axioms(dual(H)).ok
    # a subalgebra recorded as verified, whose dual is built afterwards
    sub = sub_hopf_algebra(H, Subspace.full(H.field, H.dim))[0]
    assert sub.verified and "dual" not in sub._memo
    assert dual(sub).verified and dual(dual(sub)) is sub


def test_dual_of_a_verified_quotient_is_verified():
    G = build_algebra("f_s3")
    assert check_axioms(G).ok
    for Q in enumerate_quantum_subgroups(G):
        N = Q.quotient
        assert N.verified and dual(N).verified and dual(dual(N)) is N


@pytest.mark.parametrize("name", AXIOM_INPUTS)
def test_peter_weyl_of_a_verified_dual_reverifies_nothing(name, s3_crossed, drinfeld_s3, monkeypatch):
    H = axiom_input(name, s3_crossed, drinfeld_s3)
    assert check_axioms(H).ok
    gens = H._memo["generators"]

    def forbidden(*args):
        raise AssertionError("a law of a verified algebra's dual checked again")

    built = []
    init = HopfStarAlgebra.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(hopfcheck.hopf, "_assoc_failures", forbidden)
    monkeypatch.setattr(HopfStarAlgebra, "antipode_vec", forbidden)
    monkeypatch.setattr(HopfStarAlgebra, "__init__", counted_init)
    P = peter_weyl(dual(H))
    monkeypatch.undo()
    assert not built and dual(dual(H)) is H and H._memo["generators"] is gens
    # the same list as the dual of an unverified copy, whose laws are checked
    ref = peter_weyl(dual(axiom_input(name, s3_crossed, drinfeld_s3)))
    assert P.blocks() == ref.blocks()
    assert [c.entries for c in P.coreps] == [c.entries for c in ref.coreps]


# --- coproduct slices -------------------------------------------------------


def slice_functionals(H, rng):
    """Sparse functionals of empty, single-leg, |K|-leg and dense support;
    the |K|-leg ones are h_N pi, the covector of the conditional
    expectations, of every quantum subgroup."""
    field, d = H.field, H.dim
    values = [field.one, -field.one, field.scalar(2), field.scalar(Fraction(1, 3)), field.zeta()]
    fs = [(), ((rng.randrange(d), rng.choice(values)),), ((d - 1, field.one),)]
    fs += [sparse_vector(Q.haar_pi_covector) for Q in enumerate_quantum_subgroups(H)]
    fs += [sparse_vector(H.haar), tuple((i, rng.choice(values)) for i in range(d))]
    return fs


@pytest.mark.parametrize("name", AXIOM_INPUTS)
def test_coproduct_slice_matches_the_full_walk(name, s3_crossed, drinfeld_s3):
    H = axiom_input(name, s3_crossed, drinfeld_s3)
    field, d = H.field, H.dim
    rng = random.Random("slice " + name)
    for f in slice_functionals(H, rng):
        for side in ("right", "left"):
            cols = coproduct_slice(H, f, side)
            assert len(cols) == d
            for col in cols:
                idx = [j for j, _ in col]
                assert idx == sorted(set(idx)) and all(c for _, c in col)
            assert dense_matrix(field, d, cols) == reference_coproduct_slice(H, dense_of(H, f), side)


def collision_inputs(order):
    """C(S3) and F(S3) over Q(zeta_order), and both rebased, where products
    and slices meet at shared keys."""
    S3 = FiniteGroup.symmetric(3)
    rng = random.Random("collisions %d" % order)
    plain = [group_algebra(S3, order), function_algebra(S3, order)]
    return plain + [rebased(H, rng) for H in plain]


@pytest.mark.parametrize("order", [1, 4, 12])
def test_product_and_slice_match_the_filtering_reference(order):
    rng = random.Random("filtering %d" % order)
    zeros = 0
    for H in collision_inputs(order):
        for _ in range(25):
            x = random_sparse(H.field, rng, H.dim, rng.choice([0.3, 1.0]))
            y = random_sparse(H.field, rng, H.dim, rng.choice([0.3, 1.0]))
            xy = H.product(x, y)
            assert xy == filtering_product(H, x, y)
            assert_sparse(xy)
            for side in ("right", "left"):
                cols = coproduct_slice(H, x, side)
                assert cols == filtering_coproduct_slice(H, x, side)
                for col in cols:
                    assert_sparse(col)
                zeros += sum(not col for col in cols)
    assert zeros > 0


def test_cancelling_terms_leave_no_zero_entry():
    field = CycField(1)
    H = group_algebra(FiniteGroup.cyclic(2), 1)
    e, g = H.labels.index("e"), H.labels.index("g")
    # (1 + g)(1 - g) = 1 - g^2 = 0 in C(Z2)
    plus = tuple(sorted([(e, field.one), (g, field.one)]))
    minus = tuple(sorted([(e, field.one), (g, -field.one)]))
    assert H.product(plus, minus) == () == filtering_product(H, plus, minus)
    # a slice in which two terms of one Delta(e_i) meet at the kept leg and
    # cancel: c1 e_j (x) e_k1 + c2 e_j (x) e_k2 against f = c2 e^k1 - c1 e^k2
    X = rebased(function_algebra(FiniteGroup.symmetric(3), 1), random.Random("cancel"))
    i, (j, k1, c1), (_, k2, c2) = next(
        (i, a, b) for i, terms in enumerate(X.comult) for a in terms for b in terms
        if a[0] == b[0] and a[1] < b[1]
    )
    f = ((k1, c2), (k2, -c1))
    cols = coproduct_slice(X, f, "right")
    assert cols == filtering_coproduct_slice(X, f, "right")
    assert j not in dict(cols[i])
    for col in cols:
        assert_sparse(col)


def test_leg_index_groups_the_coproduct_terms(s3_crossed):
    H = s3_crossed()
    first, second = comult_legs(H)
    entries = H.comult_entries()
    key = lambda e: e[:3]
    assert sorted(((i, j, k, c) for j, terms in enumerate(first) for i, k, c in terms), key=key) == entries
    assert sorted(((i, j, k, c) for k, terms in enumerate(second) for i, j, c in terms), key=key) == entries
    assert all([t[:2] for t in terms] == sorted(t[:2] for t in terms) for terms in first + second)


def test_a_second_slice_reuses_the_leg_index():
    H = build_algebra("f_s3")
    field, d = H.field, H.dim
    f, g = sparse_vector(H.haar), ((2, field.one),)
    right = coproduct_slice(H, f, "right")
    left = reference_coproduct_slice(H, dense_of(H, g), "left")
    legs = H._memo["comult_legs"]
    H.comult = None  # a second slice reads the memoised index, not the coproduct
    assert coproduct_slice(H, f, "right") == right
    assert dense_matrix(field, d, coproduct_slice(H, g, "left")) == left
    assert H._memo["comult_legs"] is legs


def corrupted(H, tensor):
    """A copy of H with one structure constant of A raised by 1: the
    coefficient of e_0 in e_i e_j, for A = H (tensor "mult") or A = dual(H)
    (tensor "comult", the coefficient of e_i (x) e_j in Delta(e_0)).
    Neither i nor j is a generator of A, and both avoid the support of A's
    unit where they can, so that the unit law holds and the checks run on
    the generators.  Tensor "star" doubles (e_i)* instead, which keeps
    1* = 1 when i is outside the unit's support.  Tensors "unit" and
    "counit" raise the i-th coefficient of the unit of A (A = H, resp.
    dual(H), whose unit is eps), and "antipode" the coefficient of e_0 in
    S(e_i), with i = free[0] of A = H."""
    A = dual(H) if tensor in ("comult", "counit") else H
    gens = _generators(A)
    free = [i for i in range(H.dim) if i not in gens]
    free = [i for i in free if not A.unit[i]] or free
    if tensor == "star":
        star = [(i, j, c + c if i == free[0] else c) for i, j, c in H.star_entries()]
        return rebuilt(H, H.mult_entries(), H.comult_entries(), star)
    if tensor in ("unit", "counit", "antipode"):
        unit, counit = list(H.unit), list(H.counit)
        anti = {(i, j): c for i, j, c in H.antipode_entries()}
        if tensor == "antipode":
            anti[free[0], 0] = anti.get((free[0], 0), H.field.zero) + H.field.one
        else:
            vec = unit if tensor == "unit" else counit
            vec[free[0]] = vec[free[0]] + H.field.one
        return HopfStarAlgebra(
            H.field, H.mult_entries(), unit, H.comult_entries(), counit,
            [k + (c,) for k, c in anti.items()], H.star_entries(), labels=H.labels,
        )
    key = (free[0], free[-1], 0) if tensor == "mult" else (0, free[0], free[-1])
    old = H.mult_entries() if tensor == "mult" else H.comult_entries()
    entries = {e[:3]: e[3] for e in old}
    entries[key] = entries.get(key, H.field.zero) + H.field.one
    new = [k + (c,) for k, c in entries.items()]
    if tensor == "mult":
        return rebuilt(H, new, H.comult_entries())
    return rebuilt(H, H.mult_entries(), new)


def spans_by_left_products(A, gens):
    """Whether the unit and its repeated left products by the e_s, s in
    gens, span A, by dense products and a dense echelon."""
    d = A.dim
    ech = DenseEchelon(A.field, d)
    todo = [list(A.unit)] if ech.add(list(A.unit)) is not None else []
    while todo:
        w = todo.pop()
        for s in gens:
            v = dense_product(A, basis_vec(A.field, d, s), w)
            if ech.add(v) is not None:
                todo.append(v)
    return len(ech.rows) == d


# the dense reference of each law that check_axioms runs on generators, on
# the dual or through the sparse maps of hopf
REFERENCES = {
    "associativity": reference_associativity,
    "coassociativity": reference_coassociativity,
    "comult_multiplicative": reference_comult_multiplicative,
    "star_antimultiplicative": reference_star_antimultiplicative,
    "counit": reference_counit,
    "comult_unital": reference_comult_unital,
    "counit_multiplicative": reference_counit_multiplicative,
    "antipode_left": lambda H: reference_antipode(H, "left"),
    "antipode_right": lambda H: reference_antipode(H, "right"),
    "star_involution": lambda H: reference_involution(H, dense_star),
    "antipode_involutive": lambda H: reference_involution(H, dense_antipode),
    "antipode_star_involution": reference_antipode_star_involution,
    "star_counit": reference_star_counit,
}


def full_scan_flags(H):
    """The 20 ok flags of check_axioms, with the thirteen laws of REFERENCES
    replaced by their dense references."""
    flags = {c.name: c.ok for c in check_axioms(H).checks}
    flags.update((name, ref(H) is None) for name, ref in REFERENCES.items())
    return flags


def with_entry_moved(c, t):
    """c with 3 (e_t - eps(e_t) 1) added to its last entry of row 0, which
    keeps the counit law and breaks the comultiplication law.  (Adding it
    once turns the group-like 1 of C(G) into the group-like e_t, and
    subtracting it twice turns 1 of F(Z2) into the sign character.)"""
    H = c.algebra
    three = H.field.from_rational(Fraction(3))
    entries = [list(row) for row in c.entries]
    v = dense_of(H, entries[0][-1])
    v[t] = v[t] + three
    v = [x - three * H.counit[t] * u for x, u in zip(v, H.unit)]
    entries[0][-1] = sparse_vector(v)
    return Corepresentation(H, entries)


@pytest.mark.parametrize("tensor", [None, "mult", "comult", "star", "unit", "counit", "antipode"])
@pytest.mark.parametrize("name", AXIOM_INPUTS)
def test_generator_checks_match_the_full_scans(name, tensor, s3_crossed, drinfeld_s3):
    H = axiom_input(name, s3_crossed, drinfeld_s3)
    assert spans_by_left_products(H, _generators(H))
    assert spans_by_left_products(dual(H), _generators(dual(H)))
    X = H if tensor is None else corrupted(H, tensor)
    flags = {c.name: c.ok for c in check_axioms(X).checks}
    assert flags == full_scan_flags(X)
    assert all(flags.values()) == (tensor is None)
    # the corepresentation law: H's own corepresentations and copies with a
    # moved entry, read in H and in the corrupted copy; the entry moves at a
    # non-generator of the dual where one is not a multiple of the unit
    gens = _dual_generators(H)
    one = [i for i, _ in sparse_vector(H.unit)]
    t = next(t for t in [t for t in range(H.dim) if t not in gens] + list(gens) if one != [t])
    for c in peter_weyl(H).coreps:
        moved = with_entry_moved(c, t)
        assert c.verify() is None and moved.verify() is not None
        assert reference_corep_failure(moved) is not None
        for u in (c, moved):
            u = Corepresentation(X, u.entries)
            assert (u.verify() is None) == (reference_corep_failure(u) is None)


def test_random_structures_match_the_full_scans():
    # the reductions need their prerequisites: on structures where the unit
    # or counit laws fail, the flags still equal the full scans; the
    # antipode and the star are the identity or random
    rng = random.Random("generator prerequisites")

    def pick():
        return rng.choice([0, 0, 0, 1, -1])

    for _ in range(400):
        d = rng.choice([2, 3])
        cube = [(i, j, k) for i in range(d) for j in range(d) for k in range(d)]
        square = [(i, j) for i in range(d) for j in range(d)]

        def linear_map():
            return rng.choice([[(i, i, 1) for i in range(d)], [key + (pick(),) for key in square]])

        H = HopfStarAlgebra(
            1, [key + (pick(),) for key in cube], [rng.choice([0, 1]) for _ in range(d)],
            [key + (pick(),) for key in cube], [rng.choice([0, 1]) for _ in range(d)],
            linear_map(), linear_map(),
        )
        assert {c.name: c.ok for c in check_axioms(H).checks} == full_scan_flags(H)


def test_associativity_on_generators_needs_the_unit_law():
    # 1 = e_0 + e_1 with e_0 e_0 = -e_0 and e_1 e_0 = e_1: the products of 1
    # by e_0 span, and (e_0 y) z = e_0 (y z) for all y, z, but 1 is no unit
    # (1 e_0 = e_1 - e_0), so the left nucleus need not hold it, and
    # (e_1 e_0) e_0 = e_1 while e_1 (e_0 e_0) = -e_1
    ident = [(0, 0, 1), (1, 1, 1)]
    H = HopfStarAlgebra(1, [(0, 0, 0, -1), (1, 0, 1, 1)], [1, 1], [], [0, 0], ident, ident)
    assert _generators(H) == (0,)
    rep = check_axioms(H)
    assert not rep["unit"].ok and rep["associativity"].witness == (1, 0, 0)


def test_comultiplicativity_on_generators_needs_a_unital_coproduct():
    # e_0, e_1 orthogonal idempotents with Delta(e_0) = 0 and
    # Delta(e_1) = -e_1 (x) e_0: Delta(e_0 y) = 0 = Delta(e_0) Delta(y) for
    # all y, but Delta(1) != 1 (x) 1, and Delta(e_1 e_1) = -e_1 (x) e_0
    # while Delta(e_1) Delta(e_1) = e_1 (x) e_0
    ident = [(0, 0, 1), (1, 1, 1)]
    H = HopfStarAlgebra(1, [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1], [(1, 1, 0, -1)], [0, 0], ident, ident)
    assert _generators(H) == (0,)
    rep = check_axioms(H)
    assert rep["unit"].ok and rep["associativity"].ok and not rep["comult_unital"].ok
    assert rep["comult_multiplicative"].witness == (1, 1)


def test_dual_side_needs_a_multiplicative_counit():
    # e_0, e_1 group-like with e_0 e_0 = 2 e_1: the dual is F({0, 1}),
    # generated by e^0, but Delta(e_0 e_0) = 2 e_1 (x) e_1 and
    # Delta(e_0) Delta(e_0) = 4 e_1 (x) e_1 differ only at the component
    # (1, 1), which the dual side would not look at; eps(e_0 e_0) = 2 rules
    # that side out
    ident = [(0, 0, 1), (1, 1, 1)]
    H = HopfStarAlgebra(1, [(0, 0, 1, 2)], [0, 0], [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1], ident, ident)
    assert _generators(dual(H)) == (0,)
    rep = check_axioms(H)
    assert rep["counit"].ok and rep["coassociativity"].ok
    assert not rep["counit_multiplicative"].ok
    assert rep["comult_multiplicative"].witness == (0, 0)


def test_star_law_on_generators_needs_a_self_adjoint_unit():
    # orthogonal idempotents e_0, e_1 with e_0* = e_0 and e_1* = 2 e_1:
    # (e_0 y)* = y* e_0* for all y, and e_0 generates, but 1* = e_0 + 2 e_1
    # is not 1, and (e_1 e_1)* = 2 e_1 while e_1* e_1* = 4 e_1
    ident = [(0, 0, 1), (1, 1, 1)]
    H = HopfStarAlgebra(1, [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1], [], [0, 0], ident, [(0, 0, 1), (1, 1, 2)])
    assert _generators(H) == (0,)
    assert next(_star_antimult_failures(H, (0,)), None) is None
    rep = check_axioms(H)
    assert rep["unit"].ok and rep["associativity"].ok
    assert rep["star_antimultiplicative"].witness == (1, 1)


@pytest.mark.parametrize("tensor", [None, "comult", "star"])
@pytest.mark.parametrize("name", AXIOM_INPUTS)
def test_star_comultiplicativity_matches_the_dense_reference(name, tensor, s3_crossed, drinfeld_s3):
    H = axiom_input(name, s3_crossed, drinfeld_s3)
    X = H if tensor is None else corrupted(H, tensor)
    check = check_axioms(X)["star_comultiplicative"]
    assert check.witness == reference_star_comultiplicative(X)
    assert check.ok == (check.witness is None)


@pytest.mark.parametrize("law", ["star_counit", "star_comultiplicative"])
def test_star_laws_conjugate(law):
    # C(Z3) over Q(zeta_3) has e_1* = e_2.  Scaling eps(e_1) and eps(e_2)
    # (resp. Delta(e_1) and Delta(e_2)) by z and z^2 keeps the law, although
    # e_1* and e_1 are scaled differently; scaling both by z breaks it at
    # e_1, although e_i* and e_i are scaled alike
    H = build_algebra("c_z3")
    z = H.field.zeta()
    reference = {
        "star_counit": reference_star_counit,
        "star_comultiplicative": reference_star_comultiplicative,
    }[law]
    for scale, witness in (([1, z, z * z], None), ([1, z, z], (1,))):
        counit, comult = H.counit, H.comult_entries()
        if law == "star_counit":
            counit = [e * x for e, x in zip(counit, scale)]
        else:
            comult = [(i, j, k, c * scale[i]) for i, j, k, c in comult]
        X = HopfStarAlgebra(
            H.field, H.mult_entries(), H.unit, comult, counit,
            H.antipode_entries(), H.star_entries(), labels=H.labels,
        )
        assert reference(X) == witness
        check = check_axioms(X)[law]
        assert (check.ok, check.witness) == (witness is None, witness)


def test_corepresentation_law_needs_the_counit_law():
    # u = 2g in C(Z2): rho(e^e) = 0 and rho(e^g) = 2, so the law holds for
    # s = e, the generator of the dual, and fails at s = t = g; the counit
    # law fails too, so every s is checked and the law is reported first
    H = group_algebra(FiniteGroup.cyclic(2))
    assert _dual_generators(H) == (0,)
    u = Corepresentation(H, [[((1, H.field.from_rational(Fraction(2))),)]])
    assert u.verify() == "comultiplication law fails at entry (0, 0)"


CORRUPTED_LAW = {
    "mult": "multiplicative",
    "comult": "multiplicative",
    "star": "star_antimultiplicative",
    "unit": "'unit'",
    "counit": "'counit'",
    "antipode": "antipode_left",
}


def test_corrupted_constants_are_caught_under_optimize(s3_crossed, drinfeld_s3):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import random\n"
        "from hopfcheck.hopf import check_axioms\n"
        "from conftest import build_drinfeld_double_s3, build_s3_crossed\n"
        "import test_hopf\n"
        "assert False, 'asserts are live'\n"
        "for H in (build_s3_crossed(), build_drinfeld_double_s3()):\n"
        "    for tensor in test_hopf.CORRUPTED_LAW:\n"
        "        X = test_hopf.corrupted(H, tensor)\n"
        "        print(tensor, sorted(c.name for c in check_axioms(X).checks if not c.ok))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    want = [
        "%s %s" % (tensor, sorted(k for k, ok in full_scan_flags(corrupted(H, tensor)).items() if not ok))
        for H in (s3_crossed(), drinfeld_s3())
        for tensor in CORRUPTED_LAW
    ]
    assert proc.stdout.splitlines() == want
    assert all(CORRUPTED_LAW[line.split()[0]] in line for line in want)


# (t, (i, j)): the e_t at which a raised counit constant breaks the counit
# law, and the component e_i (x) e_j of Delta(1) - 1 (x) 1 after a raised unit
# constant
DUAL_SIDE_WITNESSES = {"F(S3)xZ2": (4, (0, 0)), "D(S3)": (12, (0, 2))}


@pytest.mark.parametrize("name", sorted(DUAL_SIDE_WITNESSES))
def test_dual_side_witnesses_name_h(name, s3_crossed, drinfeld_s3):
    # the counit law runs as the unit law of the dual, and its witness names
    # the e_t of H where the law fails; Delta(1) = 1 (x) 1 runs as
    # eps(xy) = eps(x) eps(y) of the dual, and its witness names the
    # component e_i (x) e_j of Delta(1) - 1 (x) 1
    counit_at, component = DUAL_SIDE_WITNESSES[name]
    H = axiom_input(name, s3_crossed, drinfeld_s3)
    X = corrupted(H, "counit")
    rep = check_axioms(X)
    assert rep["counit"].witness == (counit_at,) == reference_counit(X, [counit_at])
    Y = corrupted(H, "unit")
    rep = check_axioms(Y)
    assert rep["comult_unital"].witness == component == reference_comult_unital(Y)


# --- Haar functional ------------------------------------------------------


def test_a_star_that_only_the_haar_checks_catch():
    # C(Z3) with g* = g: the identity star, antilinear on the coefficients,
    # is an involutive anti-automorphism that commutes with Delta, eps and
    # S, so every law outside the Haar checks holds; but h(g* g) = h(g^2) = 0,
    # so the Gram matrix h(e_i* e_j) is not positive.  haar_star cannot fail
    # alone: once the other laws hold, x -> conj h(x*) is a normalized
    # invariant functional too, so it is h by uniqueness
    H = build_algebra("c_z3")
    X = HopfStarAlgebra(
        H.field, H.mult_entries(), H.unit, H.comult_entries(), H.counit,
        H.antipode_entries(), [(i, i, 1) for i in range(H.dim)], labels=H.labels,
    )
    report = check_axioms(X)
    assert [c.name for c in report.failures()] == ["haar_positive"]
    assert report["haar_positive"].witness == ("pivot", 1)
    assert {c.name: c.ok for c in report.checks} == full_scan_flags(X)


def test_haar_uniform_on_function_algebra(algebras):
    h = compute_haar(algebras["f_s3"])
    sixth = algebras["f_s3"].field.from_rational(Fraction(1, 6))
    assert h == [sixth] * 6


def test_haar_point_mass_on_group_algebra(algebras):
    H = algebras["c_s3"]
    h = compute_haar(H)
    assert h[0].is_one()
    assert all(c.is_zero() for c in h[1:])


def test_haar_invariance_directly(algebras):
    # (id (x) h) Delta(a) = h(a) 1 and symmetrically, checked from raw tensors
    for name in ("f_s3", "c_s3", "f_d4"):
        H = algebras[name]
        h = H.haar
        for i in range(H.dim):
            left = zero_vec(H.field, H.dim)
            right = zero_vec(H.field, H.dim)
            for j, k, c in H.comult[i]:
                left[j] = left[j] + c * h[k]
                right[k] = right[k] + c * h[j]
            expect = [h[i] * u for u in H.unit]
            assert left == expect and right == expect


def test_haar_normalized_and_star_invariant(algebras):
    for H in algebras.values():
        h = H.haar
        assert H.counit_of(sparse_vector(H.unit)).is_one()
        one_val = sum(
            (h[i] * c for i, c in enumerate(H.unit)), H.field.zero
        )
        assert one_val.is_one()
        # h(S(x)) = h(x) on basis vectors
        for i in range(H.dim):
            sx = H.antipode_vec(((i, H.field.one),))
            assert H.haar_of(sx) == h[i]


def test_haar_positive_on_random_elements(algebras):
    rng = random.Random(20260815)
    for name in ("f_s3", "c_s3", "f_d4", "f_z3_rtimes_z2"):
        H = algebras[name]
        for _ in range(10):
            x = sparse_vector([
                H.field.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                for _ in range(H.dim)
            ])
            if not x:
                continue
            val = H.haar_of(H.product(H.star_vec(x), x))
            assert val.is_real() and val.sign() == 1


def test_haar_of_trivial_algebra():
    from hopfcheck.constructions import FiniteGroup, function_algebra

    H = function_algebra(FiniteGroup.cyclic(1))
    assert H.dim == 1
    assert compute_haar(H) == [H.field.one]


def test_sweedler_has_no_haar():
    H4 = sweedler_four_dim()
    rep = check_axioms(H4)
    failed = set(c.name for c in rep.checks if not c.ok)
    assert "haar_exists" in failed
    assert "antipode_involutive" in failed
    with pytest.raises(NotCosemisimple):
        compute_haar(H4)


# --- Haar state from the regular trace -------------------------------------

HAAR_INPUTS = (
    AXIOM_INPUTS
    + [name + " dual" for name in sorted(CATALOG_NAMES)]
    + ["f_s3 rebased", "D(S3) rebased", "F(S4) zeta12", "C(S4) zeta12"]
)


def haar_input(name, s3_crossed, drinfeld_s3):
    """A fresh semisimple cosemisimple Hopf *-algebra named in HAAR_INPUTS."""
    if name.endswith(" dual"):
        return dual(build_algebra(name[: -len(" dual")]))
    if name == "f_s3 rebased":
        return rebased(build_algebra("f_s3"), random.Random("certificate " + name))
    if name == "D(S3) rebased":
        return rebased(drinfeld_s3(), random.Random("certificate " + name))
    if name.endswith("zeta12"):
        build = function_algebra if name.startswith("F") else group_algebra
        return lift_algebra(build(FiniteGroup.symmetric(4)), 12)
    return axiom_input(name, s3_crossed, drinfeld_s3)


def trace_candidate(H):
    """Tr(L_x) / Tr(L_1) on the basis, each trace summed over the products
    e_x e_k."""
    zero = H.field.zero
    basis = sparse_identity(H.field, H.dim)
    t = [
        sum((c for k, e in enumerate(basis) for j, c in H.product(x, e) if j == k), zero)
        for x in basis
    ]
    inv = sum((u * tu for u, tu in zip(H.unit, t)), zero).inverse()
    return [c * inv for c in t]


def never_solve(H):
    raise AssertionError("the Haar state of a valid input was solved")


def product_corrupted_f_s3():
    """An unverified copy of F(S3) with e_0 e_1 = e_1.  Its regular trace is
    2 on e_0 and 1 elsewhere, which is not invariant; the invariance
    equations read only the coproduct and the unit, so h is still 1/6."""
    F = build_algebra("f_s3")
    return rebuilt(F, F.mult_entries() + [(0, 1, 1, 1)], F.comult_entries())


@pytest.mark.parametrize("name", HAAR_INPUTS)
def test_valid_inputs_take_the_trace(name, monkeypatch, s3_crossed, drinfeld_s3):
    H = haar_input(name, s3_crossed, drinfeld_s3)
    monkeypatch.setattr(hopfcheck.hopf, "_solve_haar", never_solve)
    h = compute_haar(H)
    # check_axioms of rebased D(S3), whose coproduct is dense, takes minutes
    if name != "D(S3) rebased":
        assert check_axioms(H).ok
    monkeypatch.undo()
    assert h == trace_candidate(H) == _solve_haar(H)


def test_quotients_never_reach_the_solve(monkeypatch):
    monkeypatch.setattr(hopfcheck.hopf, "_solve_haar", never_solve)
    subgroups = enumerate_quantum_subgroups(build_algebra("f_d4"))
    haars = [Q.quotient.haar for Q in subgroups]
    monkeypatch.undo()
    assert len(subgroups) == 10
    assert haars == [_solve_haar(Q.quotient) for Q in subgroups]


def test_corrupted_product_falls_back_to_the_solve(monkeypatch):
    X = product_corrupted_f_s3()
    assert not all(_invariance(X, trace_candidate(X)))
    calls = []
    real = hopfcheck.hopf._solve_haar
    monkeypatch.setattr(hopfcheck.hopf, "_solve_haar", lambda H: calls.append(H) or real(H))
    assert compute_haar(X) == [X.field.from_rational(Fraction(1, 6))] * 6
    assert len(calls) == 1 and calls[0] is X


def test_corrupted_product_falls_back_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import hopfcheck.hopf as hopf\n"
        "import test_hopf\n"
        "assert False, 'asserts are live'\n"
        "calls = []\n"
        "real = hopf._solve_haar\n"
        "hopf._solve_haar = lambda H: calls.append(H) or real(H)\n"
        "h = hopf.compute_haar(test_hopf.product_corrupted_f_s3())\n"
        "print(len(calls), ' '.join(str(c.as_fraction()) for c in h))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 " + " ".join(["1/6"] * 6)


# --- convolution algebra of endomorphisms ---------------------------------


def test_convolution_unit_and_antipode_inverse(algebras):
    for name in ("f_z6", "f_s3", "c_s3"):
        H = algebras[name]
        ident = sparse_identity(H.field, H.dim)
        S = H.antipode
        cu = counit_unit(H)
        assert dense_matrix(H.field, H.dim, cu) == reference_counit_unit(H)
        assert convolve(H, S, ident) == cu
        assert convolve(H, ident, S) == cu
        assert convolve(H, cu, ident) == ident
        assert convolve(H, ident, cu) == ident


def test_convolution_associative_on_random_endos(algebras):
    rng = random.Random(7)
    H = algebras["f_s3"]

    def rand_endo():
        rows = [
            [H.field.from_rational(Fraction(rng.randint(-2, 2))) for _ in range(H.dim)]
            for _ in range(H.dim)
        ]
        return sparse_of(Matrix.from_rows(H.field, rows))

    for _ in range(5):
        f, g, k = rand_endo(), rand_endo(), rand_endo()
        fg = convolve(H, f, g)
        assert convolve(H, fg, k) == convolve(H, f, convolve(H, g, k))
        # the dense recipe, summed over dense columns, agrees
        dense = [dense_matrix(H.field, H.dim, m) for m in (f, g)]
        assert dense_matrix(H.field, H.dim, fg) == reference_convolve(H, *dense)


def test_identity_convolved_with_itself():
    H = build_algebra("f_z2")
    ident = sparse_identity(H.field, 2)
    sq = columns(dense_matrix(H.field, 2, convolve(H, ident, ident)))
    assert sq[0] == list(H.unit)
    assert sq[1] == zero_vec(H.field, 2)


# --- duality ---------------------------------------------------------------


def test_dual_of_group_algebra_is_function_algebra(algebras):
    D = dual(algebras["c_z3"])
    F = algebras["f_z3"]
    assert D.mult == F.mult
    assert D.comult == F.comult
    assert D.unit == F.unit
    assert D.counit == F.counit
    assert D.antipode == F.antipode
    assert D.star == F.star


def test_dual_swaps_commutativity(algebras):
    F = algebras["f_s3"]
    assert F.is_commutative() and not F.is_cocommutative()
    D = dual(F)
    assert not D.is_commutative() and D.is_cocommutative()
    assert check_axioms(D).ok


def test_double_dual_is_identity(algebras):
    for name in ("f_s3", "c_s3", "f_d4"):
        H = algebras[name]
        DD = dual(dual(H))
        assert DD.mult == H.mult and DD.comult == H.comult
        assert DD.antipode == H.antipode and DD.star == H.star


# --- sub-objects and linear quotients --------------------------------------


def test_sub_hopf_algebra_of_group_algebra(algebras):
    H = algebras["c_s3"]
    # span{e, (123), (132)} is the group algebra of the rotation subgroup
    idx = [H.labels.index(l) for l in ("e", "(123)", "(132)")]
    B = Subspace.from_vectors(
        H.field, H.dim, [basis_vec(H.field, H.dim, i) for i in idx]
    )
    sub, incl = sub_hopf_algebra(H, B)
    assert sub.dim == 3
    assert check_axioms(sub).ok
    assert sub.is_commutative()
    # inclusion intertwines products
    for a in range(3):
        for b in range(3):
            xa = ((a, sub.field.one),)
            xb = ((b, sub.field.one),)
            assert sparse_compose(incl, [sub.product(xa, xb)]) == [H.product(incl[a], incl[b])]


def test_trivial_sub_hopf_algebra(algebras):
    H = algebras["f_s3"]
    B = Subspace.from_vectors(H.field, H.dim, [list(H.unit)])
    sub, incl = sub_hopf_algebra(H, B)
    assert sub.dim == 1
    assert check_axioms(sub).ok
    assert sparse_apply(H.field, H.dim, incl, [sub.field.one]) == list(H.unit)


def test_sub_hopf_algebra_rejections_name_the_failure():
    H = build_algebra("f_s3")
    delta_e = basis_vec(H.field, H.dim, H.labels.index("e"))
    # closed under product, * and S, but Delta(delta_e) leaves B (x) B
    B = Subspace.from_vectors(H.field, H.dim, [list(H.unit), delta_e])
    with pytest.raises(SchemaError, match=r"^comultiplication does not stay inside B \(x\) B$"):
        sub_hopf_algebra(H, B)
    with pytest.raises(SchemaError, match="^subalgebra does not contain the unit$"):
        sub_hopf_algebra(H, Subspace.from_vectors(H.field, H.dim, [delta_e]))


def test_subalgebra_of_a_verified_algebra_is_verified():
    H = build_algebra("f_s3")
    A3 = [H.labels.index(l) for l in ("e", "(123)", "(132)")]
    cosets = [[H.field.one if (i in A3) == inside else H.field.zero for i in range(6)] for inside in (True, False)]
    B = Subspace.from_vectors(H.field, H.dim, cosets)
    sub, _incl = sub_hopf_algebra(H, B)
    assert not sub.verified
    assert check_axioms(H).ok
    sub, _incl = sub_hopf_algebra(H, B)
    assert sub.verified and check_axioms(sub).ok


def test_sub_hopf_algebra_rejects_a_corrupted_restriction_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    code = (
        "import hopfcheck.hopf as hopf\n"
        "from hopfcheck.constructions import FiniteGroup, function_algebra\n"
        "from hopfcheck.errors import SchemaError\n"
        "from hopfcheck.linalg import Subspace\n"
        "assert False, 'asserts are live'\n"
        "H = function_algebra(FiniteGroup.symmetric(3))\n"
        "print(hopf.check_axioms(H).ok)\n"
        "A3 = [H.labels.index(l) for l in ('e', '(123)', '(132)')]\n"
        "B = Subspace.from_vectors(H.field, 6, [[int((i in A3) == inside) for i in range(6)] for inside in (True, False)])\n"
        "real = hopf.HopfStarAlgebra\n"
        "names = ('mult', 'unit', 'comult', 'counit', 'antipode', 'star')\n"
        "for name in (None,) + names:\n"
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
        "        sub, _incl = hopf.sub_hopf_algebra(H, B)\n"
        "        print(name, 'accepted', sub.verified)\n"
        "    except SchemaError as exc:\n"
        "        print(name, exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    not_closed = "subspace is not closed under the Hopf *-operations"
    assert proc.stdout.splitlines() == [
        "True",
        "None accepted True",
        "mult " + not_closed,
        "unit subalgebra does not contain the unit",
        "comult comultiplication does not stay inside B (x) B",
        "counit " + not_closed,
        "antipode " + not_closed,
        "star " + not_closed,
    ]


def test_linear_quotient_identities():
    field = CycField(1)
    B = Subspace.from_vectors(
        field,
        4,
        [
            [field.one, field.one, field.zero, field.zero],
            [field.zero, field.zero, field.one, -field.one],
        ],
    )
    proj, reps = linear_quotient(B)
    assert len(proj) == 4
    for v in B.basis():
        assert sparse_apply(field, 2, proj, v) == zero_vec(field, 2)
    for out, amb in enumerate(reps):
        assert sparse_apply(field, 2, proj, basis_vec(field, 4, amb)) == basis_vec(field, 2, out)
    assert dense_matrix(field, 2, proj).rank() == 2
    # the columns read off the echelon rows equal the reductions of each e_j
    assert (dense_matrix(field, 2, proj), reps) == reference_linear_quotient(B)
