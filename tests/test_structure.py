import functools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import hopfcheck
import hopfcheck.hopf
import hopfcheck.splitting
import hopfcheck.structure
import hopfcheck.subgroup
from hopfcheck.catalog import CATALOG_NAMES, SUBGROUP_IDEALS, build_algebra, build_group
from hopfcheck.constructions import (
    FiniteGroup,
    function_algebra,
    group_algebra,
    subgroup_ideal,
    tensor_product,
)
from hopfcheck.corep import conjugate, fusion, peter_weyl
from hopfcheck.cli import cli_dispatch
from hopfcheck.errors import (
    AxiomsFailed,
    CapExceeded,
    ContainmentViolated,
    NotHopfIdeal,
    SchemaError,
    TheoremViolation,
)
from hopfcheck.hopf import HopfStarAlgebra, check_axioms, sub_hopf_algebra
from hopfcheck.linalg import Subspace, basis_vec, sparse_kernel, sparse_vector
from hopfcheck.serialize import save_algebra
from hopfcheck.structure import (
    _closed_index_sets,
    _down_set,
    _generated_ideal,
    _induced_map,
    _quotient_of,
    _up_set,
    enumerate_hopf_subalgebras,
    enumerate_quantum_subgroups,
    ideal_closure,
    property_F_check,
    property_FD_check,
    property_inheritance_suite,
    pullback_check,
    subgroup_lattice,
    third_isomorphism_check,
)
from hopfcheck.subgroup import (
    augmentation_part,
    coset_algebras,
    exact_sequence_check,
    full_subgroup,
    is_normal_coset,
    make_subgroup,
    normality_report,
)

from conftest import build_drinfeld_double_s3, build_s3_crossed


def classical_subgroups(G):
    """All subgroups of a small group, by direct subset closure."""
    n = G.order
    out = []
    for mask in range(1 << n):
        if not (mask >> G.identity) & 1:
            continue
        S = [i for i in range(n) if (mask >> i) & 1]
        if all(G.mul(a, b) in set(S) for a in S for b in S):
            out.append(frozenset(S))
    return out


def classical_normal(G, S):
    return all(G.mul(G.mul(c, x), G.inv(c)) in S for c in range(G.order) for x in S)


# --- enumeration against the classical oracle ----------------------------------


def test_classical_lattice_oracle():
    s3 = build_group("s3")
    subs = classical_subgroups(s3)
    assert len(subs) == 6
    assert sum(1 for S in subs if classical_normal(s3, S)) == 3
    d4 = build_group("d4")
    subs4 = classical_subgroups(d4)
    assert len(subs4) == 10
    assert sum(1 for S in subs4 if classical_normal(d4, S)) == 6
    z6 = build_group("z6")
    assert len(classical_subgroups(z6)) == 4


@pytest.mark.parametrize("gname,fname", [("s3", "f_s3"), ("d4", "f_d4"), ("z6", "f_z6")])
def test_function_algebra_subgroups_are_classical(gname, fname, algebras):
    G = build_group(gname)
    F = algebras[fname]
    qsubs = enumerate_quantum_subgroups(F)
    classical = classical_subgroups(G)
    assert len(qsubs) == len(classical)
    by_ideal = {}
    for S in classical:
        labels = tuple(G.labels[i] for i in sorted(S))
        by_ideal[subgroup_ideal(F, labels).sort_key()] = S
    from hopfcheck.subgroup import is_normal_coset

    for Q in qsubs:
        S = by_ideal.pop(Q.ideal.sort_key())
        assert Q.quotient.dim == len(S)
        assert is_normal_coset(Q) == classical_normal(G, S)
    assert not by_ideal


def test_function_algebra_hopf_subalgebras_count_normals(algebras):
    # Hopf subalgebras of F(G) are pullbacks along G -> G/N, one per normal N
    for gname, fname in (("s3", "f_s3"), ("d4", "f_d4"), ("z6", "f_z6")):
        G = build_group(gname)
        n_normal = sum(
            1 for S in classical_subgroups(G) if classical_normal(G, S)
        )
        assert len(enumerate_hopf_subalgebras(algebras[fname])) == n_normal


def test_group_algebra_counts_are_swapped(algebras):
    # for the dual object the two counts trade places
    subs = enumerate_hopf_subalgebras(algebras["c_s3"])
    assert sorted(B.dim for B in subs) == [1, 2, 2, 2, 3, 6]
    qsubs = enumerate_quantum_subgroups(algebras["c_s3"])
    assert sorted(Q.quotient.dim for Q in qsubs) == [1, 2, 6]


def test_s3_lattice_report(algebras):
    lat = subgroup_lattice(algebras["f_s3"]).as_dict()
    assert lat["subalgebra_dims"] == [1, 2, 6]
    assert lat["subalgebra_blocks"] == [[1], [0, 1], [0, 1, 2]]
    assert lat["subgroup_dims"] == [1, 2, 2, 2, 3, 6]
    assert lat["ideal_dims"] == [5, 4, 4, 4, 3, 0]
    assert lat["normal_flags"] == [True, False, False, False, True, True]


def test_cs3_lattice_report(algebras):
    lat = subgroup_lattice(algebras["c_s3"]).as_dict()
    assert lat["subalgebra_dims"] == [1, 2, 2, 2, 3, 6]
    assert lat["subgroup_dims"] == [1, 2, 6]
    assert lat["normal_flags"] == [True, True, True]


def test_d4_lattice_report(algebras):
    lat = subgroup_lattice(algebras["f_d4"]).as_dict()
    assert lat["subgroup_dims"] == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]
    assert lat["normal_flags"].count(False) == 4  # the four reflection subgroups
    assert lat["normal_flags"].count(True) == 6


def test_z6_lattice_all_normal(algebras):
    lat = subgroup_lattice(algebras["f_z6"]).as_dict()
    assert lat["subgroup_dims"] == [1, 2, 3, 6]
    assert all(lat["normal_flags"])


def test_enumeration_caps(monkeypatch):
    # C(Z2^3) has 16 Hopf subalgebras, one per subgroup of Z2^3
    monkeypatch.setattr(hopfcheck.structure, "MAX_CLOSED_SETS", 15)
    H = group_algebra(_z2_cubed())
    with pytest.raises(CapExceeded) as exc:
        enumerate_hopf_subalgebras(H)
    assert "more than 15 closed index sets" in str(exc.value)
    monkeypatch.setattr(hopfcheck.structure, "MAX_CLOSED_SETS", 16)
    assert len(enumerate_hopf_subalgebras(H)) == 16


def test_lattices_are_enumerated_once(monkeypatch):
    calls = []
    make = hopfcheck.structure.make_subgroup
    monkeypatch.setattr(
        hopfcheck.structure, "make_subgroup", lambda G, I: calls.append(G) or make(G, I)
    )
    H = function_algebra(FiniteGroup.symmetric(3))
    first = enumerate_quantum_subgroups(H)
    assert len(calls) == len(first) == 6
    second = enumerate_quantum_subgroups(H)
    assert len(calls) == 6
    assert second == first and second is not first
    second.clear()
    assert enumerate_quantum_subgroups(H) == first
    subs = enumerate_hopf_subalgebras(H)
    subs.clear()
    assert len(enumerate_hopf_subalgebras(H)) == 3


# --- closure enumeration and covector fusion against direct references ----------


def _z2_cubed():
    Z2 = FiniteGroup.cyclic(2)
    return FiniteGroup.direct_product(FiniteGroup.direct_product(Z2, Z2), Z2)


# the catalog includes the tensor product F(Z2) (x) F(Z3) and the crossed
# product F(Z3) x| Z2
LATTICE_INPUTS = {name: functools.partial(build_algebra, name) for name in CATALOG_NAMES}
LATTICE_INPUTS.update(
    {
        "F(Z2^3)": lambda: function_algebra(_z2_cubed()),
        "C(Z2^3)": lambda: group_algebra(_z2_cubed()),
        "F(D4)": lambda: function_algebra(FiniteGroup.dihedral(4)),
        "C(D4)": lambda: group_algebra(FiniteGroup.dihedral(4)),
        "C(Z8)": lambda: group_algebra(FiniteGroup.cyclic(8)),
        "F(D5)": lambda: function_algebra(FiniteGroup.dihedral(5)),
        "F(Z2)xC(S3)": lambda: tensor_product(
            function_algebra(FiniteGroup.cyclic(2)), group_algebra(FiniteGroup.symmetric(3))
        ),
    }
)


@functools.lru_cache(maxsize=None)
def lattice_input(name):
    """A freshly built algebra, shared by the tests of this section only."""
    return LATTICE_INPUTS[name]()


def direct_fusion(P):
    """N[l][m][n] = h(chi_l chi_m chi_n^*), one triple product per entry."""
    H = P.algebra
    chars = [c.character() for c in P.coreps]
    r = len(chars)
    N = [[[None] * r for _ in range(r)] for _ in range(r)]
    for l in range(r):
        for m in range(r):
            prod = H.product(chars[l], chars[m])
            for n in range(r):
                val = H.haar_of(H.product(prod, H.star_vec(chars[n])))
                assert val.is_rational()
                N[l][m][n] = val.as_fraction()
    return N


def subset_scan(H):
    """Hopf subalgebras by the 2^r scan over index sets containing the trivial
    one, each tested for closure under conjugation and fusion."""
    P = peter_weyl(H)
    r = len(P.coreps)
    N = direct_fusion(P)
    conj = [conjugate(P, i, N) for i in range(r)]
    blocks = P.blocks()
    out = []
    for mask in range(1 << r):
        members = [i for i in range(r) if (mask >> i) & 1]
        if P.triv_index not in members:
            continue
        if any(not (mask >> conj[i]) & 1 for i in members):
            continue
        if any(
            N[l][m][n] and not (mask >> n) & 1
            for l in members
            for m in members
            for n in range(r)
        ):
            continue
        total = Subspace.zero(H.field, H.dim)
        for i in members:
            total = total.sum_with(blocks[i])
        out.append(total)
    out.sort(key=lambda B: (B.dim, B.sort_key()))
    return out


@pytest.mark.parametrize("name", sorted(LATTICE_INPUTS))
def test_closure_enumeration_matches_subset_scan(name):
    H = lattice_input(name)
    got = [B.sort_key() for B in enumerate_hopf_subalgebras(H)]
    assert got == [B.sort_key() for B in subset_scan(H)]


def _z2_fourth():
    return FiniteGroup.direct_product(_z2_cubed(), FiniteGroup.cyclic(2))


CLOSURE_INPUTS = {name: functools.partial(build_algebra, name) for name in CATALOG_NAMES}
CLOSURE_INPUTS.update(
    {
        "F(S3)xZ2": build_s3_crossed,
        "D(S3)": build_drinfeld_double_s3,
        "F(Z2^4)": lambda: function_algebra(_z2_fourth()),
        "C(Z2^4)": lambda: group_algebra(_z2_fourth()),
    }
)


def full_closure_index_sets(P):
    """The closed index sets by the joins of _closed_index_sets, each join
    closed by the plain fixpoint: every pair of members and every conjugate
    is added again on each round, until a round adds nothing."""
    r = len(P.coreps)
    N = fusion(P)
    conj = [conjugate(P, i, N) for i in range(r)]

    def close(mask):
        while True:
            members = [i for i in range(r) if (mask >> i) & 1]
            grown = mask
            for l in members:
                grown |= 1 << conj[l]
                for m in members:
                    grown |= sum(1 << n for n in range(r) if N[l][m][n])
            if grown == mask:
                return mask
            mask = grown

    base = close(1 << P.triv_index)
    atoms = {close(base | 1 << i) for i in range(r)}
    found, frontier = {base}, [base]
    while frontier:
        fresh = {close(S | a) for S in frontier for a in atoms} - found
        found |= fresh
        frontier = list(fresh)
    return found


@pytest.mark.parametrize("name", sorted(CLOSURE_INPUTS))
def test_closed_index_sets_match_the_full_closure(name):
    P = peter_weyl(CLOSURE_INPUTS[name]())
    got = _closed_index_sets(P)
    assert got == full_closure_index_sets(P)
    if name in ("F(Z2^4)", "C(Z2^4)"):
        assert len(got) == 67
    # every set found is closed, checked pair by pair
    N, r = fusion(P), len(P.coreps)
    for mask in got:
        members = [i for i in range(r) if (mask >> i) & 1]
        assert all((mask >> conjugate(P, i, N)) & 1 for i in members)
        assert all((mask >> n) & 1 for l in members for m in members for n in range(r) if N[l][m][n])


@pytest.mark.parametrize("name", sorted(LATTICE_INPUTS))
def test_covector_fusion_matches_triple_products(name):
    P = peter_weyl(lattice_input(name))
    N = fusion(P)
    assert N == direct_fusion(P)
    r, t, dims = len(P.coreps), P.triv_index, P.dims
    for l in range(r):
        for m in range(r):
            assert N[t][m][l] == N[l][t][m] == int(l == m)
            assert sum(N[l][m][n] * dims[n] for n in range(r)) == dims[l] * dims[m]
            for p in range(r):
                for q in range(r):
                    # (l m) p and l (m p) decompose alike
                    assert sum(N[l][m][k] * N[k][p][q] for k in range(r)) == sum(
                        N[m][p][k] * N[l][k][q] for k in range(r)
                    )


# --- each algebra verified once ---------------------------------------------------


def test_lattice_verifies_the_parent_once(monkeypatch):
    calls = {"check_axioms": 0, "check_hopf_ideal": 0}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    # structure verifies through hopf.ensure_verified, which calls hopf.check_axioms
    count(hopfcheck.hopf, "check_axioms")
    count(hopfcheck.subgroup, "check_axioms")
    count(hopfcheck.subgroup, "check_hopf_ideal")
    qsubs = enumerate_quantum_subgroups(function_algebra(_z2_cubed()))
    assert len(qsubs) == 16
    assert calls == {"check_axioms": 1, "check_hopf_ideal": 0}
    # quotients are recorded as verified, so nested lattices certify too
    assert all(Q.quotient.verified for Q in qsubs)
    nested = enumerate_quantum_subgroups(qsubs[-2].quotient)
    assert len(nested) == 5 and all(Q.quotient.verified for Q in nested)
    assert calls == {"check_axioms": 1, "check_hopf_ideal": 0}


def test_verified_algebra_is_never_checked_again(monkeypatch):
    # F(D4) is verified once; its subalgebras and their quotients are then
    # certified by morphisms, without an axiom run or a dense tensor
    H = build_algebra("f_d4")
    assert check_axioms(H).ok
    calls = []

    def counted(*args):
        calls.append(args)
        return check_axioms(*args)

    # structure binds no check_axioms: it verifies through hopf.ensure_verified
    assert not hasattr(hopfcheck.structure, "check_axioms")
    for module in (hopfcheck.hopf, hopfcheck.subgroup):
        monkeypatch.setattr(module, "check_axioms", counted)
    for module in (hopfcheck.hopf, hopfcheck.structure, hopfcheck.subgroup):
        # no dense vector builder is bound, so none can run below
        assert not {"zero_vec", "basis_vec", "tensor_vec"} & set(vars(module))
    report = property_inheritance_suite(H)
    assert report["n_quantum_subgroups"] == 10 and report["quotients_inherit_F"]
    for Q in enumerate_quantum_subgroups(H):
        assert exact_sequence_check(Q) == is_normal_coset(Q)
    N, K = (
        make_subgroup(H, subgroup_ideal(H, SUBGROUP_IDEALS[key][1]))
        for key in ("f_d4.center", "f_d4.z4")
    )
    assert third_isomorphism_check(H, N, K)["claim_d_H_over_N_normal"]
    assert calls == []


def lattice_summary(H):
    """Everything the lattice of H decides, in comparable form."""
    out = []
    for Q in enumerate_quantum_subgroups(H):
        N = Q.quotient
        out.append(
            (
                Q.ideal.sort_key(),
                Q.reps,
                (N.mult, N.unit, N.comult, N.counit, N.antipode, N.star),
                N.haar,
                is_normal_coset(Q),
            )
        )
    return out


@pytest.mark.parametrize("name", sorted(CATALOG_NAMES) + ["F(S3)xZ2"])
def test_certified_lattice_matches_full_path(name, s3_crossed, monkeypatch):
    build = s3_crossed if name == "F(S3)xZ2" else functools.partial(build_algebra, name)
    certified = lattice_summary(build())
    # with no algebra verified, every quotient also runs the full check_axioms
    monkeypatch.setattr(HopfStarAlgebra, "verified", property(lambda self: False))
    full = lattice_summary(build())
    assert certified == full
    if name == "F(S3)xZ2":
        assert len(full) == 7 and sum(flag for *_, flag in full) == 4


def generated_subgroups(G):
    """Every subgroup generated by at most two elements, closed by brute force."""
    out = set()
    for a in range(G.order):
        for b in range(a, G.order):
            S = {G.identity, a, b}
            while True:
                grown = S | {G.mul(x, y) for x in S for y in S}
                if grown == S:
                    break
                S = grown
            out.add(frozenset(S))
    return out


def test_f_s4_lattice():
    S4 = FiniteGroup.symmetric(4)
    subs = generated_subgroups(S4)  # every subgroup of S4 is 2-generated
    assert len(subs) == 30
    normal = sorted(len(S) for S in subs if S4.is_normal_subgroup(S))
    assert normal == [1, 4, 12, 24]
    F = function_algebra(S4)
    by_ideal = {subgroup_ideal(F, sorted(S)).sort_key(): S for S in subs}
    qsubs = enumerate_quantum_subgroups(F)
    assert len(qsubs) == 30
    for Q in qsubs:
        S = by_ideal.pop(Q.ideal.sort_key())
        assert Q.quotient.dim == len(S)
        assert is_normal_coset(Q) == S4.is_normal_subgroup(S)
    assert not by_ideal


# --- properties F and FD ----------------------------------------------------------


def test_property_f(algebras):
    ok, witness = property_F_check(algebras["f_s3"])
    assert ok and witness is None
    ok, witness = property_F_check(algebras["c_s3"])
    assert not ok and witness.dim == 2  # a group-like pair with no normal match
    assert property_F_check(algebras["f_z6"])[0]
    assert property_F_check(algebras["f_d4"])[0]


def test_property_fd(algebras):
    ok, witness = property_FD_check(algebras["c_s3"])
    assert ok and witness is None
    ok, witness = property_FD_check(algebras["f_s3"])
    assert not ok and witness.quotient.dim == 2
    ok, witness = property_FD_check(algebras["f_d4"])
    assert not ok and witness.quotient.dim == 2
    assert property_FD_check(algebras["f_z6"])[0]


# --- ideal closure and pullbacks ----------------------------------------------------


def minimal_idempotent(C):
    """(1/3)(e + w^2 r + w r^2) for r the rotation and w a cube root of one."""
    field = C.field
    third = field.from_rational(Fraction(1, 3))
    omega = field.zeta() * field.zeta()  # zeta_6^2 is a primitive cube root
    v = [field.zero] * C.dim
    v[C.labels.index("e")] = third
    v[C.labels.index("(123)")] = third * omega * omega
    v[C.labels.index("(132)")] = third * omega
    return v


def rotation_span(C):
    field = C.field
    idx = [C.labels.index(l) for l in ("e", "(123)", "(132)")]
    return Subspace.from_vectors(
        field, C.dim, [basis_vec(field, C.dim, i) for i in idx]
    )


def test_ideal_closure_of_minimal_idempotent(algebras):
    C = algebras["c_s3"]
    e_w = minimal_idempotent(C)
    w = sparse_vector(e_w)
    assert C.product(w, w) == w
    seed = Subspace.from_vectors(C.field, 6, [e_w])
    closure = ideal_closure(C, seed)
    assert closure.dim == 4  # the full two dimensional matrix block
    again = ideal_closure(C, closure)
    assert again == closure


def test_pullback_fails_in_group_algebra(algebras):
    # the central idempotent generates more of A0 than it spans
    C = algebras["c_s3"]
    A0 = rotation_span(C)
    I0 = Subspace.from_vectors(C.field, 6, [minimal_idempotent(C)])
    holds, inter = pullback_check(C, A0, I0, mode="plain-ideal")
    assert not holds
    assert I0.dim == 1 and inter.dim == 2
    assert I0 <= inter


def test_pullback_hopf_mode_rejects_non_hopf_ideal(algebras):
    C = algebras["c_s3"]
    A0 = rotation_span(C)
    I0 = Subspace.from_vectors(C.field, 6, [minimal_idempotent(C)])
    with pytest.raises(NotHopfIdeal):
        pullback_check(C, A0, I0, mode="hopf-ideal")


def test_pullback_holds_for_function_algebras(algebras):
    F = algebras["f_s3"]
    from hopfcheck.subgroup import make_subgroup

    Q = make_subgroup(F, subgroup_ideal(F, ("e", "(123)", "(132)")))
    A0, _ = coset_algebras(Q)
    I0 = augmentation_part(F, A0)
    holds, inter = pullback_check(F, A0, I0, mode="hopf-ideal")
    assert holds and inter == I0
    holds, inter = pullback_check(F, A0, Subspace.zero(F.field, 6))
    assert holds and inter.dim == 0


def test_pullback_validates_inputs(algebras):
    C = algebras["c_s3"]
    field = C.field
    # (12)(123) is a third transposition, so this span is not closed
    not_closed = Subspace.from_vectors(
        C.field,
        6,
        [
            list(C.unit),
            basis_vec(field, 6, C.labels.index("(12)")),
            basis_vec(field, 6, C.labels.index("(123)")),
        ],
    )
    with pytest.raises(NotHopfIdeal):
        pullback_check(C, not_closed, Subspace.zero(field, 6))
    A0 = rotation_span(C)
    outside = Subspace.from_vectors(field, 6, [basis_vec(field, 6, 1)])
    with pytest.raises(NotHopfIdeal):
        pullback_check(C, A0, outside)
    not_ideal = Subspace.from_vectors(field, 6, [list(C.unit)])
    with pytest.raises(NotHopfIdeal):
        pullback_check(C, A0, not_ideal)


@pytest.mark.parametrize("mode", ["plain-ideal", "hopf-ideal"])
def test_pullback_rejects_an_ideal_of_another_ambient(algebras, mode):
    # a line of Q^3 whose coordinates read as a vector of A0: a shape error,
    # not a failed ideal condition
    C = algebras["c_s3"]
    A0 = rotation_span(C)
    e = C.labels.index("e")
    assert e < 3 and basis_vec(C.field, 6, e) in A0.basis()
    I0 = Subspace.from_vectors(C.field, 3, [basis_vec(C.field, 3, e)])
    with pytest.raises(SchemaError, match="ambient mismatch"):
        pullback_check(C, A0, I0, mode)


def test_pullback_names_a_failed_hopf_subalgebra_condition():
    # span{1, delta_e} is a unital *-subalgebra of F(S3) but Delta(delta_e)
    # leaves it: a typed NotHopfIdeal, not a schema (usage) error
    F = build_algebra("f_s3")
    delta_e = basis_vec(F.field, 6, F.labels.index("e"))
    A0 = Subspace.from_vectors(F.field, 6, [list(F.unit), delta_e])
    zero = Subspace.zero(F.field, 6)
    with pytest.raises(NotHopfIdeal, match=r"^A0 is not a Hopf \*-subalgebra \(coproduct\)$"):
        pullback_check(F, A0, zero, "hopf-ideal")
    holds, inter = pullback_check(F, A0, zero, "plain-ideal")
    assert holds and inter.dim == 0


# --- third isomorphism ----------------------------------------------------------------


def subgroup_of(F, labels):
    from hopfcheck.subgroup import make_subgroup

    return make_subgroup(F, subgroup_ideal(F, labels))


def test_third_iso_a3_chains(algebras):
    F = algebras["f_s3"]
    N = subgroup_of(F, ("e", "(123)", "(132)"))
    rep = third_isomorphism_check(F, N, N)
    assert rep["claim_a_N_normal_in_H"] and rep["claim_b_theta_image"]
    assert rep["claim_c_double_quotient"]
    assert rep["claim_d_H_over_N_normal"] is True
    assert rep["dims"] == {"G": 6, "A_H": 3, "A_N": 3, "A_GH": 2, "double_quotient": 2}

    rep2 = third_isomorphism_check(F, N, full_subgroup(F))
    assert rep2["dims"]["A_GH"] == 1 and rep2["dims"]["double_quotient"] == 1
    assert rep2["claim_d_H_over_N_normal"] is True


def test_third_iso_nonnormal_h(algebras):
    F = algebras["f_s3"]
    N = subgroup_of(F, ("e",))
    H = subgroup_of(F, ("e", "(12)"))
    rep = third_isomorphism_check(F, N, H)
    assert rep["claim_a_N_normal_in_H"] and rep["claim_b_theta_image"]
    assert rep["claim_c_double_quotient"]
    assert rep["claim_d_H_over_N_normal"] is None  # H itself is not normal


def test_third_iso_requires_containment(algebras):
    F = algebras["f_s3"]
    N = subgroup_of(F, ("e", "(123)", "(132)"))
    H = subgroup_of(F, ("e", "(12)"))
    with pytest.raises(ContainmentViolated):
        third_isomorphism_check(F, N, H)


def test_third_iso_requires_normal_n(algebras):
    F = algebras["f_s3"]
    H = subgroup_of(F, ("e", "(12)"))
    with pytest.raises(SchemaError):
        third_isomorphism_check(F, H, H)


def test_third_iso_d4_chain(algebras):
    # center inside the rotation subgroup inside the full group
    F = algebras["f_d4"]
    N = subgroup_of(F, ("e", "r2"))
    H = subgroup_of(F, ("e", "r", "r2", "r3"))
    rep = third_isomorphism_check(F, N, H)
    assert rep["claim_d_H_over_N_normal"] is True
    assert rep["dims"]["A_GH"] == 2
    assert rep["dims"]["double_quotient"] == 2


def test_third_iso_in_group_algebra(algebras):
    C = algebras["c_s3"]
    qsubs = enumerate_quantum_subgroups(C)
    by_dim = {Q.quotient.dim: Q for Q in qsubs}
    rep = third_isomorphism_check(C, by_dim[2], by_dim[6])
    assert rep["claim_d_H_over_N_normal"] is True
    rep2 = third_isomorphism_check(C, by_dim[2], by_dim[2])
    assert rep2["dims"]["double_quotient"] == rep2["dims"]["A_GH"]


# --- inheritance -----------------------------------------------------------------------


def test_inheritance_suite_function_algebra(algebras):
    rep = property_inheritance_suite(algebras["f_s3"])
    assert rep["property_F"] is True
    assert rep["property_FD"] is False
    assert rep["n_quantum_subgroups"] == 6 and rep["n_normal"] == 3
    assert rep["quotients_inherit_F"] is True
    assert rep["subgroups_inherit_FD"] is None
    assert rep["pullback_on_coset_pairs"] is None
    assert rep["quotients_inherit_FD"] is None


def test_inheritance_suite_group_algebra(algebras):
    rep = property_inheritance_suite(algebras["c_s3"])
    assert rep["property_F"] is False
    assert rep["property_FD"] is True
    assert rep["subgroups_inherit_FD"] is True
    assert rep["pullback_on_coset_pairs"] is True
    assert rep["quotients_inherit_FD"] is True
    assert rep["quotients_inherit_F"] is None


def test_inheritance_suite_abelian(algebras):
    rep = property_inheritance_suite(algebras["f_z6"])
    assert rep["property_F"] and rep["property_FD"]
    assert rep["quotients_inherit_F"] is True
    assert rep["subgroups_inherit_FD"] is True
    assert rep["pullback_on_coset_pairs"] is True
    assert rep["quotients_inherit_FD"] is True


def _dims_and_rows(subgroups):
    ordered = sorted(subgroups, key=lambda S: (S.quotient.dim, S.ideal.sort_key()))
    return [(S.quotient.dim, S.ideal.rows) for S in ordered]


@pytest.mark.parametrize("name", sorted(CATALOG_NAMES) + ["F(S3)xZ2", "D(S3)"])
def test_lattice_reads_match_recomputation(name, s3_crossed, drinfeld_s3):
    # the suite's three lattice reads against the recomputations they replace
    builders = {"F(S3)xZ2": s3_crossed, "D(S3)": drinfeld_s3}
    G = builders[name]() if name in builders else build_algebra(name)
    pairs = 0
    lattice = enumerate_quantum_subgroups(G)
    if name == "D(S3)":
        # neither commutative nor cocommutative
        assert (len(lattice), sum(map(is_normal_coset, lattice))) == (8, 6)
    for Q in lattice:
        # the up-set over I is the lattice of G/I
        own = enumerate_quantum_subgroups(Q.quotient)
        assert _dims_and_rows(_up_set(Q)) == _dims_and_rows(own)
        if not is_normal_coset(Q):
            continue
        A_GN, _ = coset_algebras(Q)
        sub, incl = sub_hopf_algebra(G, A_GN)
        # the down-set under A_GN is the Hopf *-subalgebra lattice of A_GN
        down = sorted(_down_set(G, A_GN), key=lambda B: (B.dim, B.sort_key()))
        assert down == enumerate_hopf_subalgebras(sub)
        # the least Hopf *-ideal over I0 is the ideal I0 generates
        for SQ in enumerate_quantum_subgroups(sub):
            I0 = SQ.ideal.map_by(incl, G.dim)
            assert _generated_ideal(G, I0) == ideal_closure(G, I0)
            pairs += 1
    assert pairs


# pairs (Q, J) of lattice members with Q's ideal inside J's: 140 in all
UP_SET_PAIRS = {
    "c_s3": 6, "c_z3": 3, "f_d4": 34, "f_s3": 15, "f_z2": 3, "f_z2_x_f_z3": 9,
    "f_z3": 3, "f_z3_rtimes_z2": 6, "f_z6": 9, "F(S3)xZ2": 22, "D(S3)": 30,
}


@pytest.mark.parametrize("name", sorted(UP_SET_PAIRS))
def test_up_set_members_are_the_quotients_make_subgroup_builds(name, s3_crossed, drinfeld_s3):
    # each up-set member is G/J reached through phi; make_subgroup(G/I, K)
    # certifies the same K from scratch
    builders = {"F(S3)xZ2": s3_crossed, "D(S3)": drinfeld_s3}
    G = builders[name]() if name in builders else build_algebra(name)

    def constants(H):
        return (H.mult, H.comult, H.unit, H.counit, H.antipode, H.star, H.labels)

    pairs = 0
    for Q in enumerate_quantum_subgroups(G):
        for S in _up_set(Q):
            ref = make_subgroup(Q.quotient, S.ideal)
            assert S.parent is Q.quotient
            assert S.ideal.rows == ref.ideal.rows
            assert S.proj_columns == ref.proj_columns
            assert S.reps == ref.reps
            assert constants(S.quotient) == constants(ref.quotient)
            assert is_normal_coset(S) == is_normal_coset(ref)
            pairs += 1
    assert pairs == UP_SET_PAIRS[name]


# admissible chains (N, H) of lattice members: N normal, H's ideal inside
# N's; f_s3 and f_d4 give the 31 of acceptance test 4
CHAINS = {
    "c_s3": 6, "c_z3": 3, "f_d4": 22, "f_s3": 9, "f_z2": 3, "f_z2_x_f_z3": 9,
    "f_z3": 3, "f_z3_rtimes_z2": 6, "f_z6": 9, "F(S3)xZ2": 14, "D(S3)": 24,
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_third_iso_reads_h_over_n_off_n(name, s3_crossed, drinfeld_s3):
    # H/N is _quotient_of(H, N), N's own quotient; make_subgroup certifies
    # the kernel of pi1 anew
    builders = {"F(S3)xZ2": s3_crossed, "D(S3)": drinfeld_s3}
    G = builders[name]() if name in builders else build_algebra(name)

    def constants(H):
        return (H.mult, H.comult, H.unit, H.counit, H.antipode, H.star, H.labels)

    subs = enumerate_quantum_subgroups(G)
    chains = 0
    for N in filter(is_normal_coset, subs):
        for H in subs:
            if not H.ideal <= N.ideal:
                continue
            S = _quotient_of(H, N)
            pi1 = _induced_map(H, N)
            ref = make_subgroup(H.quotient, sparse_kernel(G.field, N.quotient.dim, pi1))
            assert S.parent is H.quotient and S.quotient is N.quotient
            assert S.ideal.rows == ref.ideal.rows
            assert S.proj_columns == ref.proj_columns == pi1
            assert S.reps == ref.reps
            assert constants(S.quotient) == constants(ref.quotient)
            assert normality_report(S).as_dict() == normality_report(ref).as_dict()
            chains += 1
    assert chains == CHAINS[name]


def _break_a_lattice_projection(G):
    """Alter one entry of the projection columns of G's smallest quotient
    at a pivot of a smaller lattice ideal I; returns the subgroup of I."""
    lattice = enumerate_quantum_subgroups(G)
    J = lattice[0]
    Q = next(Q for Q in lattice if 0 < Q.ideal.dim < J.ideal.dim)
    r = Q.ideal.pivots[0]
    one = ((0, G.field.one),)
    J.proj_columns[r] = () if J.proj_columns[r] == one else one
    return Q


def test_up_set_rejects_a_broken_induced_map():
    Q = _break_a_lattice_projection(build_algebra("f_s3"))
    with pytest.raises(TheoremViolation, match="pi1 is not well-defined"):
        _up_set(Q)


def test_up_set_rejects_a_broken_induced_map_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        "from hopfcheck.catalog import build_algebra\n"
        "from hopfcheck.errors import TheoremViolation\n"
        "from hopfcheck.structure import _up_set\n"
        "from test_structure import _break_a_lattice_projection\n"
        "assert False, 'asserts are live'\n"
        "Q = _break_a_lattice_projection(build_algebra('f_s3'))\n"
        "try:\n"
        "    _up_set(Q)\n"
        "    print('accepted')\n"
        "except TheoremViolation as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["pi1 is not well-defined on the quotient"]


@pytest.mark.parametrize("name", sorted(CATALOG_NAMES))
def test_improper_copies_carry_the_structure_constants(name):
    G = build_algebra(name)

    def constants(H):
        return (H.mult, H.comult, H.unit, H.counit, H.antipode, H.star)

    sub, _ = sub_hopf_algebra(G, Subspace.full(G.field, G.dim))
    assert constants(sub) == constants(G)
    assert constants(full_subgroup(G).quotient) == constants(G)


@pytest.mark.parametrize("name", ["f_z6", "c_s3"])
def test_suite_reads_the_parents_lattice(name, monkeypatch):
    closures, certified, dualized, enumerated, quotients = [], [], [], [], []

    def record(module, fname, log, result=False):
        real = getattr(module, fname)

        def recorded(*args):
            out = real(*args)
            log.append(out if result else args[0])
            return out

        monkeypatch.setattr(module, fname, recorded)

    for module in (hopfcheck.subgroup, hopfcheck.structure):
        record(module, "ideal_closure", closures)
    for module in (hopfcheck.hopf, hopfcheck.structure):
        record(module, "certified_subalgebra", certified)
    for module in (hopfcheck.splitting, hopfcheck.structure):
        record(module, "dual", dualized)
    record(hopfcheck.structure, "enumerate_quantum_subgroups", enumerated)
    record(hopfcheck.structure, "enumerate_hopf_subalgebras", enumerated)
    record(hopfcheck.structure, "make_subgroup", quotients, result=True)
    G = build_algebra(name)
    report = property_inheritance_suite(G)
    assert report["subgroups_inherit_FD"] and report["quotients_inherit_FD"]
    assert closures == []
    assert quotients
    for Q in quotients:
        assert not any(H is Q.quotient for H in dualized)
        assert not any(H is Q.quotient for H in enumerated)
    proper = [Q for Q in enumerate_quantum_subgroups(G) if coset_algebras(Q)[0].dim < G.dim]
    assert 0 < len(certified) <= sum(is_normal_coset(Q) for Q in proper)


def test_suite_report_is_the_same_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    code = (
        "import json\n"
        "from hopfcheck.catalog import build_algebra\n"
        "from hopfcheck.structure import property_inheritance_suite\n"
        "for name in ('f_d4', 'c_s3'):\n"
        "    print(json.dumps(property_inheritance_suite(build_algebra(name)), sort_keys=True))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env
        )
        for flags in ([], ["-O"])
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    assert len(runs[0].stdout.splitlines()) == 2


# a Latin square with identity 0 that is no group: (2*2)*4 = 3 but 2*(2*4) = 2
LOOP6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 4, 5, 0, 1],
    [3, 2, 5, 4, 1, 0],
    [4, 5, 0, 1, 3, 2],
    [5, 4, 1, 0, 2, 3],
]


def loop_algebra(kind):
    """F(T) or C(T) for the loop T = LOOP6, by the group formulas over Q."""
    T, n = LOOP6, len(LOOP6)
    inv = [row.index(0) for row in T]
    one = Fraction(1)
    antipode = [(i, inv[i], one) for i in range(n)]
    if kind == "F":
        mult = [(i, i, i, one) for i in range(n)]
        comult = [(T[x][y], x, y, one) for x in range(n) for y in range(n)]
        return HopfStarAlgebra(
            1, mult, [one] * n, comult, [int(i == 0) for i in range(n)], antipode,
            [(i, i, one) for i in range(n)],
        )
    mult = [(x, y, T[x][y], one) for x in range(n) for y in range(n)]
    comult = [(i, i, i, one) for i in range(n)]
    return HopfStarAlgebra(
        1, mult, [int(i == 0) for i in range(n)], comult, [one] * n, antipode, antipode
    )


@pytest.mark.parametrize(
    "kind, detail",
    [("F", "coassociativity"), ("C", "associativity, star_antimultiplicative")],
)
def test_loop_algebra_lattice_names_the_failed_axioms(kind, detail, tmp_path):
    # the axioms are checked before the dual is split, so a loop is reported
    # as what it is, not as a splitting failure
    for decide in (enumerate_quantum_subgroups, property_F_check):
        with pytest.raises(AxiomsFailed, match=r"^not a Hopf \*-algebra: %s$" % detail):
            decide(loop_algebra(kind))
    path = tmp_path / "loop.hopf.json"
    save_algebra(loop_algebra(kind), path)
    for cmd in ("subgroups", "props", "irreps"):
        code, report = cli_dispatch([cmd, str(path)])
        assert code == 1
        assert report["results"] == {
            "error": "AxiomsFailed",
            "detail": "not a Hopf *-algebra: " + detail,
        }


# --- typed preconditions, no asserts ------------------------------------------------


def test_preconditions_raise_schema_error_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    code = (
        "from hopfcheck.constructions import FiniteGroup, function_algebra, subgroup_ideal\n"
        "from hopfcheck.errors import SchemaError\n"
        "from hopfcheck.linalg import Subspace\n"
        "from hopfcheck.structure import pullback_check, third_isomorphism_check\n"
        "from hopfcheck.subgroup import full_subgroup, make_subgroup\n"
        "assert False, 'asserts are live'\n"
        "F = function_algebra(FiniteGroup.symmetric(3))\n"
        "T = make_subgroup(F, subgroup_ideal(F, ('e', '(12)')))\n"
        "other = full_subgroup(function_algebra(FiniteGroup.symmetric(3)))\n"
        "zero = Subspace.zero(F.field, F.dim)\n"
        "for call in (\n"
        "    lambda: pullback_check(F, Subspace.full(F.field, F.dim), zero, 'hopf'),\n"
        "    lambda: third_isomorphism_check(F, other, T),\n"
        "    lambda: third_isomorphism_check(F, T, T),\n"
        "):\n"
        "    try:\n"
        "        call()\n"
        "        print('accepted')\n"
        "    except SchemaError as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "unknown pullback mode 'hopf'",
        "N and H must be quantum subgroups of G",
        "N must be a normal quantum subgroup",
    ]
