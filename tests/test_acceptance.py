"""End-to-end acceptance gate.

Each test exercises one headline guarantee across the whole shipped catalog
and emits a single PASS/FAIL line, repeated in the terminal summary block.
All arithmetic is exact; nothing here carries a tolerance.
"""

import random
from fractions import Fraction

from hopfcheck.constructions import (
    FiniteGroup,
    GroupAction,
    crossed_canonical_subgroup,
    crossed_general_subgroup,
    crossed_product,
    function_algebra,
    group_algebra,
    inversion_action,
    subgroup_ideal,
    tensor_subgroup,
)
from hopfcheck.corep import peter_weyl
from hopfcheck.errors import TheoremViolation
from hopfcheck.hopf import (
    HopfStarAlgebra,
    check_axioms,
    compute_haar,
    convolve,
    counit_unit,
    dual,
)
from hopfcheck.linalg import Matrix, Subspace, basis_vec, sparse_identity, tensor_vec, zero_vec
from hopfcheck.structure import (
    enumerate_quantum_subgroups,
    ideal_closure,
    property_F_check,
    property_FD_check,
    property_inheritance_suite,
    pullback_check,
    third_isomorphism_check,
)
from hopfcheck.subgroup import (
    check_hopf_ideal,
    coset_algebras,
    exact_sequence_check,
    is_normal_coset,
    is_normal_rep,
    make_subgroup,
    normality_report,
    phi_map,
    reconstruction_check,
)

from dense_maps import map_entries, matmul

SEED = 20260815


def _finish(request, num, desc, failures):
    status = "PASS" if not failures else "FAIL: " + "; ".join(failures[:4])
    line = "ACCEPTANCE %d %s: %s" % (num, desc, status)
    print(line)
    request.config.acceptance_lines.append(line)
    assert not failures, line


def test_acceptance_1_criteria_agree(request, algebras):
    failures = []
    total = 0
    for name, H in algebras.items():
        for Q in enumerate_quantum_subgroups(H):
            rep = normality_report(Q)
            flags = (
                rep.rep_criterion,
                rep.left_a_normal,
                rep.right_a_normal,
                rep.coset_equality,
            )
            if len(set(flags)) != 1 or not rep.agree:
                failures.append(
                    "%s quotient dim %d: criteria disagree %s"
                    % (name, Q.quotient.dim, flags)
                )
            total += 1
    if total != 36:
        failures.append("expected 36 catalog subgroups, saw %d" % total)
    _finish(request, 1, "four normality criteria agree on every catalog subgroup", failures)


def test_acceptance_2_restriction_matrices(request, algebras):
    failures = []
    F = algebras["f_s3"]
    P = peter_weyl(F)
    alternating = make_subgroup(F, subgroup_ideal(F, ("e", "(123)", "(132)")))
    ok, mats = is_normal_rep(alternating, P)
    if not ok:
        failures.append("index-two subgroup not normal by the matrix criterion")
    for i, c in enumerate(P.coreps):
        M = mats[i]
        if c.dim == 1 and M != Matrix.identity(F.field, 1):
            failures.append("one dimensional block does not restrict to I")
        if c.dim == 2 and not M.is_zero():
            failures.append("two dimensional block does not restrict to 0")
    transposition = make_subgroup(F, subgroup_ideal(F, ("e", "(12)")))
    ok2, mats2 = is_normal_rep(transposition, P)
    if ok2:
        failures.append("order-two transposition subgroup reported normal")
    M = mats2[next(i for i, c in enumerate(P.coreps) if c.dim == 2)]
    if matmul(M, M) != M:
        failures.append("two dimensional restriction matrix is not idempotent")
    if M.is_zero() or M == Matrix.identity(F.field, 2):
        failures.append("restriction matrix is a trivial projection")
    _finish(request, 2, "restriction matrices single out the normal subgroup", failures)


def test_acceptance_3_reconstruction(request, algebras):
    failures = []
    n_normal = 0
    for name, H in algebras.items():
        for Q in enumerate_quantum_subgroups(H):
            try:
                phi_map(Q)
            except TheoremViolation:
                failures.append("%s: phi identities fail at dim %d" % (name, Q.quotient.dim))
            if not is_normal_coset(Q):
                continue
            n_normal += 1
            if not reconstruction_check(Q):
                failures.append(
                    "%s: kernel is not the two-sided augmentation product" % name
                )
            if not exact_sequence_check(Q):
                failures.append("%s: exact sequence fails at dim %d" % (name, Q.quotient.dim))
    if n_normal != 29:
        failures.append("expected 29 normal subgroups, saw %d" % n_normal)
    _finish(request, 3, "reconstruction, exactness, and phi identities", failures)


def test_acceptance_4_third_isomorphism(request, algebras):
    failures = []
    chains = 0
    proper_chain = False
    for name in ("f_s3", "f_d4"):
        H = algebras[name]
        subs = enumerate_quantum_subgroups(H)
        for N in subs:
            if not is_normal_coset(N):
                continue
            for K in subs:
                if not (K.ideal <= N.ideal):
                    continue
                rep = third_isomorphism_check(H, N, K)
                for claim in (
                    "claim_a_N_normal_in_H",
                    "claim_b_theta_image",
                    "claim_c_double_quotient",
                ):
                    if not rep[claim]:
                        failures.append("%s: %s fails" % (name, claim))
                chains += 1
                dims = rep["dims"]
                if name == "f_d4" and 1 < dims["A_N"] < dims["A_H"] < dims["G"]:
                    proper_chain = True
    if chains != 31:
        failures.append("expected 31 admissible chains, saw %d" % chains)
    if not proper_chain:
        failures.append("no proper intermediate chain was exercised")
    _finish(request, 4, "double quotients collapse on every admissible chain", failures)


def _minimal_idempotent(C):
    field = C.field
    third = field.from_rational(Fraction(1, 3))
    omega = field.zeta() * field.zeta()
    v = zero_vec(field, C.dim)
    v[C.labels.index("e")] = third
    v[C.labels.index("(123)")] = third * omega * omega
    v[C.labels.index("(132)")] = third * omega
    return v


def test_acceptance_5_pullback_counterexample(request, algebras):
    failures = []
    C = algebras["c_s3"]
    field = C.field
    rotations = [C.labels.index(l) for l in ("e", "(123)", "(132)")]
    A0 = Subspace.from_vectors(
        field, C.dim, [basis_vec(field, C.dim, i) for i in rotations]
    )
    I0 = Subspace.from_vectors(field, C.dim, [_minimal_idempotent(C)])
    holds, inter = pullback_check(C, A0, I0, mode="plain-ideal")
    if holds:
        failures.append("pullback identity unexpectedly holds")
    if I0.dim != 1 or inter.dim != 2:
        failures.append("dims are %d vs %d, want 1 vs 2" % (I0.dim, inter.dim))
    if not (I0 <= inter):
        failures.append("intersection does not contain the seed ideal")
    if inter != ideal_closure(C, I0).intersect(A0):
        failures.append("intersection disagrees with the generated ideal")
    _finish(request, 5, "group algebra pullback counterexample reproduced", failures)


def test_acceptance_6_properties_and_inheritance(request, algebras):
    failures = []
    if not property_F_check(algebras["f_s3"])[0]:
        failures.append("commutative catalog algebra lost property F")
    if not property_FD_check(algebras["c_s3"])[0]:
        failures.append("cocommutative catalog algebra lost property FD")
    ok, witness = property_F_check(algebras["c_s3"])
    if ok or witness is None or witness.dim != 2:
        failures.append("missing dimension-two witness against property F")
    for name, H in algebras.items():
        suite = property_inheritance_suite(H)
        if suite["property_F"] and suite["quotients_inherit_F"] is not True:
            failures.append("%s: quotients drop property F" % name)
        if suite["property_FD"]:
            for key in (
                "subgroups_inherit_FD",
                "pullback_on_coset_pairs",
                "quotients_inherit_FD",
            ):
                if suite[key] is not True:
                    failures.append("%s: %s failed" % (name, key))
    _finish(request, 6, "properties F and FD verified with inheritance", failures)


def _klein_crossed():
    F = function_algebra(FiniteGroup.cyclic(3))
    inv = inversion_action(F)
    v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    maps = [
        map_entries(inv.maps[1] if v4.labels[t][1:-1].split(",")[0] == "g" else inv.maps[0])
        for t in range(4)
    ]
    return crossed_product(F, GroupAction(v4, F, maps)), v4


def _crossed_haar(X):
    """The closed form h(a gamma) = h_A(a) for gamma = e, else 0."""
    A, G = X.meta["inner"], X.meta["group"]
    zero = X.field.zero
    return [A.haar[i] if t == G.identity else zero for i in range(A.dim) for t in range(G.order)]


def test_acceptance_7_products(request, algebras):
    failures = []
    # quotienting a tensor product factorwise is again factorwise
    F = algebras["f_s3"]
    C = group_algebra(FiniteGroup.cyclic(2))
    Q1 = make_subgroup(F, subgroup_ideal(F, ("e", "(123)", "(132)")))
    for Q2 in (
        make_subgroup(C, Subspace.zero(C.field, 2)),
        enumerate_quantum_subgroups(C)[0],
    ):
        QT = tensor_subgroup(Q1, Q2)
        field = QT.parent.field
        lifted = [
            tensor_vec([field.lift(x) for x in b1], [field.lift(x) for x in b2])
            for b1 in coset_algebras(Q1)[0].basis()
            for b2 in coset_algebras(Q2)[0].basis()
        ]
        if coset_algebras(QT)[0] != Subspace.from_vectors(field, QT.parent.dim, lifted):
            failures.append("tensor coset algebra is not the tensor of cosets")
        if not normality_report(QT).normal:
            failures.append("factorwise tensor subgroup is not normal")

    X = algebras["f_z3_rtimes_z2"]
    rep = normality_report(crossed_canonical_subgroup(X))
    if not (rep.normal and rep.agree):
        failures.append("canonical crossed subgroup is not normal by all criteria")
    if _crossed_haar(X) != compute_haar(X):
        failures.append("closed-form crossed Haar disagrees with the solver")

    X12, v4 = _klein_crossed()
    kernel = [l for l in v4.labels if l[1:-1].split(",")[0] == "e"]
    Q12 = crossed_general_subgroup(X12, Subspace.zero(X12.meta["inner"].field, 3), kernel)
    rep12 = normality_report(Q12)
    if not (rep12.normal and rep12.agree):
        failures.append("general crossed subgroup is not normal by all criteria")
    if _crossed_haar(X12) != compute_haar(X12):
        failures.append("crossed Haar formula fails on the Klein example")

    for name, H in algebras.items():
        for Q in enumerate_quantum_subgroups(H):
            if not is_normal_coset(Q):
                continue
            if coset_algebras(Q)[0].dim * Q.quotient.dim != H.dim:
                failures.append("%s: dimensions do not multiply" % name)
    _finish(request, 7, "tensor and crossed product subgroups behave", failures)


def test_acceptance_8_property_suites(request, algebras):
    failures = []
    for name, H in algebras.items():
        if not check_axioms(H).ok:
            failures.append("%s: axiom check failed" % name)
        h = H.haar
        one = list(H.unit)
        for i in range(H.dim):
            left = zero_vec(H.field, H.dim)
            right = zero_vec(H.field, H.dim)
            for j, k, c in H.comult[i]:
                left[j] = left[j] + c * h[k]
                right[k] = right[k] + c * h[j]
            expect = [h[i] * u for u in one]
            if left != expect or right != expect:
                failures.append("%s: Haar is not bi-invariant" % name)
                break
        ident = sparse_identity(H.field, H.dim)
        cu = counit_unit(H)
        if convolve(H, H.antipode, ident) != cu:
            failures.append("%s: antipode is not a convolution inverse" % name)
        if convolve(H, cu, ident) != ident:
            failures.append("%s: convolution unit is not neutral" % name)
        DD = dual(dual(H))
        if DD.mult != H.mult or DD.comult != H.comult:
            failures.append("%s: double dual moved the structure" % name)
        P = peter_weyl(H)
        if sum(d * d for d in P.dims) != H.dim:
            failures.append("%s: matrix block dimensions do not fill the algebra" % name)
        chars = [c.character() for c in P.coreps]
        for a, xa in enumerate(chars):
            for b, xb in enumerate(chars):
                val = H.haar_of(H.product(xa, H.star_vec(xb)))
                if not (val.is_one() if a == b else val.is_zero()):
                    failures.append("%s: characters are not orthonormal" % name)

    rng = random.Random(SEED)
    names = list(algebras)
    n_probes = 0
    for _ in range(60):
        H = algebras[rng.choice(names)]
        k = rng.randrange(1, H.dim)
        vecs = [
            [
                H.field.from_rational(Fraction(rng.randrange(-2, 3)))
                for _ in range(H.dim)
            ]
            for _ in range(k)
        ]
        V = Subspace.from_vectors(H.field, H.dim, vecs)
        ok, witness = check_hopf_ideal(H, V)
        if ok:
            if not normality_report(make_subgroup(H, V)).agree:
                failures.append("criteria disagree on a random admissible ideal")
        elif not witness.get("condition"):
            failures.append("rejection carries no witness condition")
        n_probes += 1
    for _ in range(60):
        H = algebras[rng.choice(names)]
        mult = {(a, b, c): x for a, b, c, x in H.mult_entries()}
        comult = {(a, b, c): x for a, b, c, x in H.comult_entries()}
        i, j, k = (rng.randrange(H.dim) for _ in range(3))
        # add one to the entry at (i, j, k), creating it if absent
        tensor = mult if rng.random() < 0.5 else comult
        tensor[i, j, k] = tensor.get((i, j, k), H.field.zero) + H.field.one
        broken = HopfStarAlgebra(
            H.field,
            [key + (x,) for key, x in mult.items()],
            list(H.unit),
            [key + (x,) for key, x in comult.items()],
            list(H.counit),
            H.antipode_entries(),
            H.star_entries(),
        )
        if check_axioms(broken).ok:
            failures.append("a perturbed structure tensor passed every axiom")
        n_probes += 1
    if n_probes < 100:
        failures.append("only %d randomized probes ran" % n_probes)
    _finish(request, 8, "axiom, Haar, duality, and randomized probe suites", failures)
