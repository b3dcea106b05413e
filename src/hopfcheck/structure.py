"""Lattice-level structure: enumerations, properties F and FD, pullbacks,
and the third isomorphism theorem.

Enumeration rests on cosemisimplicity: a Hopf *-subalgebra is a sum of
coefficient blocks whose index set contains the trivial corepresentation and
is closed under conjugation and fusion, so subset search over irreps is
complete.  Quantum subgroups are enumerated through the dual: Hopf
subalgebras of the dual correspond to Hopf *-ideals via annihilators.
Both lattices are enumerated once per algebra and kept in its memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .corep import conjugate, fusion, peter_weyl
from .errors import CapExceeded, ContainmentViolated, NotHopfIdeal, TheoremViolation
from .hopf import HopfStarAlgebra, dual, sub_hopf_algebra
from .linalg import Matrix, Subspace, basis_vec
from .subgroup import (
    QuantumSubgroup,
    check_hopf_ideal,
    coset_algebras,
    is_normal_coset,
    make_subgroup,
    normality_report,
)

MAX_IRREPS = 20
MAX_SUBSETS = 1 << 16


def enumerate_hopf_subalgebras(H: HopfStarAlgebra):
    """All Hopf *-subalgebras, as fusion-closed sums of coefficient blocks.

    Returned as a new list in a canonical order: by dimension, then by the
    echelon key of the subspace.  Complete for cosemisimple algebras; raises
    CapExceeded rather than silently truncating.
    """
    return list(H.memo("hopf_subalgebras", lambda: _hopf_subalgebras(H)))


def _hopf_subalgebras(H):
    P = peter_weyl(H)
    r = len(P.coreps)
    if r > MAX_IRREPS:
        raise CapExceeded("%d irreducibles exceeds the cap %d" % (r, MAX_IRREPS))
    if 1 << max(r - 1, 0) > MAX_SUBSETS:
        raise CapExceeded("subset search space exceeds %d" % MAX_SUBSETS)
    N = fusion(P)
    conj = [conjugate(P, i, N) for i in range(r)]
    triv = P.triv_index
    blocks = P.blocks()
    out = []
    for mask in range(1 << r):
        if not (mask >> triv) & 1:
            continue
        members = [i for i in range(r) if (mask >> i) & 1]
        ok = all((mask >> conj[i]) & 1 for i in members)
        if ok:
            for l in members:
                for m in members:
                    for n in range(r):
                        if N[l][m][n] and not (mask >> n) & 1:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
        if not ok:
            continue
        total = Subspace.zero(H.field, H.dim)
        for i in members:
            total = total.sum_with(blocks[i])
        out.append(total)
    out.sort(key=lambda B: (B.dim, B.sort_key()))
    return tuple(out)


def enumerate_quantum_subgroups(H: HopfStarAlgebra):
    """All quantum subgroups, via annihilators of dual Hopf subalgebras.

    Returned as a new list; the subgroup objects are shared between calls.
    """
    return list(H.memo("quantum_subgroups", lambda: _quantum_subgroups(H)))


def _quantum_subgroups(H):
    out = []
    for B in enumerate_hopf_subalgebras(dual(H)):
        ann = Matrix.from_rows(H.field, B.basis(), ncols=H.dim).kernel()
        out.append(make_subgroup(H, ann))
    out.sort(key=lambda Q: (Q.quotient.dim, Q.ideal.sort_key()))
    return tuple(out)


@dataclass
class SubgroupLattice:
    """Hopf subalgebras and quantum subgroups of one algebra, with flags."""

    algebra: HopfStarAlgebra
    hopf_subalgebras: list = dc_field(default_factory=list)
    quantum_subgroups: list = dc_field(default_factory=list)
    normal_flags: list = dc_field(default_factory=list)
    block_sets: list = dc_field(default_factory=list)

    def as_dict(self):
        return {
            "subalgebra_dims": [B.dim for B in self.hopf_subalgebras],
            "subalgebra_blocks": [list(s) for s in self.block_sets],
            "subgroup_dims": [Q.quotient.dim for Q in self.quantum_subgroups],
            "ideal_dims": [Q.ideal.dim for Q in self.quantum_subgroups],
            "normal_flags": list(self.normal_flags),
        }


def subgroup_lattice(H: HopfStarAlgebra) -> SubgroupLattice:
    P = peter_weyl(H)
    subs = enumerate_hopf_subalgebras(H)
    qsubs = enumerate_quantum_subgroups(H)
    flags = [is_normal_coset(Q) for Q in qsubs]
    blocks = P.blocks()
    sets = [tuple(i for i, blk in enumerate(blocks) if blk <= B) for B in subs]
    return SubgroupLattice(H, subs, qsubs, flags, sets)


def property_F_check(H: HopfStarAlgebra):
    """Every Hopf *-subalgebra is a coset algebra of a normal quantum subgroup.

    Returns (ok, witness) with the first unmatched subalgebra as witness.
    """
    subs = enumerate_hopf_subalgebras(H)
    qsubs = enumerate_quantum_subgroups(H)
    normal_cosets = [coset_algebras(Q)[0] for Q in qsubs if is_normal_coset(Q)]
    for B in subs:
        if not any(B == C for C in normal_cosets):
            return False, B
    return True, None


def property_FD_check(H: HopfStarAlgebra):
    """Every quantum subgroup is normal; witness is the first non-normal one."""
    qsubs = enumerate_quantum_subgroups(H)
    P = peter_weyl(H)
    for Q in qsubs:
        report = normality_report(Q, P)
        if not report.normal:
            return False, Q
    return True, None


def _closed_under_products(H, B: Subspace):
    ech = B.echelon()
    basis = B.basis()
    if not ech.contains(H.unit_vec()):
        return False
    return all(ech.contains(H.product(x, y)) for x in basis for y in basis)


def ideal_closure(H: HopfStarAlgebra, seed: Subspace) -> Subspace:
    """The two-sided ideal generated by a subspace, by span growth."""
    full = [basis_vec(H.field, H.dim, i) for i in range(H.dim)]
    cur = seed
    while True:
        vecs = cur.basis()
        grown = list(vecs)
        for v in vecs:
            for e in full:
                grown.append(H.product(e, v))
                grown.append(H.product(v, e))
        nxt = Subspace.from_vectors(H.field, H.dim, grown)
        if nxt == cur:
            return cur
        cur = nxt


def pullback_check(A: HopfStarAlgebra, A0: Subspace, I0: Subspace, mode: str = "hopf-ideal"):
    """Does the ideal of A generated by I0 pull back to I0 inside A0?

    Computes I = A.I0.A by span growth and returns (I and A0 == I0, I and A0).
    mode "plain-ideal" requires A0 a unital *-subalgebra with I0 a two-sided
    *-ideal of it; mode "hopf-ideal" requires A0 a Hopf *-subalgebra and I0 a
    Hopf *-ideal of it.
    """
    assert mode in ("plain-ideal", "hopf-ideal")
    if not _closed_under_products(A, A0):
        raise NotHopfIdeal("A0 is not a unital subalgebra")
    ech0 = A0.echelon()
    if not all(ech0.contains(A.star_vec(x)) for x in A0.basis()):
        raise NotHopfIdeal("A0 is not *-closed")
    if not all(ech0.contains(v) for v in I0.basis()):
        raise NotHopfIdeal("I0 does not lie inside A0")
    iech = I0.echelon()
    for b in I0.basis():
        for x in A0.basis():
            if not iech.contains(A.product(x, b)) or not iech.contains(A.product(b, x)):
                raise NotHopfIdeal("I0 is not a two-sided ideal of A0")
        if not iech.contains(A.star_vec(b)):
            raise NotHopfIdeal("I0 is not *-closed")
    if mode == "hopf-ideal":
        sub, _incl = sub_hopf_algebra(A, A0)
        inner = Subspace.from_vectors(
            A.field, A0.dim, [A0.coordinates(b) for b in I0.basis()]
        )
        ok, witness = check_hopf_ideal(sub, inner)
        if not ok:
            raise NotHopfIdeal(
                "I0 is not a Hopf *-ideal of A0 (%s)" % witness["condition"]
            )
    closure = ideal_closure(A, I0)
    inter = closure.intersect(A0)
    return inter == I0, inter


def third_isomorphism_check(G: HopfStarAlgebra, N: QuantumSubgroup, H: QuantumSubgroup):
    """The third isomorphism theorem for a normal N inside a subgroup H.

    Requires ker(theta) inside ker(pi), i.e. H's ideal contained in N's.
    Returns a report dict with the four claims; raises ContainmentViolated
    when the chain precondition fails.
    """
    assert N.parent is G and H.parent is G
    assert is_normal_coset(N), "N must be a normal quantum subgroup"
    if not H.ideal <= N.ideal:
        raise ContainmentViolated("ker(theta) is not contained in ker(pi)")
    field = G.field

    # pi1 on A_H defined by pi1(theta(a)) = pi(a); exactness verified
    pi1 = N.proj * H.section()
    assert pi1 * H.proj == N.proj, "pi1 is not well-defined on the quotient"

    # (a) N is normal inside H, i.e. the ideal ker(pi1) is normal in A_H
    QN_in_H = make_subgroup(H.quotient, pi1.kernel())
    claim_a = normality_report(QN_in_H).normal

    # (b) theta maps the coset algebra A_GN onto A_{H/N}
    A_GN, _ = coset_algebras(N)
    theta_image = Subspace.from_vectors(
        field, H.quotient.dim, [H.proj.apply(b) for b in A_GN.basis()]
    )
    A_HN, _ = coset_algebras(QN_in_H)
    claim_b = theta_image == A_HN

    # (c) the double quotient: realize G/N as the Hopf subalgebra A_GN,
    # restrict theta to it, and compare cosets inside A_G
    sub, incl = sub_hopf_algebra(G, A_GN)
    theta_incl = H.proj * incl
    Q2 = make_subgroup(sub, theta_incl.kernel())
    inner_coset, _ = coset_algebras(Q2)
    pushed = Subspace.from_vectors(
        field, G.dim, [incl.apply(b) for b in inner_coset.basis()]
    )
    A_GH, _ = coset_algebras(H)
    claim_c = pushed == A_GH

    # (d) if H is normal in G then H/N is normal in G/N
    claim_d = None
    if is_normal_coset(H):
        claim_d = normality_report(Q2).normal

    report = {
        "claim_a_N_normal_in_H": claim_a,
        "claim_b_theta_image": claim_b,
        "claim_c_double_quotient": claim_c,
        "claim_d_H_over_N_normal": claim_d,
        "dims": {
            "G": G.dim,
            "A_H": H.quotient.dim,
            "A_N": N.quotient.dim,
            "A_GH": A_GH.dim,
            "double_quotient": inner_coset.dim,
        },
    }
    if not (claim_a and claim_b and claim_c) or claim_d is False:
        raise TheoremViolation("third isomorphism claims fail: %r" % report)
    return report


def property_inheritance_suite(G: HopfStarAlgebra):
    """Inheritance of F and FD along subgroups and quotients, checked live.

    Violations of the inheritance theorems raise TheoremViolation; the
    report records which hypotheses held and which conclusions were checked.
    """
    f_ok, _f_wit = property_F_check(G)
    fd_ok, _fd_wit = property_FD_check(G)
    qsubs = enumerate_quantum_subgroups(G)
    normals = [Q for Q in qsubs if is_normal_coset(Q)]
    report = {
        "property_F": f_ok,
        "property_FD": fd_ok,
        "n_quantum_subgroups": len(qsubs),
        "n_normal": len(normals),
        "quotients_inherit_F": None,
        "subgroups_inherit_FD": None,
        "pullback_on_coset_pairs": None,
        "quotients_inherit_FD": None,
    }
    quotient_algebras = []
    for Q in normals:
        A_GN, _ = coset_algebras(Q)
        sub, incl = sub_hopf_algebra(G, A_GN)
        quotient_algebras.append((Q, A_GN, sub, incl))
    if f_ok:
        for _Q, _B, sub, _incl in quotient_algebras:
            ok, _ = property_F_check(sub)
            if not ok:
                raise TheoremViolation("a quotient of a property-F group lacks property F")
        report["quotients_inherit_F"] = True
    if fd_ok:
        for Q in qsubs:
            ok, _ = property_FD_check(Q.quotient)
            if not ok:
                raise TheoremViolation("a subgroup of a property-FD group lacks property FD")
        report["subgroups_inherit_FD"] = True
        pull_all = True
        for _Q, A_GN, sub, incl in quotient_algebras:
            for SQ in enumerate_quantum_subgroups(sub):
                ambient_I0 = Subspace.from_vectors(
                    G.field, G.dim, [incl.apply(b) for b in SQ.ideal.basis()]
                )
                ok, _inter = pullback_check(G, A_GN, ambient_I0, "hopf-ideal")
                pull_all = pull_all and ok
        report["pullback_on_coset_pairs"] = pull_all
        if pull_all:
            for _Q, _B, sub, _incl in quotient_algebras:
                ok, _ = property_FD_check(sub)
                if not ok:
                    raise TheoremViolation(
                        "a quotient of a property-FD group with pullback lacks FD"
                    )
            report["quotients_inherit_FD"] = True
    return report
