"""Lattice-level structure: enumerations, properties F and FD, pullbacks,
and the third isomorphism theorem.

Enumeration rests on cosemisimplicity: a Hopf *-subalgebra is a sum of
coefficient blocks whose index set contains the trivial corepresentation and
is closed under conjugation and fusion.  Those index sets are generated by
closure: each is the join of the closures of its members, so joining closed
sets with single-index closures until nothing new appears finds them all,
at a cost that grows with the lattice rather than with 2^r.  Quantum
subgroups are enumerated through the dual: Hopf subalgebras of the dual
correspond to Hopf *-ideals via annihilators.
Both lattices are enumerated once per algebra and kept in its memo.  The
algebra is verified once, before its dual is split, so each quotient
passes make_subgroup's morphism certificate without a full axiom run.

The inheritance suite and the hopf-ideal pullback read G's lattices:
1. If I0 is a Hopf *-ideal of a Hopf *-subalgebra, A.I0.A is one of A:
   Delta(axb) = Delta(a)Delta(x)Delta(b), eps(axb) = 0, and S, * reverse
   products.  As the least ideal over I0, it is the least enumerated one.
2. pi: G -> G/I is an onto Hopf *-map, so J -> pi(J) maps the Hopf *-ideals
   J >= I of G one to one onto those of G/I, inverse K -> pi^-1(K): the up-set.
   Its quotients are G's own, (G/I)/pi(J) = G/J.  phi: G/I -> G/J, with
   columns pi_J(e_r) for r in I's reps, is well defined and a Hopf *-map,
   since phi pi_I = pi_J (checked exactly) and pi_I is onto.  The pivots of
   I are pivots of J, so J's reps lie among I's, and the canonical complement
   of K = ker phi = pi_I(J) in G/I is {t : I's reps[t] is one of J's}.  phi
   is the identity there, so it is the canonical projection along K, and
   G/J holds, constant by constant and label by label, the structure that
   make_subgroup(G/I, K) would induce: no quotient is certified twice.
   _quotient_of(I, J) builds this J/I; the up-set maps it over the lattice
   members J >= I, and third_isomorphism_check reads H/N, the kernel of
   pi1: A_H -> A_N, as _quotient_of(H, N), whose quotient is N's own.
3. A_GN includes into G by a Hopf *-morphism, so its Hopf *-subalgebras
   are the down-set {C <= A_GN}, read at A_GN's pivots.
4. A_GN and each I0 are certified once; the pullback pairs reuse that.
5. A trivial N gives A_GN = G, and I = 0 gives G/I = G, with G's constants:
   they inherit F and FD from G, and (G, I0) pulls back trivially.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .corep import conjugate, fusion, peter_weyl
from .errors import (
    CapExceeded,
    ContainmentViolated,
    NotHopfIdeal,
    SchemaError,
    TheoremViolation,
)
from .hopf import HopfStarAlgebra, certified_subalgebra, dual, ensure_verified, sub_hopf_algebra
from .linalg import Subspace, sparse_compose, sparse_image, sparse_kernel, sparse_null_space
from .subgroup import (
    QuantumSubgroup,
    _product_span,
    check_hopf_ideal,
    coset_algebras,
    ideal_closure,
    is_normal_coset,
    make_subgroup,
    normality_report,
)

MAX_CLOSED_SETS = 1024


def enumerate_hopf_subalgebras(H: HopfStarAlgebra):
    """All Hopf *-subalgebras, as fusion-closed sums of coefficient blocks.

    The index sets of irreducibles closed under conjugation and fusion are
    enumerated by closure: start from the trivial index, close each single
    index on top of it (the atoms), and keep joining every new closed set
    with every atom and closing again until nothing new appears.  Every
    closed set is the join of its members' atoms, so this is complete for
    cosemisimple algebras.  Returned as a new list in a canonical order: by
    dimension, then by the echelon key of the subspace.  Raises CapExceeded
    as soon as more than MAX_CLOSED_SETS closed index sets are found, rather
    than silently truncating.
    """
    return [B for B, _members in _block_sums(H)]


def _block_sums(H):
    """(B, members) for each Hopf *-subalgebra B, in the canonical order,
    with members the indices of the coefficient blocks that B is the sum
    of; enumerated once per algebra and kept in its memo."""
    return H.memo("hopf_subalgebras", lambda: _hopf_subalgebras(H))


def _hopf_subalgebras(H):
    P = peter_weyl(H)
    blocks = P.blocks()
    out = []
    for mask in _closed_index_sets(P):
        members = tuple(i for i in range(len(blocks)) if (mask >> i) & 1)
        rows = [row for i in members for row in blocks[i].rows]
        out.append((sparse_image(H.field, H.dim, rows), members))
    out.sort(key=lambda pair: (pair[0].dim, pair[0].sort_key()))
    return tuple(out)


def _closed_index_sets(P):
    """Every index set of irreducibles closed under conjugation and fusion,
    as a set of bitmasks, by joining closed sets with atoms (see
    enumerate_hopf_subalgebras)."""
    r = len(P.coreps)
    N = fusion(P)
    step = [1 << conjugate(P, i, N) for i in range(r)]
    pair = [
        [sum(1 << n for n in range(r) if N[l][m][n]) for m in range(r)]
        for l in range(r)
    ]

    def close(mask, closed=0):
        # pairs inside the closed subset `closed` of mask stay inside it, so
        # only the members outside it start the work list
        members = [i for i in range(r) if (mask >> i) & 1]
        work = [i for i in members if not (closed >> i) & 1]
        while work:
            i = work.pop()
            grown = step[i]
            for j in members:
                grown |= pair[i][j] | pair[j][i]
            new = grown & ~mask
            if new:
                mask |= new
                added = [n for n in range(r) if (new >> n) & 1]
                members.extend(added)
                work.extend(added)
        return mask

    base = close(1 << P.triv_index)
    atoms = sorted({close(base | 1 << i, base) for i in range(r)})
    found = {base}
    frontier = [base]
    while frontier:
        fresh = []
        for S in frontier:
            for a in atoms:
                if a & ~S:
                    J = close(S | a, S)
                    if J not in found:
                        if len(found) == MAX_CLOSED_SETS:
                            raise CapExceeded(
                                "more than %d closed index sets" % MAX_CLOSED_SETS
                            )
                        found.add(J)
                        fresh.append(J)
        frontier = fresh
    return found


def enumerate_quantum_subgroups(H: HopfStarAlgebra):
    """All quantum subgroups, via annihilators of dual Hopf subalgebras.

    H is verified once, before its dual is split, unless it already is; a
    failed axiom raises AxiomsFailed naming it.  Every quotient of a verified
    H then needs only make_subgroup's morphism certificate, not a full axiom
    run.  Returned as a new list; the subgroup objects are shared between calls.
    """
    return list(H.memo("quantum_subgroups", lambda: _quantum_subgroups(H)))


def _quantum_subgroups(H):
    ensure_verified(H)
    out = []
    for B in enumerate_hopf_subalgebras(dual(H)):
        out.append(make_subgroup(H, sparse_null_space(H.field, H.dim, B.rows)))
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
    """Both lattices with the normal flags, and for each Hopf *-subalgebra
    the blocks it contains, read off its closed index set: the coefficient
    blocks form a direct sum (see corep.peter_weyl), so block i lies in a
    sum of blocks exactly when i is one of its members."""
    qsubs = enumerate_quantum_subgroups(H)
    sums = _block_sums(H)
    flags = [is_normal_coset(Q) for Q in qsubs]
    return SubgroupLattice(H, [B for B, _ in sums], qsubs, flags, [S for _, S in sums])


def property_F_check(H: HopfStarAlgebra):
    """Every Hopf *-subalgebra is a coset algebra of a normal quantum subgroup.

    Returns (ok, witness) with the first unmatched subalgebra as witness,
    decided once per algebra and kept in its memo.  The quantum subgroups
    come first, so an algebra that fails an axiom raises AxiomsFailed
    before its dual is split.
    """

    def decide():
        qsubs = enumerate_quantum_subgroups(H)
        return _f_witness(enumerate_hopf_subalgebras(H), qsubs)

    return H.memo("property_F", decide)


def _f_witness(subalgebras, qsubs):
    """Property F read on explicit lists of subalgebras and quantum subgroups."""
    normal_cosets = [coset_algebras(Q)[0] for Q in qsubs if is_normal_coset(Q)]
    return next(((False, B) for B in subalgebras if B not in normal_cosets), (True, None))


def property_FD_check(H: HopfStarAlgebra):
    """Every quantum subgroup is normal; witness is the first non-normal one.
    Decided once per algebra and kept in its memo."""

    def decide():
        qsubs, P = enumerate_quantum_subgroups(H), peter_weyl(H)
        return next(((False, Q) for Q in qsubs if not normality_report(Q, P).normal), (True, None))

    return H.memo("property_FD", decide)


def _at_pivots(B: Subspace, S: Subspace):
    """S inside B, in the coordinates of sub_hopf_algebra(H, B): B's pivots."""
    return S.map_by(B.pivot_retraction(), B.dim)


def _down_set(G, B):
    """The Hopf *-subalgebras of sub_hopf_algebra(G, B) (fact 3)."""
    return [_at_pivots(B, C) for C in enumerate_hopf_subalgebras(G) if C <= B]


def _up_set(Q):
    """The quantum subgroups of Q.quotient, as G's own quotients G/J for the
    lattice members J over Q (fact 2)."""
    return [_quotient_of(Q, J) for J in enumerate_quantum_subgroups(Q.parent) if Q.ideal <= J.ideal]


def _quotient_of(I: QuantumSubgroup, J: QuantumSubgroup) -> QuantumSubgroup:
    """J/I, the quantum subgroup of G/I with ideal pi_I(J), for subgroups of
    one G with I's ideal inside J's: its quotient is G/J itself, reached
    through the induced map phi of _induced_map, with no new certificate
    (fact 2)."""
    at = {r: t for t, r in enumerate(I.reps)}
    return QuantumSubgroup(
        I.quotient, J.ideal.map_by(I.proj_columns, I.quotient.dim), J.quotient,
        _induced_map(I, J), tuple(at[r] for r in J.reps),
    )


def _induced_map(I: QuantumSubgroup, J: QuantumSubgroup):
    """The sparse columns of phi: G/I -> G/J with phi(pi_I(a)) = pi_J(a), for
    subgroups of one G with I's ideal inside J's: phi(f_t) is pi_J of I's
    representative e_(reps[t]).  The composite is checked exactly, and a
    mismatch raises TheoremViolation."""
    phi = [J.proj_columns[r] for r in I.reps]
    if sparse_compose(phi, I.proj_columns) != J.proj_columns:
        raise TheoremViolation("pi1 is not well-defined on the quotient")
    return phi


def _generated_ideal(G, I0):
    """A.I0.A for a Hopf *-ideal I0 of a Hopf *-subalgebra (fact 1)."""
    over = [Q.ideal for Q in enumerate_quantum_subgroups(G) if I0 <= Q.ideal]
    least = min(over, key=lambda J: J.dim, default=None)
    if least is None or not all(least <= J for J in over):
        raise TheoremViolation("no least enumerated Hopf *-ideal contains I0")
    return least


def pullback_check(A: HopfStarAlgebra, A0: Subspace, I0: Subspace, mode: str = "hopf-ideal"):
    """Does the ideal of A generated by I0 pull back to I0 inside A0?

    Returns (I and A0 == I0, I and A0) for I = A.I0.A.  mode "plain-ideal"
    requires A0 a unital *-subalgebra with I0 a two-sided *-ideal of it, and
    grows I by span growth; mode "hopf-ideal" requires A0 a Hopf *-subalgebra
    and I0 a Hopf *-ideal of it, and reads I off A's lattice (fact 1).  A0
    is decided by the subalgebra certificate in both modes, and I0 in mode
    "hopf-ideal" by the quotient certificate of the subalgebra; a failed
    condition raises NotHopfIdeal naming it.
    """
    if mode not in ("plain-ideal", "hopf-ideal"):
        raise SchemaError("unknown pullback mode %r" % (mode,))
    sub, _incl, failed = certified_subalgebra(A, A0)
    if failed in ("unit", "product"):
        raise NotHopfIdeal("A0 is not a unital subalgebra")
    if failed == "star":
        raise NotHopfIdeal("A0 is not *-closed")
    if failed and mode == "hopf-ideal":
        raise NotHopfIdeal("A0 is not a Hopf *-subalgebra (%s)" % failed)
    if not I0 <= A0:
        raise NotHopfIdeal("I0 does not lie inside A0")
    if mode == "hopf-ideal":
        ok, witness = check_hopf_ideal(sub, _at_pivots(A0, I0))
        if not ok:
            raise NotHopfIdeal("I0 is not a Hopf *-ideal of A0 (%s)" % witness["condition"])
        closure = _generated_ideal(A, I0)
    else:
        products = _product_span(A, A0.rows, I0.rows).sum_with(_product_span(A, I0.rows, A0.rows))
        if not products <= I0:
            raise NotHopfIdeal("I0 is not a two-sided ideal of A0")
        if not sparse_image(A.field, A.dim, [A.star_vec(b) for b in I0.rows]) <= I0:
            raise NotHopfIdeal("I0 is not *-closed")
        closure = ideal_closure(A, I0)
    inter = closure.intersect(A0)
    return inter == I0, inter


def third_isomorphism_check(G: HopfStarAlgebra, N: QuantumSubgroup, H: QuantumSubgroup):
    """The third isomorphism theorem for a normal N inside a subgroup H.

    Requires ker(theta) inside ker(pi), i.e. H's ideal contained in N's.
    Returns a report dict with the four claims; raises SchemaError when N or
    H is not a subgroup of G or N is not normal, and ContainmentViolated
    when the chain precondition fails.
    """
    if N.parent is not G or H.parent is not G:
        raise SchemaError("N and H must be quantum subgroups of G")
    if not is_normal_coset(N):
        raise SchemaError("N must be a normal quantum subgroup")
    if not H.ideal <= N.ideal:
        raise ContainmentViolated("ker(theta) is not contained in ker(pi)")
    field = G.field

    # (a) N is normal inside H, i.e. the ideal ker(pi1) is normal in A_H,
    # for pi1(theta(a)) = pi(a): its quotient is N's own (fact 2)
    QN_in_H = _quotient_of(H, N)
    claim_a = normality_report(QN_in_H).normal

    # (b) theta maps the coset algebra A_GN onto A_{H/N}
    A_GN, _ = coset_algebras(N)
    theta_image = A_GN.map_by(H.proj_columns, H.quotient.dim)
    A_HN, _ = coset_algebras(QN_in_H)
    claim_b = theta_image == A_HN

    # (c) the double quotient: realize G/N as the Hopf subalgebra A_GN,
    # restrict theta to it, and compare cosets inside A_G
    sub, incl = sub_hopf_algebra(G, A_GN)
    theta_incl = sparse_compose(H.proj_columns, incl)
    Q2 = make_subgroup(sub, sparse_kernel(field, H.quotient.dim, theta_incl))
    inner_coset, _ = coset_algebras(Q2)
    pushed = inner_coset.map_by(incl, G.dim)
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

    The lattices of quotients and coset subalgebras are read off G's (see
    the module doc).  Violations of the inheritance theorems raise
    TheoremViolation; the report records which hypotheses held and which
    conclusions were checked.
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
    # the coset subalgebras A_GN other than G, each certified once (facts 4, 5)
    cosets = [coset_algebras(Q)[0] for Q in normals]
    cosets = [(B, *sub_hopf_algebra(G, B)) for B in cosets if B.dim < G.dim]
    if f_ok:
        for A_GN, sub, _incl in cosets:
            if not _f_witness(_down_set(G, A_GN), enumerate_quantum_subgroups(sub))[0]:
                raise TheoremViolation("a quotient of a property-F group lacks property F")
        report["quotients_inherit_F"] = True
    if fd_ok:
        for Q in qsubs:
            if Q.ideal.dim and not all(map(is_normal_coset, _up_set(Q))):  # fact 5
                raise TheoremViolation("a subgroup of a property-FD group lacks property FD")
        report["subgroups_inherit_FD"] = True
        pull_all = all(
            _generated_ideal(G, I0).intersect(A_GN) == I0
            for A_GN, sub, incl in cosets
            for I0 in (SQ.ideal.map_by(incl, G.dim) for SQ in enumerate_quantum_subgroups(sub))
        )
        report["pullback_on_coset_pairs"] = pull_all
        if pull_all:
            inner = [S for _A_GN, sub, _incl in cosets for S in enumerate_quantum_subgroups(sub)]
            if not all(map(is_normal_coset, inner)):
                raise TheoremViolation("a quotient of a property-FD group with pullback lacks FD")
            report["quotients_inherit_FD"] = True
    return report
