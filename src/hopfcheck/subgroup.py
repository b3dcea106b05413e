"""Quantum subgroups as Hopf *-ideals with quotients and normality tests.

A quantum subgroup of a finite quantum group is presented by a *-ideal I
that is also a coideal and antipode-stable; the quotient carries an induced
Hopf *-structure on the echelon-canonical complement of I.  Whether I
qualifies is decided once, by morphism_failure on the projection G -> G/I
(make_subgroup; check_hopf_ideal reports the same decision).  Normality can be
decided four independent ways (restriction multiplicities, left and right
adjoint stability of the ideal, equality of the two coset algebras); the
four answers are provably equal and a disagreement is raised loudly rather
than suppressed.

Every criterion is computed from the sparse structure constants of the
parent (`comult`, `mult`, `antipode`) and the sparse projection columns,
without forming a dense tensor of length d^2.  The projection, the
conditional expectations, the comodule splitting and phi are all maps in
sparse columns (see linalg).  The coaction and the adjoint terms work in
proportion to the terms that the projection keeps: the coaction skips a
coproduct term whose projected leg has an empty projection column before
any multiplication, the adjoint terms walk only the live terms that
_live_terms reads off the parent's coproduct leg index (hopf.comult_legs),
and the adjoint products e_x S(e_z) and S(e_x) e_z, which depend on the
parent alone, are computed once per parent algebra and kept in its memo
(see _a_normal).  A conditional expectation walks only the coproduct
terms whose sliced leg lies in the support of h_N pi (see
hopf.coproduct_slice), and both are computed once per subgroup (see
_expectations).  Each coset algebra is computed one way, as the image of a
conditional expectation, and certified to be the invariance kernel by a
proof and two exact checks (see coset_algebras).  The comodule splitting
that phi is built from is the canonical section averaged with the Haar
state of N, so no linear system is solved: a proof and two exact checks
certify it (see comodule_splitting).

Normality on a verified parent is read off the two conditional
expectations, E_R = (id (x) phi) Delta and E_L = (phi (x) id) Delta with
phi = h_N pi, whose images are the coset algebras A_GN and A_NG: N is
normal, A_GN = A_NG, exactly when E_L = E_R.  If E_L = E_R their images
are equal; this needs no hypothesis.  Conversely let A_GN = A_NG = B.
  - Module maps: for b in B, (id (x) pi) Delta(b) = b (x) 1_N, and Delta
    and pi are multiplicative, so E_R(bx) = b E_R(x); in the same way
    (pi (x) id) Delta(b) = 1_N (x) b gives E_L(xb) = E_L(x) b.
  - Invariance: (h (x) id) Delta = h(.) 1 gives h E_R = h, since phi(1) =
    h_N(1_N) = 1, and (id (x) h) Delta = h(.) 1 gives h E_L = h.  So for
    y in B, h(y E_R(x)) = h(E_R(yx)) = h(yx) and h(E_L(x) y) = h(xy).
  - h is tracial (the haar_tracial axiom), so h(y E_L(x)) = h(E_L(x) y)
    = h(xy) = h(yx), and h(y (E_R(x) - E_L(x))) = 0 for every y in B.
  - B is a *-subalgebra (pi is a *-map), and z = E_R(x) - E_L(x) lies in
    B.  With y = z*, h(z* z) = 0, and h is faithful (the haar_positive
    axiom: the Gram matrix h(e_i* e_j) is positive definite), so z = 0.
So the equality E_L = E_R of two lists of sparse columns decides normality
with no span and no coaction; equivalently h_N pi is central in the
convolution algebra of G (U. Franz and A. Skalski, J. Algebra 322 (2009),
on idempotent states).  is_normal_coset takes that route when the parent
is verified (`G.verified`, which this module never starts) and spans the
two coset algebras otherwise; normality_report reads its coset criterion
off the spans and checks E_L = E_R against it too.
"""

from __future__ import annotations

from .corep import peter_weyl
from .errors import NotHopfIdeal, SchemaError, TheoremViolation
from .hopf import (
    HopfStarAlgebra,
    _pair,
    check_axioms,
    comult_legs,
    convolve,
    coproduct_slice,
    counit_unit,
    induced_algebra,
    linear_quotient,
    morphism_failure,
    record_verified,
    sub_hopf_algebra,
    tensor_apply,
)
from .linalg import (
    Matrix,
    Subspace,
    add_terms,
    nonzero_entries,
    sparse_column,
    sparse_compose,
    sparse_identity,
    sparse_image,
    sparse_null_space,
    sparse_vector,
)


class QuantumSubgroup:
    """A quotient presentation G -> N with its ideal, projection and Haar state.

    The projection pi: G -> N is kept only as sparse columns:
    proj_columns[a] is pi(e_a), read off the echelon rows of the ideal by
    linear_quotient, and the quotient basis vector f_t is the class of the
    parent basis vector e_(reps[t]).  `meta` keeps data derived from the
    subgroup, each computed once: "haar_pi", "expectations" (the columns
    of both conditional expectations), "cosets", "aplus" and "g_aplus"
    (see `memo`);
    constructions also record where a subgroup came from there.
    """

    __slots__ = ("parent", "ideal", "quotient", "proj_columns", "reps", "meta")

    def __init__(self, parent, ideal, quotient, proj_columns, reps):
        self.parent = parent
        self.ideal = ideal
        self.quotient = quotient
        self.proj_columns = proj_columns
        self.reps = reps  # ambient indices of the canonical complement
        self.meta = {}

    def memo(self, key, compute):
        """The derived value stored in meta under key, computed on first request."""
        if key not in self.meta:
            self.meta[key] = compute()
        return self.meta[key]

    @property
    def haar_pi_covector(self):
        """The functional h_N o pi on the parent basis, computed once."""
        N = self.quotient
        return self.memo("haar_pi", lambda: [N.haar_of(col) for col in self.proj_columns])

    def haar_pi(self, vec):
        """The composite functional h_N(pi(a)) on a sparse vector of the parent."""
        return _pair(vec, self.haar_pi_covector, self.parent.field.zero)

    def __repr__(self):
        return "QuantumSubgroup(dim %d -> %d)" % (self.parent.dim, self.quotient.dim)


# the Hopf *-ideal condition on I matching each structure map that the
# projection G -> G/I must intertwine (see morphism_failure)
_IDEAL_CONDITION = {
    "product": "two_sided_ideal",
    "star": "star_closed",
    "coproduct": "comultiplication",
    "counit": "counit",
    "antipode": "antipode",
}


def check_hopf_ideal(G: HopfStarAlgebra, I: Subspace):
    """Decide whether I is a Hopf *-ideal of G; returns (ok, witness).

    The witness {"condition": name} names the first failed condition, as
    decided by make_subgroup's morphism certificate.  Raises SchemaError,
    as make_subgroup does, when I is not a subspace of G.
    """
    *_, failed = _certified_quotient(G, I)
    return (True, None) if failed is None else (False, {"condition": failed})


def make_subgroup(G: HopfStarAlgebra, I: Subspace) -> QuantumSubgroup:
    """Quotient G by a Hopf *-ideal, on the echelon-canonical complement.

    The quotient structure is induced through the projection G -> G/I, and
    morphism_failure checks that the projection intertwines product, star,
    coproduct, counit and antipode on the basis of G with that structure.
    The projection is linear with kernel I, so this holds exactly when I is
    a two-sided ideal, *-closed, a coideal (Delta(I) in I (x) G + G (x) I,
    eps(I) = 0) and antipode-stable, whatever the axioms of G.  A failure
    raises NotHopfIdeal naming the first failed condition: two_sided_ideal,
    star_closed, comultiplication, counit or antipode.  The induced unit is
    the projection of the unit, so a unit failure is a fault of the
    construction and raises TheoremViolation.

    If G is already verified (`G.verified`; this function never starts a
    check of G), the quotient inherits every axiom and only its Haar state
    is computed here, from its regular trace (compute_haar).  Otherwise the
    quotient runs the full check_axioms.  Either way it is recorded as
    verified, so its own quotients skip that.
    """
    proj, reps, quotient, failed = _certified_quotient(G, I)
    if failed:
        raise NotHopfIdeal("the %s condition fails" % failed)
    if G.verified:
        quotient.haar  # computed here, since every normality criterion reads it
        record_verified(quotient)
    else:
        report = check_axioms(quotient)
        if not report.ok:
            raise NotHopfIdeal(
                "quotient fails the axioms: " + ", ".join(c.name for c in report.failures())
            )
    return QuantumSubgroup(G, I, quotient, proj, reps)


def _certified_quotient(G: HopfStarAlgebra, I: Subspace):
    """(proj, reps, quotient, failed): the sparse columns of the projection
    G -> G/I (see linear_quotient), the structure induced through it, and
    the Hopf *-ideal condition that I fails, or None.  SchemaError when I
    is not a subspace of G, TheoremViolation when the projection does not
    map the unit to the induced unit."""
    if not isinstance(I, Subspace):
        raise SchemaError("an ideal is a Subspace, not %s" % type(I).__name__)
    if I.field.n != G.field.n:
        raise SchemaError(
            "ideal lives in the order-%d field but the algebra uses order %d"
            % (I.field.n, G.field.n)
        )
    if I.ambient != G.dim:
        raise SchemaError("ideal ambient %d != algebra dim %d" % (I.ambient, G.dim))
    proj, reps = linear_quotient(I)
    section = [((r, G.field.one),) for r in reps]
    quotient = induced_algebra(G, section, proj, [G.labels[r] for r in reps])
    failed = morphism_failure(G, proj, quotient)
    if failed == "unit":
        raise TheoremViolation("the projection does not map the unit to the quotient's unit")
    return proj, reps, quotient, None if failed is None else _IDEAL_CONDITION[failed]


def trivial_subgroup(G: HopfStarAlgebra) -> QuantumSubgroup:
    """The quotient by the augmentation ideal ker(eps); N = C."""
    return make_subgroup(G, _augmentation_ideal(G))


def full_subgroup(G: HopfStarAlgebra) -> QuantumSubgroup:
    """The quotient by the zero ideal; N = G and pi = id."""
    return make_subgroup(G, Subspace.zero(G.field, G.dim))


def conditional_expectation(Q: QuantumSubgroup, side: str = "right"):
    """The projection of norm one onto a coset algebra, as sparse columns.

    side "right" gives (id (x) h_N pi) Delta whose image is the right coset
    algebra A_GN; side "left" gives (h_N pi (x) id) Delta with image A_NG.
    The columns are summed over the coproduct terms whose sliced leg lies
    in the support of the covector h_N o pi, which Q computes once from its
    sparse projection.
    Any other side raises SchemaError (see coproduct_slice).
    """
    return coproduct_slice(Q.parent, sparse_vector(Q.haar_pi_covector), side)


def _expectations(Q: QuantumSubgroup):
    """(E_R, E_L), the columns of the right and left conditional
    expectations, computed once through conditional_expectation and kept in
    Q.meta under "expectations"."""
    return Q.memo(
        "expectations", lambda: tuple(conditional_expectation(Q, s) for s in ("right", "left"))
    )


def _coaction(Q: QuantumSubgroup, a, side: str):
    """(id (x) pi) Delta(a) as {(j, b): the coefficient of e_j (x) f_b} for
    side "right", or (pi (x) id) Delta(a) as {(j, b): that of f_b (x) e_j}
    for side "left", with no zero entries, for a sparse vector a with no
    zero coefficients.

    The terms c e_j (x) e_k of Delta(e_i) are walked for each (i, x) in a,
    without forming Delta(a): a term whose projected leg (e_k on the right,
    e_j on the left) has an empty projection column is skipped before any
    multiplication, and x c p is summed over the entries p of the others,
    with no factor one multiplied (see linalg).  On F(G)-type parents most
    terms are skipped.
    """
    P, comult = Q.proj_columns, Q.parent.comult
    one = Q.parent.field.one
    right = side == "right"
    out = {}
    terms = 0
    for i, x in a:
        for j, k, c in comult[i]:
            if right:
                kept, col = j, P[k]
            else:
                kept, col = k, P[j]
            if col:
                xc = c if x is one else x if c is one else x * c
                terms += len(col)
                for b, p in col:
                    v = p if xc is one else xc if p is one else xc * p
                    key = kept, b
                    out[key] = out[key] + v if key in out else v
    return nonzero_entries(out, terms)


def _coinvariant(Q: QuantumSubgroup, a, side: str, unit) -> bool:
    """(id (x) pi) Delta(a) = a (x) 1_N (side "right"), or (pi (x) id)
    Delta(a) = 1_N (x) a (side "left"), for a sparse vector a; unit is
    1_N as a sparse vector."""
    one = Q.parent.field.one
    want = {(i, b): u if x is one else x if u is one else x * u for i, x in a for b, u in unit}
    return _coaction(Q, a, side) == want


def coset_algebras(Q: QuantumSubgroup):
    """The two coset algebras (A_GN, A_NG): the images of the right and left
    conditional expectations E, certified equal to the invariance kernels K,
    the a with (id (x) pi) Delta(a) = a (x) 1_N (mirrored on the left).

    Proof on the right, for E = (id (x) h_N pi) Delta.  K in E(G): for a in
    K, E(a) = a h_N(1_N) = a.  E(G) in K for a verified G: coassociativity
    and Delta_N pi = (pi (x) pi) Delta give (id (x) pi) Delta E(x) =
    x_(1) (x) (id (x) h_N) Delta_N(pi(x_(2))) = E(x) (x) 1_N, by the
    invariance of h_N.  The certificate checks E(G) in K on each echelon
    row of E(G), whatever E computed, and dim E(G) * dim N = dim G: G is
    free of rank dim N over K (H.-J. Schneider, J. Algebra 152 (1992); (c)
    of exact_sequence_check), so the dimensions then force E(G) = K.  Either
    failure raises TheoremViolation.

    The columns of E are those kept by _expectations, so a flag decided
    before reuses them.  E(G) is spanned from the distinct columns of E
    only (_distinct): a repeated column adds nothing to a span, and on
    F(G)-type parents E takes one value on each coset, so most columns
    repeat.
    """

    def compute():
        G, dn = Q.parent, Q.quotient.dim
        unit = sparse_vector(Q.quotient.unit)
        out = []
        for side, E in zip(("right", "left"), _expectations(Q)):
            image = sparse_image(G.field, G.dim, _distinct(E))
            if image.dim * dn != G.dim:
                raise TheoremViolation(
                    "%s coset algebra has dimension %d, not %d / %d" % (side, image.dim, G.dim, dn)
                )
            if not all(_coinvariant(Q, a, side, unit) for a in image.rows):
                raise TheoremViolation("%s expectation image is not coinvariant" % side)
            out.append(image)
        return tuple(out)

    return Q.memo("cosets", compute)


def _distinct(cols):
    """The sparse columns of cols without repeats, each at its first
    occurrence: the columns are grouped by their support, a tuple of ints,
    and compared with == within a group.  No scalar is hashed, which would
    cost a Python call for each entry of each column."""
    groups = {}
    out = []
    for col in cols:
        group = groups.setdefault(tuple([k for k, _ in col]), [])
        if col not in group:
            group.append(col)
            out.append(col)
    return out


def _live_terms(G: HopfStarAlgebra, first_leg):
    """For each r, the terms c e_y (x) e_z of Delta(e_r) whose first leg
    first_leg[y] is not empty, as (first_leg[y], z, c) in the order of
    G.comult[r].  They are read off hopf.comult_legs one live leg at a
    time, so a leg with an empty first_leg[y] is never walked."""
    first, _ = comult_legs(G)
    live = [[] for _ in range(G.dim)]
    for y, leg in enumerate(first_leg):
        if leg:
            for r, z, c in first[y]:
                live[r].append((leg, z, c))
    return live


def _adjoint_terms(G: HopfStarAlgebra, a, side, live, products):
    """(f (x) id) ad(a) as a dict {(u, t): coefficient}, for a sparse vector a.

    ad is ad_l(a) = sum a_(2) (x) a_(1) S(a_(3)) or ad_r(a) = sum a_(2) (x)
    S(a_(1)) a_(3); f sends e_y to the sparse pairs first_leg[y], and live
    is _live_terms(G, first_leg).  Delta^(2) is expanded through the sparse
    coproduct of a and then the live terms of each Delta(e_r), so a term
    whose leg first_leg[y] is empty is never reached; products caches
    e_x S(e_z) (left) or S(e_x) e_z (right) per pair (x, z) as sparse
    pairs, and may be shared by every call on G.  A factor one is not
    multiplied (see linalg).
    """
    one = G.field.one
    out = {}
    for (x, r), c in G.coproduct(a).items():
        for leg, z, c2 in live[r]:
            prod = products.get((x, z))
            if prod is None:
                prod = products[x, z] = _adjoint_product(G, x, z, side)
            if not prod:
                continue
            coef = c2 if c is one else c if c2 is one else c * c2
            for u, q in leg:
                cq = q if coef is one else coef if q is one else coef * q
                for t, p in prod:
                    v = p if cq is one else cq if p is one else cq * p
                    key = u, t
                    out[key] = out[key] + v if key in out else v
    return out


def _adjoint_product(G, x, z, side):
    """e_x S(e_z) (side "left") or S(e_x) e_z (side "right") as sparse pairs."""
    one = G.field.one
    if side == "left":
        return G.product(((x, one),), G.antipode[z])
    return G.product(G.antipode[x], ((z, one),))


def is_left_a_normal(Q: QuantumSubgroup) -> bool:
    """True iff ad_l(I) lies in I (x) A, tested exactly on the ideal basis."""
    return _a_normal(Q, "left")


def is_right_a_normal(Q: QuantumSubgroup) -> bool:
    return _a_normal(Q, "right")


def _a_normal(Q, side):
    """(pi (x) id) ad(b) = 0 for every b in the ideal basis.

    The products e_x S(e_z) and S(e_x) e_z depend on the parent G alone, so
    they are cached in its memo under "adjoint_products_left" and
    "adjoint_products_right", shared by every subgroup of G: each pair is
    computed at most once per side and algebra.
    """
    products = Q.parent.memo("adjoint_products_" + side, dict)
    live = _live_terms(Q.parent, Q.proj_columns)
    for b in Q.ideal.rows:
        if any(_adjoint_terms(Q.parent, b, side, live, products).values()):
            return False
    return True


def is_normal_rep(Q: QuantumSubgroup, P=None):
    """Restriction criterion: (ok, matrices) with M_lambda = h_N(pi(u^lambda)).

    P is the Peter-Weyl data of Q's parent; data of another algebra raises
    SchemaError.
    """
    if P is None:
        P = peter_weyl(Q.parent)
    elif P.algebra is not Q.parent:
        raise SchemaError("the Peter-Weyl data belong to another algebra")
    field = Q.parent.field
    mats = []
    ok = True
    for c in P.coreps:
        rows = [[Q.haar_pi(c.entries[i][j]) for j in range(c.dim)] for i in range(c.dim)]
        M = Matrix.from_rows(field, rows, ncols=c.dim)
        mats.append(M)
        if not (M.is_zero() or M == Matrix.identity(field, c.dim)):
            ok = False
    return ok, mats


def is_normal_coset(Q: QuantumSubgroup) -> bool:
    """N is normal: the coset algebras A_GN and A_NG are equal.

    On a verified parent (`Q.parent.verified`) this is decided as E_L = E_R,
    the equality of the columns of the two conditional expectations (see
    _expectations), with no span and no coaction.  Proof: if E_L = E_R
    their images A_NG and A_GN are equal.  Conversely let both be B.  For b
    in B, E_R(bx) = b E_R(x) and E_L(xb) = E_L(x) b, since b is coinvariant
    on both sides and Delta and pi are multiplicative; h E_R = h E_L = h by
    the invariance of the Haar state h.  So for y in B, h(y E_R(x)) = h(yx),
    and h(y E_L(x)) = h(E_L(x) y) = h(xy) = h(yx) as h is tracial
    (haar_tracial).  B is a *-subalgebra holding z = E_R(x) - E_L(x), so
    y = z* gives h(z* z) = 0, and h is faithful (haar_positive): z = 0.
    Those axioms are known only on a verified parent, so any other parent
    takes the spans, coset_algebras(Q), kept in Q.meta under "cosets".
    """
    if Q.parent.verified:
        right, left = _expectations(Q)
        return right == left
    A_GN, A_NG = coset_algebras(Q)
    return A_GN == A_NG


class NormalityReport:
    """All four normality criteria, their agreement flag, and S(N)."""

    __slots__ = (
        "rep_criterion",
        "rep_matrices",
        "left_a_normal",
        "right_a_normal",
        "coset_equality",
        "trivial_set",
        "agree",
    )

    def __init__(self, rep_criterion, rep_matrices, left_a, right_a, coset_eq, trivial_set):
        self.rep_criterion = rep_criterion
        self.rep_matrices = rep_matrices
        self.left_a_normal = left_a
        self.right_a_normal = right_a
        self.coset_equality = coset_eq
        self.trivial_set = tuple(sorted(trivial_set))
        self.agree = len({rep_criterion, left_a, right_a, coset_eq}) == 1

    @property
    def normal(self):
        return self.rep_criterion

    def as_dict(self):
        return {
            "rep_criterion": self.rep_criterion,
            "left_a_normal": self.left_a_normal,
            "right_a_normal": self.right_a_normal,
            "coset_equality": self.coset_equality,
            "normal": self.normal,
            "agree": self.agree,
            "trivial_set": list(self.trivial_set),
            "matrices": [[[repr(x) for x in row] for row in M.rows] for M in self.rep_matrices],
        }

    def __repr__(self):
        return "NormalityReport(rep=%s, left=%s, right=%s, coset=%s)" % (
            self.rep_criterion,
            self.left_a_normal,
            self.right_a_normal,
            self.coset_equality,
        )


def normality_report(Q: QuantumSubgroup, P=None) -> NormalityReport:
    """Run all four normality criteria; a disagreement raises TheoremViolation.
    P is checked by is_normal_rep.

    The coset criterion is A_GN == A_NG, read off the spans of
    coset_algebras; is_normal_coset (E_L = E_R on a verified parent) must
    agree with it too, though it is not reported."""
    if P is None:
        P = peter_weyl(Q.parent)
    rep_ok, mats = is_normal_rep(Q, P)
    field = Q.parent.field
    trivial = {
        idx for idx, M in enumerate(mats) if M == Matrix.identity(field, M.nrows)
    }
    left = is_left_a_normal(Q)
    right = is_right_a_normal(Q)
    A_GN, A_NG = coset_algebras(Q)
    report = NormalityReport(rep_ok, mats, left, right, A_GN == A_NG, trivial)
    flag = is_normal_coset(Q)
    if not report.agree or flag != report.coset_equality:
        raise TheoremViolation(
            "normality criteria disagree: %r, is_normal_coset %s (trivial set %r)"
            % (report, flag, report.trivial_set)
        )
    if report.normal:
        blocks = P.blocks()
        total = sparse_image(
            field, Q.parent.dim, [row for idx in report.trivial_set for row in blocks[idx].rows]
        )
        if total != A_GN:
            raise TheoremViolation(
                "coset algebra is not the block sum over the trivial set"
            )
    return report


def _product_span(G, lefts, rights):
    """The span of the products x y, x in lefts and y in rights (sparse
    vectors; the basis e_i is sparse_identity)."""
    return sparse_image(G.field, G.dim, [G.product(x, y) for x in lefts for y in rights])


def _augmentation_ideal(G):
    """ker(eps), the augmentation ideal."""
    return sparse_null_space(G.field, G.dim, [sparse_vector(G.counit)])


def augmentation_part(G, B: Subspace) -> Subspace:
    """B intersected with ker(eps)."""
    return B.intersect(_augmentation_ideal(G))


def _coset_aplus(Q: QuantumSubgroup) -> Subspace:
    """A+, the augmentation part of the coset algebra A_GN, computed once."""
    return Q.memo("aplus", lambda: augmentation_part(Q.parent, coset_algebras(Q)[0]))


def _left_aplus_span(Q: QuantumSubgroup) -> Subspace:
    """The product span G . A+, computed once."""
    G = Q.parent
    return Q.memo(
        "g_aplus",
        lambda: _product_span(G, sparse_identity(G.field, G.dim), _coset_aplus(Q).rows),
    )


def ideal_closure(H: HopfStarAlgebra, seed: Subspace) -> Subspace:
    """The two-sided ideal generated by a subspace, by span growth."""
    basis = sparse_identity(H.field, H.dim)
    cur = seed
    while True:
        nxt = cur.sum_with(_product_span(H, basis, cur.rows)).sum_with(
            _product_span(H, cur.rows, basis)
        )
        if nxt == cur:
            return cur
        cur = nxt


def reconstruction_check(Q: QuantumSubgroup) -> bool:
    """ker(pi) equals the product spans A+ . G and G . A+, where A+ is the
    augmentation part of the coset algebra A_GN; equality reconstructs N
    from the pair (G, A_GN).

    Then the two-sided ideal G . A+ . G equals ker(pi) too, so it is not
    spanned again: it contains A+ . G, and it lies in ker(pi), a two-sided
    ideal (make_subgroup certified it) that contains A+ = A+ . 1.
    """
    G = Q.parent
    s1 = _product_span(G, _coset_aplus(Q).rows, sparse_identity(G.field, G.dim))
    return s1 == Q.ideal and _left_aplus_span(Q) == Q.ideal


def comodule_splitting(Q: QuantumSubgroup):
    """A comodule section s of pi, as sparse columns: pi s = id and
    (id (x) pi) Delta_G s = (s (x) id) Delta_N, both checked exactly.

    s averages the canonical section sigma(f_a) = e_(reps[a]) with the Haar
    state h of N (Y. Doi's total integral, Israel J. Math. 72 (1990)):
      s(n) = sigma(n_(1))_(1) h(S(pi(sigma(n_(1))_(2))) n_(2)),
    summed over Delta_N(n) and Delta_G(sigma(n_(1))).

    Proof, for a verified G and so a verified N.  Lemma: for b, m in N,
    b_(1) h(S(b_(2)) m) = h(S(b) m_(1)) m_(2).  The invariance
    (h (x) id) Delta = h(.) 1 at y = S(b_(2)) m, whose coproduct is
    S(b_(3)) m_(1) (x) S(b_(2)) m_(2), gives b_(1) h(S(b_(2)) m) =
    b_(1) S(b_(2)) h(S(b_(3)) m_(1)) m_(2), and b_(1) S(b_(2)) =
    eps(b_(1)) 1.
    pi s = id: pi is a coalgebra map with pi sigma = id, so pi s(n) =
    n_(1) h(S(n_(2)) n_(3)) by the coassociativity of N; the lemma with
    b (x) m = Delta_N(n) makes it h(S(n_(1)) n_(2)) n_(3), which is
    h(1) n = n by the antipode axiom.  Colinearity: with x = sigma(n_(1)),
    the coassociativity of G gives (id (x) pi) Delta_G s(n) = x_(1) (x)
    pi(x_(2)) h(S(pi(x_(3))) n_(2)), and Delta_N(pi(x_(2))) = pi(x_(2))
    (x) pi(x_(3)); the lemma with b = pi(x_(2)) and m = n_(2) makes it
    x_(1) h(S(pi(x_(2))) n_(2)) (x) n_(3) = s(n_(1)) (x) n_(2), by the
    coassociativity of N.  Both identities are checked exactly, the second
    through _coaction, whatever G is; a failure raises TheoremViolation.
    """
    G, N = Q.parent, Q.quotient
    field = G.field
    P = Q.proj_columns
    # h(y f_b) = _pair(y, gram[b], 0) and S_pi[v] = S_N(pi(e_v))
    gram = [[N.haar_of(N.mult[m][b]) for m in range(N.dim)] for b in range(N.dim)]
    S_pi = sparse_compose(N.antipode, P)
    s = []
    for terms in N.comult:
        acc = {}
        for a, b, c in terms:
            for u, v, c2 in G.comult[Q.reps[a]]:
                w = _pair(S_pi[v], gram[b], field.zero)
                if w:
                    acc[u] = acc.get(u, field.zero) + c * c2 * w
        s.append(sparse_column(acc))
    ident = sparse_identity(field, N.dim)
    if sparse_compose(P, s) != ident:
        raise TheoremViolation("the comodule splitting is not a section of pi")
    for col, terms in zip(s, N.comult):
        if _coaction(Q, col, "right") != tensor_apply(s, ident, terms):
            raise TheoremViolation("the comodule splitting is not colinear")
    return s


def _difference(field, f, g):
    """The sparse columns of f - g."""
    out = []
    for fcol, gcol in zip(f, g):
        acc = dict(fcol)
        add_terms(acc, -field.one, gcol)
        out.append(sparse_column(acc))
    return out


def phi_map(Q: QuantumSubgroup, s=None):
    """The convolution inverse construction phi = (s pi) * S, as sparse columns.

    Three identities are checked exactly: the image of phi lies in the coset
    algebra, eps phi = eps, and id - s pi = [(eps 1 - id) phi] * id.  A
    failure raises TheoremViolation, as does a failed comodule splitting.
    """
    G = Q.parent
    field, d = G.field, G.dim
    if s is None:
        s = comodule_splitting(Q)
    SP = sparse_compose(s, Q.proj_columns)
    phi = convolve(G, SP, G.antipode)
    A_GN, _ = coset_algebras(Q)
    if not sparse_image(field, d, phi) <= A_GN:
        raise TheoremViolation("phi image leaves the coset algebra")
    for i, col in enumerate(phi):
        if G.counit_of(col) != G.counit[i]:
            raise TheoremViolation("eps phi differs from eps")
    ident = sparse_identity(field, d)
    lhs = _difference(field, ident, SP)
    rhs = convolve(G, sparse_compose(_difference(field, counit_unit(G), ident), phi), ident)
    if lhs != rhs:
        raise TheoremViolation("the convolution identity for id - s pi fails")
    return phi


def exact_sequence_check(Q: QuantumSubgroup) -> bool:
    """C -> A_GN -> G -> N -> C is exact, checked at finite dimension.

    (a) A_GN is a Hopf *-subalgebra (sub_hopf_algebra accepts it); (b)
    ker pi = A . A+ where A+ is the augmentation part of A_GN; (c) dim G =
    dim A_GN * dim N, which coset_algebras certifies (or raises).
    """
    G = Q.parent
    A_GN, _ = coset_algebras(Q)
    try:
        sub_hopf_algebra(G, A_GN)
    except SchemaError:
        return False
    return _left_aplus_span(Q) == Q.ideal
