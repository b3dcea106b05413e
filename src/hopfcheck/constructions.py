"""Builders: finite groups, group algebras, function algebras, tensor and
crossed products, and the subgroups these constructions carry with them.
The builders make structure constants only; the corepresentations of every
result come from corep.peter_weyl, as for an algebra read from a file.

Field orders default to the exponent of the group involved (so roots of
unity needed by characters exist); tensor and crossed products lift both
inputs to the lcm of their field orders.  The HOPFCHECK_FIELD_ORDER
environment variable overrides the default where no explicit order is given.
"""

from __future__ import annotations

import os
from math import lcm

from .cyclotomic import CycField
from .errors import (
    InvarianceViolated,
    KNotInKernel,
    NotASubgroup,
    NotNormalInner,
    SchemaError,
    TheoremViolation,
)
from .hopf import HopfStarAlgebra, _sparse_columns, morphism_failure
from .linalg import (
    Subspace,
    sparse_compose,
    sparse_identity,
    sparse_image,
    sparse_kernel,
    tensor_vec,
)
from .subgroup import (
    QuantumSubgroup,
    _augmentation_ideal,
    coset_algebras,
    make_subgroup,
    normality_report,
)


class FiniteGroup:
    """A finite group given by an explicit multiplication table of indices."""

    __slots__ = ("order", "table", "labels", "identity", "inverses")

    def __init__(self, table, labels=None):
        if not isinstance(table, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in table
        ):
            raise SchemaError("a group table is a list of rows of element indices")
        self.order = len(table)
        self.table = [list(row) for row in table]
        n = self.order
        if n < 1:
            raise SchemaError("a group table needs at least one row")
        if labels is None:
            labels = ["g%d" % i for i in range(n)]
        if not isinstance(labels, (list, tuple)) or not all(isinstance(x, str) for x in labels):
            raise SchemaError("group labels are a list of strings")
        if len(labels) != n or len(set(labels)) != n:
            raise SchemaError("a group of order %d needs %d distinct labels" % (n, n))
        self.labels = list(labels)
        for row in self.table:
            if not all(type(x) is int for x in row) or sorted(row) != list(range(n)):
                raise SchemaError("invalid group table: row is not a permutation")
        for j in range(n):
            col = [self.table[i][j] for i in range(n)]
            if sorted(col) != list(range(n)):
                raise SchemaError("invalid group table: column is not a permutation")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise SchemaError("multiplication table is not associative")
        # a nonempty associative quasigroup is a group: the e with g_0 e = g_0
        # is its identity (cancel g_0), and each row holds the identity once
        self.identity = self.table[0].index(0)
        self.inverses = [row.index(self.identity) for row in self.table]

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverses[a]

    def element_order(self, a):
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def exponent(self):
        out = 1
        for a in range(self.order):
            out = lcm(out, self.element_order(a))
        return out

    def is_abelian(self):
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(a)
        )

    def is_subgroup(self, subset):
        s = set(subset)
        if self.identity not in s:
            return False
        return all(self.table[a][b] in s for a in s for b in s) and all(
            self.inverses[a] in s for a in s
        )

    def is_normal_subgroup(self, subset):
        s = set(subset)
        if not self.is_subgroup(s):
            return False
        return all(
            self.table[self.table[g][a]][self.inverses[g]] in s
            for g in range(self.order)
            for a in s
        )

    def index_of(self, label):
        return self.labels.index(label)

    def subset_indices(self, subset):
        """Normalize a subset given by labels or indices to sorted indices;
        SchemaError unless it is a collection of labels and indices of the
        group (a bool is neither)."""
        if not isinstance(subset, (list, tuple, set, frozenset, range)):
            raise SchemaError("a subset lists element labels or indices, not %r" % (subset,))
        out = set()
        for x in subset:
            if type(x) is int and 0 <= x < self.order:
                out.add(x)
            elif isinstance(x, str) and x in self.labels:
                out.add(self.index_of(x))
            else:
                raise SchemaError("%r is not an element label or index of the group" % (x,))
        return sorted(out)

    @classmethod
    def cyclic(cls, n):
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        labels = ["e"] + ["g" if k == 1 else "g%d" % k for k in range(1, n)]
        return cls(table, labels[:n])

    @classmethod
    def dihedral(cls, n):
        """The dihedral group of order 2n: rotations r^k and reflections s r^k."""
        if n < 1:
            raise SchemaError("the dihedral group needs n >= 1")
        size = 2 * n
        table = [[0] * size for _ in range(size)]
        for a in range(n):
            for b in range(n):
                table[a][b] = (a + b) % n
                table[a][n + b] = n + (b - a) % n
                table[n + a][b] = n + (a + b) % n
                table[n + a][n + b] = (b - a) % n
        labels = ["e"] + ["r" if k == 1 else "r%d" % k for k in range(1, n)]
        labels += ["s"] + ["sr" if k == 1 else "sr%d" % k for k in range(1, n)]
        return cls(table, labels)

    @classmethod
    def symmetric(cls, n):
        import itertools

        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = [
            [index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms
        ]
        return cls(table, [_perm_label(p) for p in perms])

    @classmethod
    def direct_product(cls, G, H):
        n, m = G.order, H.order
        table = [
            [
                G.table[i1][j1] * m + H.table[i2][j2]
                for j1 in range(n)
                for j2 in range(m)
            ]
            for i1 in range(n)
            for i2 in range(m)
        ]
        labels = [
            "(%s,%s)" % (G.labels[i1], H.labels[i2])
            for i1 in range(n)
            for i2 in range(m)
        ]
        return cls(table, labels)

    def as_dict(self):
        return {"order": self.order, "table": self.table, "labels": self.labels}

    def __repr__(self):
        return "FiniteGroup(order %d)" % self.order


def _perm_label(p):
    n = len(p)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + "".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) or "e"


def quotient_group(G: FiniteGroup, K) -> tuple:
    """The group G/K for a normal subgroup K; returns (group, coset_index).

    coset_index[g] is the index in the quotient of the coset gK; coset
    representatives are the minimal element indices, listed in sorted order.
    """
    K = G.subset_indices(K)
    if not G.is_normal_subgroup(K):
        raise NotASubgroup("K is not a normal subgroup")
    coset_of = [-1] * G.order
    reps = []
    for g in range(G.order):
        if coset_of[g] >= 0:
            continue
        members = sorted({G.table[g][k] for k in K})
        for m in members:
            coset_of[m] = len(reps)
        reps.append(members[0])
    table = [
        [coset_of[G.table[a][b]] for b in reps] for a in reps
    ]
    if len(reps) == G.order:
        labels = [G.labels[r] for r in reps]
    else:
        labels = ["[%s]" % G.labels[r] for r in reps]
    return FiniteGroup(table, labels), coset_of


def _resolve_field_order(default, field_order):
    if field_order is not None:
        return int(field_order)
    env = os.environ.get("HOPFCHECK_FIELD_ORDER")
    if env:
        return int(env)
    return default


def group_algebra(G: FiniteGroup, field_order=None) -> HopfStarAlgebra:
    """The group algebra of G: group-like basis, S(g) = g* = g^{-1}, h = delta_e."""
    n = G.order
    field = CycField(_resolve_field_order(G.exponent(), field_order))
    one, zero = field.one, field.zero
    mult = [(i, j, G.table[i][j], one) for i in range(n) for j in range(n)]
    unit = [one if i == G.identity else zero for i in range(n)]
    comult = [(i, i, i, one) for i in range(n)]
    counit = [one] * n
    antipode = [(i, G.inverses[i], one) for i in range(n)]
    H = HopfStarAlgebra(field, mult, unit, comult, counit, antipode, antipode, labels=list(G.labels))
    H.meta = {"kind": "group_algebra", "group": G}
    return H


def function_algebra(G: FiniteGroup, field_order=None) -> HopfStarAlgebra:
    """Functions on G: pointwise product, Delta from the group law, real basis."""
    n = G.order
    field = CycField(_resolve_field_order(G.exponent(), field_order))
    one, zero = field.one, field.zero
    mult = [(i, i, i, one) for i in range(n)]
    unit = [one] * n
    comult = [(G.table[j][k], j, k, one) for j in range(n) for k in range(n)]
    counit = [one if i == G.identity else zero for i in range(n)]
    antipode = [(i, G.inverses[i], one) for i in range(n)]
    star = [(i, i, one) for i in range(n)]
    H = HopfStarAlgebra(field, mult, unit, comult, counit, antipode, star, labels=list(G.labels))
    H.meta = {"kind": "function_algebra", "group": G}
    return H


def group_of_function_algebra(F: HopfStarAlgebra) -> FiniteGroup:
    """Recover the group underlying a function algebra from its tensors.

    Works on algebras loaded from files: the basis must multiply pointwise
    and the comultiplication must be a group law on the index set.  The
    group of an algebra built by function_algebra is read off its `meta`;
    any other is recovered once and kept in its memo under "group".
    """
    if F.meta.get("kind") == "function_algebra" and F.meta.get("group") is not None:
        return F.meta["group"]
    return F.memo("group", lambda: _recover_group(F))


def _recover_group(F):
    n = F.dim
    field = F.field
    one = field.one
    if F.mult_entries() != [(i, i, i, one) for i in range(n)]:
        raise SchemaError("not a function algebra: product is not pointwise")
    if F.unit != [one] * n:
        raise SchemaError("not a function algebra: unit is not the constant one")
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j, k, c in F.comult[i]:
            if c != one or table[j][k] is not None:
                raise SchemaError("not a function algebra: comultiplication is not a group law")
            table[j][k] = i
    if any(x is None for row in table for x in row):
        raise SchemaError("not a function algebra: comultiplication is not a group law")
    return FiniteGroup(table, list(F.labels))


def subgroup_ideal(F: HopfStarAlgebra, subset) -> Subspace:
    """The ideal of functions vanishing on a subgroup of G, inside F(G)."""
    G = group_of_function_algebra(F)
    H = G.subset_indices(subset)
    if not G.is_subgroup(H):
        raise NotASubgroup("the subset %r is not a subgroup" % (H,))
    hs = set(H)
    one = F.field.one
    return sparse_image(F.field, F.dim, [((g, one),) for g in range(G.order) if g not in hs])


def lift_algebra(H: HopfStarAlgebra, n: int) -> HopfStarAlgebra:
    """The same algebra with scalars lifted into the order-n cyclotomic field."""
    if n == H.field.n:
        return H
    field = CycField(n)
    lift = field.lift

    def lv(vec):
        return [lift(x) for x in vec]

    out = HopfStarAlgebra(
        field,
        [(i, j, k, lift(c)) for i, j, k, c in H.mult_entries()],
        lv(H.unit),
        [(i, j, k, lift(c)) for i, j, k, c in H.comult_entries()],
        lv(H.counit),
        [(i, j, lift(c)) for i, j, c in H.antipode_entries()],
        [(i, j, lift(c)) for i, j, c in H.star_entries()],
        labels=list(H.labels),
    )
    out.meta = dict(H.meta)
    return out


def _kron(entries1, entries2, d2):
    """The entries of the tensor product of two sparse maps of one arity,
    given as (index, ..., scalar) entries: each index pair (a, b) becomes
    a * d2 + b and the scalars multiply."""
    return [
        (*(a * d2 + b for a, b in zip(e1[:-1], e2)), e1[-1] * e2[-1])
        for e1 in entries1
        for e2 in entries2
    ]


def tensor_product(H1: HopfStarAlgebra, H2: HopfStarAlgebra) -> HopfStarAlgebra:
    """Componentwise tensor product Hopf *-algebra on the d1*d2 basis."""
    n = lcm(H1.field.n, H2.field.n)
    A, B = lift_algebra(H1, n), lift_algebra(H2, n)
    field = A.field
    d2 = B.dim
    mult = _kron(A.mult_entries(), B.mult_entries(), d2)
    unit = tensor_vec(A.unit, B.unit)
    comult = _kron(A.comult_entries(), B.comult_entries(), d2)
    counit = tensor_vec(A.counit, B.counit)
    antipode = _kron(A.antipode_entries(), B.antipode_entries(), d2)
    star = _kron(A.star_entries(), B.star_entries(), d2)
    labels = [
        "(%s,%s)" % (la, lb) for la in A.labels for lb in B.labels
    ]
    X = HopfStarAlgebra(field, mult, unit, comult, counit, antipode, star, labels=labels)
    X.meta = {"kind": "tensor_product", "factors": (A, B)}
    return X


def tensor_subgroup(Q1: QuantumSubgroup, Q2: QuantumSubgroup) -> QuantumSubgroup:
    """The product subgroup N1 x N2 of G1 x G2, with its coset identity.

    The projection is pi1 (x) pi2; the coset algebra of the result must equal
    the tensor product of the two coset algebras, and this is checked.
    """
    T = tensor_product(Q1.parent, Q2.parent)
    field = T.field

    def kron(cols1, cols2, n2):
        """The sparse vectors u (x) v, index (a, b) -> a * n2 + b, lifted to T's field."""
        lift = field.lift
        return [
            tuple((a * n2 + b, lift(x) * lift(y)) for a, x in u for b, y in v)
            for u in cols1
            for v in cols2
        ]

    big = kron(Q1.proj_columns, Q2.proj_columns, Q2.quotient.dim)
    Q = make_subgroup(T, sparse_kernel(field, Q1.quotient.dim * Q2.quotient.dim, big))
    if Q.quotient.dim != Q1.quotient.dim * Q2.quotient.dim:
        raise TheoremViolation("quotient dimension does not match N1 x N2")

    A1, _ = coset_algebras(Q1)
    A2, _ = coset_algebras(Q2)
    tens = sparse_image(field, T.dim, kron(A1.rows, A2.rows, Q2.parent.dim))
    A_T, _ = coset_algebras(Q)
    if A_T != tens:
        raise TheoremViolation(
            "coset algebra of a product subgroup is not the tensor of cosets"
        )
    Q.meta["factors"] = (Q1, Q2)
    return Q


# how an action map fails, for each structure map it does not intertwine
_ACTION_FAILURE = {
    "unit": "does not fix the unit",
    "product": "is not multiplicative",
    "star": "does not commute with *",
    "coproduct": "does not preserve the coproduct",
    "counit": "does not preserve the counit",
    "antipode": "does not commute with the antipode",
}


class GroupAction:
    """An action of a finite group on a Hopf *-algebra by Hopf *-automorphisms.

    Each map is given as (i, j, c) entries, alpha_t(e_i) having coefficient
    c on e_j, checked by the rules of the algebra's antipode entries, and
    kept as sparse columns: maps[t][i] is alpha_t(e_i).
    """

    __slots__ = ("group", "target", "maps")

    def __init__(self, group: FiniteGroup, target: HopfStarAlgebra, maps, validate=True):
        if len(maps) != group.order:
            raise SchemaError("an action needs one map per group element")
        self.group = group
        self.target = target
        self.maps = [
            _sparse_columns(target.field.scalar, target.dim, m, "action map %d" % t, 2)
            for t, m in enumerate(maps)
        ]
        if validate:
            self._validate()

    def _validate(self):
        G, A = self.group, self.target
        if self.maps[G.identity] != sparse_identity(A.field, A.dim):
            raise SchemaError("the identity of the group must act as the identity")
        for s in range(G.order):
            for t in range(G.order):
                if sparse_compose(self.maps[s], self.maps[t]) != self.maps[G.table[s][t]]:
                    raise SchemaError("action is not a group homomorphism")
        for t, M in enumerate(self.maps):
            failed = morphism_failure(A, M, A)
            if failed:
                raise SchemaError("action map %d %s" % (t, _ACTION_FAILURE[failed]))

    @classmethod
    def trivial(cls, group, target):
        ident = [(i, i, target.field.one) for i in range(target.dim)]
        return cls(group, target, [ident] * group.order, validate=False)

    def kernel_indices(self):
        ident = sparse_identity(self.target.field, self.target.dim)
        return [t for t in range(self.group.order) if self.maps[t] == ident]

    def __repr__(self):
        return "GroupAction(|G|=%d on dim %d)" % (self.group.order, self.target.dim)


def inversion_action(F: HopfStarAlgebra) -> GroupAction:
    """The order-2 action of Z2 on F(G), G abelian, by delta_g -> delta_{g^{-1}},
    with G from group_of_function_algebra, so a loaded F(G) serves too."""
    G = group_of_function_algebra(F)
    one = F.field.one
    ident = [(i, i, one) for i in range(F.dim)]
    inverse = [(i, G.inverses[i], one) for i in range(F.dim)]
    return GroupAction(FiniteGroup.cyclic(2), F, [ident, inverse])


def crossed_product(A: HopfStarAlgebra, action: GroupAction) -> HopfStarAlgebra:
    """The smash product A x| Gamma, with Gamma group-like in the coproduct."""
    if action.target is not A:
        raise SchemaError("the action must be defined on the algebra being crossed")
    G = action.group
    n = lcm(A.field.n, G.exponent())
    if n != A.field.n:
        A2 = lift_algebra(A, n)
        maps = [
            [(i, j, A2.field.lift(c)) for i, col in enumerate(m) for j, c in col]
            for m in action.maps
        ]
        action = GroupAction(G, A2, maps, validate=False)
        A = A2
    field = A.field
    dA, o = A.dim, G.order

    # (a gamma_s)(b gamma_t) = a alpha_s(b) gamma_st, while S(a gamma_t) and
    # (a gamma_t)* are alpha_t^-1(S(a)) gamma_t^-1 and alpha_t^-1(a*) gamma_t^-1;
    # A.mult[i] is the sparse columns of left multiplication by e_i
    mult = []
    for i in range(dA):
        for s in range(o):
            for j, w in enumerate(sparse_compose(A.mult[i], action.maps[s])):
                mult += [
                    (i * o + s, j * o + t, k * o + G.table[s][t], c)
                    for t in range(o)
                    for k, c in w
                ]
    unit = [A.unit[i] if t == G.identity else field.zero for i in range(dA) for t in range(o)]
    comult = [
        (i * o + t, j * o + t, k * o + t, c)
        for i, j, k, c in A.comult_entries()
        for t in range(o)
    ]
    counit = [A.counit[i] for i in range(dA) for _t in range(o)]
    antipode, star = [], []
    for t in range(o):
        ti = G.inverses[t]
        for cols, out in ((A.antipode, antipode), (A.star, star)):
            for i, col in enumerate(sparse_compose(action.maps[ti], cols)):
                out += [(i * o + t, k * o + ti, c) for k, c in col]
    labels = ["%s|%s" % (A.labels[i], G.labels[t]) for i in range(dA) for t in range(o)]
    X = HopfStarAlgebra(field, mult, unit, comult, counit, antipode, star, labels=labels)
    X.meta = {"kind": "crossed_product", "inner": A, "group": G, "action": action}
    return X


def crossed_canonical_subgroup(X: HopfStarAlgebra) -> QuantumSubgroup:
    """The copy of the acting group's dual inside a crossed product.

    This is crossed_general_subgroup with I = ker(eps), the augmentation
    ideal of A, and K = {e}: pi(a gamma) = eps(a) gamma up to the basis of
    A/ker(eps) = C, onto the group algebra of Gamma.  The general builder
    checks that the subgroup is normal (all four criteria) and that its
    coset algebra is the embedded copy of A, B x| {e} with B = A.
    """
    info = _crossed_info(X)
    I, e = _augmentation_ideal(info["inner"]), info["group"].identity
    return crossed_general_subgroup(X, I, [e])


def _crossed_info(X):
    if X.meta.get("kind") != "crossed_product":
        raise SchemaError("expected an algebra built by crossed_product")
    return X.meta


def crossed_general_subgroup(X: HopfStarAlgebra, I: Subspace, K) -> QuantumSubgroup:
    """The subgroup (A/I) x| (Gamma/K) of A x| Gamma.

    I must be an action-invariant Hopf *-ideal with A/I normal in A, given
    as a Subspace of A over A's field or a subfield (its rows are lifted
    into A's field), and K a normal subgroup of Gamma acting trivially.  The
    coset algebra is checked to be the span of B x| K for B the coset
    algebra of the inner pair, and the trivial-set size must factor
    accordingly.

    The projection is pi(e_i gamma_t) = pi_I(e_i) gamma_(tK), and no second
    crossed product is built: the action that (A/I) x| (Gamma/K) would be
    crossed by is well defined.  I is alpha_t-invariant, so pi_I alpha_t
    vanishes on I and alpha~_t(pi_I(a)) = pi_I(alpha_t(a)) is a map of A/I.
    K acts trivially, so alpha_(tk) = alpha_t alpha_k = alpha_t for k in
    K and alpha~_t depends on tK alone.  Each alpha_t was validated as a
    Hopf *-automorphism (GroupAction) and pi_I is an onto Hopf *-map, so
    each alpha~_t is a Hopf *-automorphism of A/I, and tK -> alpha~_t is a
    homomorphism.  make_subgroup certifies the kernel of pi as a Hopf
    *-ideal, and the quotient is checked to have dimension dim(A/I)
    |Gamma/K|, the rank of pi, which is onto since pi_I and t -> tK are.
    """
    info = _crossed_info(X)
    A, G, action = info["inner"], info["group"], info["action"]
    field = X.field
    dA, o = A.dim, G.order

    K = G.subset_indices(K)
    if not G.is_normal_subgroup(K):
        raise NotASubgroup("K is not a normal subgroup of the acting group")
    kernel = set(action.kernel_indices())
    for t in K:
        if t not in kernel:
            raise KNotInKernel("group element %s acts nontrivially" % G.labels[t])

    if not isinstance(I, Subspace) or I.ambient != dA:
        raise SchemaError("the inner ideal must be a Subspace of field^%d" % dA)
    I = sparse_image(field, dA, [tuple((j, field.lift(c)) for j, c in row) for row in I.rows])
    for t in range(o):
        if I.map_by(action.maps[t], dA) != I:
            raise InvarianceViolated(
                "the ideal is not invariant under %s" % G.labels[t]
            )
    Q_A = make_subgroup(A, I)
    inner_report = normality_report(Q_A)
    if not inner_report.normal:
        raise NotNormalInner("A/I is not a normal quantum subgroup of A")

    GQ, coset_of = quotient_group(G, K)
    # pi(e_i gamma_t) = pi_A(e_i) gamma_(tK)
    P = [
        tuple((b * GQ.order + coset_of[t], x) for b, x in Q_A.proj_columns[i])
        for i in range(dA)
        for t in range(o)
    ]
    dim = Q_A.quotient.dim * GQ.order
    Q = make_subgroup(X, sparse_kernel(field, dim, P))
    if Q.quotient.dim != dim:
        raise TheoremViolation("quotient dimension does not match (A/I) x| (Gamma/K)")

    report = normality_report(Q)
    if not report.normal:
        raise TheoremViolation("the general crossed-product subgroup is not normal")

    B, _ = coset_algebras(Q_A)
    bk = sparse_image(field, X.dim, [[(k * o + t, c) for k, c in b] for b in B.rows for t in K])
    A_GN, _ = coset_algebras(Q)
    if A_GN != bk:
        raise TheoremViolation("coset algebra is not the span of B x| K")
    if len(report.trivial_set) != len(inner_report.trivial_set) * len(K):
        raise TheoremViolation("trivial set size does not factor as |S(N)| * |K|")
    Q.meta["inner"] = Q_A
    return Q
