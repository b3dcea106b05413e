"""Finite-dimensional Hopf *-algebras given by exact structure constants.

Conventions (all column-style):
  mult entry (i, j, k, c)    e_i * e_j has coefficient c on e_k
  unit[i]                    1 = sum_i unit[i] e_i
  comult entry (i, j, k, c)  Delta(e_i) has coefficient c on e_j (x) e_k
  counit[i]                  eps(e_i)
  antipode entry (i, j, c)   S(e_i) has coefficient c on e_j
  star entry (i, j, c)       (e_i)* has coefficient c on e_j; * is antilinear

The structure maps are given and stored sparsely, never as d^3 tensors or
d x d matrices.  The constructor takes any iterable of (i, j, k, c) entries
for the product and coproduct (the shape of the sparse entries of a
.hopf.json file) and of (i, j, c) entries for the antipode and star: it
coerces each scalar, raises SchemaError on a malformed entry, an index out
of range or a repeated index, and drops the zero entries.  It stores
  H.mult[i][j]   a tuple of the (k, c) with c != 0, sorted by k
  H.comult[i]    a tuple of the (j, k, c) with c != 0, sorted by (j, k)
  H.antipode[i]  a tuple of the (j, c) with c != 0, sorted by j
  H.star[i]      likewise for (e_i)*
and H.mult_entries() / H.comult_entries() / H.antipode_entries() /
H.star_entries() list the entries back in index order.

The Kac conditions (S^2 = id, tracial positive Haar) are part of the axiom
report, so everything downstream may assume them once the report is clean.

Algebras are immutable by convention, so data derived from one (the Haar
state, the Peter-Weyl list, the dual, the subalgebra and subgroup lattices)
is computed once and kept in the algebra's memo: `H.memo(key, compute)`
returns the stored value for `key`, calling `compute()` only the first time.
The keys are "haar", "peter_weyl", "dual", "trace",
"hopf_subalgebras", "quantum_subgroups", "property_F", "property_FD",
"generators", "dual_generators", "verified", "comult_legs" (the
coproduct terms grouped by leg, see comult_legs), "group" (the group that
constructions.group_of_function_algebra recovers from a function algebra
not built by function_algebra), and "adjoint_products_left"
and "adjoint_products_right" (the products of subgroup._a_normal, shared by
every subgroup of the algebra).  "trace" is kept on whichever algebra is
split as a dual: dual(H) for peter_weyl(H), and H itself for
peter_weyl(dual(H)) once H is verified.  It holds the regular trace
x -> Tr(L_x) (_regular_trace), which sizes each Peter-Weyl block
(splitting.left_trace).  compute_haar reads the regular trace of H as its
Haar candidate without keeping it.
"verified" is set by record_verified when the algebra passes check_axioms,
or when make_subgroup or sub_hopf_algebra certifies it as a quotient or a
subalgebra of a verified algebra; `H.verified` reads it and never runs a
check, and ensure_verified runs check_axioms only when it is unset.  It
also holds for the dual of a verified algebra, whose own dual is then that
algebra: record_verified marks a dual already built, and dual() a dual
built later, so no double dual is built and nothing is checked twice.
Proof: each law of dual(H) is a law of H read through the transpose (see
below; the star laws of D follow from those of H and S_D^2 = (S^2)^T = id).
The Haar state of D exists and is positive, since the dual of a finite
quantum group is one (Van Daele, Proc. AMS 125 (1997)); with S_D^2 = id it
is the normalized regular trace (compute_haar), so it is tracial.  The
memo is the only store of derived data: a constructor sets `meta`, the
record of how the algebra was built, and nothing else, so the Peter-Weyl
list of every algebra comes from splitting its dual (see corep).

Each law is stated once, and a law of the coproduct is checked as the
matching law of the product of the dual.  On the dual basis e^i of
D = dual(H), with Delta(e_t) = sum c_t^(jk) e_j (x) e_k and
e_a e_b = sum m_ab^t e_t, the product of D is e^j e^k = sum_t c_t^(jk) e^t,
its unit is eps, its coproduct has the constants m_ab^t and its counit is
the unit u of H.  So
  (eps e^i)(e_t) = sum_j eps(e_j) c_t^(ji), the coefficient of e_i in
      (eps (x) id) Delta(e_t), and likewise on the right: the unit law of D
      at e^i, component t, is the counit law of H at e_t, component i;
  ((e^a e^b) e^c)(e_t) and (e^a (e^b e^c))(e_t) are the coefficients of
      e_a (x) e_b (x) e_c in (Delta (x) id) Delta(e_t) and
      (id (x) Delta) Delta(e_t): associativity of D is coassociativity of H;
  eps_D(e^j e^k) = sum_t c_t^(jk) u_t, the coefficient of e_j (x) e_k in
      Delta(1), and eps_D(e^j) eps_D(e^k) = u_j u_k, its coefficient in
      1 (x) 1: eps(xy) = eps(x) eps(y) in D is Delta(1) = 1 (x) 1 in H.
check_axioms runs these three laws of H as _unit_failures, _assoc_failures
and _counit_mult_failures of D, the functions that run the unit law,
associativity and eps(xy) = eps(x) eps(y) on H, and reads each witness back
at the transposed indices.  The other laws go through the maps that hopf
already has: convolve and counit_unit for the antipode, star_vec and
sparse_compose for the involutions, star_vec and product for
(xy)* = y* x*, coproduct and tensor_apply for Delta(x*) = (* (x) *)
Delta(x), counit_of and haar_of for the functionals.

Identities that are multiplicative in one argument are checked on a
certified generating set.  "generators" holds basis indices S such that the
unit and its repeated left products e_s1 (e_s2 (... (e_sk 1))) span the
algebra, certified by an Echelon of full rank (_generators).  The x for
which such an identity holds (for every y) form a subspace.  When that
subspace contains 1 and is closed under products, it holds every product
of generators (induction on word length), and these span, so checking x in
S suffices.  That needs prerequisites:
  associativity        the unit law: the left nucleus {x : (xy)z = x(yz)}
                       is closed under products in any algebra;
  Delta(xy) = Delta(x) Delta(y)
                       associativity, the unit law and Delta(1) = 1 (x) 1;
  (xy)* = y* x*        associativity, the unit law and 1* = 1.
The proofs are in the docstrings of _assoc_failures,
_comult_mult_failures and _star_antimult_failures.  Coassociativity runs
on the dual's generators once the dual's unit law, the counit law, holds.
Delta(xy) = Delta(x) Delta(y) is the same identity of structure constants
in the dual, with prerequisites coassociativity, the counit law and
eps(xy) = eps(x) eps(y); check_axioms runs it on the side with fewer
generators.  A reduction runs only when its prerequisites have passed;
otherwise S is every index, the full scan, so each ok flag is what the full
scans give and only a failure's witness may name other indices.
"dual_generators" holds the dual's generators when the dual is unital and
associative, and None otherwise, for Corepresentation.verify and the
coassociativity gate of corep.peter_weyl.

Vectors are sparse, the form of a column of H.antipode: H.product,
H.antipode_vec and H.star_vec take and return sorted (index, scalar) tuples,
H.coproduct takes one and returns a dict {(j, k): c} over index pairs with
no zero entries, so two coproducts compare as dicts, and H.counit_of and
H.haar_of evaluate the dense covectors H.counit and H.haar on them.
H.unit and H.counit stay dense lists, as in the file.
Every linear map between algebras (a quotient projection, a subalgebra
inclusion, a coproduct slice, a convolution) is a list of sparse columns
(see linalg), and tensor_apply(f, g, terms) is the one kernel of f (x) g,
on (j, k, c) terms, the form of H.comult[i], returning a zero-free dict
like H.coproduct.  Structure is pushed through such a map by these vector
maps and tensor_apply alone.  morphism_failure is the one test of whether
a map preserves unit, product, star, coproduct, counit and antipode;
quotient maps, subalgebra inclusions and group actions are all checked by
it, and none of them checks the unit separately.  induced_algebra is the
one builder of quotient and subalgebra structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .cyclotomic import CycField
from .errors import AxiomsFailed, NotCosemisimple, SchemaError
from .linalg import (
    Echelon,
    add_terms,
    sparse_apply,
    sparse_column,
    sparse_compose,
    sparse_identity,
    sparse_null_space,
    sparse_vector,
)


class HopfStarAlgebra:
    """A finite quantum group presented by structure constants."""

    def __init__(self, field, mult, unit, comult, counit, antipode, star, labels=None):
        if not isinstance(field, CycField):
            field = CycField(field)
        self.field = field
        d = len(unit)
        self.dim = d
        sc = field.scalar
        try:
            self.unit = [sc(unit[i]) for i in range(d)]
            self.counit = [sc(counit[i]) for i in range(d)]
        except (IndexError, TypeError) as exc:
            raise SchemaError("structure tensor shape mismatch: %s" % exc) from exc
        if labels is None:
            labels = ["e%d" % i for i in range(d)]
        if len(labels) != d:
            raise SchemaError("expected %d basis labels, got %d" % (d, len(labels)))
        self.labels = list(labels)
        mult_terms = [[[] for _ in range(d)] for _ in range(d)]
        for (i, j, k), c in _sparse_entries(sc, d, mult, "mult", 3):
            mult_terms[i][j].append((k, c))
        self.mult = [[tuple(terms) for terms in row] for row in mult_terms]
        self.comult = _sparse_columns(sc, d, comult, "comult", 3)
        self.antipode = _sparse_columns(sc, d, antipode, "antipode", 2)
        self.star = _sparse_columns(sc, d, star, "star", 2)
        self._memo = {}
        self.meta = {}

    def memo(self, key, compute):
        """The derived value stored under key, computed on first request.

        Nothing is stored when compute() raises, so a failure is raised
        again on the next request.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def verified(self):
        """True once the algebra is known to satisfy every axiom (see the module doc)."""
        return self._memo.get("verified", False)

    @property
    def _pw_cache(self):
        """The memoized Peter-Weyl data, or None before the first peter_weyl."""
        return self._memo.get("peter_weyl")

    def mult_entries(self):
        """The nonzero product entries (i, j, k, c), in index order."""
        return [
            (i, j, k, c)
            for i, row in enumerate(self.mult)
            for j, terms in enumerate(row)
            for k, c in terms
        ]

    def comult_entries(self):
        """The nonzero coproduct entries (i, j, k, c), in index order."""
        return [(i, j, k, c) for i, terms in enumerate(self.comult) for j, k, c in terms]

    def antipode_entries(self):
        """The nonzero antipode entries (i, j, c), in index order."""
        return [(i, j, c) for i, terms in enumerate(self.antipode) for j, c in terms]

    def star_entries(self):
        """The nonzero star entries (i, j, c), in index order."""
        return [(i, j, c) for i, terms in enumerate(self.star) for j, c in terms]

    # -- basic maps ---------------------------------------------------------

    def product(self, x, y):
        """The product of two sparse vectors, a sparse vector."""
        one = self.field.one
        acc = {}
        for i, xi in x:
            row = self.mult[i]
            for j, yj in y:
                terms = row[j]
                if terms:
                    add_terms(acc, yj if xi is one else xi if yj is one else xi * yj, terms)
        return sparse_column(acc)

    def coproduct(self, x):
        """Delta of a sparse vector, as a dict {(a, b): the coefficient of
        e_a (x) e_b} with no zero entries."""
        one = self.field.one
        out = {}
        terms = 0
        for i, xi in x:
            comult = self.comult[i]
            terms += len(comult)
            for a, b, c in comult:
                v = c if xi is one else xi if c is one else xi * c
                out[a, b] = out[a, b] + v if (a, b) in out else v
        # a coefficient can vanish only where two nonzero terms share a key
        return out if len(out) == terms else {key: c for key, c in out.items() if c}

    def counit_of(self, x):
        return _pair(x, self.counit, self.field.zero)

    def antipode_vec(self, x):
        return sparse_compose(self.antipode, [x])[0]

    def star_vec(self, x):
        return sparse_compose(self.star, [tuple((i, c.conjugate()) for i, c in x)])[0]

    def is_commutative(self):
        return all(self.mult[i][j] == self.mult[j][i] for i in range(self.dim) for j in range(i))

    def is_cocommutative(self):
        return all(
            {(j, k): c for j, k, c in terms} == {(k, j): c for j, k, c in terms}
            for terms in self.comult
        )

    # -- Haar ---------------------------------------------------------------

    @property
    def haar(self):
        """The unique normalized bi-invariant functional, as a covector."""
        return self.memo("haar", lambda: compute_haar(self))

    def haar_of(self, x):
        return _pair(x, self.haar, self.field.zero)

    def __repr__(self):
        return "HopfStarAlgebra(dim %d over Q(zeta_%d))" % (self.dim, self.field.n)


def _sparse_entries(sc, d, entries, name, arity):
    """The nonzero (index, c) of a structure map given by entries of arity
    indices and a scalar, in index order; SchemaError on a malformed,
    out-of-range or repeated entry."""
    out = {}
    for entry in entries:
        try:
            *key, c = entry
            if len(key) != arity:
                raise ValueError(entry)
            c = sc(c)
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                "%s entries are (%s, scalar), got %r" % (name, ", ".join("ijk"[:arity]), entry)
            ) from exc
        key = tuple(key)
        if not all(type(x) is int and 0 <= x < d for x in key):
            raise SchemaError("%s index out of range in %r" % (name, key))
        if key in out:
            raise SchemaError("repeated %s entry %r" % (name, key))
        out[key] = c
    return [(key, out[key]) for key in sorted(out) if out[key]]


def _sparse_columns(sc, d, entries, name, arity):
    """Column i of a map given by (i, ..., c) entries: the sorted (..., c)
    with c != 0."""
    cols = [[] for _ in range(d)]
    for (i, *rest), c in _sparse_entries(sc, d, entries, name, arity):
        cols[i].append((*rest, c))
    return [tuple(col) for col in cols]


def _pair(x, covector, zero):
    """The value of a dense covector on a sparse vector; a factor one is not
    multiplied (see linalg)."""
    one = zero.field.one
    acc = zero
    for i, c in x:
        f = covector[i]
        if f:
            acc = acc + (f if c is one else c if f is one else c * f)
    return acc


def convolve(H, f, g):
    """Convolution f * g = m (f (x) g) Delta of two maps of H given by sparse
    columns, as sparse columns."""
    out = []
    for terms in H.comult:
        acc = {}
        for j, k, c in terms:
            for a, x in f[j]:
                cx = c * x
                for b, y in g[k]:
                    add_terms(acc, cx * y, H.mult[a][b])
        out.append(sparse_column(acc))
    return out


def counit_unit(H):
    """The sparse columns of the convolution unit a -> eps(a) 1."""
    unit = [(t, u) for t, u in enumerate(H.unit) if u]
    return [tuple((t, e * u) for t, u in unit) if e else () for e in H.counit]


def compute_haar(H):
    """The bi-invariant functional h with h(1) = 1: the regular trace
    t(x) = Tr(L_x) scaled to t(1) = 1 when that passes both invariance
    equations, otherwise the solution of the equations.

    In characteristic 0 a semisimple cosemisimple Hopf algebra has S^2 = id
    and its regular character is a two-sided integral (Larson and Radford,
    J. Algebra 117 (1988); Amer. J. Math. 110 (1988)), so on every verified
    algebra the candidate t / t(1) is the Haar state.  It is accepted only
    when (id (x) h) Delta(e_i) = h(e_i) 1 and (h (x) id) Delta(e_i) =
    h(e_i) 1 hold exactly for every i, which decides the answer with no
    axiom of H: if h satisfies both with h(1) = 1 and h' is any solution of
    both, then (h' (x) h) Delta(x) is h'((id (x) h) Delta(x)) = h(x) h'(1)
    and also h((h' (x) id) Delta(x)) = h'(x), so h' = h'(1) h.  The
    solution space is span{h}, and the solve would return h.

    When t(1) = 0 or the candidate fails, _solve_haar decides, as it does on
    inputs that are not semisimple cosemisimple Hopf algebras (corrupted
    constants, Sweedler's algebra, an arbitrary file given to the haar
    subcommand).  Raises NotCosemisimple when the bi-invariant functional
    does not exist or cannot be normalized.
    """
    t = _regular_trace(H)
    t_one = _pair(sparse_vector(H.unit), t, H.field.zero)
    if t_one:
        inv = t_one.inverse()
        h = [c * inv for c in t]
        if all(_invariance(H, h)):
            return h
    return _solve_haar(H)


def _regular_trace(A):
    """The covector t[x] = Tr(L_(e_x)), the sum over k of the coefficient
    of e_k in e_x e_k, read off A.mult."""
    zero = A.field.zero
    return [
        sum((c for k, terms in enumerate(row) for m, c in terms if m == k), zero)
        for row in A.mult
    ]


def _invariance(H, h):
    """(left, right): whether (id (x) h) Delta(e_i) = h(e_i) 1, resp.
    (h (x) id) Delta(e_i) = h(e_i) 1, holds for every i; h is dense."""
    want = [sparse_column({t: hi * u for t, u in enumerate(H.unit)}) for hi in h]
    f = sparse_vector(h)
    return coproduct_slice(H, f, "right") == want, coproduct_slice(H, f, "left") == want


def _solve_haar(H):
    """Solve both invariance equations jointly; normalize h(1) = 1."""
    d = H.dim
    field = H.field
    zero = field.zero
    # (id (x) h) Delta(e_i) = h(e_i) 1 and (h (x) id) Delta(e_i) = h(e_i) 1 at
    # each component e_comp: one sparse equation {k: coefficient of h_k}
    eqs = {}

    def add(key, k, c):
        row = eqs.setdefault(key, {})
        row[k] = row.get(k, zero) + c

    for i in range(d):
        for j, k, c in H.comult[i]:
            add(("right", j, i), k, c)
            add(("left", k, i), j, c)
        for comp, u in enumerate(H.unit):
            add(("right", comp, i), i, -u)
            add(("left", comp, i), i, -u)
    sol = sparse_null_space(field, d, map(sparse_column, eqs.values()))
    if sol.dim == 0:
        raise NotCosemisimple("no bi-invariant functional exists")
    if sol.dim > 1:
        raise NotCosemisimple(
            "bi-invariance system has a %d-dimensional solution space" % sol.dim
        )
    h = sol.basis()[0]
    h_one = _pair(sparse_vector(H.unit), h, zero)
    if not h_one:
        raise NotCosemisimple("the bi-invariance system forces h(1) = 0")
    inv = h_one.inverse()
    return [hv * inv for hv in h]


@dataclass
class AxiomCheck:
    name: str
    ok: bool
    witness: object = None


@dataclass
class AxiomReport:
    checks: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_axioms(H):
    """Run every Hopf *-algebra axiom plus the Kac conditions.

    Each check reports a witness (basis indices) on failure.  An algebra is
    only fit for downstream use when all checks pass; a passing run is
    recorded in its memo under "verified".

    Three laws of H run on D = dual(H), as the algebra laws of D that they
    are (the proof is in the module doc): "counit" is the unit law of D, and
    its witness (t,) names the e_t of H where the counit law fails;
    "coassociativity" is the associativity of D, with witness (t,) the same
    way; "comult_unital" is eps(xy) = eps(x) eps(y) of D, and its witness
    (i, j) names a nonzero component e_i (x) e_j of Delta(1) - 1 (x) 1.
    Delta(xy) = Delta(x) Delta(y) runs on H or on D, whichever has fewer
    generators.  The antipode laws compare convolve(H, S, id) and
    convolve(H, id, S) with counit_unit(H), the involutions compare ** and
    S S with the identity, star_comultiplicative compares Delta(e_i*) with
    tensor_apply(*, *, conj Delta(e_i)), and star_counit and haar_star
    read counit_of and haar_of; these compare column by column, with
    witness (i,) at the first column that differs.  haar_tracial reads
    haar_of too, with witness the first pair (i, j), i < j, where
    h(e_i e_j) != h(e_j e_i).  Associativity, coassociativity,
    Delta(xy) = Delta(x) Delta(y) and (xy)* = y* x* run on generators (see
    the module doc).
    """
    d = H.dim
    field = H.field
    checks = []
    ident = sparse_identity(field, d)
    one = sparse_vector(H.unit)
    D = dual(H)

    def run(name, witness_iter):
        w = next(witness_iter, None)
        checks.append(AxiomCheck(name, w is None, w))
        return w is None

    def differ(got, want):
        return ((i,) for i, (x, y) in enumerate(zip(got, want)) if x != y)

    unit_ok = run("unit", (w[:1] for w in _unit_failures(H)))
    gens = _generators(H) if unit_ok else range(d)
    assoc_ok = run("associativity", (w[:3] for w in _assoc_failures(H, gens)))
    # the unit law of D at e^i, component e^t, is the counit law at e_t
    counit_ok = run("counit", (w[1:] for w in _unit_failures(D)))
    dual_gens = _generators(D) if counit_ok else range(d)
    coassoc_ok = run("coassociativity", (w[3:] for w in _assoc_failures(D, dual_gens)))
    comult_unital_ok = run("comult_unital", _counit_mult_failures(D))
    run("counit_unital", iter([()] if H.counit_of(one) != field.one else []))

    # Delta(xy) = Delta(x) Delta(y) runs on the side with fewer generators
    # among those whose prerequisites hold, else on every index of H.  The
    # dual side needs eps(xy) = eps(x) eps(y), so that check runs first; the
    # report keeps its order.
    counit_mult_w = next(_counit_mult_failures(H), None)
    h_side = unit_ok and assoc_ok and comult_unital_ok
    dual_side = counit_ok and coassoc_ok and counit_mult_w is None
    on_dual = dual_side and not (h_side and len(gens) <= len(dual_gens))
    A, A_gens = (D, dual_gens) if on_dual else (H, gens if h_side else range(d))
    # the identity at (i, j), component (a, b) of the dual is the one at
    # (a, b), component (i, j) of H
    run("comult_multiplicative",
        (w[2:] if on_dual else w[:2] for w in _comult_mult_failures(A, A_gens)))
    checks.append(AxiomCheck("counit_multiplicative", counit_mult_w is None, counit_mult_w))

    eps_one = counit_unit(H)
    run("antipode_left", differ(convolve(H, H.antipode, ident), eps_one))
    run("antipode_right", differ(convolve(H, ident, H.antipode), eps_one))
    run("star_involution", differ([H.star_vec(c) for c in H.star], ident))

    # gens is every index unless the unit law holds
    star_gens = gens if assoc_ok and H.star_vec(one) == one else range(d)
    run("star_antimultiplicative", _star_antimult_failures(H, star_gens))

    # Delta(e_i*) against (* (x) *) Delta(e_i), antilinear in Delta(e_i)
    run("star_comultiplicative", differ([H.coproduct(col) for col in H.star], [
        tensor_apply(H.star, H.star, [(j, k, c.conjugate()) for j, k, c in terms])
        for terms in H.comult
    ]))
    run("star_counit", differ(
        [H.counit_of(c) for c in H.star], [e.conjugate() for e in H.counit]))

    def antipode_star_fails():
        for i in range(d):
            v = H.star_vec(H.antipode_vec(H.star_vec(H.antipode_vec(ident[i]))))
            if v != ident[i]:
                yield (i,)

    run("antipode_star_involution", antipode_star_fails())
    run("antipode_involutive", differ(sparse_compose(H.antipode, H.antipode), ident))

    haar = None
    try:
        haar = H.haar
        checks.append(AxiomCheck("haar_exists", True))
    except NotCosemisimple as exc:
        checks.append(AxiomCheck("haar_exists", False, str(exc)))

    if haar is not None:
        run("haar_tracial", (
            (i, j) for i in range(d) for j in range(i + 1, d)
            if H.haar_of(H.mult[i][j]) != H.haar_of(H.mult[j][i])
        ))
        run("haar_star", differ(
            [H.haar_of(c) for c in H.star], [x.conjugate() for x in haar]))

        def haar_positive_fails():
            # gram[i][j] = h(e_i* e_j)
            h_mult = [[H.haar_of(terms) for terms in row] for row in H.mult]
            gram = [
                [sum((x * h_mult[a][j] for a, x in H.star[i]), field.zero) for j in range(d)]
                for i in range(d)
            ]
            for i in range(d):
                for j in range(d):
                    if gram[j][i] != gram[i][j].conjugate():
                        yield ("not_hermitian", i, j)
                        return
            g = [row[:] for row in gram]
            for k in range(d):
                piv = g[k][k]
                if not piv.is_real() or piv.sign() <= 0:
                    yield ("pivot", k)
                    return
                inv = piv.inverse()
                for i2 in range(k + 1, d):
                    if g[i2][k]:
                        f = g[i2][k] * inv
                        for j2 in range(k + 1, d):
                            if g[k][j2]:
                                g[i2][j2] = g[i2][j2] - f * g[k][j2]

        run("haar_positive", haar_positive_fails())

    report = AxiomReport(checks)
    if report.ok:
        record_verified(H)
    return report


def record_verified(H):
    """Record in H's memo that H satisfies every axiom, and link its dual.

    check_axioms, subgroup.make_subgroup and sub_hopf_algebra record a
    verified algebra here.  When the dual is already built it is recorded
    as verified too, with H as its own dual (see the module doc); a dual
    built later is linked by dual().
    """
    H._memo["verified"] = True
    D = H._memo.get("dual")
    if D is not None:
        _link_dual(H, D)


def _link_dual(H, D):
    """Record D = dual(H) of a verified H as verified, with dual(D) = H."""
    D._memo["verified"] = True
    D._memo["dual"] = H


def ensure_verified(H):
    """Run check_axioms once unless H is verified already; AxiomsFailed
    names the failed axioms."""
    failed = [] if H.verified else check_axioms(H).failures()
    if failed:
        raise AxiomsFailed("not a Hopf *-algebra: " + ", ".join(c.name for c in failed))


def _generators(A):
    """Basis indices S such that the unit and its repeated left products
    e_s1 (e_s2 (... (e_sk 1))), all s_i in S, span A; range(d) when no such
    S exists.  Memoised under "generators".

    Each index is scored by the dimension that its own products with the
    unit reach, and the indices are tried from the highest score down (ties
    by index): one is kept when the span of the products grows with it.
    The products are added to an Echelon, so S is certified exactly: it is
    returned only when the Echelon reaches full rank.
    """
    return A.memo("generators", lambda: _find_generators(A))


def _find_generators(A):
    d = A.dim
    basis = sparse_identity(A.field, d)
    one = sparse_vector(A.unit)

    def closure(gens, new, ech, words):
        """Add to ech and words the products of the words by e_new, then
        every left product of a new word by e_s, s in gens or new."""
        todo = [(w, (new,)) for w in words]
        while todo:
            w, by = todo.pop()
            for s in by:
                v = A.product(basis[s], w)
                if ech.add(v) is not None:
                    words.append(v)
                    todo.append((v, gens + (new,)))
        return len(words)

    def start():
        ech = Echelon(A.field)
        return ech, [one] if ech.add(one) is not None else []

    score = [closure((), s, *start()) for s in range(d)]
    ech, words = start()
    gens = ()
    for s in sorted(range(d), key=lambda s: -score[s]):
        if len(words) == d:
            return gens
        before = len(words)
        if closure(gens, s, ech, words) > before:
            gens += (s,)
    return gens if len(words) == d else range(d)


def _unit_failures(A):
    """(i, t) for each e_i with 1 e_i != e_i or e_i 1 != e_i, with t the
    least index of a coefficient where one of them differs from e_i."""
    one = sparse_vector(A.unit)
    for i, e in enumerate(sparse_identity(A.field, A.dim)):
        left, right = A.product(one, e), A.product(e, one)
        if left != e or right != e:
            bad = (set(left) ^ set(e)) | (set(right) ^ set(e))
            yield (i, min(t for t, _ in bad))


def _counit_mult_failures(A):
    """(i, j) for each pair with eps(e_i e_j) != eps(e_i) eps(e_j).

    On D = dual(H) this is Delta(1) = 1 (x) 1 of H: eps_D is the unit of H
    and e^i e^j is the coefficient of e_i (x) e_j in Delta, so the pair
    (i, j) names a nonzero component of Delta(1) - 1 (x) 1.
    """
    for i, row in enumerate(A.mult):
        for j, terms in enumerate(row):
            if A.counit_of(terms) != A.counit[i] * A.counit[j]:
                yield (i, j)


def _assoc_failures(A, gens):
    """(i, j, k, t) for each i in gens and each j at which some
    (e_i e_j) e_k - e_i (e_j e_k) is nonzero, with (k, t) the least k and
    coefficient index t where it is.

    Over all i this is associativity.  When A satisfies the unit law, it
    suffices that none is found for i in _generators(A): the left nucleus
    N = {x : (xy)z = x(yz) for all y, z} is a subspace, contains 1 by the
    unit law, and is closed under products, since for a, b in N
    ((ab)y)z = (a(by))z = a((by)z) = a(b(yz)) = (ab)(yz).  So N holds every
    product e_s1 (... (e_sk 1)) of the generators, which span A.
    """
    nonzero = [[(k, terms) for k, terms in enumerate(row) if terms] for row in A.mult]
    for i in gens:
        row = A.mult[i]
        for j in range(A.dim):
            acc = {}
            for m, c in row[j]:
                for k, terms in nonzero[m]:
                    for t, c2 in terms:
                        v = c * c2
                        acc[k, t] = acc[k, t] + v if (k, t) in acc else v
            for k, terms in nonzero[j]:
                for m, c in terms:
                    for t, c2 in row[m]:
                        v = c * c2
                        acc[k, t] = acc[k, t] - v if (k, t) in acc else -v
            bad = [key for key, v in acc.items() if v]
            if bad:
                yield (i, j) + min(bad)


def _star_antimult_failures(A, gens):
    """(i, j) for each i in gens and each j with (e_i e_j)* != e_j* e_i*.

    Over all i this is the star law.  When A satisfies the unit law, is
    associative and 1* = 1, it suffices that none is found for i in
    _generators(A): M = {x : (xy)* = y* x* for all y} is a subspace (* is
    antilinear on both sides), contains 1, since (1y)* = y* = y* 1*, and for
    a, b in M, (ab)* = b* a* and ((ab)y)* = (a(by))* = (by)* a* =
    y* b* a* = y* (ab)*.  So M holds the generators' products, which span A.
    """
    for i in gens:
        for j in range(A.dim):
            if A.star_vec(A.mult[i][j]) != A.product(A.star[j], A.star[i]):
                yield (i, j)


def _comult_mult_failures(A, gens):
    """(i, j, a, b) for each i in gens and each j at which
    Delta(e_i e_j) - Delta(e_i) Delta(e_j) is nonzero, with (a, b) the
    least index pair of e_a (x) e_b where it is.

    Over all i this is the bialgebra compatibility.  When A is associative,
    satisfies the unit law and Delta(1) = 1 (x) 1, it suffices that none is
    found for i in _generators(A): M = {x : Delta(xy) = Delta(x) Delta(y)
    for all y} is a subspace, contains 1, and for a, b in M
    Delta((ab)y) = Delta(a) Delta(b) Delta(y) = Delta(ab) Delta(y), so M is
    a subalgebra and holds the generators' products, which span A.

    The compatibility is self-dual: written in structure constants, the
    identity of A at (i, j), component (a, b), is the identity of dual(A)
    at (a, b), component (i, j).  So it may be checked on the dual instead,
    when A is coassociative, satisfies the counit law and
    eps(xy) = eps(x) eps(y), which is Delta(1) = 1 (x) 1 in the dual.
    """
    # Delta(e_i) = sum_a e_a (x) x_a over the (a, x_a) in legs[i], so
    # Delta(e_i) Delta(e_j) = sum_(a, p) e_a e_p (x) x_a y_p
    legs = []
    for terms in A.comult:
        by_first = {}
        for a, b, c in terms:
            by_first.setdefault(a, []).append((b, c))
        legs.append(list(by_first.items()))
    for i in gens:
        for j in range(A.dim):
            acc = {}
            for k, c in A.mult[i][j]:
                for a, b, c2 in A.comult[k]:
                    v = c * c2
                    acc[a, b] = acc[a, b] + v if (a, b) in acc else v
            for a, x in legs[i]:
                row = A.mult[a]
                for p, y in legs[j]:
                    terms = row[p]
                    if terms:
                        xy = A.product(x, y)
                        for r, m in terms:
                            for s, c in xy:
                                v = m * c
                                acc[r, s] = acc[r, s] - v if (r, s) in acc else -v
            bad = [key for key, v in acc.items() if v]
            if bad:
                yield (i, j) + min(bad)


def _dual_generators(H):
    """_generators(dual(H)) when dual(H) is unital and associative, else
    None; memoised under "dual_generators".

    The dual's unit law is the counit law of H and its associativity the
    coassociativity of H, so a verified H needs no check; otherwise both
    are checked here, the associativity on the dual's generators as in
    _assoc_failures.  So None on an unverified H whose counit law holds
    certifies that H is not coassociative.
    """

    def compute():
        D = dual(H)
        if not H.verified and next(_unit_failures(D), None) is not None:
            return None
        gens = _generators(D)
        if H.verified or next(_assoc_failures(D, gens), None) is None:
            return gens
        return None

    return H.memo("dual_generators", compute)


def dual(H):
    """The dual Hopf *-algebra on the dual basis, built once per algebra.

    Multiplication is the transpose of Delta, comultiplication the transpose
    of multiplication, S_D = S^T, and f*(x) = conj(f(S(x)*)).  The dual of
    a verified H is verified, and its own dual is H itself (see the module
    doc), so no double dual is built.
    """
    return H.memo("dual", lambda: _build_dual(H))


def _build_dual(H):
    # (e^i)* has coefficient sum_k conj(t) s on e^j over the terms (k, s)
    # of S(e_j) and (i, t) of (e_k)*
    star = {}
    for j, k, s in H.antipode_entries():
        for i, t in H.star[k]:
            star[i, j] = star.get((i, j), H.field.zero) + t.conjugate() * s
    D = HopfStarAlgebra(
        H.field,
        [(j, k, i, c) for i, j, k, c in H.comult_entries()],
        list(H.counit),
        [(k, a, b, c) for a, b, k, c in H.mult_entries()],
        list(H.unit),
        [(j, i, c) for i, j, c in H.antipode_entries()],
        [(i, j, c) for (i, j), c in star.items()],
        labels=[lbl + "^" for lbl in H.labels],
    )
    if H.verified:
        _link_dual(H, D)
    return D


def tensor_apply(f, g, terms):
    """(f (x) g) of sum c e_j (x) e_k over the (j, k, c) in terms (the form
    of H.comult[i]), for maps f and g given by sparse columns, as a dict
    {(u, v): the coefficient of e_u (x) e_v} with no zero entries; a factor
    one is not multiplied (see linalg)."""
    acc = {}
    for j, k, c in terms:
        one = c.field.one
        gk = g[k]
        for u, p in f[j]:
            cp = p if c is one else c if p is one else c * p
            for v, q in gk:
                w = q if cp is one else cp if q is one else cp * q
                acc[u, v] = acc[u, v] + w if (u, v) in acc else w
    return {key: c for key, c in acc.items() if c}


def morphism_failure(G, P, N):
    """The first structure map that the linear map G -> N fails to
    intertwine, or None; P[a] is the image of e_a as sparse (index, entry)
    pairs.

    The maps are compared in the order "unit" (P(1) = 1), "product",
    "star" (antilinear), "coproduct", "counit", "antipode".  The product is
    compared on every pair of basis elements, as one difference accumulated
    over sparse terms; each other map once per basis element of G, through
    the vector maps of N and tensor_apply.  Nothing is assumed of either
    algebra, so the answer decides a property of the map alone: a
    projection onto the structure it induces passes exactly when its kernel
    is a Hopf *-ideal, and an endomorphism exactly when it is a Hopf
    *-algebra map.
    """
    if sparse_apply(N.field, N.dim, P, G.unit) != N.unit:
        return "unit"
    d = G.dim
    for a in range(d):
        for b in range(d):
            acc = {}
            for k, c in G.mult[a][b]:
                add_terms(acc, c, P[k])
            for i, x in P[a]:
                for j, y in P[b]:
                    add_terms(acc, -(x * y), N.mult[i][j])
            if any(acc.values()):
                return "product"
    if sparse_compose(P, G.star) != [N.star_vec(col) for col in P]:
        return "star"
    if [tensor_apply(P, P, terms) for terms in G.comult] != [N.coproduct(col) for col in P]:
        return "coproduct"
    if [N.counit_of(col) for col in P] != G.counit:
        return "counit"
    if sparse_compose(P, G.antipode) != sparse_compose(N.antipode, P):
        return "antipode"
    return None


def induced_algebra(G, section, retraction, labels):
    """The structure induced on span{f_a} through a section f_a -> section[a]
    into G and a retraction e_k -> retraction[k] out of G, both given as
    sparse (index, entry) columns.

    The product is rho m (sigma (x) sigma), the unit rho(1), the coproduct
    (rho (x) rho) Delta sigma, the counit eps sigma, the antipode rho S sigma
    and the star rho * sigma.  A quotient G -> G/I takes sigma = the
    canonical representatives and rho = the projection; a subalgebra takes
    sigma = its echelon basis and rho = reading at the pivots.  Nothing is
    checked here: morphism_failure on rho or sigma decides whether the
    result is a quotient or a subalgebra.
    """

    def rho(vecs):
        return sparse_compose(retraction, vecs)

    def entries(cols):
        return [(a, j, c) for a, col in enumerate(cols) for j, c in col]

    mult = [
        (a, b, k, c)
        for a, sa in enumerate(section)
        for b, col in enumerate(rho([G.product(sa, sb) for sb in section]))
        for k, c in col
    ]
    comult = [
        (a, u, v, c)
        for a, col in enumerate(section)
        for (u, v), c in tensor_apply(
            retraction, retraction, [(j, k, c) for (j, k), c in G.coproduct(col).items()]
        ).items()
    ]
    return HopfStarAlgebra(
        G.field, mult, sparse_apply(G.field, len(section), retraction, G.unit), comult,
        [G.counit_of(col) for col in section],
        entries(rho([G.antipode_vec(col) for col in section])),
        entries(rho([G.star_vec(col) for col in section])),
        labels=labels,
    )


def certified_subalgebra(H, B):
    """(algebra, inclusion, failed): the structure of H read on a subspace B
    (see sub_hopf_algebra), the sparse columns of its inclusion, and the
    first closure condition that B fails, as named by morphism_failure, or
    None."""
    if B.ambient != H.dim:
        raise SchemaError("subspace ambient %d != algebra dim %d" % (B.ambient, H.dim))
    inclusion = list(B.rows)
    sub = induced_algebra(H, inclusion, B.pivot_retraction(), ["b%d" % a for a in range(B.dim)])
    return sub, inclusion, morphism_failure(sub, inclusion, H)


def sub_hopf_algebra(H, B):
    """Restrict the structure of H to a Hopf *-subalgebra given as a Subspace.

    Returns (algebra, inclusion) where inclusion, the sparse columns of the
    echelon basis of B, maps sub-coordinates into ambient coordinates.  The
    echelon basis b_a of B has a 1 at its own pivot and 0 at the other
    pivots, so a vector of B is sum v[p_a] b_a: induced_algebra reads every
    structure constant of the subalgebra at the pivots (the coproduct at
    pivot pairs).  Read that way, the inclusion intertwines a structure map
    exactly when B is closed under it, and maps the unit to the unit
    exactly when B contains it, which morphism_failure decides.  Raises
    SchemaError when B is not closed under the operations or does not
    contain the unit.

    A subalgebra of a verified H is recorded as verified: the inclusion is
    an injective Hopf *-morphism, so every axiom, the Kac conditions and
    the Haar properties restrict to the subalgebra.
    """
    sub, inclusion, failed = certified_subalgebra(H, B)
    if failed == "unit":
        raise SchemaError("subalgebra does not contain the unit")
    if failed == "coproduct":
        raise SchemaError("comultiplication does not stay inside B (x) B")
    if failed:
        raise SchemaError("subspace is not closed under the Hopf *-operations")
    if H.verified:
        record_verified(sub)
    return sub, inclusion


def comult_legs(H):
    """(first, second): the coproduct terms grouped by leg, kept in H's memo
    under "comult_legs" and built on first use.  first[j] lists the
    (i, k, c) and second[k] the (i, j, c) of the terms c e_j (x) e_k of
    each Delta(e_i), in the order of i and then of the other leg."""

    def compute():
        first = [[] for _ in range(H.dim)]
        second = [[] for _ in range(H.dim)]
        for i, terms in enumerate(H.comult):
            for j, k, c in terms:
                first[j].append((i, k, c))
                second[k].append((i, j, c))
        return tuple(map(tuple, first)), tuple(map(tuple, second))

    return H.memo("comult_legs", compute)


def coproduct_slice(H, f, side):
    """The sparse columns of a -> (id (x) f) Delta(a) (side "right") or
    (f (x) id) Delta(a) (side "left") for a functional f given as the sparse
    vector of its values on the basis.  Only the coproduct terms whose
    sliced leg (e_k on the right, e_j on the left) lies in the support of f
    are walked, read off comult_legs: on F(G)-type parents, where f = h_N pi
    lives on |K| legs, that is |K| d terms of the d^2.  Any other side
    raises SchemaError."""
    if side not in ("left", "right"):
        raise SchemaError("side is 'left' or 'right', not %r" % (side,))
    first, second = comult_legs(H)
    legs = second if side == "right" else first
    one = H.field.one
    accs = [{} for _ in range(H.dim)]
    for s, w in f:
        for i, kept, c in legs[s]:
            v = w if c is one else c if w is one else c * w
            acc = accs[i]
            acc[kept] = acc[kept] + v if kept in acc else v
    return [sparse_column(acc) for acc in accs]


def linear_quotient(B):
    """Linear projection along a subspace onto its canonical complement.

    Returns (proj, reps): reps[t] is the ambient index represented by output
    coordinate t, and proj the sparse columns of the quotient map in those
    coordinates, read off the echelon rows.  A non-pivot j is reps[t] and
    maps to f_t; pivot p_a maps to -sum_t row_a[reps[t]] f_t, since e_(p_a)
    - row_a lies in the complement.  Past its pivot, row_a has entries only
    at non-pivots.
    """
    reps = B.complement_indices()
    t_of = {r: t for t, r in enumerate(reps)}
    proj = [((t, B.field.one),) for t in range(len(reps))]
    for row, p in zip(B.rows, B.pivots):
        proj.insert(p, tuple((t_of[j], -c) for j, c in row[1:]))
    return proj, reps
