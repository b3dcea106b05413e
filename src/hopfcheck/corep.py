"""Irreducible corepresentations, characters, fusion rules and conjugates.

A corepresentation here is a square matrix u with entries in the algebra
satisfying Delta(u_ij) = sum_k u_ik (x) u_kj and eps(u_ij) = delta_ij, with
S(u_ij) giving a two-sided matrix inverse (implied on a verified algebra;
see Corepresentation.verify).  The complete list of irreducible ones is
recovered from the block decomposition of the dual algebra; every identity
is verified or proved before anything is returned, so a wrong candidate
inside the splitting step can never leak into an answer.
peter_weyl is the one source of that list, however the algebra was built:
it splits the dual once and keeps the result in the algebra's memo.

The comultiplication law is checked in the dual: it says that
f -> (f(u_ij)) is multiplicative on dual(H), which is checked for f in the
dual's certified generators (hopf._dual_generators, kept in the algebra's
memo under "dual_generators" and certified even for an algebra that has
not been verified), against the basis functionals where either side can
be nonzero; see Corepresentation.verify.  The splitting reads the same
generators for the centre of the dual (splitting.center_of_dual).

Every entry u_ij, character and idempotent is a sparse vector (see linalg).
The block of each corepresentation (the span of its entries) is spanned
once, from the entries, and kept in the PeterWeylData next to it.  Each
block has one size source, the trace of left multiplication by its central
idempotent (splitting.left_trace), and is checked to hold n^2 independent
entries.  That the blocks are the images of the maps (id (x) p_l) Delta
and sum to the whole algebra, and that each corepresentation is
irreducible, is proved rather than spanned again, with no semisimplicity
assumed (see peter_weyl).  The dual of a verified algebra is verified and
has that algebra as its own dual (see hopf), so peter_weyl(dual(H)) checks
none of the laws that check_axioms(H) has passed.
"""

from __future__ import annotations

from math import isqrt

from .errors import AxiomsFailed, SchemaError, SplittingFailed, TheoremViolation
from .hopf import HopfStarAlgebra, _dual_generators, _pair, _unit_failures, coproduct_slice, dual
from .linalg import (
    Subspace,
    add_terms,
    sparse_column,
    sparse_image,
    sparse_transpose,
    sparse_vector,
)
from .splitting import find_primitive_idempotent, left_trace, split_center


class Corepresentation:
    """A matrix corepresentation with exactly verified structure; entries[i][j]
    is the sparse vector of u_ij."""

    __slots__ = ("algebra", "entries", "dim")

    def __init__(self, algebra: HopfStarAlgebra, entries):
        if not entries or any(len(row) != len(entries) for row in entries):
            raise SchemaError("corepresentation entries must form a nonempty square matrix")
        self.algebra = algebra
        self.entries = [[tuple(v) for v in row] for row in entries]
        self.dim = len(entries)

    def character(self):
        chi = {}
        for i in range(self.dim):
            add_terms(chi, self.algebra.field.one, self.entries[i][i])
        return sparse_column(chi)

    def block(self) -> Subspace:
        H = self.algebra
        return sparse_image(H.field, H.dim, [v for row in self.entries for v in row])

    def verify(self):
        """Exact check of the comultiplication, counit and antipode laws.

        Write rho(f) = (f(u_ij)), a matrix for each functional f in the
        dual D.  The comultiplication law Delta(u_ij) = sum_k u_ik (x) u_kj
        holds exactly when rho(e^s e^t) = rho(e^s) rho(e^t) for all s, t:
        the two sides of that equation at entry (i, j) are the coefficients
        of e_s (x) e_t in the two sides of the law at (i, j).  For t outside
        the supports of the u_ij with e^s e^t = 0, both sides are 0.  When
        D is unital and associative and the counit law rho(eps) = I holds,
        s may range over the generators of D alone (hopf._dual_generators):
        M = {f : rho(f g) = rho(f) rho(g) for all g} contains eps, and for
        a, b in M, rho((ab)g) = rho(a) rho(b) rho(g) = rho(ab) rho(g), so M
        is a subalgebra holding the generators' products, which span D.
        Otherwise s ranges over every index.

        The first failure of the comultiplication law is reported, at the
        least entry (i, j) of the first (s, t) that shows it; then the
        counit law eps(u_ij) = delta_ij at the first entry in row order;
        then, only when H is not verified, S(u) as a two-sided inverse of
        u.  On a verified H the first two laws and the antipode axiom
        m(S (x) id) Delta = eps 1 give sum_k S(u_ik) u_kj = eps(u_ij) 1 =
        delta_ij 1, and the mirror axiom gives sum_k u_ik S(u_kj) = delta_ij 1.
        Returns the failure as a message, or None when every law holds.
        """
        H = self.algebra
        d = self.dim
        u = self.entries
        field = H.field
        counit_bad = next(
            ((i, j) for i in range(d) for j in range(d)
             if H.counit_of(u[i][j]) != (field.one if i == j else field.zero)),
            None,
        )
        # rho[k] = {(i, j): coefficient of e_k in u_ij}, by_row[k][i] its row i
        rho = {}
        for i in range(d):
            for j in range(d):
                for k, c in u[i][j]:
                    rho.setdefault(k, {})[i, j] = c
        by_row = {}
        for k, entries in rho.items():
            rows = by_row[k] = {}
            for (i, j), c in entries.items():
                rows.setdefault(i, []).append((j, c))
        D = dual(H)
        gens = _dual_generators(H) if counit_bad is None else None
        for s in range(H.dim) if gens is None else gens:
            row = D.mult[s]
            left = rho.get(s, {})
            for t in sorted(rho.keys() | {t for t, terms in enumerate(row) if terms}):
                acc = {}
                for k, c in row[t]:
                    for key, x in rho.get(k, {}).items():
                        v = c * x
                        acc[key] = acc[key] + v if key in acc else v
                right = by_row.get(t, {})
                for (i, k), x in left.items():
                    for j, y in right.get(k, ()):
                        v = x * y
                        acc[i, j] = acc[i, j] - v if (i, j) in acc else -v
                bad = [key for key, v in acc.items() if v]
                if bad:
                    return "comultiplication law fails at entry (%d, %d)" % min(bad)
        if counit_bad is not None:
            return "counit law fails at entry (%d, %d)" % counit_bad
        if H.verified:
            return None
        anti = [[H.antipode_vec(v) for v in row] for row in u]
        one = sparse_vector(H.unit)
        for i in range(d):
            for j in range(d):
                acc = {}
                acc2 = {}
                for k in range(d):
                    add_terms(acc, H.field.one, H.product(anti[i][k], u[k][j]))
                    add_terms(acc2, H.field.one, H.product(u[i][k], anti[k][j]))
                want = one if i == j else ()
                if sparse_column(acc) != want or sparse_column(acc2) != want:
                    return "antipode is not a matrix inverse at entry (%d, %d)" % (i, j)
        return None


class PeterWeylData:
    """The full list of irreducible corepresentations of one algebra, with
    the coefficient block (the span of the entries) of each."""

    __slots__ = ("algebra", "coreps", "triv_index", "_blocks")

    def __init__(self, algebra, coreps, blocks, triv_index):
        self.algebra = algebra
        self.coreps = list(coreps)
        self.triv_index = triv_index
        self._blocks = list(blocks)

    def blocks(self):
        return self._blocks

    @property
    def dims(self):
        return [c.dim for c in self.coreps]

    def __len__(self):
        return len(self.coreps)


def _trivial_index(H, coreps):
    one = sparse_vector(H.unit)
    for idx, c in enumerate(coreps):
        if c.dim == 1 and c.entries[0][0] == one:
            return idx
    raise TheoremViolation("no trivial corepresentation found")


def _verified(corep):
    """corep itself once verify() passes; a failure is a TheoremViolation."""
    err = corep.verify()
    if err is not None:
        raise TheoremViolation("corepresentation verification failed: " + err)
    return corep


def _extract_block(H, p, gauge):
    """One verified irreducible corepresentation from a minimal central
    idempotent p (a sparse vector of the dual), with its block, the span of
    its entries.

    The block p D of D = dual(H) is M_n(K), and its size is read off a
    trace: left multiplication L_p by the idempotent p is an idempotent map
    of D onto p D, so dim p D = rank L_p = tr(L_p) = n^2 (left_trace).
    The trace only decides which work is done.  Write E_f = (id (x) f) Delta
    for f in D.  For n = 1 the entry is the first nonzero column of E_p,
    divided by its counit.  For n > 1 a primitive idempotent q of p D gives
    V = im E_q, checked to have dimension n, and the entries
    (id (x) e^(p_l)) Delta(r) of V's echelon rows r.  V is also the image
    under E_q of im E_p, the space that the proof in peter_weyl speaks of,
    since q = q p and coassociativity give E_q = E_q E_p; so im E_p itself
    is never spanned, and p D only for n > 1, where the corner search needs
    its rows.  What is returned rests on exact checks: the corepresentation
    verifies, and its block, corep.block(), has dimension n^2.
    """
    field = H.field
    d = H.dim
    size = left_trace(H, p)
    n = isqrt(max(int(size.coeffs[0]), 0))
    if n < 1 or size != n * n:
        raise SplittingFailed(field.n, "a dual block is not of square dimension")

    if n == 1:
        v = next(filter(None, coproduct_slice(H, p, "right")), None)
        if v is None:
            raise TheoremViolation("coefficient space does not match the dual block")
        eps = H.counit_of(v)
        if not eps:
            raise TheoremViolation("a one-dimensional block with vanishing counit")
        inv = eps.inverse()
        corep = _verified(Corepresentation(H, [[tuple((j, inv * c) for j, c in v)]]))
        return corep, corep.block()

    # p D, spanned by the p e_t: row t of the matrix of (p (x) id) Delta
    block_D = sparse_image(field, d, sparse_transpose(d, coproduct_slice(H, p, "left")))
    q = find_primitive_idempotent(H, block_D.rows, p, gauge)
    V = sparse_image(field, d, coproduct_slice(H, q, "right"))
    if V.dim != n:
        raise SplittingFailed(field.n, "primitive idempotent produced a wrong column dimension")

    # the dual functionals of V's echelon rows r_l read the pivots p_l, so
    # entry (i, l) = (id (x) e^(p_l)) Delta(r_i) is the slice of Delta(r_i)
    # at second leg p_l
    entries = []
    for r in V.rows:
        slices = {}
        for (a, b), w in H.coproduct(r).items():
            slices.setdefault(b, {})[a] = w
        entries.append([sparse_column(slices.get(pl, {})) for pl in V.pivots])
    corep = Corepresentation(H, entries)
    err = corep.verify()
    if err is not None:
        raise SplittingFailed(field.n, "extracted matrix fails verification: " + err)
    block = corep.block()
    if block.dim != n * n:
        raise SplittingFailed(field.n, "matrix entries do not span their block")
    return corep, block


def peter_weyl(H: HopfStarAlgebra, gauge: int = 0) -> PeterWeylData:
    """Complete the algebra's irreducible corepresentation list, exactly.

    The central idempotents of the dual are split into verified blocks and
    the result is kept in the algebra's memo.  A nonzero gauge reruns the
    splitting with other heuristic choices and leaves the memo as it is.

    Completeness and irreducibility are proved from the checks; no
    semisimplicity is assumed.  Write E_f = (id (x) f) Delta for f in
    D = dual(H); coassociativity gives E_f E_g = E_(fg) and the counit law
    E_eps = id.  split_center certifies that the minimal central
    idempotents p_l are orthogonal idempotents summing to eps, so the E_l =
    E_(p_l) are orthogonal idempotents summing to id, and H is the direct
    sum of the im E_l.  The entries u_ij of the corepresentation u_l lie in
    im E_l because p_l is central: u_ij = E_(e^j)(r_i) for some r_i in
    im E_l (a column of E_(p_l) when n = 1), and
    E_(p_l)(u_ij) = E_(p_l e^j)(r_i) = E_(e^j p_l)(r_i) = E_(e^j)(r_i).
    _extract_block checks n_l^2 independent entries in each block and this
    function checks sum_l n_l^2 = dim H, so each block is all of im E_l
    and H is the direct sum of the blocks.  n^2 independent matrix
    coefficients make u_l irreducible: a nonzero proper subcorepresentation
    would put u_l in block-triangular form in some basis, whose entries
    span at most n^2 - k (n - k) dimensions.  The counit law and
    coassociativity hold on a verified algebra, the dual of a verified
    algebra included (see hopf); on any other they are certified here,
    before any splitting, and a failure raises AxiomsFailed naming the law.
    Coassociativity is the associativity of the dual on its generators that
    hopf._dual_generators certifies and keeps, so Corepresentation.verify
    and splitting.center_of_dual read the same pass.
    """
    if gauge:
        return _split(H, gauge)
    return H.memo("peter_weyl", lambda: _split(H, 0))


def _split(H, gauge):
    """PeterWeylData from the blocks of the dual's central idempotents, in
    the canonical order: by dimension, then by the echelon key of the block."""
    if not H.verified and next(_unit_failures(dual(H)), None) is not None:
        raise AxiomsFailed("not a Hopf *-algebra: counit")
    if not H.verified and _dual_generators(H) is None:
        raise AxiomsFailed("not a Hopf *-algebra: coassociativity")
    pairs = sorted(
        (_extract_block(H, p, gauge) for p in split_center(H)),
        key=lambda cb: (cb[0].dim, cb[1].sort_key()),
    )
    coreps = [c for c, _ in pairs]
    total = sum(c.dim * c.dim for c in coreps)
    if total != H.dim:
        raise TheoremViolation(
            "matrix entries count %d does not match the dimension %d" % (total, H.dim)
        )
    return PeterWeylData(H, coreps, [b for _, b in pairs], _trivial_index(H, coreps))


def fusion(P: PeterWeylData):
    """Fusion multiplicities N[l][m][n] = h(chi_l chi_m chi_n^*).

    The map x -> h(x chi_n^*) is linear, so it is computed once per n as the
    covector w_n[a] = h(e_a chi_n^*), and each multiplicity is the sparse dot
    product of chi_l chi_m with w_n.  Equal products share one row of dot
    products.
    """
    H = P.algebra
    field = H.field
    chars = [c.character() for c in P.coreps]
    r = len(P.coreps)
    covectors = []
    for chi in chars:
        star_chi = H.star_vec(chi)
        covectors.append([H.haar_of(H.product(((a, field.one),), star_chi)) for a in range(H.dim)])
    rows = {}
    N = [[None] * r for _ in range(r)]
    for l in range(r):
        for m in range(r):
            prod = H.product(chars[l], chars[m])
            if prod not in rows:
                rows[prod] = [_multiplicity(field, prod, w) for w in covectors]
            N[l][m] = list(rows[prod])
            counted = sum(N[l][m][n] * P.coreps[n].dim for n in range(r))
            if counted != P.coreps[l].dim * P.coreps[m].dim:
                raise TheoremViolation("fusion multiplicities do not count dimensions")
    return N


def _multiplicity(field, nz, w):
    """The dot product of a sparse vector with a covector, checked to be a
    nonnegative integer."""
    val = _pair(nz, w, field.zero)
    if not val.is_rational():
        raise TheoremViolation("fusion multiplicity is not rational")
    q = val.as_fraction()
    if q.denominator != 1 or q < 0:
        raise TheoremViolation("fusion multiplicity %s is not a nonnegative integer" % q)
    return int(q)


def conjugate(P: PeterWeylData, index: int, N=None) -> int:
    """Index of the conjugate corepresentation, cross-checked two ways.

    The fusion rules name the conj with N[index][conj][trivial] = 1; the
    star image of the block of u = P.coreps[index] must be the block of
    conj, which one containment decides: u_00* lies in P.blocks()[conj].
    Proof that it suffices.  Delta(x*) = (* (x) *) Delta(x) makes (u_ij*)
    a corepresentation, so * maps the block of u, a simple subcoalgebra,
    onto a subcoalgebra, simple because * is an antilinear bijection that
    maps subcoalgebras to subcoalgebras both ways: onto another block.
    The blocks form a direct sum, so two blocks that share a nonzero
    vector are equal, and u_00* != 0 since eps(u_00) = 1.
    """
    if N is None:
        N = fusion(P)
    r = len(P.coreps)
    t = P.triv_index
    hits = [n for n in range(r) if N[index][n][t] == 1]
    if len(hits) != 1:
        raise TheoremViolation("conjugate of %d is not unique among %r" % (index, hits))
    conj = hits[0]
    if P.coreps[conj].dim != P.coreps[index].dim:
        raise TheoremViolation("conjugate corepresentation has a different dimension")
    u_00 = P.coreps[index].entries[0][0]
    if not P.blocks()[conj].echelon().contains(P.algebra.star_vec(u_00)):
        raise TheoremViolation("conjugate block does not match the star image")
    return conj
