"""Irreducible corepresentations, characters, fusion rules and conjugates.

A corepresentation here is a square matrix u with entries in the algebra
satisfying Delta(u_ij) = sum_k u_ik (x) u_kj and eps(u_ij) = delta_ij, with
S(u_ij) giving a two-sided matrix inverse.  The complete list of irreducible
ones is recovered from the block decomposition of the dual algebra; every
identity is verified exactly before anything is returned, so the numeric
heuristics inside the splitting step can never leak a wrong answer.
"""

from __future__ import annotations

from math import isqrt

from .errors import SchemaError, SplittingFailed, TheoremViolation
from .hopf import HopfStarAlgebra, coproduct_slice
from .linalg import (
    Matrix,
    Subspace,
    basis_vec,
    solve_linear,
    sparse_image,
    sparse_transpose,
    sparse_vector,
    zero_vec,
)
from .splitting import find_primitive_idempotent, split_center


class Corepresentation:
    """A matrix corepresentation with exactly verified structure."""

    __slots__ = ("algebra", "entries", "dim")

    def __init__(self, algebra: HopfStarAlgebra, entries):
        if not entries or any(len(row) != len(entries) for row in entries):
            raise SchemaError("corepresentation entries must form a nonempty square matrix")
        self.algebra = algebra
        self.entries = [[list(v) for v in row] for row in entries]
        self.dim = len(entries)

    def character(self):
        chi = zero_vec(self.algebra.field, self.algebra.dim)
        for i in range(self.dim):
            for j, c in enumerate(self.entries[i][i]):
                chi[j] = chi[j] + c
        return chi

    def block(self) -> Subspace:
        vecs = [v for row in self.entries for v in row]
        return Subspace.from_vectors(self.algebra.field, self.algebra.dim, vecs)

    def star_block(self) -> Subspace:
        vecs = [self.algebra.star_vec(v) for row in self.entries for v in row]
        return Subspace.from_vectors(self.algebra.field, self.algebra.dim, vecs)

    def verify(self):
        """Exact check of the comultiplication, counit and antipode laws.

        For each entry u_ij in row order, Delta(u_ij) - sum_k u_ik (x) u_kj is
        formed as one sparse difference over the coproduct terms of u_ij and
        the supports of the u_ik and u_kj, then eps(u_ij) is compared with
        delta_ij; after that S(u) is checked as a two-sided inverse of u.
        Returns the first failure as a message, or None when every law holds.
        """
        H = self.algebra
        d = self.dim
        supports = [[sparse_vector(v) for v in row] for row in self.entries]
        for i in range(d):
            for j in range(d):
                diff = _coproduct(H, supports[i][j])
                for k in range(d):
                    right = supports[k][j]
                    for a, x in supports[i][k]:
                        for b, y in right:
                            v = x * y
                            diff[a, b] = diff[a, b] - v if (a, b) in diff else -v
                if any(diff.values()):
                    return "comultiplication law fails at entry (%d, %d)" % (i, j)
                eps = H.counit_of(self.entries[i][j])
                want = H.field.one if i == j else H.field.zero
                if eps != want:
                    return "counit law fails at entry (%d, %d)" % (i, j)
        anti = [[H.antipode_vec(v) for v in row] for row in self.entries]
        for i in range(d):
            for j in range(d):
                acc = zero_vec(H.field, H.dim)
                acc2 = zero_vec(H.field, H.dim)
                for k in range(d):
                    p = H.product(anti[i][k], self.entries[k][j])
                    p2 = H.product(self.entries[i][k], anti[k][j])
                    acc = [a + b for a, b in zip(acc, p)]
                    acc2 = [a + b for a, b in zip(acc2, p2)]
                want = H.unit_vec() if i == j else zero_vec(H.field, H.dim)
                if acc != want or acc2 != want:
                    return "antipode is not a matrix inverse at entry (%d, %d)" % (i, j)
        return None


def _coproduct(H, support):
    """Delta of the vector with this support, as a dict (a, b) -> the
    coefficient of e_a (x) e_b; terms that cancel stay as zeros."""
    out = {}
    for x, vx in support:
        for a, b, c in H.comult[x]:
            v = vx * c
            out[a, b] = out[a, b] + v if (a, b) in out else v
    return out


class PeterWeylData:
    """The full list of irreducible corepresentations of one algebra."""

    __slots__ = ("algebra", "coreps", "triv_index", "_blocks")

    def __init__(self, algebra, coreps, triv_index):
        self.algebra = algebra
        self.coreps = list(coreps)
        self.triv_index = triv_index
        self._blocks = None

    def blocks(self):
        if self._blocks is None:
            self._blocks = [c.block() for c in self.coreps]
        return self._blocks

    @property
    def dims(self):
        return [c.dim for c in self.coreps]

    def __len__(self):
        return len(self.coreps)

    def summary(self):
        return {"dims": self.dims, "trivial": self.triv_index}


def _canonical_order(coreps):
    keyed = sorted(coreps, key=lambda c: (c.dim, c.block().sort_key()))
    return keyed


def _trivial_index(H, coreps):
    one = H.unit_vec()
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


def _verify_complete(H, coreps):
    """The count and span checks; each corepresentation is verified already."""
    total = 0
    ech_vecs = []
    for c in coreps:
        total += c.dim * c.dim
        ech_vecs.extend(v for row in c.entries for v in row)
    if total != H.dim:
        raise TheoremViolation(
            "matrix entries count %d does not match the dimension %d" % (total, H.dim)
        )
    span = Subspace.from_vectors(H.field, H.dim, ech_vecs)
    if span.dim != H.dim:
        raise TheoremViolation("matrix entries do not span the whole algebra")


def _extract_block(H, p, gauge):
    """One verified irreducible corepresentation from a minimal central idempotent."""
    field = H.field
    d = H.dim

    # the matrix block p * dual, as a subspace of the dual, spanned by the
    # p * e_t: row t of the matrix of (p (x) id) Delta
    block_D = sparse_image(field, d, sparse_transpose(d, coproduct_slice(H, p, "left")))
    dlam = isqrt(block_D.dim)
    if dlam * dlam != block_D.dim:
        raise SplittingFailed(field.n, "a dual block is not of square dimension")

    # the coefficient space inside the algebra: image of (id (x) p) Delta
    C_block = sparse_image(field, d, coproduct_slice(H, p, "right"))
    if C_block.dim != block_D.dim:
        raise TheoremViolation("coefficient space does not match the dual block")

    if dlam == 1:
        v = C_block.basis()[0]
        eps = H.counit_of(v)
        if not eps:
            raise TheoremViolation("a one-dimensional block with vanishing counit")
        inv = eps.inverse()
        g = [inv * c for c in v]
        return _verified(Corepresentation(H, [[g]]))

    q = find_primitive_idempotent(H, block_D.basis(), p, gauge)
    V = C_block.map_by(coproduct_slice(H, q, "right"), d)
    if V.dim != dlam:
        raise SplittingFailed(field.n, "primitive idempotent produced a wrong column dimension")

    R = Matrix.from_rows(field, V.basis(), ncols=d)
    Cmat = solve_linear(R, Matrix.identity(field, dlam))
    if Cmat is None:
        raise TheoremViolation("dual functionals for the column space do not exist")

    # entry (i, l) is (id (x) C_l) Delta(r_i), with C_l the l-th column of Cmat
    cmat_rows = [sparse_vector(row) for row in Cmat.rows]
    entries = []
    for r in V.rows:
        row = [zero_vec(field, d) for _ in range(dlam)]
        for (a, b), w in _coproduct(H, r).items():
            if w:
                for l, cb in cmat_rows[b]:
                    row[l][a] = row[l][a] + w * cb
        entries.append(row)
    corep = Corepresentation(H, entries)
    err = corep.verify()
    if err is not None:
        raise SplittingFailed(field.n, "extracted matrix fails verification: " + err)
    if corep.block() != C_block:
        raise SplittingFailed(field.n, "matrix entries do not span their block")
    return corep


def peter_weyl(H: HopfStarAlgebra, force_recompute: bool = False, gauge: int = 0) -> PeterWeylData:
    """Complete the algebra's irreducible corepresentation list, exactly.

    The result is kept in the algebra's memo.  Attached data coming from a
    constructor is verified rather than recomputed.  force_recompute=True
    or a nonzero gauge runs the splitting anyway and leaves the memo as it is.
    """
    if force_recompute or gauge:
        return _split(H, gauge)
    if H.attached_pw is None:
        return H.memo("peter_weyl", lambda: _split(H, 0))
    return H.memo("peter_weyl", lambda: _from_attached(H))


def _split(H, gauge):
    return _complete(H, [_extract_block(H, p, gauge) for p in split_center(H)])


def _from_attached(H):
    return _complete(H, [_verified(Corepresentation(H, c.entries)) for c in H.attached_pw])


def _complete(H, coreps):
    coreps = _canonical_order(coreps)
    _verify_complete(H, coreps)
    return PeterWeylData(H, coreps, _trivial_index(H, coreps))


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
        covectors.append(
            [H.haar_of(H.product(basis_vec(field, H.dim, a), star_chi)) for a in range(H.dim)]
        )
    rows = {}
    N = [[None] * r for _ in range(r)]
    for l in range(r):
        for m in range(r):
            prod = tuple(H.product(chars[l], chars[m]))
            if prod not in rows:
                rows[prod] = [_multiplicity(field, sparse_vector(prod), w) for w in covectors]
            N[l][m] = list(rows[prod])
            counted = sum(N[l][m][n] * P.coreps[n].dim for n in range(r))
            if counted != P.coreps[l].dim * P.coreps[m].dim:
                raise TheoremViolation("fusion multiplicities do not count dimensions")
    return N


def _multiplicity(field, nz, w):
    """The dot product of a sparse vector with a covector, checked to be a
    nonnegative integer."""
    val = field.zero
    for a, x in nz:
        if w[a]:
            val = val + x * w[a]
    if not val.is_rational():
        raise TheoremViolation("fusion multiplicity is not rational")
    q = val.as_fraction()
    if q.denominator != 1 or q < 0:
        raise TheoremViolation("fusion multiplicity %s is not a nonnegative integer" % q)
    return int(q)


def conjugate(P: PeterWeylData, index: int, N=None) -> int:
    """Index of the conjugate corepresentation, cross-checked two ways."""
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
    star_block = P.coreps[index].star_block()
    if star_block != P.blocks()[conj]:
        raise TheoremViolation("conjugate block does not match the star image")
    return conj
