"""Dense references for the vectors and maps that hopfcheck keeps sparse.

hopfcheck stores every vector as a sorted sparse (index, scalar) tuple and
every linear map between algebras as sparse columns (see
`hopfcheck.linalg`).  The helpers here compute the same things the dense
way, so the tests can compare the two: the product, coproduct, star,
antipode and functionals of an algebra on dense vectors, the product of the
dual algebra and the minimal polynomial of a corner element solved from
stacked powers, maps as a Matrix whose column i is the image of e_i, dense
products and application, the projection onto the canonical complement
obtained by reducing each e_j, the convolution of two matrices summed
over dense columns, the coproduct slice walked over every entry of the
dense Delta(e_i) and the span of its columns (a Peter-Weyl block, when the
functional is a central idempotent of the dual), and the adjoint coaction
through the dense Delta(a).  DenseEchelon is the row echelon form kept as
dense rows, the reference for the sparse `hopfcheck.linalg.Echelon`.

The reference_* scans at the end check associativity, coassociativity,
Delta(xy) = Delta(x) Delta(y), (xy)* = y* x* and the laws of a
corepresentation on every basis element, pair or triple, where hopfcheck
checks the identities that are multiplicative in one argument on a
certified generating set only.  They also check the counit law,
Delta(1) = 1 (x) 1, eps(xy) = eps(x) eps(y), the antipode laws, the two
involutions, (* S)^2 = id, Delta(x*) = (* (x) *) Delta(x) and
eps(x*) = conj eps(x) on dense vectors, each straight from its definition
in H, where hopfcheck runs the first three on the dual and the rest through
its sparse maps.
"""

from bisect import bisect_left

from hopfcheck.hopf import HopfStarAlgebra
from hopfcheck.linalg import Matrix, basis_vec, solve_linear, sparse_apply, zero_vec


def dense_of(H, vec):
    """The dense vector of a sparse vector of H."""
    out = zero_vec(H.field, H.dim)
    for j, c in vec:
        out[j] = c
    return out


def dense_product(H, x, y):
    """The product of two dense vectors of H."""
    out = zero_vec(H.field, H.dim)
    y_nz = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in y_nz:
            for k, m in H.mult[i][j]:
                out[k] = out[k] + xi * yj * m
    return out


def dense_comult(H, x):
    """Delta(x) of a dense vector, flattened with index (j, k) -> j * d + k."""
    d = H.dim
    out = zero_vec(H.field, d * d)
    for i, xi in enumerate(x):
        if xi:
            for j, k, c in H.comult[i]:
                out[j * d + k] = out[j * d + k] + xi * c
    return out


def dense_antipode(H, x):
    return sparse_apply(H.field, H.dim, H.antipode, x)


def dense_star(H, x):
    return sparse_apply(H.field, H.dim, H.star, [c.conjugate() for c in x])


def dense_value(field, covector, x):
    """The value of a covector (H.counit, H.haar) on a dense vector."""
    acc = field.zero
    for c, f in zip(x, covector):
        acc = acc + c * f
    return acc


def reference_coproduct_slice(H, f, side):
    """The d x d Matrix of a -> (id (x) f) Delta(a) (side "right") or
    (f (x) id) Delta(a) (side "left") for a dense functional f: column i
    walks all d^2 entries of the dense Delta(e_i)."""
    field, d = H.field, H.dim
    M = Matrix.zeros(field, d, d)
    for i in range(d):
        for jk, c in enumerate(dense_comult(H, basis_vec(field, d, i))):
            if c:
                j, k = divmod(jk, d)
                kept, sliced = (j, k) if side == "right" else (k, j)
                M.rows[kept][i] = M.rows[kept][i] + c * f[sliced]
    return M


def reference_block(H, p):
    """The DenseEchelon of the image of a -> (id (x) p) Delta(a) for a dense
    functional p: the span of the columns of reference_coproduct_slice."""
    M = reference_coproduct_slice(H, p, "right")
    return dense_echelon(H.field, H.dim, M.transpose().rows)


def dense_adjoint(G, a, side, products=None):
    """ad(a) through the dense Delta(a), the coproduct entries and dense
    products with S; products caches them per pair (x, z)."""
    field, d = G.field, G.dim
    if products is None:
        products = {}
    out = zero_vec(field, d * d)
    da = dense_comult(G, a)
    for idx, c in enumerate(da):
        if not c:
            continue
        x, rest = divmod(idx, d)
        for y, z, c2 in G.comult[rest]:
            if (x, z) not in products:
                if side == "left":
                    products[x, z] = dense_product(G, basis_vec(field, d, x), dense_antipode(G, basis_vec(field, d, z)))
                else:
                    products[x, z] = dense_product(G, dense_antipode(G, basis_vec(field, d, x)), basis_vec(field, d, z))
            for t, p in enumerate(products[x, z]):
                out[y * d + t] = out[y * d + t] + c * c2 * p
    return out


def dual_product(H, f, g):
    """Product in the dual algebra of dense functionals:
    (f g)(e_i) = (f (x) g)(Delta e_i)."""
    out = zero_vec(H.field, H.dim)
    for i in range(H.dim):
        acc = H.field.zero
        for j, k, c in H.comult[i]:
            acc = acc + f[j] * g[k] * c
        out[i] = acc
    return out


def reference_min_poly(H, unit, x):
    """Monic minimal polynomial, lowest degree first, of a dense element x
    of the corner of the dual with unit `unit`: each new power is solved
    against the stacked powers before it."""
    powers = [list(unit)]
    cur = list(x)
    while True:
        stacked = Matrix.from_rows(H.field, powers, ncols=H.dim)
        sol = solve_linear(stacked.transpose(), cur)
        if sol is not None:
            return [-c for c in sol] + [H.field.one]
        powers.append(cur)
        cur = dual_product(H, cur, x)


class DenseEchelon:
    """Incrementally maintained reduced row echelon basis of dense rows."""

    __slots__ = ("field", "width", "rows", "pivots")

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for j, s in enumerate(row[p:], p):  # zero before the pivot
                    if s:
                        v[j] = v[j] - c * s
        return v

    def coefficients(self, vec):
        """Coordinates of vec in the stored basis, or None if outside."""
        v = list(vec)
        coeffs = []
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            coeffs.append(c)
            if c:
                for j, s in enumerate(row[p:], p):
                    if s:
                        v[j] = v[j] - c * s
        if any(v):
            return None
        return coeffs

    def contains(self, vec):
        return not any(self.reduce(vec))

    def add(self, vec):
        """Insert a vector; returns the new pivot column or None."""
        v = self.reduce(vec)
        p = next((j for j, c in enumerate(v) if c), None)
        if p is None:
            return None
        inv = v[p].inverse()
        support = [j for j in range(p, self.width) if v[j]]
        for j in support:
            v[j] = v[j] * inv
        for row in self.rows:
            c = row[p]
            if c:
                for j in support:
                    row[j] = row[j] - c * v[j]
        at = bisect_left(self.pivots, p)
        self.rows.insert(at, v)
        self.pivots.insert(at, p)
        return p


def dense_echelon(field, width, vectors):
    """The DenseEchelon of dense vectors."""
    ech = DenseEchelon(field, width)
    for v in vectors:
        ech.add(v)
    return ech


def dense_kernel(field, width, rows):
    """The DenseEchelon of {x : row . x = 0 for each dense row}: one null
    vector per free column, read off the reduced rows, then reduced."""
    red = dense_echelon(field, width, rows)
    vecs = []
    for f in range(width):
        if f in red.pivots:
            continue
        v = zero_vec(field, width)
        v[f] = field.one
        for row, p in zip(red.rows, red.pivots):
            v[p] = -row[f]
        vecs.append(v)
    return dense_echelon(field, width, vecs)


def dense_intersection(field, width, us, vs):
    """The DenseEchelon of span(us) and span(vs), from the left null space
    of the stacked bases of the two spans."""
    U, V = dense_echelon(field, width, us), dense_echelon(field, width, vs)
    stacked = U.rows + V.rows
    null = dense_kernel(
        field, len(stacked), [[r[j] for r in stacked] for j in range(width)]
    )
    vecs = []
    for coef in null.rows:
        v = zero_vec(field, width)
        for c, row in zip(coef, U.rows):
            v = [a + c * b for a, b in zip(v, row)]
        vecs.append(v)
    return dense_echelon(field, width, vecs)


def dense_matrix(field, n, cols):
    """The n x len(cols) Matrix of a map given by sparse columns."""
    M = Matrix.zeros(field, n, len(cols))
    for i, col in enumerate(cols):
        for j, c in col:
            M.rows[j][i] = c
    return M


def sparse_of(M):
    """The sparse columns of a Matrix."""
    return [
        tuple((j, M.rows[j][i]) for j in range(M.nrows) if M.rows[j][i])
        for i in range(M.ncols)
    ]


def columns(M):
    return [[row[i] for row in M.rows] for i in range(M.ncols)]


def mat_apply(M, vec):
    out = zero_vec(M.field, M.nrows)
    for j, row in enumerate(M.rows):
        for c, x in zip(row, vec):
            if c and x:
                out[j] = out[j] + c * x
    return out


def matmul(A, B):
    """The product A B, column by column."""
    cols = [mat_apply(A, col) for col in columns(B)]
    return Matrix.from_rows(
        A.field, [[col[j] for col in cols] for j in range(A.nrows)], ncols=B.ncols
    )


def kron_apply(A, B, vec):
    """(A (x) B) applied to a flat tensor vector, without forming A (x) B."""
    n2, m2 = B.ncols, B.nrows
    out = zero_vec(A.field, A.nrows * m2)
    for idx, val in enumerate(vec):
        if not val:
            continue
        i, j = divmod(idx, n2)
        for a in range(A.nrows):
            c1 = A.rows[a][i]
            if not c1:
                continue
            for b in range(m2):
                c2 = B.rows[b][j]
                if c2:
                    out[a * m2 + b] = out[a * m2 + b] + val * c1 * c2
    return out


def reference_linear_quotient(B):
    """(proj, reps): the projection onto the canonical complement of B as a
    Matrix, with column j the reduction of e_j by the echelon rows of B."""
    amb = B.ambient
    reps = B.complement_indices()
    ech = dense_echelon(B.field, amb, B.basis())
    reduced = [ech.reduce(basis_vec(B.field, amb, j)) for j in range(amb)]
    proj = Matrix.from_rows(B.field, [[red[t] for red in reduced] for t in reps], ncols=amb)
    return proj, reps


def reference_convolve(H, F, G):
    """The convolution F * G = m (F (x) G) Delta of two d x d matrices."""
    d = H.dim
    fcols, gcols = columns(F), columns(G)
    cols = []
    for i in range(d):
        acc = zero_vec(H.field, d)
        for j, k, c in H.comult[i]:
            for t, p in enumerate(dense_product(H, fcols[j], gcols[k])):
                if p:
                    acc[t] = acc[t] + c * p
        cols.append(acc)
    return Matrix.from_rows(H.field, [[cols[j][i] for j in range(d)] for i in range(d)], ncols=d)


def reference_counit_unit(H):
    """The matrix of a -> eps(a) 1."""
    field = H.field
    rows = [[u * e if (u and e) else field.zero for e in H.counit] for u in H.unit]
    return Matrix.from_rows(field, rows, ncols=H.dim)


def dense_entries(rows):
    """The (i, j, c) entries of a dense matrix given by its rows, c at row j
    and column i, as GroupAction takes them."""
    return [(i, j, c) for j, row in enumerate(rows) for i, c in enumerate(row)]


def map_entries(cols):
    """The (i, j, c) entries of a map given by sparse columns."""
    return [(i, j, c) for i, col in enumerate(cols) for j, c in col]


def rebased(H, rng):
    """H in the basis f_i = T e_i for a random sparse unitriangular integer T,
    so that ideals and projections stop being coordinate-aligned."""
    field, d = H.field, H.dim
    below = [field.one, -field.one] + [field.zero] * 6

    def entry(i, j):
        return field.one if i == j else rng.choice(below) if i > j else field.zero

    return rebase_by(H, Matrix(field, [[entry(i, j) for j in range(d)] for i in range(d)]))


def rebase_by(H, T):
    """H in the basis f_i = T e_i, for an invertible Matrix T with real
    entries."""
    field, d = H.field, H.dim
    Tinv = solve_linear(T, Matrix.identity(field, d))
    cols = columns(T)
    mult = [
        (i, j, k, c)
        for i in range(d)
        for j in range(d)
        for k, c in enumerate(mat_apply(Tinv, dense_product(H, cols[i], cols[j])))
    ]
    comult = []
    for i in range(d):
        w = kron_apply(Tinv, Tinv, dense_comult(H, cols[i]))
        comult += [(i, jk // d, jk % d, c) for jk, c in enumerate(w)]
    counit = [dense_value(field, H.counit, c) for c in cols]
    # T is real, so conjugation commutes with it and * rebases like S

    def rebase(cols):
        M = matmul(matmul(Tinv, dense_matrix(field, d, cols)), T)
        return [(i, j, M.rows[j][i]) for i in range(d) for j in range(d)]

    return HopfStarAlgebra(
        field, mult, mat_apply(Tinv, list(H.unit)), comult, counit, rebase(H.antipode), rebase(H.star)
    )


# -- full scans of the multiplicative identities ---------------------------------


def _nonzero(acc):
    return {k: v for k, v in acc.items() if v}


def _add(acc, key, v):
    acc[key] = acc[key] + v if key in acc else v


def reference_associativity(H):
    """The first (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), or None,
    over every triple."""
    d = H.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = {}
                rhs = {}
                for m, c in H.mult[i][j]:
                    for t, c2 in H.mult[m][k]:
                        _add(lhs, t, c * c2)
                for m, c in H.mult[j][k]:
                    for t, c2 in H.mult[i][m]:
                        _add(rhs, t, c * c2)
                if _nonzero(lhs) != _nonzero(rhs):
                    return (i, j, k)
    return None


def reference_coassociativity(H):
    """The first (i,) with (Delta (x) id) Delta(e_i) != (id (x) Delta) Delta(e_i),
    or None."""
    for i in range(H.dim):
        lhs = {}
        rhs = {}
        for j, k, c in H.comult[i]:
            for a, b, c2 in H.comult[j]:
                _add(lhs, (a, b, k), c * c2)
            for a, b, c2 in H.comult[k]:
                _add(rhs, (j, a, b), c * c2)
        if _nonzero(lhs) != _nonzero(rhs):
            return (i,)
    return None


def reference_comult_multiplicative(H):
    """The first (i, j) with Delta(e_i e_j) != Delta(e_i) Delta(e_j), or None,
    over every pair."""
    d = H.dim
    for i in range(d):
        for j in range(d):
            lhs = {}
            for k, c in H.mult[i][j]:
                for a, b, c2 in H.comult[k]:
                    _add(lhs, (a, b), c * c2)
            rhs = {}
            for a, b, c1 in H.comult[i]:
                for p, q, c2 in H.comult[j]:
                    for r, m1 in H.mult[a][p]:
                        for s, m2 in H.mult[b][q]:
                            _add(rhs, (r, s), c1 * c2 * m1 * m2)
            if _nonzero(lhs) != _nonzero(rhs):
                return (i, j)
    return None


def reference_counit(H, indices=None):
    """The first (i,), i in indices (default every index), with
    (eps (x) id) Delta(e_i) != e_i or (id (x) eps) Delta(e_i) != e_i, or
    None."""
    field, d = H.field, H.dim
    for i in range(d) if indices is None else indices:
        e = basis_vec(field, d, i)
        flat = dense_comult(H, e)  # the coefficient of e_j (x) e_k at j * d + k
        left = [dense_value(field, H.counit, flat[k::d]) for k in range(d)]
        right = [dense_value(field, H.counit, flat[j * d:(j + 1) * d]) for j in range(d)]
        if left != e or right != e:
            return (i,)
    return None


def reference_comult_unital(H):
    """The first (i, j) at which Delta(1) and 1 (x) 1 differ, or None."""
    d = H.dim
    flat = dense_comult(H, list(H.unit))
    for i in range(d):
        for j in range(d):
            if flat[i * d + j] != H.unit[i] * H.unit[j]:
                return (i, j)
    return None


def reference_counit_multiplicative(H):
    """The first (i, j) with eps(e_i e_j) != eps(e_i) eps(e_j), or None."""
    field, d = H.field, H.dim
    basis = [basis_vec(field, d, i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            if dense_value(field, H.counit, dense_product(H, basis[i], basis[j])) != H.counit[i] * H.counit[j]:
                return (i, j)
    return None


def reference_antipode(H, side):
    """The first (i,) with m (S (x) id) Delta(e_i) (side "left"), resp.
    m (id (x) S) Delta(e_i) (side "right"), different from eps(e_i) 1, or
    None."""
    field, d = H.field, H.dim
    basis = [basis_vec(field, d, i) for i in range(d)]
    for i in range(d):
        acc = zero_vec(field, d)
        for jk, c in enumerate(dense_comult(H, basis[i])):
            if c:
                x, y = basis[jk // d], basis[jk % d]
                x, y = (dense_antipode(H, x), y) if side == "left" else (x, dense_antipode(H, y))
                acc = [a + c * p for a, p in zip(acc, dense_product(H, x, y))]
        if acc != [H.counit[i] * u for u in H.unit]:
            return (i,)
    return None


def reference_involution(H, apply):
    """The first (i,) with apply(H, apply(H, e_i)) != e_i, or None, for
    apply dense_star or dense_antipode."""
    for i in range(H.dim):
        e = basis_vec(H.field, H.dim, i)
        if apply(H, apply(H, e)) != e:
            return (i,)
    return None


def reference_antipode_star_involution(H):
    """The first (i,) with (* S)(* S)(e_i) != e_i, or None."""
    return reference_involution(H, lambda H, x: dense_star(H, dense_antipode(H, x)))


def reference_star_counit(H):
    """The first (i,) with eps(e_i*) != conj eps(e_i), or None."""
    for i in range(H.dim):
        star = dense_star(H, basis_vec(H.field, H.dim, i))
        if dense_value(H.field, H.counit, star) != H.counit[i].conjugate():
            return (i,)
    return None


def reference_star_comultiplicative(H):
    """The first (i,) with Delta(e_i*) != (* (x) *) Delta(e_i), or None; * is
    the star matrix after conjugation, so (* (x) *) is the Kronecker square
    of that matrix after conjugation."""
    star = dense_matrix(H.field, H.dim, H.star)
    for i in range(H.dim):
        e = basis_vec(H.field, H.dim, i)
        twisted = kron_apply(star, star, [c.conjugate() for c in dense_comult(H, e)])
        if dense_comult(H, dense_star(H, e)) != twisted:
            return (i,)
    return None


def reference_star_antimultiplicative(H):
    """The first (i, j) with (e_i e_j)* != e_j* e_i*, or None, over every
    pair."""
    d = H.dim
    basis = [basis_vec(H.field, d, i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            lhs = dense_star(H, dense_product(H, basis[i], basis[j]))
            if lhs != dense_product(H, dense_star(H, basis[j]), dense_star(H, basis[i])):
                return (i, j)
    return None


def reference_corep_failure(c):
    """The first law a Corepresentation fails, or None, entry by entry:
    for each (i, j) in row order, Delta(u_ij) against sum_k u_ik (x) u_kj on
    dense tensors and then eps(u_ij) against delta_ij; after that S(u) as a
    two-sided inverse of u on dense vectors."""
    H, n = c.algebra, c.dim
    field, d = H.field, H.dim
    u = [[dense_of(H, v) for v in row] for row in c.entries]
    for i in range(n):
        for j in range(n):
            rhs = zero_vec(field, d * d)
            for k in range(n):
                for a, x in enumerate(u[i][k]):
                    if x:
                        for b, y in enumerate(u[k][j]):
                            rhs[a * d + b] = rhs[a * d + b] + x * y
            if dense_comult(H, u[i][j]) != rhs:
                return "comultiplication law fails at entry (%d, %d)" % (i, j)
            if dense_value(field, H.counit, u[i][j]) != (field.one if i == j else field.zero):
                return "counit law fails at entry (%d, %d)" % (i, j)
    anti = [[dense_antipode(H, v) for v in row] for row in u]
    for i in range(n):
        for j in range(n):
            want = list(H.unit) if i == j else zero_vec(field, d)
            for left, right in ((anti, u), (u, anti)):
                acc = zero_vec(field, d)
                for k in range(n):
                    acc = [x + y for x, y in zip(acc, dense_product(H, left[i][k], right[k][j]))]
                if acc != want:
                    return "antipode is not a matrix inverse at entry (%d, %d)" % (i, j)
    return None
