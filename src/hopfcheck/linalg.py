"""Exact linear algebra over a cyclotomic field.

A vector is sparse: the (index, entry) pairs with entry != 0, sorted by
index.  Echelon and Subspace.rows keep such rows in reduced row echelon
form, so equal subspaces have equal rows, and every solver returns the
echelon-canonical answer (free variables pinned to zero).  Dense vectors
(lists of CycScalar) are only the boundary: Subspace.from_vectors takes
them, Subspace.basis() is the dense view, and zero_vec, basis_vec and
tensor_vec build them for input files, reports and tests.

A linear map field^m -> field^n is a list of m sparse columns: column i is
the image of e_i.  sparse_apply, sparse_compose, sparse_image and
sparse_kernel apply, compose, span and take kernels of such maps, and
sparse_null_space solves sparse equation rows.  A Matrix is a dense system
handed to rref, kernel or solve_linear, or a small matrix that is reported
or split into eigenspaces.

A factor that is the field's singleton one is never multiplied: the sparse
kernels (add_terms, Echelon.add's tail, hopf's covector pairing, and the
product, coproduct and action kernels of hopf and subgroup) test each
factor with `is one` and take the other factor as it is.  That is exact,
since x * one and one * x return x itself (see cyclotomic), and it saves a
Python call per term on the many structure constants, projection entries
and unit coefficients that are exactly 1.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from .errors import SchemaError


def zero_vec(field, n):
    return [field.zero] * n


def basis_vec(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def tensor_vec(u, v):
    """Flatten u (x) v with index (i, j) -> i * len(v) + j."""
    out = []
    for a in u:
        if a:
            out.extend(a * b if b else b for b in v)
        else:
            zero = a
            out.extend(zero for _ in v)
    return out


def add_terms(acc, scale, terms):
    """acc[k] += scale * c over the (k, c) in terms; a factor one is not
    multiplied (see the module doc)."""
    one = scale.field.one
    for k, c in terms:
        v = c if scale is one else scale if c is one else scale * c
        acc[k] = acc[k] + v if k in acc else v


def sparse_column(acc):
    """The sparse vector of the nonzero entries of a dict {index: entry}."""
    return tuple((k, acc[k]) for k in sorted(acc) if acc[k])


def sparse_vector(vec):
    """The sparse vector of a dense one."""
    return tuple((j, x) for j, x in enumerate(vec) if x)


def sparse_identity(field, n):
    """The sparse columns of the identity map of field^n."""
    return [((i, field.one),) for i in range(n)]


def sparse_transpose(n, cols):
    """The n sparse rows of the map with sparse columns cols."""
    rows = [[] for _ in range(n)]
    for i, col in enumerate(cols):
        for j, c in col:
            rows[j].append((i, c))
    return rows


def sparse_apply(field, n, cols, x):
    """The map with sparse columns cols applied to the dense vector x, as a dense vector."""
    out = [field.zero] * n
    for xi, col in zip(x, cols):
        if xi:
            for j, c in col:
                out[j] = out[j] + xi * c
    return out


def sparse_compose(f, g):
    """The sparse columns of f o g: (f o g)(e_i) = sum c f(e_k) over (k, c) in g[i]."""
    out = []
    for col in g:
        acc = {}
        for k, c in col:
            add_terms(acc, c, f[k])
        out.append(sparse_column(acc))
    return out


def sparse_image(field, n, cols):
    """The span of sparse vectors of length n (the columns of a map), a Subspace."""
    ech = Echelon(field)
    for col in cols:
        ech.add(col)
    return Subspace(field, n, tuple(ech.rows), tuple(ech.pivots))


def sparse_null_space(field, width, rows):
    """{x in field^width : sum_j r_j x_j = 0 for each sparse row r}, a Subspace.

    Once the rows are in reduced echelon form, each free column f gives the
    solution e_f - sum_a row_a[f] e_(p_a); only rows whose pivot p_a is
    below f have an entry at f, so its pairs come out sorted.
    """
    ech = Echelon(field)
    for row in rows:
        ech.add(row)
    free = {f: [] for f in range(width) if f not in ech.row_at}
    for p, row in zip(ech.pivots, ech.rows):
        for f, c in row[1:]:
            free[f].append((p, -c))
    return sparse_image(field, width, [v + [(f, field.one)] for f, v in free.items()])


def sparse_kernel(field, n, cols):
    """{x : sum x_i cols[i] = 0} for columns of length n, a Subspace of
    field^len(cols)."""
    return sparse_null_space(field, len(cols), sparse_transpose(n, cols))


_index = itemgetter(0)


class Echelon:
    """Incrementally maintained reduced row echelon basis of sparse vectors.

    row_at[p] is the row with pivot p: a sparse vector that starts with
    (p, 1) and has no entry at any other pivot.  Every method takes sparse
    vectors.
    """

    __slots__ = ("field", "row_at")

    def __init__(self, field, rows=()):
        self.field = field
        self.row_at = {row[0][0]: row for row in rows}

    @property
    def pivots(self):
        return sorted(self.row_at)

    @property
    def rows(self):
        return [self.row_at[p] for p in self.pivots]

    def _split(self, vec):
        """({pivot: coordinate}, rest): the coordinates of vec on the rows
        and vec minus their combination, a dict {index: entry} that may hold
        zeros.  A row has no entry at another pivot, so the coordinate on it
        is the entry of vec at its pivot."""
        rest = dict(vec)
        coords = {}
        for p, c in vec:
            row = self.row_at.get(p)
            if row is not None:
                coords[p] = c
                del rest[p]
                add_terms(rest, -c, row[1:])
        return coords, rest

    def reduce(self, vec):
        """vec minus its combination of the rows, a sparse vector."""
        return sparse_column(self._split(vec)[1])

    def coefficients(self, vec):
        """Coordinates of vec in the stored basis, or None if outside."""
        coords, rest = self._split(vec)
        if any(rest.values()):
            return None
        zero = self.field.zero
        return [coords.get(p, zero) for p in self.pivots]

    def contains(self, vec):
        return not any(self._split(vec)[1].values())

    def add(self, vec):
        """Insert a vector; returns the new pivot column or None.

        Only the rows with an entry at the new pivot are changed; a
        dependent vector is rejected before its remainder is sorted."""
        rest = self._split(vec)[1]
        if not any(rest.values()):
            return None
        rest = sparse_column(rest)
        p, lead = rest[0]
        one = self.field.one
        inv = lead.inverse()
        tail = rest[1:] if inv is one else tuple(
            (j, inv if c is one else c * inv) for j, c in rest[1:]
        )
        for q, row in self.row_at.items():
            at = bisect_left(row, p, key=_index)
            if at < len(row) and row[at][0] == p:
                acc = dict(row)
                add_terms(acc, -acc.pop(p), tail)
                self.row_at[q] = sparse_column(acc)
        self.row_at[p] = ((p, self.field.one),) + tail
        return p


class Matrix:
    """A dense system of equations over one cyclotomic field (see the module doc)."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [[field.scalar(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise SchemaError("ragged matrix rows")
        else:
            self.ncols = 0 if ncols is None else ncols
        if ncols is not None and self.nrows and ncols != self.ncols:
            raise SchemaError("ncols mismatch")

    @classmethod
    def zeros(cls, field, m, n):
        z = field.zero
        mat = cls.__new__(cls)
        mat.field = field
        mat.rows = [[z] * n for _ in range(m)]
        mat.nrows, mat.ncols = m, n
        return mat

    @classmethod
    def identity(cls, field, n):
        mat = cls.zeros(field, n, n)
        for i in range(n):
            mat.rows[i][i] = field.one
        return mat

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        mat = cls.__new__(cls)
        mat.field = field
        mat.rows = [list(r) for r in rows]
        mat.nrows = len(mat.rows)
        mat.ncols = len(mat.rows[0]) if mat.rows else (ncols or 0)
        return mat

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def transpose(self):
        return Matrix.from_rows(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def is_zero(self):
        return all(not c for r in self.rows for c in r)

    def rref(self):
        S = sparse_image(self.field, self.ncols, map(sparse_vector, self.rows))
        return Matrix.from_rows(self.field, S.basis(), ncols=self.ncols), S.pivots

    def rank(self):
        return self.rref()[0].nrows

    def kernel(self):
        """Null space {x : A x = 0} as a canonical Subspace of field^ncols."""
        return sparse_null_space(self.field, self.ncols, map(sparse_vector, self.rows))

    def image(self):
        """Column space {A x} as a canonical Subspace of field^nrows."""
        return Subspace.from_vectors(self.field, self.nrows, self.transpose().rows)

    def row_space(self):
        return Subspace.from_vectors(self.field, self.ncols, self.rows)

    def __repr__(self):
        return "Matrix(%d x %d over Q(zeta_%d))" % (self.nrows, self.ncols, self.field.n)


def solve_linear(A, b):
    """Echelon-canonical solution of A x = b (free variables zero), or None.

    b may be a vector (returns a vector) or a Matrix of stacked right-hand
    columns (returns a Matrix of solution columns).  The augmented rows
    [A | B] go into one Echelon; a pivot in the B block means the system is
    inconsistent, and otherwise the row with pivot p holds x_p for each
    right-hand side.
    """
    vector_rhs = not isinstance(b, Matrix)
    if vector_rhs:
        B = Matrix.from_rows(A.field, [[x] for x in b], ncols=1)
    else:
        B = b
    if B.nrows != A.nrows:
        raise SchemaError("rhs has %d rows, expected %d" % (B.nrows, A.nrows))
    n = A.ncols
    ech = Echelon(A.field)
    for ra, rb in zip(A.rows, B.rows):
        ech.add(sparse_vector(ra + rb))
    X = Matrix.zeros(A.field, n, B.ncols)
    for p, row in ech.row_at.items():
        if p >= n:
            return None
        for j, c in row:
            if j >= n:
                X.rows[p][j - n] = c
    return [row[0] for row in X.rows] if vector_rhs else X


class Subspace:
    """A subspace of field^ambient with a canonical RREF basis: rows is a
    tuple of sparse vectors kept as Echelon keeps them, pivots their
    pivot columns."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field, ambient, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        """The span of dense vectors, each entry coerced by field.scalar."""
        vecs = []
        for v in vectors:
            if len(v) != ambient:
                raise SchemaError("vector length %d != ambient %d" % (len(v), ambient))
            vecs.append(sparse_vector(map(field.scalar, v)))
        return sparse_image(field, ambient, vecs)

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, tuple(sparse_identity(field, ambient)), tuple(range(ambient)))

    @property
    def dim(self):
        return len(self.rows)

    def basis(self):
        """The rows as dense vectors."""
        out = []
        for row in self.rows:
            v = [self.field.zero] * self.ambient
            for j, c in row:
                v[j] = c
            out.append(v)
        return out

    def echelon(self):
        return Echelon(self.field, self.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __le__(self, other):
        if self.ambient != other.ambient:
            raise SchemaError("ambient mismatch in subspace containment")
        return self.dim <= other.dim and all(map(other.echelon().contains, self.rows))

    def sum_with(self, other):
        if self.ambient != other.ambient:
            raise SchemaError("ambient mismatch in subspace sum")
        return sparse_image(self.field, self.ambient, self.rows + other.rows)

    def intersect(self, other):
        """The x = sum_a c_a rows[a] that lie in other: the kernel of
        (c, c') -> sum c_a rows[a] + sum c'_b other.rows[b], mapped back."""
        if self.ambient != other.ambient:
            raise SchemaError("ambient mismatch in subspace intersection")
        if not self.rows or not other.rows:
            return Subspace.zero(self.field, self.ambient)
        null = sparse_kernel(self.field, self.ambient, self.rows + other.rows)
        k = self.dim
        coefs = [[(a, c) for a, c in x if a < k] for x in null.rows]
        return sparse_image(self.field, self.ambient, sparse_compose(self.rows, coefs))

    def map_by(self, cols, n):
        """Image of this subspace under the map field^ambient -> field^n with
        sparse columns cols."""
        return sparse_image(self.field, n, sparse_compose(cols, self.rows))

    def pivot_retraction(self):
        """The sparse columns of the map field^ambient -> field^dim that
        reads a vector at the pivots: e_(p_a) -> f_a, every other e_k -> 0.
        On the subspace it gives the coordinates in the rows."""
        at = {p: a for a, p in enumerate(self.pivots)}
        one = self.field.one
        return [((at[k], one),) if k in at else () for k in range(self.ambient)]

    def complement_indices(self):
        """Coordinates not used as pivots: the canonical complement."""
        pivset = set(self.pivots)
        return tuple(j for j in range(self.ambient) if j not in pivset)

    def sort_key(self):
        """(dim, pivots, the sort_key of each entry of the dense rows in
        order), read off the sparse rows with one key shared by the zeros."""
        zero = self.field.zero.sort_key()
        keys = []
        for row in self.rows:
            at = 0
            for j, c in row:
                keys += [zero] * (j - at)
                keys.append(c.sort_key())
                at = j + 1
            keys += [zero] * (self.ambient - at)
        return (self.dim, self.pivots, tuple(keys))

    def __repr__(self):
        return "Subspace(dim %d of %d over Q(zeta_%d))" % (
            self.dim,
            self.ambient,
            self.field.n,
        )
