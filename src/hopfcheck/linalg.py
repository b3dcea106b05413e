"""Exact linear algebra over a cyclotomic field.

Vectors are plain lists of CycScalar.  Subspaces are kept in reduced row
echelon form, so equality of subspaces is entrywise equality of their
canonical bases, and every solver returns the echelon-canonical answer
(free variables pinned to zero).

A linear map field^m -> field^n is a list of m sparse columns: column i is
the image of e_i, a tuple of the (index, entry) pairs with entry != 0,
sorted by index.  sparse_apply, sparse_compose, sparse_image and
sparse_kernel apply, compose, span and take kernels of such maps;
sparse_identity and sparse_column build them.  Two maps are equal exactly
when their column lists are.  A Matrix is a dense system handed to rref,
kernel or solve_linear, or a small matrix that is reported or split into
eigenspaces.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import SchemaError


def zero_vec(field, n):
    return [field.zero] * n


def basis_vec(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def lincomb(field, n, coefs, rows):
    """sum_i coefs[i] * rows[i] as a vector of length n, skipping zero terms."""
    v = [field.zero] * n
    for c, row in zip(coefs, rows):
        if c:
            for j, s in enumerate(row):
                if s:
                    v[j] = v[j] + c * s
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
    """acc[k] += scale * c over the (k, c) in terms."""
    for k, c in terms:
        v = scale * c
        acc[k] = acc[k] + v if k in acc else v


def sparse_column(acc):
    """The sparse column of the nonzero entries of a dict {index: entry}."""
    return tuple((k, acc[k]) for k in sorted(acc) if acc[k])


def sparse_identity(field, n):
    """The sparse columns of the identity map of field^n."""
    return [((i, field.one),) for i in range(n)]


def sparse_apply(field, n, cols, x):
    """The map with sparse columns cols applied to x, a vector of length n."""
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
    """The span of the columns, a Subspace of field^n."""
    vecs = []
    for col in cols:
        v = [field.zero] * n
        for j, c in col:
            v[j] = c
        vecs.append(v)
    return Subspace.from_vectors(field, n, vecs)


def sparse_kernel(field, n, cols):
    """{x : sum x_i cols[i] = 0} for columns of length n, a Subspace of
    field^len(cols)."""
    rows = [[field.zero] * len(cols) for _ in range(n)]
    for i, col in enumerate(cols):
        for j, c in col:
            rows[j][i] = c
    return Matrix.from_rows(field, rows, ncols=len(cols)).kernel()


class Echelon:
    """Incrementally maintained reduced row echelon basis."""

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
                for j, s in enumerate(row[p:], p):  # zero before the pivot
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

    @property
    def rank(self):
        return len(self.rows)


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
        ech = Echelon(self.field, self.ncols)
        for r in self.rows:
            ech.add(r)
        return Matrix.from_rows(self.field, [list(r) for r in ech.rows], ncols=self.ncols), tuple(ech.pivots)

    def rank(self):
        return self.rref()[0].nrows

    def kernel(self):
        """Null space {x : A x = 0} as a canonical Subspace of field^ncols."""
        red, pivots = self.rref()
        pivset = set(pivots)
        field = self.field
        vecs = []
        for f in range(self.ncols):
            if f in pivset:
                continue
            v = zero_vec(field, self.ncols)
            v[f] = field.one
            for r, p in enumerate(pivots):
                v[p] = -red.rows[r][f]
            vecs.append(v)
        return Subspace.from_vectors(field, self.ncols, vecs)

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
    columns (returns a Matrix of solution columns).
    """
    vector_rhs = not isinstance(b, Matrix)
    if vector_rhs:
        B = Matrix.from_rows(A.field, [[x] for x in b], ncols=1)
    else:
        B = b
    if B.nrows != A.nrows:
        raise SchemaError("rhs has %d rows, expected %d" % (B.nrows, A.nrows))
    n, k = A.ncols, B.ncols
    ech = Echelon(A.field, n + k)
    for ra, rb in zip(A.rows, B.rows):
        ech.add(list(ra) + list(rb))
    X = Matrix.zeros(A.field, n, k)
    for row, p in zip(ech.rows, ech.pivots):
        if p >= n:
            return None  # pivot in the rhs block: inconsistent
        for j in range(k):
            X.rows[p][j] = row[n + j]
    return [row[0] for row in X.rows] if vector_rhs else X


class Subspace:
    """A subspace of field^ambient with a canonical RREF basis."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field, ambient, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        ech = Echelon(field, ambient)
        for v in vectors:
            if len(v) != ambient:
                raise SchemaError("vector length %d != ambient %d" % (len(v), ambient))
            ech.add([field.scalar(x) for x in v])
        return cls(field, ambient, tuple(tuple(r) for r in ech.rows), tuple(ech.pivots))

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient):
        rows = tuple(tuple(basis_vec(field, ambient, i)) for i in range(ambient))
        return cls(field, ambient, rows, tuple(range(ambient)))

    @property
    def dim(self):
        return len(self.rows)

    def basis(self):
        return [list(r) for r in self.rows]

    def echelon(self):
        ech = Echelon(self.field, self.ambient)
        ech.rows = [list(r) for r in self.rows]
        ech.pivots = list(self.pivots)
        return ech

    def contains(self, vec):
        return self.echelon().contains(vec)

    def coordinates(self, vec):
        return self.echelon().coefficients(vec)

    def contains_all(self, vectors):
        ech = self.echelon()
        return all(ech.contains(v) for v in vectors)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __le__(self, other):
        return other.contains_all(self.basis())

    def sum_with(self, other):
        if self.ambient != other.ambient:
            raise SchemaError("ambient mismatch in subspace sum")
        return Subspace.from_vectors(
            self.field, self.ambient, list(self.rows) + list(other.rows)
        )

    def intersect(self, other):
        if self.ambient != other.ambient:
            raise SchemaError("ambient mismatch in subspace intersection")
        if not self.rows or not other.rows:
            return Subspace.zero(self.field, self.ambient)
        stacked = Matrix.from_rows(
            self.field, [list(r) for r in self.rows] + [list(r) for r in other.rows],
            ncols=self.ambient,
        )
        left_null = stacked.transpose().kernel()
        vecs = [
            lincomb(self.field, self.ambient, coef[: self.dim], self.rows)
            for coef in left_null.basis()
        ]
        return Subspace.from_vectors(self.field, self.ambient, vecs)

    def map_by(self, cols, n):
        """Image of this subspace under the map field^ambient -> field^n with
        sparse columns cols."""
        return Subspace.from_vectors(
            self.field, n, [sparse_apply(self.field, n, cols, r) for r in self.rows]
        )

    def complement_indices(self):
        """Coordinates not used as pivots: the canonical complement."""
        pivset = set(self.pivots)
        return tuple(j for j in range(self.ambient) if j not in pivset)

    def sort_key(self):
        return (
            self.dim,
            tuple(p for p in self.pivots),
            tuple(c.sort_key() for r in self.rows for c in r),
        )

    def __repr__(self):
        return "Subspace(dim %d of %d over Q(zeta_%d))" % (
            self.dim,
            self.ambient,
            self.field.n,
        )
