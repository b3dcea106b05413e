"""Dense exact linear algebra over a cyclotomic field.

Vectors are plain lists of CycScalar.  Subspaces are kept in reduced row
echelon form, so equality of subspaces is entrywise equality of their
canonical bases, and every solver returns the echelon-canonical answer
(free variables pinned to zero).
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
    """Immutable-by-convention dense matrix over one cyclotomic field."""

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

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __add__(self, other):
        return Matrix.from_rows(
            self.field,
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __sub__(self, other):
        return Matrix.from_rows(
            self.field,
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __neg__(self):
        return Matrix.from_rows(self.field, [[-a for a in r] for r in self.rows], ncols=self.ncols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise SchemaError(
                "shape mismatch %dx%d * %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        zero = self.field.zero
        orows = other.rows
        out = []
        for r in self.rows:
            acc = [zero] * other.ncols
            for j, c in enumerate(r):
                if c:
                    for k, s in enumerate(orows[j]):
                        if s:
                            acc[k] = acc[k] + c * s
            out.append(acc)
        return Matrix.from_rows(self.field, out, ncols=other.ncols)

    def apply(self, vec):
        zero = self.field.zero
        out = []
        for r in self.rows:
            acc = zero
            for c, x in zip(r, vec):
                if c and x:
                    acc = acc + c * x
            out.append(acc)
        return out

    def transpose(self):
        return Matrix.from_rows(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def kron(self, other):
        out = []
        for r in self.rows:
            for s in other.rows:
                row = []
                for a in r:
                    row.extend(a * b if (a and b) else self.field.zero for b in s)
                out.append(row)
        return Matrix.from_rows(self.field, out, ncols=self.ncols * other.ncols)

    def is_zero(self):
        return all(not c for r in self.rows for c in r)

    def column(self, j):
        return [r[j] for r in self.rows]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def sparse_columns(self):
        """Column j as a list of (row, entry) pairs over its nonzero entries."""
        cols = [[] for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if x:
                    cols[j].append((i, x))
        return cols

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
    return X.column(0) if vector_rhs else X


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

    def map_by(self, matrix):
        """Image of this subspace under a linear map (matrix acts on columns)."""
        return Subspace.from_vectors(
            matrix.field, matrix.nrows, [matrix.apply(list(r)) for r in self.rows]
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
