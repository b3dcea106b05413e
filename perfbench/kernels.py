"""Fixed-input kernels for the scalar and linear-algebra layers.

Spans around single scalar operations would swamp a trace, so the
`cyclotomic` and `linalg` layers are timed on seeded inputs of fixed size
instead.  Each kernel checks its own result against an answer known by
construction or computed without hopfcheck.
"""

from __future__ import annotations

import cmath
import random
import time
from fractions import Fraction

FIELD_ORDER = 12
MULADD_OPS = 40_000
INVERSE_OPS = 2_000
RREF_SHAPE = (48, 24)


def _random_coeffs(rng, phi, density=1.0):
    out = []
    for _ in range(phi):
        if rng.random() < density:
            out.append(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        else:
            out.append(Fraction(0))
    return out


def _complex(coeffs, n):
    z = cmath.exp(2j * cmath.pi / n)
    return sum(float(c) * z ** k for k, c in enumerate(coeffs))


def muladd(field_cls, seed):
    """Time MULADD_OPS products-plus-sums of seeded elements of Q(zeta_12)."""
    rng = random.Random(seed)
    field = field_cls(FIELD_ORDER)
    phi = field.phi
    raw = [[_random_coeffs(rng, phi) for _ in range(3)] for _ in range(256)]
    elems = [[field.scalar(c) for c in triple] for triple in raw]
    t0 = time.perf_counter()
    out = []
    for i in range(MULADD_OPS):
        a, b, c = elems[i % 256]
        out.append(a * b + c)
    dt = time.perf_counter() - t0
    for i in range(256):
        a, b, c = raw[i]
        want = _complex(a, FIELD_ORDER) * _complex(b, FIELD_ORDER) + _complex(c, FIELD_ORDER)
        if abs(out[i].embed() - want) > 1e-9 * (1 + abs(want)):
            return dt, "mul+add result %d disagrees with its complex embedding" % i
    return dt, None


def inverse(field_cls, seed):
    """Time INVERSE_OPS inverses of seeded nonzero elements of Q(zeta_12)."""
    rng = random.Random(seed + 1)
    field = field_cls(FIELD_ORDER)
    elems = []
    while len(elems) < INVERSE_OPS:
        x = field.scalar(_random_coeffs(rng, field.phi, density=0.75))
        if x:
            elems.append(x)
    t0 = time.perf_counter()
    invs = [x.inverse() for x in elems]
    dt = time.perf_counter() - t0
    for x, y in zip(elems, invs):
        if x * y != field.one:
            return dt, "x * x.inverse() != 1"
    return dt, None


def rref(field_cls, matrix_cls, seed):
    """Time the RREF of a seeded 48x24 matrix of known rank 24 over Q(zeta_12).

    Half the rows form a unit upper-triangular block, so the matrix has full
    column rank and its reduced echelon form is the 24x24 identity.
    """
    rng = random.Random(seed + 2)
    field = field_cls(FIELD_ORDER)
    m, n = RREF_SHAPE
    rows = []
    for i in range(n):
        row = [field.zero] * n
        row[i] = field.one
        for j in range(i + 1, n):
            row[j] = field.scalar(_random_coeffs(rng, field.phi, density=0.3))
        rows.append(row)
    for _ in range(m - n):
        rows.append([field.scalar(_random_coeffs(rng, field.phi, density=0.3)) for _ in range(n)])
    rng.shuffle(rows)
    A = matrix_cls(field, rows)
    t0 = time.perf_counter()
    red, pivots = A.rref()
    dt = time.perf_counter() - t0
    if tuple(pivots) != tuple(range(n)) or red != matrix_cls.identity(field, n):
        return dt, "RREF of a full-rank 48x24 matrix is not the identity"
    return dt, None
