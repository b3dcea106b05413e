"""Exact splitting of the dual algebra into matrix blocks.

The dual of a finite quantum group is split by computing its center with
exact linear algebra and refining it under multiplication operators into
common eigenlines.  Eigenvalues are LOCATED numerically in the standard
complex embedding, RECONSTRUCTED as exact field elements, and then VERIFIED
exactly; the numeric step is a heuristic and never a source of truth.
Reconstruction proposes candidates lazily, cheapest first: the nearest
rational when the value is real, then the 2x2 rational system when
phi(n) = 2, and only when phi(n) > 2 and those guesses failed the exact
check, an integer-relation lattice reduced by LLL.  Each numeric cluster
stops at its first exactly verified candidate.  When verification cannot
account for the whole space the field is too small and SplittingFailed
names the order to raise.

Elements of the dual are sparse vectors in the dual basis and are multiplied
by dual(H).product.  Only the small matrices handed to exact_eigen_split
are dense.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import SplittingFailed, TheoremViolation
from .hopf import dual
from .linalg import (
    Echelon,
    Matrix,
    Subspace,
    add_terms,
    sparse_column,
    sparse_compose,
    sparse_image,
    sparse_kernel,
    sparse_null_space,
    sparse_vector,
)

_NUMERIC_TOL = 1e-7


def center_of_dual(H):
    """Canonical basis of the center of the dual algebra: the f with
    (f e_t - e_t f)(e_i) = 0, one sparse equation {j: coefficient of f_j}
    per pair (t, i)."""
    zero = H.field.zero
    eqs = {}
    for i in range(H.dim):
        for j, k, c in H.comult[i]:
            row = eqs.setdefault((k, i), {})
            row[j] = row.get(j, zero) + c
            row = eqs.setdefault((j, i), {})
            row[k] = row.get(k, zero) - c
    return sparse_null_space(H.field, H.dim, map(sparse_column, eqs.values()))


def _embed_matrix_complex(M):
    import numpy as np

    return np.array([[c.embed() for c in row] for row in M.rows], dtype=complex)


def _numeric_eigenvalues(M, precision):
    if precision is None:
        import numpy as np

        vals = np.linalg.eigvals(_embed_matrix_complex(M))
        return [complex(v) for v in vals]
    from mpmath import mp

    old = mp.prec
    try:
        mp.prec = precision
        rows = []
        for row in M.rows:
            out = []
            for c in row:
                n = c.field.n
                acc = mp.mpc(0)
                for k, co in enumerate(c.coeffs):
                    if co:
                        ang = 2 * mp.pi * k / n
                        acc += (mp.mpf(co.numerator) / co.denominator) * mp.mpc(
                            mp.cos(ang), mp.sin(ang)
                        )
                out.append(acc)
            rows.append(out)
        vals = mp.eig(mp.matrix(rows), left=False, right=False)
        return [complex(v) for v in vals]
    finally:
        mp.prec = old


def _cluster(values, tol):
    reps = []
    for v in values:
        if all(abs(v - r) > tol for r in reps):
            reps.append(v)
    return reps


def _reconstruct_candidates(field, z, max_den):
    """Exact field elements plausibly equal to the complex number z, cheapest
    guess first; the LLL tier runs only when a caller asks past the rational
    and quadratic guesses."""
    phi = field.phi
    if abs(z.imag) < _NUMERIC_TOL:
        yield field.from_rational(Fraction(z.real).limit_denominator(max_den))
    if phi == 1:
        return
    if phi == 2:
        # z = c0 + c1 * zeta with real c0, c1: a square 2x2 real system
        zeta = field.zeta().embed()
        if abs(zeta.imag) > 1e-12:
            c1 = z.imag / zeta.imag
            c0 = z.real - c1 * zeta.real
            yield field.scalar(
                [
                    Fraction(c0).limit_denominator(max_den),
                    Fraction(c1).limit_denominator(max_den),
                ]
            )
        return
    yield from _lll_candidates(field, z, max_den)


def _lll_candidates(field, z, max_den):
    """Integer-relation reconstruction for phi(n) > 2 via exact LLL."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.exceptions import DMRankError, DMValueError

    phi = field.phi
    scale = 10 ** 12
    basis_embeds = [field.zeta(k).embed() for k in range(phi)]
    rows = []
    for k in range(phi):
        row = [0] * (phi + 1)
        row[k] = max(1, scale // (100 * max_den))
        rows.append(row + [round(scale * basis_embeds[k].real), round(scale * basis_embeds[k].imag)])
    last = [0] * (phi + 1)
    last[phi] = max(1, scale // (100 * max_den))
    rows.append(last + [round(-scale * z.real), round(-scale * z.imag)])
    dm = DomainMatrix([[ZZ(x) for x in row] for row in rows], (phi + 1, phi + 3), ZZ)
    try:
        red = dm.lll()
    except (DMRankError, DMValueError):
        return []
    weight = max(1, scale // (100 * max_den))
    cands = []
    for row in red.to_list():
        ints = [int(x) for x in row]
        q = ints[phi] // weight if ints[phi] % weight == 0 else None
        if not q:
            continue
        if any(a % weight for a in ints[:phi]):
            continue
        cands.append(field.from_integers([a // weight for a in ints[:phi]], q))
    return cands


def exact_eigen_split(M):
    """All eigenpairs of M over its own field, exactly verified.

    Returns a list of (eigenvalue, eigenspace) covering the whole space;
    raises SplittingFailed when the spectrum does not lie in the field.
    """
    field = M.field
    n = M.nrows
    for precision, max_den in ((None, 10 ** 6), (None, 10 ** 10), (240, 10 ** 12)):
        approx = _cluster(_numeric_eigenvalues(M, precision), _NUMERIC_TOL)
        found = []
        seen = set()
        total = 0
        for z in approx:
            for cand in _reconstruct_candidates(field, z, max_den):
                if cand in seen:
                    continue
                seen.add(cand)
                shifted = Matrix.from_rows(
                    field,
                    [
                        [
                            M.rows[i][j] - cand if i == j else M.rows[i][j]
                            for j in range(n)
                        ]
                        for i in range(n)
                    ],
                    ncols=n,
                )
                ker = shifted.kernel()
                if ker.dim:
                    found.append((cand, ker))
                    total += ker.dim
                    break
        if total == n:
            found.sort(key=lambda p: p[0].sort_key())
            return found
    raise SplittingFailed(field.n, "eigenvalues of a multiplication operator not found in the field")


def split_center(H):
    """Minimal central idempotents of the dual algebra, exactly verified, as
    sparse vectors in the dual basis."""
    field = H.field
    D = dual(H)
    center = center_of_dual(H)
    c = center.dim
    zrows = center.rows
    ech = center.echelon()

    def coords(vec):
        co = ech.coefficients(vec)
        if co is None:
            raise TheoremViolation("center is not closed under products")
        return sparse_vector(co)

    blocks = [Subspace.full(field, c)]
    for t in range(c):
        if all(b.dim == 1 for b in blocks):
            break
        # cols[b]: the coordinates of z_t z_b, column b of multiplication by z_t
        cols = [coords(D.product(zrows[t], zb)) for zb in zrows]
        refined = []
        for V in blocks:
            if V.dim == 1:
                refined.append(V)
                continue
            # the matrix of z_t on V, in the coordinates of V's rows
            vech = V.echelon()
            sub_rows = [vech.coefficients(img) for img in sparse_compose(cols, V.rows)]
            if any(co is None for co in sub_rows):
                raise TheoremViolation("refinement block is not invariant")
            Mv = Matrix.from_rows(field, sub_rows, ncols=V.dim).transpose()
            for _val, ker in exact_eigen_split(Mv):
                refined.append(sparse_image(field, c, sparse_compose(V.rows, ker.rows)))
        blocks = refined
    if any(b.dim != 1 for b in blocks):
        raise SplittingFailed(field.n, "center did not refine into lines")

    idems = []
    total = {}
    for b in blocks:
        v = sparse_compose(zrows, b.rows)[0]
        idx, lead = v[0]
        a = dict(D.product(v, v)).get(idx, field.zero) * lead.inverse()
        if not a:
            raise SplittingFailed(field.n, "nilpotent line in the center")
        inv = a.inverse()
        p = tuple((j, inv * x) for j, x in v)
        if D.product(p, p) != p:
            raise TheoremViolation("central idempotent verification failed")
        idems.append(p)
        add_terms(total, field.one, p)
    if sparse_column(total) != sparse_vector(D.unit):
        raise TheoremViolation("central idempotents do not sum to the counit")
    return idems


# -- polynomial helpers over one field -------------------------------------


def _poly_trim(p):
    while len(p) > 1 and not p[-1]:
        p = p[:-1]
    return p


def _poly_deriv(field, p):
    out = [p[k] * k for k in range(1, len(p))]
    return out or [field.zero]


def _poly_mod(field, a, b):
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    db = len(b) - 1
    if db == 0:
        return [field.zero]
    inv = b[-1].inverse()
    while any(a) and len(a) - 1 >= db:
        c = a[-1] * inv
        shift = len(a) - 1 - db
        for j in range(db + 1):
            a[shift + j] = a[shift + j] - c * b[j]
        a = _poly_trim(a)
    return a


def _poly_gcd_degree(field, a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while any(b):
        a, b = b, _poly_mod(field, a, b)
    return len(_poly_trim(a)) - 1


def _poly_eval_scalar(field, p, x):
    acc = field.zero
    for c in reversed(p):
        acc = acc * x + c
    return acc


def exact_poly_roots(field, coeffs):
    """Verified roots in the field of an exactly known polynomial."""
    import numpy as np

    deg = len(_poly_trim(coeffs)) - 1
    roots = []
    seen = set()
    for max_den in (10 ** 6, 10 ** 12):
        numeric = np.roots([c.embed() for c in reversed(_poly_trim(coeffs))])
        for z in _cluster([complex(v) for v in numeric], _NUMERIC_TOL):
            for cand in _reconstruct_candidates(field, z, max_den):
                if cand in seen:
                    continue
                seen.add(cand)
                if not _poly_eval_scalar(field, coeffs, cand):
                    roots.append(cand)
                    break
        if len(roots) == deg:
            break
    roots.sort(key=lambda s: s.sort_key())
    return roots


def _min_poly(D, unit, x):
    """Monic minimal polynomial of x in the corner of D with unit `unit`,
    lowest degree first.

    The powers unit, x, x^2, ... enter an Echelon until one depends on those
    before it; the kernel of the powers up to that one is then a line, and
    its vector, scaled to a 1 at that last power, holds the coefficients.
    """
    ech = Echelon(D.field)
    powers = []
    cur = unit
    while ech.add(cur) is not None:
        powers.append(cur)
        cur = D.product(cur, x)
    powers.append(cur)
    (row,) = sparse_kernel(D.field, D.dim, powers).rows
    inv = row[-1][1].inverse()
    coefs = dict(row)
    return [coefs.get(k, D.field.zero) * inv for k in range(len(powers))]


def find_primitive_idempotent(H, block_basis, block_unit, gauge=0):
    """A primitive idempotent of the matrix block p*D, exactly verified.

    Vectors are sparse, in the dual basis, and are multiplied in dual(H).
    block_basis must be an echelon basis (Subspace.rows), so that its length
    is the dimension of the block; each smaller corner q D q is spanned the
    same way.
    """
    field = H.field
    D = dual(H)
    corner_basis = block_basis
    unit = block_unit
    guard = 0
    rng = random.Random(gauge * 7919 + 17)
    while True:
        guard += 1
        if guard > 64:
            raise SplittingFailed(field.n, "primitive idempotent search exhausted")
        if len(corner_basis) == 1:
            return unit
        line = Echelon(field)
        line.add(unit)
        candidates = list(corner_basis)
        if gauge:
            rng.shuffle(candidates)
        for _extra in range(8):
            coefs = [field.from_rational(Fraction(rng.randrange(-3, 4))) for _b in corner_basis]
            candidates.append(sparse_compose(corner_basis, [sparse_vector(coefs)])[0])
        progressed = False
        for x in candidates:
            if not x or line.contains(x):
                continue
            p = _min_poly(D, unit, x)
            if len(p) - 1 < 2:
                continue
            dp = _poly_deriv(field, p)
            if _poly_gcd_degree(field, p, dp) != 0:
                continue  # not squarefree: skip this candidate
            roots = exact_poly_roots(field, p)
            if len(roots) != len(p) - 1:
                continue  # does not split over the field
            mu = roots[0]
            others = roots[1:]
            q = unit
            for nu in others:
                diff = (mu - nu).inverse()
                shifted = dict(x)
                add_terms(shifted, -nu, unit)
                q = D.product(q, tuple((j, c * diff) for j, c in sparse_column(shifted)))
            if D.product(q, q) != q:
                raise TheoremViolation("spectral idempotent verification failed")
            if q == unit or not q:
                continue
            new_basis = [D.product(D.product(q, b), q) for b in corner_basis]
            corner_basis = sparse_image(field, H.dim, new_basis).rows
            unit = q
            progressed = True
            break
        if not progressed:
            raise SplittingFailed(field.n, "no splitting element found in a matrix block")
