"""Exact splitting of the dual algebra into matrix blocks.

The dual D of a finite quantum group is split in two stages by one spectral
step, _spectral_idempotents: an element x of a corner of D with unit u has
an exact minimal polynomial P there (the first power u x^k that depends on
the ones before it, found by an Echelon), and when P has deg P distinct
roots in the field, the Lagrange idempotents u L_mu(x) split u.
split_center starts from the unit and refines each central idempotent p by
each element z of the centre's basis in turn: p is kept when p z is a
multiple of p, and replaced by its spectral idempotents otherwise.
find_primitive_idempotent splits the unit of one matrix block the same way,
by candidate elements of the block, until its corner is a line.

Only the roots are numeric.  exact_poly_roots LOCATES them in the standard
complex embedding, RECONSTRUCTS them as exact field elements, and VERIFIES
each exactly, so the numeric step is a heuristic and never a source of
truth.  Reconstruction proposes candidates lazily, cheapest first: the
nearest rational when the value is real, then the 2x2 rational system when
phi(n) = 2, and only when phi(n) > 2 and those guesses failed the exact
check, an integer-relation lattice reduced by LLL.  A minimal polynomial of
a central element whose roots are not all found means the field is too
small, and SplittingFailed names the order to raise.

Elements of the dual are sparse vectors in the dual basis and are multiplied
by dual(H).product.  exact_eigen_split splits a small dense Matrix by the
same roots and exact kernels; the splitting of the dual does not use it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import SplittingFailed, TheoremViolation
from .hopf import dual
from .linalg import (
    Echelon,
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


def _poly_trim(p):
    while len(p) > 1 and not p[-1]:
        p = p[:-1]
    return p


def _poly_eval_scalar(field, p, x):
    acc = field.zero
    for c in reversed(p):
        acc = acc * x + c
    return acc


def exact_poly_roots(field, coeffs):
    """The distinct roots in the field of an exactly known polynomial, each
    verified, ordered by sort_key."""
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


def _krylov(field, width, start, step):
    """(P, powers): the monic polynomial P of least degree, lowest degree
    first, with sum_j P[j] step^j(start) = 0, and the independent powers
    step^j(start), j < deg P.

    The powers enter an Echelon until one depends on those before it; the
    kernel of the powers up to that one is then a line, and its vector,
    scaled to a 1 at that last power, holds the coefficients.
    """
    ech = Echelon(field)
    powers = []
    cur = start
    while ech.add(cur) is not None:
        powers.append(cur)
        cur = step(cur)
    (row,) = sparse_kernel(field, width, powers + [cur]).rows
    inv = row[-1][1].inverse()
    coefs = dict(row)
    return [coefs.get(k, field.zero) * inv for k in range(len(powers) + 1)], powers


def _min_poly(D, unit, x):
    """(P, powers): the monic minimal polynomial of unit x in the corner of D
    with unit `unit`, lowest degree first, and the powers unit x^j, j < deg P.
    x is central or lies in the corner, so (unit x)^j = unit x^j."""
    return _krylov(D.field, D.dim, unit, lambda v: D.product(v, x))


def _spectral_idempotents(D, unit, x):
    """The spectral idempotents of x in the corner of D with unit `unit`,
    each exactly verified, in the order of their eigenvalues; None when the
    minimal polynomial P of x there has a repeated root or a root outside
    the field.

    The idempotent of the root mu is unit L_mu(x) for the Lagrange
    polynomial L_mu(t) = P(t) / ((t - mu) P'(mu)), a combination of the
    powers unit x^j that gave P.
    """
    field = D.field
    poly, powers = _min_poly(D, unit, x)
    roots = exact_poly_roots(field, poly)
    if len(roots) != len(powers):
        return None
    out = []
    for mu in roots:
        # P(t) / (t - mu) by synthetic division, built from the top degree down
        quot = [field.one]
        for c in reversed(poly[1:-1]):
            quot.append(c + mu * quot[-1])
        quot.reverse()
        scale = _poly_eval_scalar(field, quot, mu).inverse()
        acc = {}
        for c, v in zip(quot, powers):
            add_terms(acc, c * scale, v)
        q = sparse_column(acc)
        if D.product(q, q) != q:
            raise TheoremViolation("spectral idempotent verification failed")
        out.append(q)
    return out


def exact_eigen_split(M):
    """All eigenpairs of the square Matrix M over its own field, exactly
    verified.

    The eigenvalues are the roots of M's minimal polynomial, the lcm of the
    Krylov polynomials of the e_j; each eigenspace is an exact kernel.
    Returns a list of (eigenvalue, eigenspace) covering the whole space,
    by eigenvalue; raises SplittingFailed when the spectrum does not lie in
    the field.
    """
    field, n = M.field, M.nrows
    cols = [sparse_vector(col) for col in M.transpose().rows]

    def times_m(v):
        return sparse_compose(cols, [v])[0]

    values = set()
    for j in range(n):
        poly, _powers = _krylov(field, n, ((j, field.one),), times_m)
        values.update(exact_poly_roots(field, poly))
    found = []
    for val in sorted(values, key=lambda s: s.sort_key()):
        shifted = [sparse_vector([c - val if i == j else c for j, c in enumerate(row)])
                   for i, row in enumerate(M.rows)]
        found.append((val, sparse_null_space(field, n, shifted)))
    if sum(ker.dim for _val, ker in found) != n:
        raise SplittingFailed(field.n, "eigenvalues of a matrix not found in the field")
    return found


def _is_multiple(v, p):
    """Whether the sparse vector v is a multiple of the nonzero sparse vector p."""
    idx, lead = p[0]
    lam = dict(v).get(idx)
    if lam is None:
        return not v
    lam = lam * lead.inverse()
    return v == tuple((j, lam * c) for j, c in p)


def split_center(H):
    """Minimal central idempotents of the dual algebra, exactly verified, as
    sparse vectors in the dual basis.

    The unit is refined by each element z of the centre's basis in turn (see
    the module doc).  Every product p z and every new idempotent must lie in
    the centre, and the idempotents must sum to the unit, the counit of H.
    """
    field = H.field
    D = dual(H)
    center = center_of_dual(H)
    ech = center.echelon()
    unit = sparse_vector(D.unit)
    if any(D.product(unit, z) != z for z in center.rows):
        raise TheoremViolation("central idempotents do not sum to the counit")
    idems = [unit]
    for z in center.rows:
        if len(idems) == center.dim:
            break
        refined = []
        for p in idems:
            pz = D.product(p, z)
            if not ech.contains(pz):
                raise TheoremViolation("center is not closed under products")
            if _is_multiple(pz, p):
                refined.append(p)
                continue
            parts = _spectral_idempotents(D, p, z)
            if parts is None:
                raise SplittingFailed(field.n, "a central element does not split")
            if not all(map(ech.contains, parts)):
                raise TheoremViolation("center is not closed under products")
            refined += parts
        idems = refined
    if len(idems) != center.dim:
        raise SplittingFailed(field.n, "center did not refine into lines")
    total = {}
    for p in idems:
        add_terms(total, field.one, p)
    if sparse_column(total) != unit:
        raise TheoremViolation("central idempotents do not sum to the counit")
    return idems


def find_primitive_idempotent(H, block_basis, block_unit, gauge=0):
    """A primitive idempotent of the matrix block p*D, exactly verified.

    Vectors are sparse, in the dual basis, and are multiplied in dual(H).
    block_basis must be an echelon basis (Subspace.rows), so that its length
    is the dimension of the block; each smaller corner q D q is spanned the
    same way.  Each round takes the first spectral idempotent of the first
    candidate whose spectrum splits, and stops when the corner is a line.
    """
    field = H.field
    D = dual(H)
    corner_basis = block_basis
    unit = block_unit
    rng = random.Random(gauge * 7919 + 17)
    for _round in range(64):
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
        for x in candidates:
            if line.contains(x):
                continue
            parts = _spectral_idempotents(D, unit, x)
            if parts is not None:
                break
        else:
            raise SplittingFailed(field.n, "no splitting element found in a matrix block")
        unit = parts[0]
        new_basis = [D.product(D.product(unit, b), unit) for b in corner_basis]
        corner_basis = sparse_image(field, H.dim, new_basis).rows
    raise SplittingFailed(field.n, "primitive idempotent search exhausted")
