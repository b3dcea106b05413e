"""Exact splitting of the dual algebra into matrix blocks.

The dual D of a finite quantum group is split in two stages by one spectral
step, _spectral_idempotents: an element x of a corner of D with unit u has
an exact minimal polynomial P there (the first power u x^k that depends on
the ones before it, found by an Echelon), and when P has deg P distinct
roots in the field, the Lagrange idempotents u L_mu(x) split u.  They are
certified in K[t], not by products in D: the Lagrange polynomials are
checked to be orthogonal idempotents summing to 1 modulo P
(_lagrange_polynomials), which with the exact Krylov relation P(x) u = 0
makes the u L_mu(x) orthogonal idempotents summing to u.
split_center starts from the unit and refines each central idempotent p by
each element z of the centre's basis in turn: p is kept when p z is a
multiple of p, and replaced by its spectral idempotents otherwise.  The
centre is the commutant of the dual's certified generators
(center_of_dual).  find_primitive_idempotent splits the unit of one matrix
block the same way, by candidate elements of the block, until its corner
is a line.  Both the size of a block and the rank of an idempotent in it
are read off left_trace, the regular trace covector of the dual.

The roots come from exact_poly_roots, in integers alone (Cohen, GTM 138,
2.6 and 3.5): roots mod a prime p = 1 (mod n) are Newton-lifted, recognised
by Babai's nearest plane on an LLL-reduced lattice, and verified exactly.  A
central element that does not split means the field is too small, and
SplittingFailed names the order to raise.

Elements of the dual are sparse vectors in the dual basis and are multiplied
by dual(H).product.  exact_eigen_split splits a small dense Matrix by the
same roots and exact kernels; the splitting of the dual does not use it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import chain, count, takewhile
from math import comb, gcd, isqrt, lcm

from .cyclotomic import _trim
from .errors import SplittingFailed, TheoremViolation
from .hopf import _dual_generators, _pair, _regular_trace, dual
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


def center_of_dual(H):
    """Canonical basis of the center of the dual algebra D: the f with
    (f e^t - e^t f)(e_i) = 0, one sparse equation {j: coefficient of f_j}
    per pair (t, i), written for t among the dual's certified generators
    (hopf._dual_generators) when D is unital and associative, and for every
    t otherwise.

    The commutant of a generating set is the centre: for a fixed f, the
    y with f y = y f form a subspace that holds 1 and, by associativity,
    f (ab) = (fa) b = a (fb) = (ab) f for a, b in it, so a subalgebra; it
    holds the generators' products, which span D.  The equations cut out
    the same subspace either way, so its canonical basis is the same.
    """
    gens = _dual_generators(H)
    live = range(H.dim) if gens is None else frozenset(gens)
    zero = H.field.zero
    eqs = {}
    for i in range(H.dim):
        for j, k, c in H.comult[i]:
            if k in live:
                row = eqs.setdefault((k, i), {})
                row[j] = row.get(j, zero) + c
            if j in live:
                row = eqs.setdefault((j, i), {})
                row[k] = row.get(k, zero) - c
    return sparse_null_space(H.field, H.dim, map(sparse_column, eqs.values()))


def _deflate(poly, a, reduce=None):
    """(poly / (x - a), poly(a)); reduce, if given, maps each coefficient."""
    quot = [poly[-1]]
    for c in reversed(poly[:-1]):
        c = c + a * quot[-1]
        quot.append(reduce(c) if reduce else c)
    rem = quot.pop()
    return quot[::-1], rem


def _multiplicity(poly, a, reduce=None):
    """How many times x - a divides the nonzero poly (see _deflate)."""
    quot, rem = _deflate(poly, a, reduce)
    return 0 if rem else 1 + _multiplicity(quot, a, reduce)


def _gram_schmidt(v, b, d, lam, gram):
    """u[j] = d[j] <v, b_j*> for the rows b_j of b under the form gram, in
    exact integer steps (Cohen, Algorithm 2.6.7, step 2)."""
    gv = [sum(g * x for g, x in zip(row, v)) for row in gram]
    u = []
    for j, bj in enumerate(b):
        s = sum(x * y for x, y in zip(bj, gv))
        lj = lam[j] if j < len(lam) else u  # v is b_j itself
        for i in range(j):
            s = (d[i + 1] * s - u[i] * lj[i]) // d[i]
        u.append(s)
    return u


def _lll(b, gram):
    """(b, d, lam): the integer rows b LLL-reduced (delta = 3/4) under the
    integral positive definite form gram, with d[i] the Gram determinant of
    b[:i] and lam[k][i] = d[i] <b_k, b_i*> (Cohen, Algorithm 2.6.7)."""
    d, lam, n = [1], [], len(b)
    for k in range(n):
        *row, dk = _gram_schmidt(b[k], b[: k + 1], d, lam, gram)
        lam.append(row)
        d.append(dk)

    def reduce(k, l):
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        if q:
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = 1
    while k < n:
        reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lk * lk:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        lam[k - 1], lam[k][: k - 1] = lam[k][: k - 1], lam[k - 1]
        big = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (big * t + lk * lam[i][k]) // d[k + 1]
        d[k] = big
        k = max(1, k - 1)
    return b, d, lam


@cache
def _level(field, p, j):
    """(P, w, gram, b, d, lam) for P = p^(2^j): an element w of order n mod p,
    Newton-lifted to a root of x^n - 1 mod P when j > 0, the trace form
    gram[i][k] = Tr(z^(i-k)), and _lll of {c : sum_k c_k w^k = 0 (mod P)}."""
    n, phi, P = field.n, field.phi, p ** (1 << j)
    if j:
        w = _level(field, p, j - 1)[1]
        w = (w - (pow(w, n, P) - 1) * pow(n * pow(w, n - 1, P), -1, P)) % P
    else:
        powers = (pow(x, (p - 1) // n, p) for x in range(1, p))
        w = next(w for w in powers if all(pow(w, k, p) != 1 for k in range(1, n)))
    tr = [sum((field.zeta(a * m) for a in range(n) if gcd(a, n) == 1), field.zero).num[0]
          for m in range(phi)]
    gram = [[tr[abs(i - k)] for k in range(phi)] for i in range(phi)]
    rows = [[-pow(w, k, P) if k else P] + [int(i == k) for i in range(1, phi)] for k in range(phi)]
    return (P, w, gram) + _lll(rows, gram)


def _nearest(level, t):
    """t minus the lattice vector that Babai's nearest plane picks on the
    level's basis: the c in t's coset with |<c, b_j*>| <= |b_j*|^2 / 2."""
    _P, _w, gram, b, d, lam = level
    u = _gram_schmidt(t, b, d, lam, gram)
    for j in reversed(range(len(b))):
        q = (2 * u[j] + d[j + 1]) // (2 * d[j + 1])
        if q:
            t = [x - q * y for x, y in zip(t, b[j])]
            for i in range(j):
                u[i] -= q * lam[j][i]
    return t


def _image(f, w, P):
    """The coefficients of f mod P, with z mapped to w."""
    pows = [pow(w, k, P) for k in range(len(f[0].num))]
    return [sum(a * x for a, x in zip(c.num, pows)) * pow(c.den, -1, P) % P for c in f]


def _lifted_root(field, f, D, p, a, m, bound):
    """The root of f of multiplicity m in the field above a, a simple root of
    f^(m-1) mod p, or None when there is none (see exact_poly_roots)."""
    for j in count(1):
        P, w, _gram, _b, d, _lam = level = _level(field, p, j)
        val = der = 0  # f^(m-1) / (m-1)! and its derivative at a, mod P
        for c in reversed([comb(i, m - 1) * c for i, c in enumerate(_image(f, w, P))][m - 1:]):
            der, val = (der * a + val) % P, (val * a + c) % P
        a = (a - val * pow(der, -1, P)) % P
        root = field.from_integers(_nearest(level, [D * a % P] + [0] * (field.phi - 1)), D)
        if _multiplicity(f, root) >= m:
            return root
        if all(bound * d[i] < d[i + 1] for i in range(field.phi)):
            return None


def exact_poly_roots(field, coeffs):
    """The distinct roots in the field of the polynomial coeffs (lowest
    degree first), ordered by sort_key, when it splits into linear factors
    there; [] when it does not.

    f is coeffs made monic, D the common denominator of its coefficients, and
    primes p = 1 (mod n) above 2 deg^2 not dividing D are tried in turn.  A
    root of f of multiplicity m maps to one of multiplicity at least m mod p,
    so f cannot split when the multiplicities mod p sum to less than deg f.
    If the field holds the root alpha above a root a mod p, the coordinates
    c of beta = D alpha are integers, which _nearest finds once
    4 T2(c) < |b_j*|^2 for each j, where T2(c) = Tr(beta conj(beta)) is the
    sum of |beta|^2 over the places.  beta is a root of the monic
    D^deg f(x / D), whose coefficient b_i = D^(deg-i) f_i is at most |b_i|_1
    (the sum of its absolute coordinates) at every place, so by Fujiwara's
    bound T2(c) <= phi R^2 with R = max_i 2 |b_i|_1^(1/(deg-i)).  A root mod
    p still unrecognised past that bound has no root above it in the field:
    p merged two roots, or f splits mod p but not over the field, and the
    next prime decides.  When (x - alpha)^m divides f for every root mod p,
    f is their product.
    """
    f = _trim(coeffs)
    deg = len(f) - 1
    if deg < 1:
        return []
    inv = f[-1].inverse()
    f = [c * inv for c in f]
    D = lcm(*(c.den for c in f))
    # 4 phi R^2, with each |b_i|_1^(1/(deg-i)) rounded up to a power of two
    bound = field.phi << 4 + 2 * max(
        -(-(sum(map(abs, c.num)) * (D // c.den) * D ** (deg - i - 1)).bit_length() // (deg - i))
        for i, c in enumerate(f[:-1]))
    for p in count(2 * deg * deg + 1):
        if (p - 1) % field.n or D % p == 0 or not all(p % q for q in range(2, isqrt(p) + 1)):
            continue
        fp = _image(f, _level(field, p, 0)[1], p)
        mults = [(a, m) for a in range(p) for m in [_multiplicity(fp, a, lambda c: c % p)] if m]
        if sum(m for _a, m in mults) < deg:
            return []
        lifted = (_lifted_root(field, f, D, p, a, m, bound) for a, m in mults)
        roots = list(takewhile(lambda r: r is not None, lifted))
        if len(roots) == len(mults):
            return sorted(roots, key=lambda s: s.sort_key())


def _krylov(field, width, start, step):
    """(P, powers): the monic polynomial P of least degree, lowest degree
    first, with sum_j P[j] step^j(start) = 0, and the independent powers
    step^j(start), j < deg P.

    The powers enter an Echelon until one depends on those before it; the
    kernel of the powers up to that one is then a line, and its vector,
    scaled to a 1 at that last power, holds the coefficients.  That relation
    is part of the certificate of _spectral_idempotents, so a kernel that is
    not a line raises TheoremViolation.
    """
    ech = Echelon(field)
    powers = []
    cur = start
    while ech.add(cur) is not None:
        powers.append(cur)
        cur = step(cur)
    kernel = sparse_kernel(field, width, powers + [cur]).rows
    if len(kernel) != 1:
        raise TheoremViolation("the relation of a Krylov sequence is not a line")
    (row,) = kernel
    inv = row[-1][1].inverse()
    coefs = dict(row)
    return [coefs.get(k, field.zero) * inv for k in range(len(powers) + 1)], powers


def _min_poly(D, unit, x):
    """(P, powers): the monic minimal polynomial of unit x in the corner of D
    with unit `unit`, lowest degree first, and the powers unit x^j, j < deg P.
    x is central or lies in the corner, so (unit x)^j = unit x^j."""
    return _krylov(D.field, D.dim, unit, lambda v: D.product(v, x))


def _lagrange_polynomials(poly, roots):
    """The Lagrange polynomials L_mu(t) = P(t) / ((t - mu) P'(mu)) of the
    monic P = poly at the roots mu, lowest degree first, certified in K[t];
    TheoremViolation when a check fails.

    Deflating P by each mu gives P = (t - mu) Q_mu + P(mu), and
    L_mu = Q_mu / Q_mu(mu).  Checked exactly: every P(mu) = 0, the roots are
    distinct, and sum_mu L_mu = 1 as polynomials.  These give, modulo P,
      L_mu L_nu = delta_(mu nu) L_nu  and  sum_mu L_mu = 1,
    the orthogonal idempotents that _spectral_idempotents needs.  Proof: for
    mu != nu, P(nu) = (nu - mu) Q_mu(nu) + P(mu) gives Q_mu(nu) = 0, so
    L_mu(nu) = 0, and then the sum at nu gives L_nu(nu) = 1.  Any
    polynomial A is A(nu) + (t - nu) B, so A Q_nu = A(nu) Q_nu + B P, and
    A L_nu = A(nu) L_nu modulo P; take A = L_mu.  Each L_mu costs two
    deflations and one scaling, about 3 (deg P)^2 scalar products in all.
    """
    field = poly[0].field
    if len(set(roots)) != len(roots):
        raise TheoremViolation("spectral idempotent verification failed")
    out = []
    total = [field.zero] * (len(poly) - 1)
    for mu in roots:
        quot, rem = _deflate(poly, mu)  # P(t) / (t - mu), P(mu)
        at_mu = _deflate(quot, mu)[1]
        if rem or not at_mu:
            raise TheoremViolation("spectral idempotent verification failed")
        scale = at_mu.inverse()
        lag = [c * scale for c in quot]
        total = [a + b for a, b in zip(total, lag)]
        out.append(lag)
    if total[0] != field.one or any(total[1:]):
        raise TheoremViolation("spectral idempotent verification failed")
    return out


def _spectral_idempotents(D, unit, x):
    """The spectral idempotents of x in the corner of D with unit u = unit,
    certified exactly, in the order of their eigenvalues; None when the
    minimal polynomial P of x there has a repeated root or a root outside
    the field.

    The idempotent of the root mu is q_mu = L_mu(x) u, a combination of the
    powers u x^j that gave P, with the Lagrange polynomials L_mu certified
    in K[t] (_lagrange_polynomials), not by products in D.  Proof that the
    q_mu are orthogonal idempotents summing to u, for an associative D: the
    Krylov relation P(x) u = 0 holds exactly (_krylov), u is idempotent, and
    x is central or lies in u D u, so u commutes with x and
    (A(x) u)(B(x) u) = (AB)(x) u for polynomials A, B, which is 0 when P
    divides AB.  So q_mu q_nu = (L_mu L_nu)(x) u = delta_(mu nu) q_nu and
    sum_mu q_mu = u, since L_mu L_nu = delta_(mu nu) L_nu and
    sum_mu L_mu = 1 modulo P.  Each q_mu is nonzero: L_mu(mu) = 1, so L_mu
    is a nonzero polynomial of degree below deg P, and the powers u x^j,
    j < deg P, are independent.
    """
    poly, powers = _min_poly(D, unit, x)
    roots = exact_poly_roots(D.field, poly)
    if len(roots) != len(powers):
        return None
    out = []
    for lag in _lagrange_polynomials(poly, roots):
        acc = {}
        for c, v in zip(lag, powers):
            add_terms(acc, c, v)
        out.append(sparse_column(acc))
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


def left_trace(H, x):
    """The trace of left multiplication by x on D = dual(H).

    It is linear in x, so it is read off the regular trace covector of D
    (hopf._regular_trace), kept in D's memo under "trace".  For an
    idempotent p of an associative D, L_p is idempotent, so tr(L_p) is its
    rank, dim p D.
    """
    D = dual(H)
    trace = D.memo("trace", lambda: _regular_trace(D))
    return _pair(x, trace, H.field.zero)


def find_primitive_idempotent(H, block_basis, block_unit, gauge=0):
    """A primitive idempotent of the matrix block p*D, exactly verified.

    Vectors are sparse, in the dual basis, and are multiplied in dual(H).
    block_basis must be an echelon basis (Subspace.rows), so that its length
    is the dimension of the block; each smaller corner q D q is spanned the
    same way.  Each round takes the first spectral idempotent q of the first
    candidate whose spectrum splits, and stops when the corner q D q is a
    line, that is when q has rank 1 in the block M_n(K).  That rank is read
    off left_trace instead of a rebuilt corner: the block p D is n copies
    of the column space K^n, so tr(L_q) is n times the rank of q.  The
    candidates are the corner's basis, then 8 random combinations of it;
    the coefficients of all 8 are drawn each round, so the draws do not
    depend on where the search stops, but a combination is formed only when
    the search reaches it.
    """
    field = H.field
    D = dual(H)
    n = isqrt(len(block_basis))
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
        draws = [
            sparse_vector([field.from_rational(Fraction(rng.randrange(-3, 4))) for _b in corner_basis])
            for _extra in range(8)
        ]
        combinations = (sparse_compose(corner_basis, [coefs])[0] for coefs in draws)
        for x in chain(candidates, combinations):
            if line.contains(x):
                continue
            parts = _spectral_idempotents(D, unit, x)
            if parts is not None:
                break
        else:
            raise SplittingFailed(field.n, "no splitting element found in a matrix block")
        unit = parts[0]
        if left_trace(H, unit) == n:
            return unit
        new_basis = [D.product(D.product(unit, b), unit) for b in corner_basis]
        corner_basis = sparse_image(field, H.dim, new_basis).rows
    raise SplittingFailed(field.n, "primitive idempotent search exhausted")
