"""Corepresentations of constructed algebras, written down from their parts.

A group algebra C(G) has the group-likes e_g.  A tensor product A (x) B has
u (x) v for u of A and v of B: entry (i1 * dim v + i2, j1 * dim v + j2) is
u_(i1 j1) (x) v_(i2 j2).  A crossed product A x| Gamma has u gamma_t for u of
A and t in Gamma: entry (i, j) is u_ij gamma_t, since gamma_t is group-like.
The lists are complete when the lists of the parts are.  hopfcheck finds
them by splitting the dual (corep.peter_weyl); the tests compare the two.
"""

from hopfcheck.corep import Corepresentation


def group_likes(H):
    """The one-dimensional corepresentations e_g of a group algebra C(G)."""
    return [Corepresentation(H, [[((g, H.field.one),)]]) for g in range(H.dim)]


def tensor_coreps(X, left, right):
    """The u (x) v of X = A (x) B, for u in left and v in right, the
    corepresentations of X's factors A and B (lifted to X's field)."""
    d2 = X.meta["factors"][1].dim
    out = []
    for u in left:
        for v in right:
            entries = [
                [
                    [(a * d2 + b, x * y) for a, x in u.entries[i1][j1] for b, y in v.entries[i2][j2]]
                    for j1 in range(u.dim)
                    for j2 in range(v.dim)
                ]
                for i1 in range(u.dim)
                for i2 in range(v.dim)
            ]
            out.append(Corepresentation(X, entries))
    return out


def crossed_coreps(X, inner):
    """The u gamma_t of X = A x| Gamma, for u in inner, the corepresentations
    of X's inner algebra A, and t in Gamma."""
    o = X.meta["group"].order
    return [
        Corepresentation(X, [[[(k * o + t, c) for k, c in v] for v in row] for row in u.entries])
        for u in inner
        for t in range(o)
    ]
