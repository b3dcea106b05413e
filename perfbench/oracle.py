"""Known answers derived by brute force on integer tables, without hopfcheck.

Every expected verdict the benchmark checks comes from here or from a fact
the repository's tests pin by hand (36 catalog subgroups, 29 of them
normal).  Nothing in this module imports hopfcheck, so a defect in the
program cannot leak into its own expected answers.
"""

from __future__ import annotations

import itertools
import json
import os
import random


class Table:
    """A finite magma given by an index multiplication table, with labels."""

    def __init__(self, table, labels=None):
        self.order = len(table)
        self.table = [list(row) for row in table]
        self.labels = list(labels) if labels else ["g%d" % i for i in range(self.order)]

    @property
    def identity(self):
        n = self.order
        ids = [e for e in range(n) if all(self.table[e][x] == x == self.table[x][e] for x in range(n))]
        return ids[0] if len(ids) == 1 else None

    def inverse(self, a):
        e = self.identity
        return next(b for b in range(self.order) if self.table[a][b] == e)


def load_group(path) -> Table:
    """Read an integer group table from a `*.group.json` data file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return Table(data["table"], data["labels"])


# -- group constructors on integer tables ------------------------------------


def cyclic(n) -> Table:
    return Table([[(i + j) % n for j in range(n)] for i in range(n)],
                 ["e"] + ["c%d" % k for k in range(1, n)])


def dihedral(n) -> Table:
    """D_n of order 2n; element f*n + k is r^k s^f."""
    def idx(k, f):
        return f * n + k % n

    table = []
    for f in range(2):
        for a in range(n):
            row = []
            for g in range(2):
                for b in range(n):
                    row.append(idx(a + (b if f == 0 else -b), (f + g) % 2))
            table.append(row)
    labels = ["e"] + ["r%d" % k for k in range(1, n)] + ["s" if k == 0 else "sr%d" % k for k in range(n)]
    return Table(table, labels)


def symmetric(n) -> Table:
    """S_n on permutation tuples, product (p*q)(i) = p(q(i))."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    return Table(table, ["p" + "".join(str(x) for x in p) for p in perms])


def direct_product(G: Table, H: Table) -> Table:
    m = H.order
    table = [
        [G.table[a // m][b // m] * m + H.table[a % m][b % m] for b in range(G.order * m)]
        for a in range(G.order * m)
    ]
    labels = ["%s.%s" % (x, y) for x in G.labels for y in H.labels]
    return Table(table, labels)


def relabel(G: Table, rng: random.Random) -> Table:
    """The same group with its elements listed in a seeded random order."""
    n = G.order
    order = list(range(n))
    rng.shuffle(order)
    pos = {old: new for new, old in enumerate(order)}
    table = [[pos[G.table[order[a]][order[b]]] for b in range(n)] for a in range(n)]
    return Table(table, [G.labels[old] for old in order])


# -- brute-force facts -------------------------------------------------------


def is_associative(T: Table) -> bool:
    t = T.table
    n = T.order
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n))


def is_closed(T: Table, subset) -> bool:
    """A nonempty subset of a finite group is a subgroup iff it is closed."""
    s = set(subset)
    return bool(s) and all(T.table[a][b] in s for a in s for b in s)


def is_normal(T: Table, subset) -> bool:
    s = set(subset)
    if not is_closed(T, s):
        return False
    return all(T.table[T.table[g][a]][T.inverse(g)] in s for g in range(T.order) for a in s)


def _closure(T: Table, gens) -> frozenset:
    out = {T.identity} | set(gens)
    frontier = list(out)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(out):
                for c in (T.table[a][b], T.table[b][a]):
                    if c not in out:
                        out.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(out)


def subgroups(T: Table) -> list:
    """Every subgroup, by adjoining one element at a time to known subgroups."""
    found = {frozenset([T.identity])}
    frontier = list(found)
    while frontier:
        nxt = []
        for K in frontier:
            for g in range(T.order):
                if g not in K:
                    L = _closure(T, K | {g})
                    if L not in found:
                        found.add(L)
                        nxt.append(L)
        frontier = nxt
    return sorted(found, key=lambda K: (len(K), sorted(K)))


def normal_subgroups(T: Table) -> list:
    return [K for K in subgroups(T) if is_normal(T, K)]


def conjugacy_classes(T: Table) -> list:
    seen = set()
    classes = []
    for a in range(T.order):
        if a in seen:
            continue
        cls = frozenset(T.table[T.table[g][a]][T.inverse(g)] for g in range(T.order))
        seen |= cls
        classes.append(cls)
    return classes


def real_classes(T: Table) -> int:
    """Classes closed under inversion; they count the self-conjugate irreps of F(G)."""
    return sum(1 for C in conjugacy_classes(T) if {T.inverse(a) for a in C} == C)


def involutions_and_identity(T: Table) -> int:
    """Elements with g*g = e; they count the self-conjugate irreps of C(G)."""
    e = T.identity
    return sum(1 for a in range(T.order) if T.table[a][a] == e)


def random_loop(n, rng: random.Random) -> Table:
    """A seeded Latin square with two-sided identity 0 that is not associative."""
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]
    while True:
        sq = [[i if r == 0 else (r if i == 0 else None) for i in range(n)] for r in range(n)]

        def fill(k):
            if k == len(cells):
                return True
            r, c = cells[k]
            used = set(sq[r][:c]) | {sq[y][c] for y in range(r)}
            cand = [v for v in range(n) if v not in used]
            rng.shuffle(cand)
            for v in cand:
                sq[r][c] = v
                if fill(k + 1):
                    return True
            sq[r][c] = None
            return False

        fill(0)
        T = Table(sq)
        if not is_associative(T):
            return T


def catalog_group(catalog_dir, name) -> Table:
    return load_group(os.path.join(catalog_dir, name + ".group.json"))


def catalog_answers(catalog_dir) -> dict:
    """Per catalog algebra: (irreps, quantum subgroups, normal ones).

    F(G) has one irrep per conjugacy class and one quantum subgroup per
    subgroup of G; C(G) has |G| one-dimensional irreps and one quantum
    subgroup per normal subgroup, all of them normal.  F(Z2) (x) F(Z3) is
    F(Z2 x Z3).  The crossed product F(Z3) x| Z2 has no table of its own:
    its 6 irreps are pinned in tests/test_corep.py, and its 3 quantum
    subgroups, all normal, are what the pinned catalog totals (36 and 29)
    leave after the other eight algebras.
    """
    groups = {g: catalog_group(catalog_dir, g) for g in ("z2", "z3", "z6", "s3", "d4")}
    out = {}
    for g, T in groups.items():
        subs = subgroups(T)
        out["f_" + g] = (len(conjugacy_classes(T)), len(subs), sum(is_normal(T, K) for K in subs))
    for g in ("z3", "s3"):
        T = groups[g]
        n_normal = len(normal_subgroups(T))
        out["c_" + g] = (T.order, n_normal, n_normal)
    T = direct_product(groups["z2"], groups["z3"])
    subs = subgroups(T)
    out["f_z2_x_f_z3"] = (len(conjugacy_classes(T)), len(subs), sum(is_normal(T, K) for K in subs))
    rest_subs = 36 - sum(v[1] for v in out.values())
    rest_normal = 29 - sum(v[2] for v in out.values())
    out["f_z3_rtimes_z2"] = (6, rest_subs, rest_normal)
    return out
