"""Serialized `.hopf.json` dicts built from integer tables, without hopfcheck.

The benchmark feeds the program only what these functions generate (plus
the shipped catalog), in the documented file format: sparse `mult` and
`comult` triples, dense `antipode` and `star` matrices, rational scalars as
strings.  For a group the results are the Hopf *-algebras F(G) and C(G);
for a non-associative loop the same formulas give tensors that must fail
the axioms.
"""

from __future__ import annotations

import json

from oracle import Table


def _perm_matrix(n, image):
    """Dense matrix with a 1 at row image[i], column i."""
    return [["1" if image[i] == j else "0" for i in range(n)] for j in range(n)]


def _left_inverse(T: Table, a):
    e = T.identity
    return next(b for b in range(T.order) if T.table[b][a] == e)


def function_algebra_dict(T: Table, field_order) -> dict:
    """F(T): pointwise product, Delta(d_z) = sum over x*y = z of d_x (x) d_y."""
    n = T.order
    return {
        "dim": n,
        "field_order": field_order,
        "basis_labels": list(T.labels),
        "mult": [[i, i, i, "1"] for i in range(n)],
        "unit": ["1"] * n,
        "comult": sorted([T.table[x][y], x, y, "1"] for x in range(n) for y in range(n)),
        "counit": ["1" if i == T.identity else "0" for i in range(n)],
        "antipode": _perm_matrix(n, [_left_inverse(T, i) for i in range(n)]),
        "star": _perm_matrix(n, list(range(n))),
    }


def group_algebra_dict(T: Table, field_order) -> dict:
    """C(T): basis elements are group-like, S(g) = g* = g^-1."""
    n = T.order
    inv = [_left_inverse(T, i) for i in range(n)]
    return {
        "dim": n,
        "field_order": field_order,
        "basis_labels": list(T.labels),
        "mult": sorted([x, y, T.table[x][y], "1"] for x in range(n) for y in range(n)),
        "unit": ["1" if i == T.identity else "0" for i in range(n)],
        "comult": [[i, i, i, "1"] for i in range(n)],
        "counit": ["1"] * n,
        "antipode": _perm_matrix(n, inv),
        "star": _perm_matrix(n, inv),
    }


def vanishing_ideal_dict(T: Table, subset) -> dict:
    """The functions on T vanishing on `subset`, as explicit basis vectors."""
    keep = set(subset)
    vecs = []
    for g in range(T.order):
        if g not in keep:
            vecs.append(["1" if i == g else "0" for i in range(T.order)])
    return {"ideal_basis": vecs}


def subgroup_ideal_dict(T: Table, subset) -> dict:
    return {"subgroup": [T.labels[g] for g in sorted(subset)]}


def dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def malformed_variants(good: dict, rng) -> list:
    """(name, file text) pairs that a loader must reject with a schema error."""
    d = good["dim"]
    text = dump(good)
    out = [("truncated", text[: rng.randrange(len(text) // 4, 3 * len(text) // 4)])]
    missing = dict(good)
    del missing[rng.choice(["mult", "comult", "counit", "antipode", "star", "unit"])]
    out.append(("missing_key", dump(missing)))
    bad_index = dict(good)
    bad_index["mult"] = list(good["mult"]) + [[rng.randrange(d), d + rng.randrange(3), 0, "1"]]
    out.append(("index_out_of_range", dump(bad_index)))
    bad_scalar = dict(good)
    bad_scalar["counit"] = ["1/0"] + list(good["counit"][1:])
    out.append(("bad_scalar", dump(bad_scalar)))
    short = dict(good)
    short["unit"] = list(good["unit"][:-1])
    out.append(("short_unit", dump(short)))
    return out
