"""JSON file formats: algebras (.hopf.json), groups, actions and ideals.

Scalars serialize as "p/q" strings when rational and as
{"order": n, "coeffs": ["p/q", ...]} otherwise; loading accepts either form
(plus plain integers) in any scalar position.  Structure tensors are written
sparsely with entries ordered lexicographically by index, so saved files are
byte-deterministic; dense tensors are accepted on input.  A sparse tensor
that lists the same [i, j, k] twice is rejected.  The antipode and star,
and the maps of a group action, are written and read as dense d x d
matrices, row j and column i holding the coefficient of e_j in S(e_i)
(resp. (e_i)*, alpha_t(e_i)); this is the one place where they are dense,
and their zero entries are dropped as they are read.

Each loader call keeps one dict from scalar string to parsed scalar, passed
through _parse_vector, _parse_matrix and _parse_tensor, so a string that
recurs (every "0" of a dense matrix) is parsed once per load.  Only strings
that parsed are stored, and the dict dies with the call, so memory stays
bounded by the file.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .constructions import FiniteGroup, GroupAction, subgroup_ideal
from .cyclotomic import CycField, CycScalar
from .errors import SchemaError
from .hopf import HopfStarAlgebra
from .linalg import Subspace


def scalar_to_json(x: CycScalar):
    if x.is_rational():
        return str(x.as_fraction())
    return {"order": x.field.n, "coeffs": [str(c) for c in x.coeffs]}


def scalar_from_json(field: CycField, obj):
    if isinstance(obj, bool):
        raise SchemaError("boolean is not a scalar")
    if isinstance(obj, int):
        return field.from_rational(obj)
    if isinstance(obj, str):
        try:
            return field.from_rational(Fraction(obj))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError("bad rational %r" % obj) from exc
    if isinstance(obj, dict):
        try:
            order = int(obj["order"])
            coeffs = [Fraction(c) for c in obj["coeffs"]]
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise SchemaError("bad scalar object %r" % obj) from exc
        if order > 0 and field.n % order:
            raise SchemaError(
                "scalar of order %d cannot live in the order-%d field" % (order, field.n)
            )
        return field.lift(CycField(order).scalar(coeffs))
    raise SchemaError("unsupported scalar %r" % obj)


def _require(data, key):
    if key not in data:
        raise SchemaError("missing field %r" % key)
    return data[key]


def _scalar(field, obj, parsed):
    """scalar_from_json, looking strings up in and adding them to parsed."""
    if type(obj) is not str:
        return scalar_from_json(field, obj)
    x = parsed.get(obj)
    if x is None:
        x = parsed[obj] = scalar_from_json(field, obj)
    return x


def _parse_vector(field, obj, d, what, parsed):
    if not isinstance(obj, list) or len(obj) != d:
        raise SchemaError("%s must be a list of %d scalars" % (what, d))
    return [_scalar(field, x, parsed) for x in obj]


def _parse_matrix(field, obj, d, what, parsed):
    if not isinstance(obj, list) or len(obj) != d:
        raise SchemaError("%s must be a %d x %d matrix" % (what, d, d))
    return [_parse_vector(field, row, d, what + " row", parsed) for row in obj]


def _parse_tensor(field, obj, d, name, parsed):
    """The (i, j, k, scalar) entries of a dense or sparse mult/comult; the
    algebra constructor checks their indices and rejects repeats."""
    if not isinstance(obj, list):
        raise SchemaError("%s must be a list" % name)
    dense = bool(obj) and isinstance(obj[0], list) and obj[0] and isinstance(obj[0][0], list)
    if dense or not obj:
        if len(obj) != d:
            raise SchemaError("dense %s must have %d layers" % (name, d))
        return [
            (i, j, k, c)
            for i in range(d)
            for j, row in enumerate(
                _parse_matrix(field, obj[i], d, "%s[%d]" % (name, i), parsed)
            )
            for k, c in enumerate(row)
            if c
        ]
    for entry in obj:
        if not isinstance(entry, list) or len(entry) != 4:
            raise SchemaError("sparse %s entries are [i, j, k, scalar]" % name)
    return [(i, j, k, _scalar(field, c, parsed)) for i, j, k, c in obj]


def _dense_rows(cols, d):
    """The JSON matrix of a map with sparse columns cols."""
    rows = [["0"] * d for _ in range(d)]
    for i, col in enumerate(cols):
        for j, c in col:
            rows[j][i] = scalar_to_json(c)
    return rows


def _column_entries(matrix):
    """The (i, j, c) entries with c != 0 of a dense matrix, c at row j and
    column i."""
    return [(i, j, c) for j, row in enumerate(matrix) for i, c in enumerate(row) if c]


def algebra_to_dict(H: HopfStarAlgebra) -> dict:
    return {
        "dim": H.dim,
        "field_order": H.field.n,
        "basis_labels": list(H.labels),
        "mult": [[i, j, k, scalar_to_json(c)] for i, j, k, c in H.mult_entries()],
        "unit": [scalar_to_json(x) for x in H.unit],
        "comult": [[i, j, k, scalar_to_json(c)] for i, j, k, c in H.comult_entries()],
        "counit": [scalar_to_json(x) for x in H.counit],
        "antipode": _dense_rows(H.antipode, H.dim),
        "star": _dense_rows(H.star, H.dim),
    }


def algebra_from_dict(data: dict) -> HopfStarAlgebra:
    if not isinstance(data, dict):
        raise SchemaError("algebra file must contain a JSON object")
    d = _require(data, "dim")
    if not isinstance(d, int) or d < 1:
        raise SchemaError("dim must be a positive integer")
    n = _require(data, "field_order")
    if not isinstance(n, int) or n < 1:
        raise SchemaError("field_order must be a positive integer")
    field = CycField(n)
    labels = _require(data, "basis_labels")
    if not isinstance(labels, list) or len(labels) != d:
        raise SchemaError("basis_labels must list %d strings" % d)
    parsed = {}
    mult = _parse_tensor(field, _require(data, "mult"), d, "mult", parsed)
    unit = _parse_vector(field, _require(data, "unit"), d, "unit", parsed)
    comult = _parse_tensor(field, _require(data, "comult"), d, "comult", parsed)
    counit = _parse_vector(field, _require(data, "counit"), d, "counit", parsed)
    antipode, star = (
        _column_entries(_parse_matrix(field, _require(data, key), d, key, parsed))
        for key in ("antipode", "star")
    )
    return HopfStarAlgebra(
        field, mult, unit, comult, counit, antipode, star, labels=[str(x) for x in labels]
    )


def dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError("invalid JSON in %s: %s" % (path, exc)) from exc


def save_algebra(H: HopfStarAlgebra, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(algebra_to_dict(H)))


def load_algebra(path) -> HopfStarAlgebra:
    return algebra_from_dict(_read_json(path))


def group_to_dict(G: FiniteGroup) -> dict:
    return G.as_dict()


def group_from_dict(data) -> FiniteGroup:
    if not isinstance(data, dict):
        raise SchemaError("group file must contain a JSON object")
    table = _require(data, "table")
    labels = data.get("labels")
    order = _require(data, "order")
    if not isinstance(table, list) or len(table) != order:
        raise SchemaError("table must be an order x order index matrix")
    return FiniteGroup(table, labels)


def save_group(G: FiniteGroup, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(group_to_dict(G)))


def load_group(path) -> FiniteGroup:
    return group_from_dict(_read_json(path))


def action_to_dict(act: GroupAction) -> dict:
    return {
        "group": group_to_dict(act.group),
        "maps": [_dense_rows(m, act.target.dim) for m in act.maps],
    }


def action_from_dict(data, target: HopfStarAlgebra) -> GroupAction:
    if not isinstance(data, dict):
        raise SchemaError("action file must contain a JSON object")
    group = group_from_dict(_require(data, "group"))
    maps_raw = _require(data, "maps")
    if not isinstance(maps_raw, list) or len(maps_raw) != group.order:
        raise SchemaError("maps must list one matrix per group element")
    parsed = {}
    maps = [
        _column_entries(_parse_matrix(target.field, m, target.dim, "action map %d" % t, parsed))
        for t, m in enumerate(maps_raw)
    ]
    return GroupAction(group, target, maps)


def save_action(act: GroupAction, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(action_to_dict(act)))


def load_action(path, target: HopfStarAlgebra) -> GroupAction:
    return action_from_dict(_read_json(path), target)


def ideal_from_dict(data, H: HopfStarAlgebra) -> Subspace:
    if not isinstance(data, dict):
        raise SchemaError("ideal file must contain a JSON object")
    if "subgroup" in data:
        return subgroup_ideal(H, data["subgroup"])
    basis = _require(data, "ideal_basis")
    if not isinstance(basis, list):
        raise SchemaError("ideal_basis must be a list of coefficient vectors")
    parsed = {}
    vecs = [_parse_vector(H.field, v, H.dim, "ideal vector", parsed) for v in basis]
    return Subspace.from_vectors(H.field, H.dim, vecs)


def load_ideal(path, H: HopfStarAlgebra) -> Subspace:
    return ideal_from_dict(_read_json(path), H)


def ideal_to_dict(I: Subspace) -> dict:
    return {"ideal_basis": [[scalar_to_json(x) for x in row] for row in I.basis()]}


def save_ideal(I: Subspace, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(ideal_to_dict(I)))
