import filecmp
import json
import os
import random
import subprocess
import sys

import pytest

import hopfcheck
import hopfcheck.cyclotomic as cyclotomic
from hopfcheck.catalog import (
    CATALOG_NAMES,
    build_algebra,
    build_group,
    repo_catalog_dir,
    write_catalog,
)
from hopfcheck.constructions import (
    FiniteGroup,
    GroupAction,
    function_algebra,
    group_algebra,
    inversion_action,
    lift_algebra,
)
from hopfcheck.cyclotomic import CycField
from hopfcheck.errors import SchemaError
from hopfcheck.hopf import HopfStarAlgebra, check_axioms
from hopfcheck.linalg import Subspace
from hopfcheck.serialize import (
    action_from_dict,
    algebra_from_dict,
    algebra_to_dict,
    dump_json,
    group_from_dict,
    load_action,
    load_algebra,
    load_group,
    load_ideal,
    save_action,
    save_algebra,
    save_group,
    save_ideal,
    scalar_from_json,
    scalar_to_json,
)


# --- scalar encoding -------------------------------------------------------


def test_scalar_rational_form():
    field = CycField(6)
    assert scalar_to_json(field.one) == "1"
    assert scalar_to_json(field.from_rational(-7) * field.from_rational(2).inverse()) == "-7/2"
    assert scalar_from_json(field, "3/4") == field.from_rational(3) * field.from_rational(4).inverse()


def test_scalar_cyclotomic_form():
    field = CycField(6)
    z = field.zeta()
    enc = scalar_to_json(z)
    assert isinstance(enc, dict) and enc["order"] == 6
    assert scalar_from_json(field, enc) == z
    # values from a smaller field are lifted on read
    assert scalar_from_json(CycField(12), enc) == CycField(12).zeta(2)


def test_scalar_rejects_garbage():
    field = CycField(6)
    with pytest.raises(SchemaError):
        scalar_from_json(field, "one half")
    with pytest.raises(SchemaError):
        scalar_from_json(field, {"order": 6})
    with pytest.raises(SchemaError):
        scalar_from_json(field, [1, 2])
    # the order is checked before its field is built
    with pytest.raises(SchemaError):
        scalar_from_json(field, {"order": 1601, "coeffs": ["1"]})
    assert 1601 not in cyclotomic._FIELDS


# --- algebra round trips -----------------------------------------------------


def test_algebra_round_trip_all(tmp_path, algebras):
    for name in CATALOG_NAMES:
        H = algebras[name]
        path = os.path.join(tmp_path, name + ".hopf.json")
        save_algebra(H, path)
        H2 = load_algebra(path)
        assert H2.dim == H.dim
        assert H2.field is H.field
        assert H2.mult == H.mult and H2.comult == H.comult
        assert H2.unit == H.unit and H2.counit == H.counit
        assert H2.antipode == H.antipode and H2.star == H.star
        assert H2.labels == H.labels


def test_loaded_algebra_passes_axioms(tmp_path):
    H = build_algebra("f_d4")
    path = os.path.join(tmp_path, "a.hopf.json")
    save_algebra(H, path)
    assert check_axioms(load_algebra(path)).ok


def test_save_is_byte_deterministic(tmp_path, algebras):
    p1 = os.path.join(tmp_path, "one.hopf.json")
    p2 = os.path.join(tmp_path, "two.hopf.json")
    save_algebra(algebras["c_s3"], p1)
    save_algebra(algebras["c_s3"], p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert open(p1).read().endswith("\n")


def test_dump_json_sorts_keys():
    s = dump_json({"b": 1, "a": [2, 3]})
    assert s.index('"a"') < s.index('"b"')
    assert s.endswith("\n")
    assert json.loads(s) == {"a": [2, 3], "b": 1}


def densified(data):
    """Algebra file data with mult and comult rewritten in the dense form."""
    d = data["dim"]
    out = dict(data)
    for key in ("mult", "comult"):
        dense = [[["0"] * d for _ in range(d)] for _ in range(d)]
        for i, j, k, c in data[key]:
            dense[i][j][k] = c
        out[key] = dense
    return out


def test_dense_tensors_accepted(algebras):
    H = algebras["f_z2"]
    H2 = algebra_from_dict(densified(algebra_to_dict(H)))
    assert H2.mult == H.mult and H2.comult == H.comult


@pytest.mark.parametrize("name", sorted(CATALOG_NAMES))
def test_dense_and_sparse_files_load_equal(name):
    with open(os.path.join(repo_catalog_dir(), name + ".hopf.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    sparse = algebra_from_dict(data)
    dense = algebra_from_dict(densified(data))
    assert dense.mult == sparse.mult and dense.comult == sparse.comult
    assert len(sparse.mult_entries()) == len(data["mult"])
    assert len(sparse.comult_entries()) == len(data["comult"])
    assert algebra_to_dict(dense) == data
    assert same_constants(sparse, reference_algebra(data))


def test_repeated_sparse_entry_rejected(algebras):
    data = algebra_to_dict(algebras["f_z2"])
    for key in ("mult", "comult"):
        bad = dict(data)
        bad[key] = data[key] + [data[key][-1][:3] + ["1/2"]]
        with pytest.raises(SchemaError) as exc:
            algebra_from_dict(bad)
        assert "repeated %s entry" % key in str(exc.value)


def test_schema_errors_name_the_field(algebras):
    data = algebra_to_dict(algebras["f_z2"])
    bad = dict(data)
    del bad["counit"]
    with pytest.raises(SchemaError) as exc:
        algebra_from_dict(bad)
    assert "counit" in str(exc.value)

    bad = dict(data)
    bad["unit"] = ["1"]
    with pytest.raises(SchemaError) as exc:
        algebra_from_dict(bad)
    assert "unit" in str(exc.value)

    bad = dict(data)
    bad["field_order"] = 0
    with pytest.raises(SchemaError):
        algebra_from_dict(bad)


def test_triple_indices_validated(algebras):
    data = algebra_to_dict(algebras["f_z2"])
    bad = dict(data)
    bad["mult"] = [[0, 0, 7, "1"]]
    with pytest.raises(SchemaError):
        algebra_from_dict(bad)


def reference_algebra(data):
    """The algebra of a file's data with every scalar parsed on its own and
    the dense antipode and star passed with their zero entries."""
    field = CycField(data["field_order"])

    def sc(x):
        return scalar_from_json(field, x)

    def dense(rows):
        return [(i, j, sc(c)) for j, row in enumerate(rows) for i, c in enumerate(row)]

    return HopfStarAlgebra(
        field,
        [(i, j, k, sc(c)) for i, j, k, c in data["mult"]],
        [sc(x) for x in data["unit"]],
        [(i, j, k, sc(c)) for i, j, k, c in data["comult"]],
        [sc(x) for x in data["counit"]],
        dense(data["antipode"]),
        dense(data["star"]),
        labels=data["basis_labels"],
    )


def same_constants(A, B):
    return (A.field, A.labels, A.unit, A.counit, A.mult, A.comult, A.antipode, A.star) == (
        B.field, B.labels, B.unit, B.counit, B.mult, B.comult, B.antipode, B.star
    )


def test_recurring_strings_load_like_a_per_entry_parse():
    # strings that share prefixes or spell one value twice, with integers
    # and scalar objects between them; the result need not be an algebra
    rng = random.Random(20261019)
    pool = ["0", "1", "-1", "1/2", "2/4", "12", "-1/2", "3/7", 2, {"order": 1, "coeffs": ["5"]}]
    with open(os.path.join(repo_catalog_dir(), "f_d4.hopf.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    for key in ("mult", "comult"):
        data[key] = [entry[:3] + [rng.choice(pool)] for entry in data[key]]
    for key in ("unit", "counit"):
        data[key] = [rng.choice(pool) for _ in data[key]]
    for key in ("antipode", "star"):
        data[key] = [[rng.choice(pool) for _ in row] for row in data[key]]
    assert same_constants(algebra_from_dict(data), reference_algebra(data))


@pytest.mark.parametrize("build", [function_algebra, group_algebra])
def test_s4_over_zeta12_loads_like_a_per_entry_parse(build):
    # the file form that perfbench generates: sparse mult and comult, dense
    # antipode and star, every scalar a "0" or "1" string
    data = algebra_to_dict(lift_algebra(build(FiniteGroup.symmetric(4)), 12))
    assert {c for row in data["antipode"] + data["star"] for c in row} == {"0", "1"}
    assert same_constants(algebra_from_dict(data), reference_algebra(data))


@pytest.mark.parametrize("key", ["antipode", "star"])
@pytest.mark.parametrize("bad", ["one half", "1/0"])
def test_bad_scalar_in_a_dense_matrix_rejected(algebras, key, bad):
    data = algebra_to_dict(algebras["f_s3"])
    data[key] = [list(row) for row in data[key]]
    data[key][4][2] = bad
    with pytest.raises(SchemaError, match="^bad rational %r$" % bad):
        algebra_from_dict(data)


def inversion_action_data():
    with open(os.path.join(repo_catalog_dir(), "f_z3.inversion.action.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_catalog_action_loads_like_a_per_entry_parse():
    F = build_algebra("f_z3")
    data = inversion_action_data()
    maps = [
        [(i, j, scalar_from_json(F.field, c)) for j, row in enumerate(m) for i, c in enumerate(row)]
        for m in data["maps"]
    ]
    want = GroupAction(group_from_dict(data["group"]), F, maps).maps
    assert action_from_dict(data, F).maps == want == inversion_action(F).maps


def test_bad_scalar_in_an_action_map_rejected():
    data = inversion_action_data()
    data["maps"][1][0][0] = "one half"
    with pytest.raises(SchemaError, match="^bad rational 'one half'$"):
        action_from_dict(data, build_algebra("f_z3"))


# --- groups, ideals, actions -------------------------------------------------


def test_group_round_trip(tmp_path):
    G = FiniteGroup.dihedral(4)
    path = os.path.join(tmp_path, "g.group.json")
    save_group(G, path)
    G2 = load_group(path)
    assert G2.table == G.table and G2.labels == G.labels


def test_group_table_validated(tmp_path):
    path = os.path.join(tmp_path, "bad.group.json")
    with open(path, "w") as fh:
        fh.write('{"order": 2, "table": [[0, 1], [1, 1]], "labels": ["e", "g"]}')
    with pytest.raises(SchemaError):
        load_group(path)


def test_ideal_round_trip_subgroup_form(tmp_path, algebras):
    H = algebras["f_s3"]
    I = load_ideal(os.path.join(repo_catalog_dir(), "f_s3.a3.ideal.json"), H)
    assert I.dim == 3  # functions vanishing on the three rotations
    path = os.path.join(tmp_path, "i.ideal.json")
    save_ideal(I, path)
    I2 = load_ideal(path, H)
    assert I2 == I


def test_ideal_basis_form(tmp_path, algebras):
    H = algebras["f_z2"]
    vec = [H.field.one, -H.field.one]
    I = Subspace.from_vectors(H.field, 2, [vec])
    path = os.path.join(tmp_path, "i.ideal.json")
    save_ideal(I, path)
    I2 = load_ideal(path, H)
    assert I2 == I and I2.dim == 1


def test_ideal_wrong_ambient_rejected(tmp_path, algebras):
    data = {"ideal_basis": [["1", "0", "0"]]}
    path = os.path.join(tmp_path, "bad.ideal.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(data))
    with pytest.raises(SchemaError):
        load_ideal(path, algebras["f_z2"])


def test_subgroup_ideal_on_loaded_algebra(tmp_path):
    # the subset route must work on algebras read back from disk
    H = build_algebra("f_s3")
    path = os.path.join(tmp_path, "f.hopf.json")
    save_algebra(H, path)
    H2 = load_algebra(path)
    from hopfcheck.constructions import subgroup_ideal

    I = subgroup_ideal(H2, ("e", "(123)", "(132)"))
    assert I.dim == 3
    assert I == subgroup_ideal(H, ("e", "(123)", "(132)"))


def test_action_round_trip(tmp_path):
    F = build_algebra("f_z3")
    act = inversion_action(F)
    path = os.path.join(tmp_path, "a.action.json")
    save_action(act, path)
    act2 = load_action(path, F)
    assert act2.group.table == act.group.table
    assert act2.maps == act.maps


def test_action_target_dim_checked(tmp_path):
    F = build_algebra("f_z3")
    act = inversion_action(F)
    path = os.path.join(tmp_path, "a.action.json")
    save_action(act, path)
    with pytest.raises(SchemaError):
        load_action(path, build_algebra("f_z2"))


# --- golden corpus -----------------------------------------------------------


def test_catalog_regenerates_byte_identical(tmp_path):
    outdir = os.path.join(tmp_path, "catalog")
    written = write_catalog(outdir)
    assert written
    golden = repo_catalog_dir()
    names = sorted(os.listdir(golden))
    assert sorted(os.listdir(outdir)) == names
    for name in names:
        assert filecmp.cmp(
            os.path.join(golden, name), os.path.join(outdir, name), shallow=False
        ), name


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_catalog_help_prints_usage_and_writes_nothing(tmp_path, flag):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "hopfcheck.catalog", flag],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: python3 -m hopfcheck.catalog")
    assert os.listdir(tmp_path) == []


def test_catalog_files_load(algebras):
    golden = repo_catalog_dir()
    for name in CATALOG_NAMES:
        H = load_algebra(os.path.join(golden, name + ".hopf.json"))
        assert H.dim == algebras[name].dim
    for gname in ("z2", "z3", "z6", "s3", "d4"):
        G = load_group(os.path.join(golden, gname + ".group.json"))
        assert G.order == build_group(gname).order


def test_unit_structure_constants_are_the_field_singletons():
    """Every structure constant equal to 0, 1 or -1 of a loaded catalog
    algebra is its field's zero, one or minus_one, so that products with
    the unit constants of point-mass and group bases reach the identity
    shortcut of CycScalar.__mul__."""
    golden = repo_catalog_dir()
    for name in CATALOG_NAMES:
        H = load_algebra(os.path.join(golden, name + ".hopf.json"))
        F = H.field
        consts = [c for row in H.mult for terms in row for _, c in terms]
        consts += [c for terms in H.comult for _, _, c in terms]
        consts += [c for col in H.antipode + H.star for _, c in col]
        consts += list(H.unit) + list(H.counit)
        units = [c for c in consts if c == 1 or c == -1 or not c]
        assert units, name
        for c in units:
            assert c is F.one or c is F.minus_one or c is F.zero, (name, c)
