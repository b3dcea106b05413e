import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import hopfcheck.structure
from hopfcheck.catalog import repo_catalog_dir
from hopfcheck.cli import cli_dispatch, main
from hopfcheck.serialize import dump_json, load_algebra


def cat(name):
    return os.path.join(repo_catalog_dir(), name)


def test_axioms_report_shape():
    code, rep = cli_dispatch(["axioms", cat("f_s3.hopf.json")])
    assert code == 0
    assert sorted(rep) == ["command", "exit_code", "inputs", "results", "version"]
    assert rep["exit_code"] == 0
    assert rep["command"] == ["axioms", cat("f_s3.hopf.json")]
    checks = rep["results"]["checks"]
    assert len(checks) == 20 and all(checks.values())
    assert rep["results"]["ok"] is True
    digest = hashlib.sha256(open(cat("f_s3.hopf.json"), "rb").read()).hexdigest()
    assert rep["inputs"][cat("f_s3.hopf.json")] == "sha256:" + digest


def test_haar_command():
    code, rep = cli_dispatch(["haar", cat("f_s3.hopf.json")])
    assert code == 0
    res = rep["results"]
    assert res["haar"] == ["1/6"] * 6
    assert res["unit_value"] == "1"
    assert res["left_invariant"] and res["right_invariant"]


def test_irreps_command():
    code, rep = cli_dispatch(["irreps", cat("f_s3.hopf.json")])
    assert code == 0
    res = rep["results"]
    assert res["dims"] == [1, 1, 2]
    assert res["triv_index"] == 1
    assert res["conjugates"] == [0, 1, 2]
    assert res["fusion"][2][2] == [1, 1, 1]
    assert res["dimension_check"] is True


def test_subgroups_command():
    code, rep = cli_dispatch(["subgroups", cat("f_s3.hopf.json")])
    assert code == 0
    res = rep["results"]
    assert res["subalgebra_dims"] == [1, 2, 6]
    assert res["subgroup_dims"] == [1, 2, 2, 2, 3, 6]
    assert res["ideal_dims"] == [5, 4, 4, 4, 3, 0]
    assert res["normal_flags"] == [True, False, False, False, True, True]


def test_normal_command_exit_codes():
    code, rep = cli_dispatch(
        ["normal", cat("f_s3.hopf.json"), "--ideal", cat("f_s3.a3.ideal.json")]
    )
    assert code == 0
    assert rep["results"]["normal"] is True
    assert rep["results"]["trivial_set"] == [0, 1]
    assert rep["results"]["agree"] is True

    code, rep = cli_dispatch(
        ["normal", cat("f_s3.hopf.json"), "--ideal", cat("f_s3.t12.ideal.json")]
    )
    assert code == 1
    res = rep["results"]
    assert res["normal"] is False and res["agree"] is True
    assert res["quotient_dim"] == 2 and res["ideal_dim"] == 4


def test_quotient_command(tmp_path):
    out = str(tmp_path / "quot.hopf.json")
    code, rep = cli_dispatch(
        ["quotient", cat("f_s3.hopf.json"), "--ideal", cat("f_s3.a3.ideal.json"), "--out", out]
    )
    assert code == 0
    assert rep["results"]["quotient_dim"] == 3 and rep["results"]["ideal_dim"] == 3
    Q = load_algebra(out)
    assert Q.dim == 3
    code, rep = cli_dispatch(["axioms", out])
    assert code == 0 and rep["results"]["ok"]


def test_reconstruct_command():
    code, rep = cli_dispatch(
        ["reconstruct", cat("f_s3.hopf.json"), "--ideal", cat("f_s3.a3.ideal.json")]
    )
    assert code == 0
    assert rep["results"] == {
        "normal": True,
        "reconstruction": True,
        "exact_sequence": True,
        "phi_identities": True,
    }
    # a non-normal subgroup still reconstructs, only exactness is lost
    code, rep = cli_dispatch(
        ["reconstruct", cat("f_s3.hopf.json"), "--ideal", cat("f_s3.t12.ideal.json")]
    )
    assert code == 0
    assert rep["results"] == {
        "normal": False,
        "reconstruction": True,
        "exact_sequence": False,
        "phi_identities": True,
    }


def test_reconstruct_reports_phi_failure_under_optimize():
    # a wrong convolution unit breaks only the identity id - s pi = [(eps 1 - id) phi] * id
    import hopfcheck

    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    code = (
        "import json\n"
        "import hopfcheck.subgroup as subgroup\n"
        "from hopfcheck.cli import cli_dispatch\n"
        "assert False, 'asserts are live'\n"
        "subgroup.counit_unit = lambda H: [()] * H.dim\n"
        "code, rep = cli_dispatch(['reconstruct', %r, '--ideal', %r])\n"
        "print(code, json.dumps(rep['results'], sort_keys=True))\n"
    ) % (cat("f_s3.hopf.json"), cat("f_s3.a3.ideal.json"))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, results = proc.stdout.split(" ", 1)
    assert exit_code == "1"
    assert json.loads(results) == {
        "normal": True,
        "reconstruction": True,
        "exact_sequence": True,
        "phi_identities": False,
    }


def test_seeded_splitting_mismatch_exits_3_under_optimize():
    # a seeded rerun of the splitting that finds different blocks is a theorem failure
    import hopfcheck

    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    code = (
        "import json\n"
        "import hopfcheck.cli as cli\n"
        "assert False, 'asserts are live'\n"
        "real = cli.peter_weyl\n"
        "def reseeded(H, gauge=0):\n"
        "    P = real(H, gauge=gauge)\n"
        "    if gauge:\n"
        "        P._blocks = list(reversed(P.blocks()))\n"
        "    return P\n"
        "cli.peter_weyl = reseeded\n"
        "for seed in ('0', '3'):\n"
        "    code, rep = cli.cli_dispatch(['irreps', %r, '--seed', seed])\n"
        "    print(code, rep['results'].get('error'), rep['results'].get('detail'))\n"
    ) % cat("f_s3.hopf.json")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "0 None None",
        "3 TheoremViolation seeded splitting changed the result",
    ]


def test_third_iso_command():
    code, rep = cli_dispatch(
        [
            "third-iso",
            cat("f_d4.hopf.json"),
            "--n",
            cat("f_d4.center.ideal.json"),
            "--h",
            cat("f_d4.z4.ideal.json"),
        ]
    )
    assert code == 0
    res = rep["results"]
    assert res["claim_a_N_normal_in_H"] and res["claim_b_theta_image"]
    assert res["claim_c_double_quotient"] and res["claim_d_H_over_N_normal"]
    assert res["dims"] == {"G": 8, "A_H": 4, "A_N": 2, "A_GH": 2, "double_quotient": 2}


def test_third_iso_rejects_bad_chain():
    code, rep = cli_dispatch(
        [
            "third-iso",
            cat("f_s3.hopf.json"),
            "--n",
            cat("f_s3.a3.ideal.json"),
            "--h",
            cat("f_s3.t12.ideal.json"),
        ]
    )
    assert code == 1
    assert rep["results"]["error"] == "ContainmentViolated"
    assert "ker(theta)" in rep["results"]["detail"]


def test_third_iso_rejects_non_normal_n():
    code, rep = cli_dispatch(
        [
            "third-iso",
            cat("f_s3.hopf.json"),
            "--n",
            cat("f_s3.t12.ideal.json"),
            "--h",
            cat("f_s3.t12.ideal.json"),
        ]
    )
    assert code == 2
    assert rep["results"] == {
        "error": "SchemaError",
        "detail": "N must be a normal quantum subgroup",
    }


def test_props_command():
    code, rep = cli_dispatch(["props", cat("c_s3.hopf.json")])
    assert code == 0
    res = rep["results"]
    assert res["property_F"] is False and res["F_witness_dim"] == 2
    assert res["property_FD"] is True and res["FD_witness_quotient_dim"] is None
    assert res["inheritance"]["subgroups_inherit_FD"] is True


def test_props_decides_each_subgroup_once(monkeypatch):
    # property_FD_check is memoised, so the inheritance suite reuses the
    # answer props already has instead of deciding every subgroup again
    seen = []
    real = hopfcheck.structure.normality_report

    def counting(Q, *args):
        seen.append(Q)
        return real(Q, *args)

    monkeypatch.setattr(hopfcheck.structure, "normality_report", counting)
    code, rep = cli_dispatch(["props", cat("f_d4.hopf.json")])
    assert code == 0
    assert rep["results"]["property_FD"] is False
    # FD stops at the first non-normal subgroup; each one before it is decided once
    assert seen and len({id(Q) for Q in seen}) == len(seen)
    assert seen[-1].quotient.dim == rep["results"]["FD_witness_quotient_dim"]


def test_build_commands(tmp_path):
    fn = str(tmp_path / "f.hopf.json")
    code, rep = cli_dispatch(["build", "function-algebra", "--group", cat("s3.group.json"), "--out", fn])
    assert code == 0 and rep["results"]["dim"] == 6

    ga = str(tmp_path / "c.hopf.json")
    code, rep = cli_dispatch(["build", "group-algebra", "--group", cat("s3.group.json"), "--out", ga])
    assert code == 0

    tn = str(tmp_path / "t.hopf.json")
    code, rep = cli_dispatch(
        ["build", "tensor", "--left", cat("f_z2.hopf.json"), "--right", cat("f_z3.hopf.json"), "--out", tn]
    )
    assert code == 0 and rep["results"]["dim"] == 6 and rep["results"]["field_order"] == 6

    xr = str(tmp_path / "x.hopf.json")
    code, rep = cli_dispatch(
        [
            "build",
            "crossed",
            "--inner",
            cat("f_z3.hopf.json"),
            "--action",
            cat("f_z3.inversion.action.json"),
            "--out",
            xr,
        ]
    )
    assert code == 0 and rep["results"]["dim"] == 6

    for path in (fn, ga, tn, xr):
        code, rep = cli_dispatch(["axioms", path])
        assert code == 0 and rep["results"]["ok"]

    code, rep = cli_dispatch(["build", "crossed", "--out", str(tmp_path / "bad.json")])
    assert code == 2
    assert "requires --inner" in rep["results"]["detail"]


def test_build_respects_field_order_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HOPFCHECK_FIELD_ORDER", "12")
    out = str(tmp_path / "f12.hopf.json")
    code, rep = cli_dispatch(["build", "function-algebra", "--group", cat("z3.group.json"), "--out", out])
    assert code == 0 and rep["results"]["field_order"] == 12
    assert load_algebra(out).field.n == 12


def test_json_report_is_seed_independent(tmp_path, capsys):
    j1 = str(tmp_path / "r1.json")
    j2 = str(tmp_path / "r2.json")
    rc1 = main(["irreps", cat("f_s3.hopf.json"), "--json", j1, "--seed", "7"])
    rc2 = main(["irreps", cat("f_s3.hopf.json"), "--json", j2, "--seed", "99"])
    capsys.readouterr()
    assert rc1 == rc2 == 0
    b1 = open(j1, "rb").read()
    assert b1 == open(j2, "rb").read()
    assert b1.endswith(b"\n")
    rep = json.loads(b1)
    # the destination and gauge flags are not part of the logical command
    assert rep["command"] == ["irreps", cat("f_s3.hopf.json")]


def test_json_flag_writes_the_same_report_in_both_forms(tmp_path, capsys):
    j1 = str(tmp_path / "r1.json")
    j2 = str(tmp_path / "r2.json")
    rc1 = main(["axioms", cat("f_z2.hopf.json"), "--json", j1])
    rc2 = main(["axioms", cat("f_z2.hopf.json"), "--json=" + j2])
    capsys.readouterr()
    assert rc1 == rc2 == 0
    assert os.path.isfile(j2)
    assert open(j1, "rb").read() == open(j2, "rb").read()


def test_abbreviated_options_are_usage_errors(tmp_path, capsys):
    f = cat("f_z2.hopf.json")
    out = str(tmp_path / "out.json")
    for argv in (
        ["axioms", f, "--jso", out],
        ["--jso", out, "axioms", f],
        ["axioms", f, "--se", "5"],
        ["--se", "5", "axioms", f],
    ):
        assert main(argv) == 2, argv
    capsys.readouterr()
    assert os.listdir(tmp_path) == []


def test_dispatch_is_deterministic():
    _, a = cli_dispatch(["subgroups", cat("c_s3.hopf.json")])
    _, b = cli_dispatch(["subgroups", cat("c_s3.hopf.json")])
    assert dump_json(a) == dump_json(b)


def test_usage_errors(tmp_path):
    assert cli_dispatch(["frobnicate"])[0] == 2
    assert cli_dispatch([])[0] == 2
    code, rep = cli_dispatch(["axioms", str(tmp_path / "missing.hopf.json")])
    assert code == 2 and rep["results"]["error"] == "FileNotFoundError"
    junk = tmp_path / "junk.hopf.json"
    junk.write_text("{not json")
    assert cli_dispatch(["axioms", str(junk)])[0] == 2


def test_repeated_sparse_entry_exits_2(tmp_path):
    with open(cat("f_s3.hopf.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    i, j, k, _ = data["mult"][0]
    data["mult"].append([i, j, k, "2"])
    path = tmp_path / "repeated.hopf.json"
    path.write_text(dump_json(data))
    code, rep = cli_dispatch(["axioms", str(path)])
    assert code == 2 and rep["exit_code"] == 2
    assert rep["results"] == {
        "error": "SchemaError",
        "detail": "repeated mult entry (%d, %d, %d)" % (i, j, k),
    }


MALFORMED_GROUPS = {
    "entry": {"order": 2, "table": [[0, "x"], [1, 0]]},
    "flat_table": {"order": 2, "table": [5, 6]},
    "labels": {"order": 2, "table": [[0, 1], [1, 0]], "labels": 7},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GROUPS))
def test_malformed_group_file_exits_2(case, tmp_path):
    path = tmp_path / "bad.group.json"
    path.write_text(json.dumps(MALFORMED_GROUPS[case]))
    out = tmp_path / "f.hopf.json"
    code, rep = cli_dispatch(["build", "function-algebra", "--group", str(path), "--out", str(out)])
    assert code == 2 and rep["results"]["error"] == "SchemaError"
    assert not out.exists()


# a bool is not an index, although Python counts True as the int 1
MALFORMED_SUBGROUPS = {"label": ["nope"], "scalar": 5, "index": [0, 99], "bool": [True]}


@pytest.mark.parametrize("case", sorted(MALFORMED_SUBGROUPS))
def test_malformed_subgroup_file_exits_2(case, tmp_path):
    path = tmp_path / "bad.ideal.json"
    path.write_text(json.dumps({"subgroup": MALFORMED_SUBGROUPS[case]}))
    code, rep = cli_dispatch(["normal", cat("f_s3.hopf.json"), "--ideal", str(path)])
    assert code == 2 and rep["results"]["error"] == "SchemaError"


def test_demo_pullback():
    code, rep = cli_dispatch(["demo", "s3-pullback"])
    assert code == 0
    assert rep["results"] == {
        "expected_failure": True,
        "pullback_holds": False,
        "dim_I0": 1,
        "dim_intersection": 2,
        "counterexample_reproduced": True,
    }


def test_demo_equivalence_suite():
    code, rep = cli_dispatch(["demo", "equivalence-suite"])
    assert code == 0
    res = rep["results"]
    assert res["total_subgroups"] == 36 and res["disagreements"] == 0
    assert len(res["algebras"]) == 9


def test_console_script(tmp_path):
    exe = shutil.which("hopfcheck")
    assert exe is not None
    out = str(tmp_path / "rep.json")
    proc = subprocess.run(
        [exe, "axioms", cat("f_s3.hopf.json"), "--json", out],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ok: True" in proc.stdout
    assert json.load(open(out))["exit_code"] == 0
