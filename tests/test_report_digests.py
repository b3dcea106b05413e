"""The CLI reports are pinned: the sha256 of each report's results and exit
code, and of each file that `quotient` or `build` writes, over the shipped
catalog.

A refactor that keeps the reports byte for byte keeps these digests.  After
a change that is meant to alter a report, print the new table with

    PYTHONPATH=src python3 tests/test_report_digests.py

and replace DIGESTS with it, saying in the change log which reports moved
and why.
"""

import hashlib
import os
import sys

import pytest

from hopfcheck.catalog import CATALOG_NAMES, SUBGROUP_IDEALS, repo_catalog_dir
from hopfcheck.cli import cli_dispatch
from hopfcheck.serialize import dump_json

ALGEBRA_COMMANDS = ("axioms", "haar", "irreps", "subgroups", "props")
IDEAL_COMMANDS = ("normal", "reconstruct", "quotient")
# (N, H) ideal pairs of third-iso chains N inside H, N normal
THIRD_ISO_CHAINS = (("f_d4.center", "f_d4.z4"), ("f_s3.triv", "f_s3.t12"))


def cases():
    """(case id, argv) for every pinned report.  The `--out` path of
    `quotient` and `build` is relative and comes last, so the file is
    written in (and echoed from) the current directory."""
    def cat(fname):
        return os.path.join(repo_catalog_dir(), fname)

    out = []
    for cmd in ALGEBRA_COMMANDS:
        for name in CATALOG_NAMES:
            out.append(("%s %s" % (cmd, name), [cmd, cat(name + ".hopf.json")]))
    for cmd in IDEAL_COMMANDS:
        for key, (algebra, _labels) in sorted(SUBGROUP_IDEALS.items()):
            argv = [cmd, cat(algebra + ".hopf.json"), "--ideal", cat(key + ".ideal.json")]
            if cmd == "quotient":
                argv += ["--out", key + ".quotient.hopf.json"]
            out.append(("%s %s" % (cmd, key), argv))
    for n_key, h_key in THIRD_ISO_CHAINS:
        algebra = SUBGROUP_IDEALS[n_key][0]
        argv = ["third-iso", cat(algebra + ".hopf.json"),
                "--n", cat(n_key + ".ideal.json"), "--h", cat(h_key + ".ideal.json")]
        out.append(("third-iso %s/%s" % (n_key, h_key), argv))
    builds = (
        ("group-algebra s3", ["group-algebra", "--group", cat("s3.group.json")]),
        ("function-algebra s3", ["function-algebra", "--group", cat("s3.group.json")]),
        ("tensor f_z2 f_z3", ["tensor", "--left", cat("f_z2.hopf.json"),
                              "--right", cat("f_z3.hopf.json")]),
        ("crossed f_z3 inversion", ["crossed", "--inner", cat("f_z3.hopf.json"),
                                    "--action", cat("f_z3.inversion.action.json")]),
    )
    for case, args in builds:
        out.append(("build " + case, ["build"] + args + ["--out", "built.hopf.json"]))
    for name in ("s3-pullback", "equivalence-suite"):
        out.append(("demo " + name, ["demo", name]))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv, workdir):
    """The digests of one report, and of the file it writes if any."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        code, rep = cli_dispatch(argv)
        pinned = _sha(dump_json({"exit_code": code, "results": rep["results"]}).encode())
        if "--out" not in argv:
            return pinned
        with open(argv[-1], "rb") as fh:
            return pinned, _sha(fh.read())
    finally:
        os.chdir(here)


DIGESTS = {
    'axioms f_z2': '570f19d5df9ce2dae194e3c11ebce4e50f6abe86efa7a5d0201bffd48921bb03',
    'axioms f_z3': '570f19d5df9ce2dae194e3c11ebce4e50f6abe86efa7a5d0201bffd48921bb03',
    'axioms f_z6': '570f19d5df9ce2dae194e3c11ebce4e50f6abe86efa7a5d0201bffd48921bb03',
    'axioms f_s3': '570f19d5df9ce2dae194e3c11ebce4e50f6abe86efa7a5d0201bffd48921bb03',
    'axioms f_d4': '570f19d5df9ce2dae194e3c11ebce4e50f6abe86efa7a5d0201bffd48921bb03',
    'axioms c_z3': '570f19d5df9ce2dae194e3c11ebce4e50f6abe86efa7a5d0201bffd48921bb03',
    'axioms c_s3': '570f19d5df9ce2dae194e3c11ebce4e50f6abe86efa7a5d0201bffd48921bb03',
    'axioms f_z2_x_f_z3': '570f19d5df9ce2dae194e3c11ebce4e50f6abe86efa7a5d0201bffd48921bb03',
    'axioms f_z3_rtimes_z2': '570f19d5df9ce2dae194e3c11ebce4e50f6abe86efa7a5d0201bffd48921bb03',
    'haar f_z2': 'f4c5abc4f75a7424f33eede8d32ce4d4c12268f19f632116ed0ae8ffadde39ad',
    'haar f_z3': '1c8f4f2ed7da9352d9a927e858d2ad9b3b873e1d37b3a10aad69bd9444ab1f34',
    'haar f_z6': '62044dcfe97e2495885e881c73166123b46acd8f14b847b8c4f3c775ef14eb7b',
    'haar f_s3': '62044dcfe97e2495885e881c73166123b46acd8f14b847b8c4f3c775ef14eb7b',
    'haar f_d4': 'c78acd51b78b08f856d0bfa4e3d53314790dbf547d9f4ab0ffae348d45b189c9',
    'haar c_z3': 'a44e88d5076738b60bd3d01a7c5aa0fea78a0d5676d85bf564301c5d5debbabd',
    'haar c_s3': '6b1b45d1759ef9dee26a4577f9e854196c886700390c5ece0c7d2b1ca2faac5e',
    'haar f_z2_x_f_z3': '62044dcfe97e2495885e881c73166123b46acd8f14b847b8c4f3c775ef14eb7b',
    'haar f_z3_rtimes_z2': '0094d8da792d507373cfa6d58ebdbc8df38d9755e8b885245337841cd7dfa432',
    'irreps f_z2': '37394962bf383f03f1f88301662dc4fadfd02300ce8afca63c3cad47a60c0527',
    'irreps f_z3': 'd4314da5845887bd7ecbe0d8065c64ab26c81e0f577bede201c30456a3a90178',
    'irreps f_z6': '2fbd1d89fdb91b34faf9f91d7aa2088b57b83a27a41a53989b1a7087bd730d67',
    'irreps f_s3': '4554e8df4b5f7b0d927ad5479898b48542a673336736651d8d2dc934e014326d',
    'irreps f_d4': '2b2d04547e7b54d5c59ea2e7ccc022e6133efa056df59e602ee18009e705278e',
    'irreps c_z3': '9e021f338a8f737fb6c07c89bf96b34e0b2199e573dd6a698a2d1e6240a09b75',
    'irreps c_s3': '87f946be608c5f930661490d0b1422e3e38004ca8f9b01cb9628e0c77aabb85e',
    'irreps f_z2_x_f_z3': 'd8db90d5ddcf3ba16808d3e1854aed73b0000879c0efeb928f6e4f00b05f0225',
    'irreps f_z3_rtimes_z2': '374e2efe308a5f55cfa88aa0e9931e9197401a8c392bf2fe24a178b1d598370a',
    'subgroups f_z2': '79209f4e53408e3714d9f306c389e53fd7ef55256d10c363adbda9356d67b865',
    'subgroups f_z3': '8f7e6ace8839a1170b7e9185949fc837551f3d3d95a4125173ad8cb912c998a2',
    'subgroups f_z6': 'c8c3ed0370384f17886df6c78b4c77588a5bbe60b6f976e1b7dfd0e614e7d4c6',
    'subgroups f_s3': '61feec154f8594be4b2af0a9f4ed619622d9193e856ec371dbbda0f9f1976248',
    'subgroups f_d4': 'b4923c11846f9d512216c3fe88a4fa5cb92117cd51941c633669b9da3e1f2e3d',
    'subgroups c_z3': 'ec9e254a53d8510621a2475447bb67f4fcd9dd6fa4b1d1bf6ab344b630fb39ad',
    'subgroups c_s3': 'c19b0ab0dab93736f60de212931fbfd28b8efa12505513bb9ddd84f294e31e39',
    'subgroups f_z2_x_f_z3': '632adb798fc5094811291b97419530948921ac992f7161ee9c84d486fe52ece7',
    'subgroups f_z3_rtimes_z2': '23453a9228555d4b02a94cfb664fbc18918cbf52acc3b68c9e4b1b87643c071c',
    'props f_z2': '4681ee512b772d3832c1e8565bffe31bff3c61277faec3f7246177e36e55ee9d',
    'props f_z3': '4681ee512b772d3832c1e8565bffe31bff3c61277faec3f7246177e36e55ee9d',
    'props f_z6': '488ec86b3d2ecb4e4521a04d167daacdab7def72ce85a7cb43c894f550d6a42e',
    'props f_s3': '342d75b2372758f436107b8ac9ce88e6cbd200d623863d54d4ac6188a6ac4fc9',
    'props f_d4': '3a9ab15088a2c0f72beacc6252cc7c39577ad4b6703b8b6d607f00483b428aa1',
    'props c_z3': '4681ee512b772d3832c1e8565bffe31bff3c61277faec3f7246177e36e55ee9d',
    'props c_s3': 'aca9fe5955cd77cf6b644e2cca12eaff846da3e13da7261526cb462f90532210',
    'props f_z2_x_f_z3': '488ec86b3d2ecb4e4521a04d167daacdab7def72ce85a7cb43c894f550d6a42e',
    'props f_z3_rtimes_z2': 'aca9fe5955cd77cf6b644e2cca12eaff846da3e13da7261526cb462f90532210',
    'normal f_d4.center': '6100361efec3264d0a9016c7c8046ce15b966db563acf5e67c3922b0b3422052',
    'normal f_d4.z4': '149d84118d908c52048717f0e72822d96adbab60023645183bbad1b4b4008d16',
    'normal f_s3.a3': '481ec1b1d3fd0d4e69e4961a5b8347818cf3d3eed863776345a4f79092d51193',
    'normal f_s3.t12': '363a0edc787f2b77c32f0b6c7d99c564e4c9047fb35cf04076674385665e26d1',
    'normal f_s3.triv': '401a90e4ba9999f989c58cfaa8c238d83e2c1e5e37f187975f6d13166566e51c',
    'reconstruct f_d4.center': '7a703e089eaacad6eabc55069327e1c115bb9e7f42e21655de0aec300f1fe54d',
    'reconstruct f_d4.z4': '7a703e089eaacad6eabc55069327e1c115bb9e7f42e21655de0aec300f1fe54d',
    'reconstruct f_s3.a3': '7a703e089eaacad6eabc55069327e1c115bb9e7f42e21655de0aec300f1fe54d',
    'reconstruct f_s3.t12': 'bb33611515d0df63b81d635337d0c4aa4d95b3ff3d1fd6db4944c9fb762543af',
    'reconstruct f_s3.triv': '7a703e089eaacad6eabc55069327e1c115bb9e7f42e21655de0aec300f1fe54d',
    'quotient f_d4.center': ('5ec8ea9cf7e6d96bd9014eb1eb0152a32e3f64d5e47ca42491edfadcf26dda0f', '3cf9ae00400f74077159581d26cbf4590809d964870d16296a33149e3ba6cb8b'),
    'quotient f_d4.z4': ('e8a5c9dff6c0146159451ad9d7f5d6263d5e1c0b94d22a6ec65f2221f1064852', '62f286c2c57c2f970196d787165a4b1c832f6ded220363b22c4f83368966ced8'),
    'quotient f_s3.a3': ('fc40d9b5e1748cd45d0874b2316a1870c9850235b02536eecba8263a2ac1b414', '067fa80e27cd7f05c9221e82f2a1d52c6baf3ef34afe76f3685b3707b89d86ce'),
    'quotient f_s3.t12': ('f081b19ffc89bdb47b14bd7aa34c321a7760d8c0149e8032ba6cb6dba263e6db', '61ee7fb2219d0451f37d5ae5a33add17459548561ba7bb067311102d2ab6a9aa'),
    'quotient f_s3.triv': ('9662c9e84d396d7c6400453627186ffc963d8cc205a278f583e956f731387389', '9d2e5881e2954cfcb7e06d06f898fd8896f66fc2651a6d99b93d8ce3ed14f221'),
    'third-iso f_d4.center/f_d4.z4': 'acdd0449620299ffeec7bb4ed1e4135a193f86ca3f3668746aabd164160cbee3',
    'third-iso f_s3.triv/f_s3.t12': 'da1e0fa048c88d64be49da541cc332937e2a0b6cf9b83e975972b3a65d1d38dc',
    'build group-algebra s3': ('594666fe9f356cfe2978137c97cb9ae4a79c4c6ba540f8caf272de1ae08b6847', 'c4bc458189196997073103f7e28f46f9037a4748900a3e445313e499c2a32525'),
    'build function-algebra s3': ('594666fe9f356cfe2978137c97cb9ae4a79c4c6ba540f8caf272de1ae08b6847', 'e46ef1d7461256346b018d129534614113b7fb3fc4ef43eea0afda3c069b0262'),
    'build tensor f_z2 f_z3': ('594666fe9f356cfe2978137c97cb9ae4a79c4c6ba540f8caf272de1ae08b6847', '8d73a7fcb341408896388281f73786443e584b9a6fb871bdba07b4e6583bbb8b'),
    'build crossed f_z3 inversion': ('594666fe9f356cfe2978137c97cb9ae4a79c4c6ba540f8caf272de1ae08b6847', 'f38b261c0a8baa6ab7055a0080e331a54318ad5290e35185f511f3df7dd70d3c'),
    'demo s3-pullback': '6dc640f12070812cb31ee29e71383872f70f765ffff159547f237a3ae67b3bd2',
    'demo equivalence-suite': '8ac7303017130c018d87b5b3f03d4e2e8458205fcc03f1711003512fca884ceb',
}


CASES = cases()


@pytest.mark.parametrize("case,argv", CASES, ids=[c for c, _ in CASES])
def test_report_digest(case, argv, tmp_path):
    assert digest(argv, str(tmp_path)) == DIGESTS[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        sys.stdout.write("DIGESTS = {\n")
        for case, argv in CASES:
            sys.stdout.write("    %r: %r,\n" % (case, digest(argv, work)))
        sys.stdout.write("}\n")
