"""Deterministic cost ceilings: operation counts pinned at their landing values.

A count of calls does not move with the load of the machine, so a change
that adds work shows here, between timed benchmark runs.  Each count wraps a
function of the program inside the test only; the program is not changed.
A later change may lower a ceiling; raising one loosens the check.
"""

import json
import os
import subprocess
import sys
from contextlib import contextmanager

import pytest

import hopfcheck
import hopfcheck.constructions
import hopfcheck.subgroup
from hopfcheck.catalog import CATALOG_NAMES, build_algebra
from hopfcheck.constructions import (
    FiniteGroup,
    GroupAction,
    crossed_canonical_subgroup,
    crossed_general_subgroup,
    function_algebra,
)
from hopfcheck.corep import peter_weyl
from hopfcheck.cyclotomic import CycScalar
from hopfcheck.hopf import HopfStarAlgebra
from hopfcheck.linalg import Echelon, Subspace
from hopfcheck.structure import (
    enumerate_quantum_subgroups,
    property_inheritance_suite,
    third_isomorphism_check,
)
from hopfcheck.subgroup import is_normal_coset

# _certified_quotient calls in property_inheritance_suite, once G's lattice
# is built: each coset subalgebra's own lattice, and no up-set member, since
# those are G's quotients G/J
SUITE_CERTIFICATES = {
    "c_s3": 3,
    "c_z3": 1,
    "f_d4": 12,
    "f_s3": 3,
    "f_z2": 1,
    "f_z2_x_f_z3": 5,
    "f_z3": 1,
    "f_z3_rtimes_z2": 3,
    "f_z6": 5,
}

# _certified_quotient calls in third_isomorphism_check over the 31 admissible
# chains of f_s3 and f_d4 (acceptance test 4), lattices built first: Q2 on
# each chain, and no H/N, which is N's own quotient
THIRD_ISO_CERTIFICATES = 31

# crossed_product calls and GroupAction constructions in
# crossed_general_subgroup: the quotient's dimension is read off A/I and
# Gamma/K, and no second crossed product is built
CROSSED_CEILINGS = {"crossed_product": 0, "GroupAction": 0}

# calls over the 67 is_normal_coset flags of F(Z2^4), once its lattice is
# built: a product whose factor is the field's one is not made, so the
# products left are the Haar values of h_N pi other than one and the tails
# that Echelon.add scales by an inverse other than one
FLAG_CEILINGS = {"CycScalar.__mul__": 1530, "Echelon.add": 2144}

# calls in peter_weyl of a fresh F(S4): its counit and coassociativity gates,
# the centre of the dual, the spectral idempotents (certified in K[t], with
# no product in the dual) and one span per block
PW_CEILINGS = {"CycScalar.__mul__": 13528, "HopfStarAlgebra.product": 365, "Echelon.add": 539}


@contextmanager
def counting(module, name):
    """Count the calls of module.name made inside the block."""
    original = getattr(module, name)
    calls = [0]

    def wrapped(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(module, name, wrapped)
    try:
        yield calls
    finally:
        setattr(module, name, original)


def suite_certificates(name):
    G = build_algebra(name)
    enumerate_quantum_subgroups(G)
    with counting(hopfcheck.subgroup, "_certified_quotient") as calls:
        property_inheritance_suite(G)
    return calls[0]


def third_iso_certificates():
    algebras = [build_algebra(name) for name in ("f_s3", "f_d4")]
    lattices = [(G, enumerate_quantum_subgroups(G)) for G in algebras]
    chains = 0
    with counting(hopfcheck.subgroup, "_certified_quotient") as calls:
        for G, subs in lattices:
            for N in filter(is_normal_coset, subs):
                for H in subs:
                    if H.ideal <= N.ideal:
                        third_isomorphism_check(G, N, H)
                        chains += 1
    if chains != 31:
        raise AssertionError("f_s3 and f_d4 have 31 admissible chains")
    return calls[0]


def crossed_counts():
    X = build_algebra("f_z3_rtimes_z2")
    A = X.meta["inner"]
    with counting(hopfcheck.constructions, "crossed_product") as cross, \
            counting(GroupAction, "__init__") as action:
        crossed_canonical_subgroup(X)
        crossed_general_subgroup(X, Subspace.zero(A.field, A.dim), ["e"])
    return {"crossed_product": cross[0], "GroupAction": action[0]}


def flag_counts():
    Z2 = FiniteGroup.cyclic(2)
    G = Z2
    for _ in range(3):
        G = FiniteGroup.direct_product(G, Z2)
    qsubs = enumerate_quantum_subgroups(function_algebra(G))
    with counting(CycScalar, "__mul__") as mul, counting(Echelon, "add") as add:
        flags = [is_normal_coset(Q) for Q in qsubs]
    if len(flags) != 67 or not all(flags):
        raise AssertionError("F(Z2^4) has 67 quantum subgroups, all normal")
    return {"CycScalar.__mul__": mul[0], "Echelon.add": add[0]}


def peter_weyl_counts():
    H = function_algebra(FiniteGroup.symmetric(4))
    with counting(CycScalar, "__mul__") as mul, counting(HopfStarAlgebra, "product") as prod, \
            counting(Echelon, "add") as add:
        dims = peter_weyl(H).dims
    if dims != [1, 1, 2, 3, 3]:
        raise AssertionError("F(S4) has irreducibles of dimensions 1, 1, 2, 3, 3")
    return {"CycScalar.__mul__": mul[0], "HopfStarAlgebra.product": prod[0], "Echelon.add": add[0]}


def test_catalog_is_covered():
    assert sorted(SUITE_CERTIFICATES) == sorted(CATALOG_NAMES)
    assert sum(SUITE_CERTIFICATES.values()) == 34


@pytest.mark.parametrize("name", sorted(SUITE_CERTIFICATES))
def test_inheritance_suite_certificates(name):
    assert suite_certificates(name) <= SUITE_CERTIFICATES[name]


def test_third_isomorphism_certificates():
    assert third_iso_certificates() <= THIRD_ISO_CERTIFICATES


def test_crossed_general_subgroup_builds_no_crossed_product():
    counts = crossed_counts()
    assert all(counts[k] <= CROSSED_CEILINGS[k] for k in CROSSED_CEILINGS), counts


def test_normal_coset_flags_of_z2_4():
    counts = flag_counts()
    assert all(counts[k] <= FLAG_CEILINGS[k] for k in FLAG_CEILINGS), counts


def test_peter_weyl_of_s4():
    counts = peter_weyl_counts()
    assert all(counts[k] <= PW_CEILINGS[k] for k in PW_CEILINGS), counts


def test_counts_do_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import json\n"
        "from test_cost_ceilings import (\n"
        "    SUITE_CERTIFICATES, crossed_counts, flag_counts, peter_weyl_counts,\n"
        "    suite_certificates, third_iso_certificates,\n"
        ")\n"
        "counts = {n: suite_certificates(n) for n in sorted(SUITE_CERTIFICATES)}\n"
        "counts['third_iso'] = third_iso_certificates()\n"
        "counts.update(crossed_counts())\n"
        "counts.update(flag_counts())\n"
        "counts.update({'peter_weyl ' + k: v for k, v in peter_weyl_counts().items()})\n"
        "print(json.dumps(counts))\n"
    )
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert all(runs[0][n] <= SUITE_CERTIFICATES[n] for n in SUITE_CERTIFICATES)
    assert runs[0]["third_iso"] <= THIRD_ISO_CERTIFICATES
    assert all(runs[0][k] <= CROSSED_CEILINGS[k] for k in CROSSED_CEILINGS)
    assert all(runs[0][k] <= FLAG_CEILINGS[k] for k in FLAG_CEILINGS)
    assert all(runs[0]["peter_weyl " + k] <= PW_CEILINGS[k] for k in PW_CEILINGS)
