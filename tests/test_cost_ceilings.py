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
import hopfcheck.subgroup
from hopfcheck.catalog import CATALOG_NAMES, build_algebra
from hopfcheck.structure import enumerate_quantum_subgroups, property_inheritance_suite

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


def test_catalog_is_covered():
    assert sorted(SUITE_CERTIFICATES) == sorted(CATALOG_NAMES)
    assert sum(SUITE_CERTIFICATES.values()) == 34


@pytest.mark.parametrize("name", sorted(SUITE_CERTIFICATES))
def test_inheritance_suite_certificates(name):
    assert suite_certificates(name) <= SUITE_CERTIFICATES[name]


def test_counts_do_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import json\n"
        "from test_cost_ceilings import SUITE_CERTIFICATES, suite_certificates\n"
        "print(json.dumps({n: suite_certificates(n) for n in sorted(SUITE_CERTIFICATES)}))\n"
    )
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert all(runs[0][n] <= SUITE_CERTIFICATES[n] for n in SUITE_CERTIFICATES)
