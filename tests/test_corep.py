import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import hopfcheck
import hopfcheck.corep
from hopfcheck.catalog import CATALOG_NAMES, build_algebra
from hopfcheck.constructions import FiniteGroup, function_algebra, group_algebra
from hopfcheck.corep import Corepresentation, conjugate, fusion, peter_weyl
from hopfcheck.errors import (
    AxiomsFailed,
    HopfcheckError,
    SchemaError,
    SplittingFailed,
    TheoremViolation,
)
from hopfcheck.hopf import HopfStarAlgebra, check_axioms, coproduct_slice, dual
from hopfcheck.linalg import (
    Subspace,
    sparse_image,
    sparse_transpose,
    sparse_vector,
    tensor_vec,
    zero_vec,
)
from hopfcheck.splitting import left_trace, split_center

from dense_maps import dense_comult, dense_of, reference_block
from test_hopf import AXIOM_INPUTS, axiom_input


def comult_apply(H, u):
    """Image of a sparse vector under the comultiplication, flattened to a
    dense vector of length d*d."""
    return dense_comult(H, dense_of(H, u))


# --- block decompositions ----------------------------------------------------


def test_irrep_dimensions(algebras):
    assert peter_weyl(algebras["f_s3"]).dims == [1, 1, 2]
    assert peter_weyl(algebras["f_d4"]).dims == [1, 1, 1, 1, 2]
    assert peter_weyl(algebras["c_s3"]).dims == [1] * 6
    assert peter_weyl(algebras["f_z6"]).dims == [1] * 6
    assert peter_weyl(algebras["f_z3_rtimes_z2"]).dims == [1] * 6


def test_dimension_sum_rule(algebras):
    for name in CATALOG_NAMES:
        H = algebras[name]
        P = peter_weyl(H)
        assert sum(d * d for d in P.dims) == H.dim
        assert sum(b.dim for b in P.blocks()) == H.dim


def test_blocks_are_independent(algebras):
    H = algebras["f_s3"]
    P = peter_weyl(H)
    total = Subspace.zero(H.field, H.dim)
    for b in P.blocks():
        assert total.intersect(b).dim == 0
        total = total.sum_with(b)
    assert total.dim == H.dim


def test_trivial_corep_is_the_unit(algebras):
    for name in ("f_s3", "c_s3", "f_d4"):
        H = algebras[name]
        P = peter_weyl(H)
        triv = P.coreps[P.triv_index]
        assert triv.dim == 1
        assert dense_of(H, triv.entries[0][0]) == list(H.unit)


def test_every_corep_verifies(algebras):
    for name in CATALOG_NAMES:
        P = peter_weyl(algebras[name])
        for c in P.coreps:
            assert c.verify() is None


def test_corep_counit_and_comult_identities(algebras):
    H = algebras["f_s3"]
    P = peter_weyl(H)
    c = P.coreps[2]
    assert c.dim == 2
    for i in range(2):
        for j in range(2):
            eps = H.counit_of(c.entries[i][j])
            assert eps.is_one() if i == j else eps.is_zero()
            lhs = comult_apply(H, c.entries[i][j])
            rhs = zero_vec(H.field, H.dim * H.dim)
            for k in range(2):
                t = tensor_vec(dense_of(H, c.entries[i][k]), dense_of(H, c.entries[k][j]))
                rhs = [a + b for a, b in zip(rhs, t)]
            assert lhs == rhs


def test_group_algebra_coreps_are_group_likes(algebras):
    H = algebras["c_s3"]
    P = peter_weyl(H)
    seen = set()
    for c in P.coreps:
        u = dense_of(H, c.entries[0][0])
        assert comult_apply(H, c.entries[0][0]) == tensor_vec(u, u)
        nonzero = [i for i, x in enumerate(u) if not x.is_zero()]
        assert len(nonzero) == 1 and u[nonzero[0]].is_one()
        seen.add(nonzero[0])
    assert seen == set(range(6))


# --- Haar orthogonality --------------------------------------------------------


def test_haar_vanishes_off_trivial_block(algebras):
    for name in ("f_s3", "f_d4", "c_s3"):
        H = algebras[name]
        P = peter_weyl(H)
        for idx, c in enumerate(P.coreps):
            for i in range(c.dim):
                for j in range(c.dim):
                    val = H.haar_of(c.entries[i][j])
                    if idx == P.triv_index:
                        assert val.is_one()
                    else:
                        assert val.is_zero()


def test_entry_orthogonality_gram(algebras):
    # h(u_ij u_rs^*) = delta_ir delta_js / dim for the two dimensional block
    H = algebras["f_s3"]
    c = peter_weyl(H).coreps[2]
    half = H.field.from_rational(Fraction(1, 2))
    pairs = [(i, j) for i in range(2) for j in range(2)]
    gram = [
        [
            H.haar_of(H.product(c.entries[i][j], H.star_vec(c.entries[r][s])))
            for (r, s) in pairs
        ]
        for (i, j) in pairs
    ]
    for a in range(4):
        for b in range(4):
            assert gram[a][b] == (half if a == b else H.field.zero)


def test_character_orthonormality(algebras):
    for name in ("f_s3", "f_d4"):
        H = algebras[name]
        P = peter_weyl(H)
        chars = [c.character() for c in P.coreps]
        for a, xa in enumerate(chars):
            for b, xb in enumerate(chars):
                val = H.haar_of(H.product(xa, H.star_vec(xb)))
                assert val.is_one() if a == b else val.is_zero()


def test_standard_character_values(algebras):
    H = algebras["f_s3"]
    c = peter_weyl(H).coreps[2]
    by_label = dict(zip(H.labels, dense_of(H, c.character())))
    assert by_label["e"].as_fraction() == 2
    for t in ("(12)", "(13)", "(23)"):
        assert by_label[t].is_zero()
    for r in ("(123)", "(132)"):
        assert by_label[r].as_fraction() == -1


# --- fusion rules ---------------------------------------------------------------


def test_fusion_table_of_s3(algebras):
    P = peter_weyl(algebras["f_s3"])
    N = fusion(P)
    assert N == [
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 0, 1], [0, 0, 1], [1, 1, 1]],
    ]
    assert P.triv_index == 1
    assert [conjugate(P, i, N) for i in range(3)] == [0, 1, 2]


def test_fusion_with_trivial_is_identity(algebras):
    for name in ("f_s3", "f_d4", "c_s3"):
        P = peter_weyl(algebras[name])
        N = fusion(P)
        t = P.triv_index
        r = len(P.coreps)
        for m in range(r):
            assert N[t][m] == [1 if n == m else 0 for n in range(r)]
            assert N[m][t] == [1 if n == m else 0 for n in range(r)]


def test_fusion_respects_dimensions(algebras):
    for name in ("f_s3", "f_d4", "f_z3_rtimes_z2"):
        P = peter_weyl(algebras[name])
        N = fusion(P)
        dims = P.dims
        r = len(dims)
        for l in range(r):
            for m in range(r):
                assert sum(N[l][m][n] * dims[n] for n in range(r)) == dims[l] * dims[m]


def test_fusion_of_group_algebra_is_group_law(algebras):
    H = algebras["c_s3"]
    P = peter_weyl(H)
    N = fusion(P)
    # identify each corep with its supporting group element
    elem = [c.entries[0][0][0][0] for c in P.coreps]
    from hopfcheck.catalog import build_group

    G = build_group("s3")
    for l in range(6):
        for m in range(6):
            prod = G.mul(elem[l], elem[m])
            assert N[l][m] == [1 if elem[n] == prod else 0 for n in range(6)]


def test_conjugates_pair_inverse_group_likes(algebras):
    H = algebras["c_s3"]
    P = peter_weyl(H)
    N = fusion(P)
    elem = [c.entries[0][0][0][0] for c in P.coreps]
    from hopfcheck.catalog import build_group

    G = build_group("s3")
    for i in range(6):
        assert elem[conjugate(P, i, N)] == G.inv(elem[i])


def test_conjugate_block_must_hold_the_star_image(monkeypatch):
    # C(Z3) with its blocks rotated by one: fusion still names the conjugate
    # of each group-like g as g^-1, but g* = g^-1 lies outside the block
    # now listed for it
    H = build_algebra("c_z3")
    P = peter_weyl(H)
    N = fusion(P)
    assert [conjugate(P, i, N) for i in range(3)] == [0, 2, 1]
    monkeypatch.setattr(P, "_blocks", P.blocks()[1:] + P.blocks()[:1])
    for i in range(3):
        with pytest.raises(TheoremViolation, match="conjugate block does not match the star image"):
            conjugate(P, i, N)


# --- caching and gauge ------------------------------------------------------------


def test_peter_weyl_is_cached(algebras):
    H = algebras["f_d4"]
    assert peter_weyl(H) is peter_weyl(H)


def test_forced_recompute_agrees(algebras):
    H = algebras["f_s3"]
    P0 = peter_weyl(H)
    for gauge in (1, 3):
        P1 = peter_weyl(H, gauge=gauge)
        assert P1 is not P0
        assert P1.dims == P0.dims
        assert P1.blocks() == P0.blocks()
    # the cache still holds the original
    assert peter_weyl(H) is P0


def test_forced_recompute_leaves_the_memo():
    H = function_algebra(FiniteGroup.symmetric(3))
    peter_weyl(H, gauge=1)
    assert H._pw_cache is None
    P0 = peter_weyl(H)
    assert peter_weyl(H, gauge=1) is not P0
    assert peter_weyl(H) is P0


def test_each_corepresentation_is_verified_once(monkeypatch):
    calls = []
    verify = Corepresentation.verify
    monkeypatch.setattr(Corepresentation, "verify", lambda c: calls.append(c.dim) or verify(c))
    S3 = FiniteGroup.symmetric(3)
    # the split blocks of F(S3) have dimensions 1, 1, 2
    peter_weyl(function_algebra(S3))
    assert sorted(calls) == [1, 1, 2]
    # the six group-likes of C(S3) are split too, one block of dimension 1 each
    calls.clear()
    peter_weyl(group_algebra(S3))
    assert calls == [1] * 6


def test_corepresentation_shape_is_checked():
    H = function_algebra(FiniteGroup.cyclic(2))
    with pytest.raises(SchemaError):
        Corepresentation(H, [])
    with pytest.raises(SchemaError):
        Corepresentation(H, [[sparse_vector(H.unit), sparse_vector(H.unit)]])


def test_corrupted_entry_fails_the_comultiplication_law(algebras):
    H = algebras["f_s3"]
    c = next(c for c in peter_weyl(H).coreps if c.dim == 2)
    entries = [list(row) for row in c.entries]
    # adding the unit to u_11 breaks the law at (0, 1), (1, 0) and (1, 1); the
    # check meets (s, t) = (e, e) first, where rho(e^e) = diag(1, 2) differs
    # from its square at entry (1, 1) alone
    entries[1][1] = sparse_vector([a + b for a, b in zip(dense_of(H, entries[1][1]), H.unit)])
    bad = Corepresentation(H, entries)
    assert bad.verify() == "comultiplication law fails at entry (1, 1)"
    with pytest.raises(TheoremViolation, match=r"comultiplication law fails at entry \(1, 1\)"):
        hopfcheck.corep._verified(bad)


def test_zero_matrix_fails_the_counit_law(algebras):
    H = algebras["f_s3"]
    bad = Corepresentation(H, [[()]])
    assert bad.verify() == "counit law fails at entry (0, 0)"
    with pytest.raises(TheoremViolation, match=r"counit law fails at entry \(0, 0\)"):
        hopfcheck.corep._verified(bad)


def test_identity_antipode_fails_the_inverse_law():
    H = function_algebra(FiniteGroup.symmetric(3))
    assert check_axioms(H).ok
    c = next(c for c in peter_weyl(H).coreps if c.dim == 2)
    one = H.field.one
    # an unverified copy of F(S3) whose antipode is the identity: u still
    # satisfies the comultiplication and counit laws there, but S(u) = u is
    # not the inverse of the 2-dimensional u
    broken = HopfStarAlgebra(
        H.field,
        H.mult_entries(),
        H.unit,
        H.comult_entries(),
        H.counit,
        [(i, i, one) for i in range(H.dim)],
        H.star_entries(),
        labels=H.labels,
    )
    assert H.verified and not broken.verified
    assert c.verify() is None
    bad = Corepresentation(broken, c.entries)
    assert bad.verify() == "antipode is not a matrix inverse at entry (0, 0)"
    with pytest.raises(TheoremViolation, match=r"antipode is not a matrix inverse"):
        hopfcheck.corep._verified(bad)


def test_verified_algebra_skips_the_inverse_law(monkeypatch):
    H = function_algebra(FiniteGroup.symmetric(3))
    coreps = peter_weyl(H).coreps
    assert check_axioms(H).ok

    def forbidden(self, x):
        raise AssertionError("the inverse law is implied on a verified algebra")

    monkeypatch.setattr(HopfStarAlgebra, "antipode_vec", forbidden)
    assert all(c.verify() is None for c in coreps)


# --- pinned output ----------------------------------------------------------------

# sha256 prefixes of pw_digest for every catalog algebra at gauges 0 and 3,
# taken when corepresentation entries were still dense vectors
PW_DIGESTS = {
    "c_s3/0": "7a195f41ac8f753a",
    "c_s3/3": "7a195f41ac8f753a",
    "c_z3/0": "224f995a4ae25013",
    "c_z3/3": "224f995a4ae25013",
    "f_d4/0": "4f3fec72e724bf7e",
    "f_d4/3": "48316e52792c6040",
    "f_s3/0": "fc66026fa64c8f3d",
    "f_s3/3": "fc66026fa64c8f3d",
    "f_z2/0": "748f76b19337a706",
    "f_z2/3": "748f76b19337a706",
    "f_z2_x_f_z3/0": "f0b8ada2304f9c50",
    "f_z2_x_f_z3/3": "f0b8ada2304f9c50",
    "f_z3/0": "e0d7a59f2a30e610",
    "f_z3/3": "e0d7a59f2a30e610",
    "f_z3_rtimes_z2/0": "6f14960bb76116ec",
    "f_z3_rtimes_z2/3": "6f14960bb76116ec",
    "f_z6/0": "5afa14d3bc14f0ad",
    "f_z6/3": "5afa14d3bc14f0ad",
}


def pw_digest(P):
    """The sha256 prefix of the dims, trivial index, block rows and entries."""

    def vec(v):
        return [[j, repr(c)] for j, c in v]

    data = {
        "dims": P.dims,
        "trivial": P.triv_index,
        "blocks": [[vec(row) for row in b.rows] for b in P.blocks()],
        "entries": [[[vec(v) for v in row] for row in c.entries] for c in P.coreps],
    }
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(PW_DIGESTS))
def test_peter_weyl_output_is_pinned(case):
    name, gauge = case.split("/")
    assert pw_digest(peter_weyl(build_algebra(name), gauge=int(gauge))) == PW_DIGESTS[case]


# --- checks survive python -O -----------------------------------------------------


def test_mismatched_coefficient_space_raises_under_optimize(monkeypatch):
    # a coefficient space (image of (id (x) p) Delta) that is empty cannot
    # match the dual block of p
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    code = (
        "import hopfcheck.corep as corep\n"
        "from hopfcheck.constructions import FiniteGroup, function_algebra\n"
        "from hopfcheck.errors import TheoremViolation\n"
        "assert False, 'asserts are live'\n"
        "real = corep.coproduct_slice\n"
        "corep.coproduct_slice = lambda H, f, side: real(H, f, side) if side == 'left' else [()] * H.dim\n"
        "try:\n"
        "    corep.peter_weyl(function_algebra(FiniteGroup.symmetric(3)))\n"
        "except TheoremViolation as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "coefficient space does not match the dual block"
    real = hopfcheck.corep.coproduct_slice
    monkeypatch.setattr(
        hopfcheck.corep,
        "coproduct_slice",
        lambda H, f, side: real(H, f, side) if side == "left" else [()] * H.dim,
    )
    with pytest.raises(TheoremViolation, match="coefficient space does not match the dual block"):
        peter_weyl(function_algebra(FiniteGroup.symmetric(3)))


# --- one size source, completeness by proof -----------------------------------


@pytest.mark.parametrize("name", AXIOM_INPUTS)
def test_block_size_is_the_trace(name, s3_crossed, drinfeld_s3):
    # the reference is the span of p D that _extract_block no longer forms
    # for n = 1: the rows p e_t of the matrix of (p (x) id) Delta
    H = axiom_input(name, s3_crossed, drinfeld_s3)
    d = H.dim
    for p in split_center(H):
        block_D = sparse_image(H.field, d, sparse_transpose(d, coproduct_slice(H, p, "left")))
        assert left_trace(H, p) == block_D.dim
    trace = dual(H)._memo["trace"]
    assert sorted(c.dim ** 2 for c in peter_weyl(H).coreps) == sorted(b.dim for b in peter_weyl(H).blocks())
    assert dual(H)._memo["trace"] is trace


def with_constant_changed(H, comult=None, counit=None):
    """An unverified copy of H with the given coproduct entries or counit."""
    return HopfStarAlgebra(
        H.field,
        H.mult_entries(),
        H.unit,
        H.comult_entries() if comult is None else comult,
        H.counit if counit is None else counit,
        H.antipode_entries(),
        H.star_entries(),
        labels=H.labels,
    )


def single_faults(H):
    """(label, copy) for each coproduct entry of H raised by 1 and each
    counit entry c flipped to 1 - c, one at a time."""
    one = H.field.one
    entries = H.comult_entries()
    for n, (i, j, k, c) in enumerate(entries):
        changed = entries[:n] + [(i, j, k, c + one)] + entries[n + 1:]
        yield "comult%r" % ((i, j, k),), with_constant_changed(H, comult=changed)
    for i, c in enumerate(H.counit):
        counit = H.counit[:i] + [one - c] + H.counit[i + 1:]
        yield "counit%d" % i, with_constant_changed(H, counit=counit)


def fault_outcome(H, label):
    X = dict(single_faults(H))[label]
    try:
        peter_weyl(X)
    except HopfcheckError as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return "accepted"


@pytest.mark.parametrize("build", [function_algebra, group_algebra])
def test_every_single_fault_raises(build):
    H = build(FiniteGroup.symmetric(3))
    faults = list(single_faults(H))
    assert len(faults) == len(H.comult_entries()) + H.dim
    gated = 0
    for label, X in faults:
        assert not X.verified
        failed = {c.name for c in check_axioms(with_constant_changed(X)).failures()}
        with pytest.raises(HopfcheckError) as info:
            peter_weyl(X)
        if label.startswith("counit"):
            assert isinstance(info.value, AxiomsFailed), label
        if "coassociativity" in failed and "counit" not in failed:
            assert isinstance(info.value, AxiomsFailed), label
            assert str(info.value) == "not a Hopf *-algebra: coassociativity", label
            gated += 1
        assert X._pw_cache is None
    assert gated == {function_algebra: 25, group_algebra: 0}[build]


def test_single_fault_raises_under_optimize():
    # Delta(e_1) of F(S3) raised at e_2 (x) e_3 breaks coassociativity, and
    # the gate stops it before the splitting (whose trace of a central
    # idempotent would be no square)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        "from hopfcheck.constructions import FiniteGroup, function_algebra\n"
        "import test_corep\n"
        "assert False, 'asserts are live'\n"
        "H = function_algebra(FiniteGroup.symmetric(3))\n"
        "print(test_corep.fault_outcome(H, 'comult(1, 2, 3)'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    want = fault_outcome(function_algebra(FiniteGroup.symmetric(3)), "comult(1, 2, 3)")
    assert want == "AxiomsFailed: not a Hopf *-algebra: coassociativity"
    assert proc.stdout.strip() == want


def test_counit_failure_raises_before_splitting(monkeypatch):
    def forbidden(H):
        raise AssertionError("split before the counit law was certified")

    monkeypatch.setattr(hopfcheck.corep, "split_center", forbidden)
    H = function_algebra(FiniteGroup.symmetric(3))
    # a zero counit breaks (id (x) eps) Delta = id
    X = with_constant_changed(H, counit=[H.field.zero] * H.dim)
    with pytest.raises(AxiomsFailed, match="counit"):
        peter_weyl(X)
    with pytest.raises(AxiomsFailed, match="counit"):
        peter_weyl(X, gauge=2)
    assert X._pw_cache is None and "trace" not in dual(X)._memo


def test_coassociativity_gate_reuses_the_dual_generators_pass(monkeypatch):
    # the gate and Corepresentation.verify read one certified associativity
    # pass of the dual, kept under "dual_generators"
    calls = []
    assoc_failures = hopfcheck.hopf._assoc_failures

    def counted(A, gens):
        calls.append(A)
        return assoc_failures(A, gens)

    monkeypatch.setattr(hopfcheck.hopf, "_assoc_failures", counted)
    H = function_algebra(FiniteGroup.symmetric(3))
    assert not H.verified and peter_weyl(H).dims == [1, 1, 2]
    assert len(calls) == 1 and H._memo["dual_generators"] is not None


def test_verified_algebra_skips_the_counit_gate(monkeypatch):
    H = function_algebra(FiniteGroup.symmetric(3))
    assert check_axioms(H).ok

    def forbidden(A):
        raise AssertionError("the counit law is an axiom of a verified algebra")

    monkeypatch.setattr(hopfcheck.corep, "_unit_failures", forbidden)
    assert peter_weyl(H).dims == [1, 1, 2]


# --- each block spanned once, from its entries ----------------------------------


BLOCK_INPUTS = AXIOM_INPUTS + ["F(S4)", "C(S4)"]


def block_input(name, s3_crossed, drinfeld_s3):
    if name == "F(S4)":
        return function_algebra(FiniteGroup.symmetric(4))
    if name == "C(S4)":
        return group_algebra(FiniteGroup.symmetric(4))
    return axiom_input(name, s3_crossed, drinfeld_s3)


@pytest.mark.parametrize("name", BLOCK_INPUTS)
def test_blocks_are_the_images_of_the_central_idempotents(name, s3_crossed, drinfeld_s3):
    # the reference spans all d columns of (id (x) p_l) Delta densely, the
    # coefficient space that _extract_block no longer forms
    H = block_input(name, s3_crossed, drinfeld_s3)
    refs = [reference_block(H, dense_of(H, p)).rows for p in split_center(H)]
    for gauge in (0, 3):
        P = peter_weyl(H, gauge)
        got = [b.basis() for b in P.blocks()]
        assert all(rows in refs for rows in got)
        assert len(got) == len(refs) and all(got.count(rows) == 1 for rows in got)
        assert [c.block() for c in P.coreps] == P.blocks()


class DependentEntries(Corepresentation):
    """The last diagonal entry replaced by the first, so that the entries of
    a block of size n > 1 span n^2 - 1 dimensions; verify accepts anything."""

    def __init__(self, algebra, entries):
        entries = [list(row) for row in entries]
        entries[-1][-1] = entries[0][0]
        super().__init__(algebra, entries)

    def verify(self):
        return None


def dependent_entries_outcome():
    real = hopfcheck.corep.Corepresentation
    hopfcheck.corep.Corepresentation = DependentEntries
    try:
        peter_weyl(function_algebra(FiniteGroup.symmetric(3)))
    except SplittingFailed as exc:
        return str(exc)
    finally:
        hopfcheck.corep.Corepresentation = real
    return "accepted"


def test_dependent_entries_raise_under_optimize():
    want = dependent_entries_outcome()
    assert want.endswith("matrix entries do not span their block; retry with a larger field order (a multiple of 6)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import test_corep\n"
        "assert False, 'asserts are live'\n"
        "print(test_corep.dependent_entries_outcome())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == want
