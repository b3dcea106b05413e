import pytest

from hopfcheck.catalog import CATALOG_NAMES, build_algebra
from hopfcheck.constructions import (
    FiniteGroup,
    GroupAction,
    crossed_product,
    function_algebra,
    lift_algebra,
)
from hopfcheck.linalg import Matrix

from dense_maps import rebase_by


@pytest.fixture(scope="session")
def algebras():
    """All catalog algebras, built once; Peter-Weyl caches accumulate."""
    return {name: build_algebra(name) for name in CATALOG_NAMES}


def build_s3_crossed():
    """F(S3) x| Z2, Z2 acting by conjugation with the transposition (12).

    The 12-dimensional result is neither commutative nor cocommutative; it
    has 7 quantum subgroups, 4 of them normal.
    """
    S3 = FiniteGroup.symmetric(3)
    F = function_algebra(S3)
    field, n = F.field, S3.order
    t = S3.index_of("(12)")
    ident = [(j, j, field.one) for j in range(n)]
    conj = [(j, S3.mul(S3.mul(t, j), t), field.one) for j in range(n)]
    action = GroupAction(FiniteGroup.cyclic(2), F, [ident, conj])
    return crossed_product(F, action)


@pytest.fixture(scope="session")
def s3_crossed():
    """A builder of F(S3) x| Z2 by conjugation; each call is a fresh algebra."""
    return build_s3_crossed


def build_drinfeld_double_s3():
    """D(S3) = F(S3) x| S3, S3 acting by conjugation.

    The 36-dimensional result is neither commutative nor cocommutative.
    """
    S3 = FiniteGroup.symmetric(3)
    F = function_algebra(S3)
    one = F.field.one
    conj = [
        [(j, S3.mul(S3.mul(t, j), S3.inv(t)), one) for j in range(S3.order)]
        for t in range(S3.order)
    ]
    return crossed_product(F, GroupAction(S3, F, conj))


@pytest.fixture(scope="session")
def drinfeld_s3():
    """A builder of D(S3); each call is a fresh algebra."""
    return build_drinfeld_double_s3


def build_irrational_gram():
    """F(Z2) over Q(zeta_8) in the basis f_0 = t d_0 + d_1, f_1 = d_1, with
    t = 1 + sqrt 2 and d_g the point masses.

    The Haar state is h(d_g) = 1/2, so the Gram matrix h(f_i* f_j) is
    [[2 + sqrt 2, 1/2], [1/2, 1/2]]: both of its LDL pivots are irrational,
    and haar_positive certifies their signs in Q(zeta_8).
    """
    F = lift_algebra(function_algebra(FiniteGroup.cyclic(2)), 8)
    field = F.field
    t = field.one + field.zeta() + field.zeta(7)
    return rebase_by(F, Matrix(field, [[t, field.zero], [field.one, field.one]]))


def pytest_configure(config):
    config.acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
