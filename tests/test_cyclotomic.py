import cmath
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfcheck
from hopfcheck.cyclotomic import CycField, CycScalar, cyclotomic_polynomial
from hopfcheck.errors import FieldOrderMismatch, TheoremViolation
from hopfcheck.hopf import check_axioms
from hopfcheck.serialize import scalar_from_json

from conftest import build_irrational_gram

ORDERS = (1, 2, 3, 4, 6, 8, 12)


def numeric(x):
    return x.embed()


def close(a, b, tol=1e-9):
    return abs(a - b) < tol


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def scalars(n):
    phi = len(cyclotomic_polynomial(n)) - 1
    field = CycField(n)

    def build(coeffs):
        out = field.zero
        for k, c in enumerate(coeffs):
            out = out + field.from_rational(c) * field.zeta(k)
        return out

    return st.lists(rationals, min_size=phi, max_size=phi).map(build)


# --- basic identities ---------------------------------------------------


def test_zeta_is_primitive_root():
    for n in ORDERS:
        field = CycField(n)
        z = field.zeta()
        acc = field.one
        for k in range(1, n):
            acc = acc * z
            assert not acc.is_one()
        assert (acc * z).is_one()


def test_known_powers():
    assert CycField(6).zeta(3) == -CycField(6).one
    assert CycField(4).zeta(2) == -CycField(4).one
    assert CycField(8).zeta(4) == -CycField(8).one
    z3 = CycField(3).zeta()
    assert (z3 * z3 * z3).is_one()


def test_fields_are_cached():
    assert CycField(6) is CycField(6)
    assert CycField(6) is not CycField(12)


def test_embedding_of_zeta_matches_exponential():
    for n in ORDERS:
        z = CycField(n).zeta()
        assert close(numeric(z), cmath.exp(2j * cmath.pi / n))


def test_mixed_order_arithmetic_rejected():
    with pytest.raises(FieldOrderMismatch):
        CycField(3).zeta() + CycField(4).zeta()


# --- field axioms, checked via hypothesis -------------------------------


@settings(max_examples=60, deadline=None)
@given(scalars(12), scalars(12), scalars(12))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(scalars(8))
def test_additive_and_multiplicative_units(a):
    field = CycField(8)
    assert a + field.zero == a
    assert a * field.one == a
    assert a - a == field.zero


@settings(max_examples=60, deadline=None)
@given(scalars(12))
def test_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert (a * a.inverse()).is_one()


@settings(max_examples=60, deadline=None)
@given(scalars(12), scalars(12))
def test_embedding_is_homomorphism(a, b):
    assert close(numeric(a + b), numeric(a) + numeric(b))
    assert close(numeric(a * b), numeric(a) * numeric(b))


# --- conjugation --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(scalars(12), scalars(12))
def test_conjugation_involutive_and_multiplicative(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@settings(max_examples=60, deadline=None)
@given(scalars(12))
def test_conjugation_matches_complex_conjugate(a):
    assert close(numeric(a.conjugate()), numeric(a).conjugate())


@settings(max_examples=60, deadline=None)
@given(scalars(12))
def test_norm_is_real_nonnegative(a):
    norm = a * a.conjugate()
    assert norm.is_real()
    if a.is_zero():
        assert norm.is_zero()
    else:
        assert norm.sign() == 1


# --- real scalars: sign and ordering ------------------------------------


def test_sign_of_rationals():
    field = CycField(6)
    assert field.from_rational(Fraction(3, 7)).sign() == 1
    assert field.from_rational(Fraction(-2, 5)).sign() == -1
    assert field.zero.sign() == 0


def test_sign_of_irrational_reals():
    # z8 + z8^7 = sqrt(2), z12 + z12^11 = sqrt(3)
    f8 = CycField(8)
    root2 = f8.zeta() + f8.zeta(7)
    assert root2.is_real() and root2.sign() == 1
    assert (-root2).sign() == -1
    f12 = CycField(12)
    root3 = f12.zeta() + f12.zeta(11)
    assert (root3 - f12.one).sign() == 1
    assert (root3 - f12.from_rational(2)).sign() == -1


def test_sign_rejects_non_real():
    with pytest.raises(ValueError):
        CycField(4).zeta().sign()


def test_sign_agrees_with_numeric_oracle():
    rng = random.Random(20260815)
    field = CycField(12)
    for _ in range(50):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        a = field.zero
        for k, c in enumerate(coeffs):
            a = a + field.from_rational(c) * field.zeta(k)
        x = a + a.conjugate()
        assert x.is_real()
        val = numeric(x).real
        if abs(val) > 1e-8:
            assert x.sign() == (1 if val > 0 else -1)


SIGN_ORDERS = (5, 7, 8, 12, 15, 24, 30)


def interval_sign(x):
    """The sign of a real scalar's numerator sum a_k cos(2 pi k / n) by
    mpmath's interval arithmetic at 1024 bits; the interval must exclude 0."""
    old = mpmath.iv.prec
    mpmath.iv.prec = 1024
    try:
        total = mpmath.iv.mpf(0)
        for k, a in enumerate(x.num):
            if a:
                total += a * mpmath.iv.cos(2 * mpmath.iv.pi * k / x.field.n)
    finally:
        mpmath.iv.prec = old
    assert total.a > 0 or total.b < 0
    return 1 if total.a > 0 else -1


def real_scalar(field, rng):
    a = field.from_integers([rng.randint(-9, 9) for _ in range(field.phi)], rng.randint(1, 6))
    return a + a.conjugate()


@pytest.mark.parametrize("n", SIGN_ORDERS)
def test_sign_agrees_with_interval_arithmetic(n):
    rng = random.Random("sign %d" % n)
    field = CycField(n)
    xs = [real_scalar(field, rng) for _ in range(40)]
    xs += [x * real_scalar(field, rng) for x in xs[:20]]
    irrational = [x for x in xs if not x.is_rational()]
    assert len(irrational) > 50
    assert [x.sign() for x in irrational] == [interval_sign(x) for x in irrational]
    assert all((-x).sign() == -x.sign() for x in irrational)


@pytest.mark.parametrize("n", SIGN_ORDERS)
def test_sign_of_near_cancellations(n):
    # b (z + z^-1) - r with r the integer nearest 2 b cos(2 pi / n): |x| < 1
    # while the coefficients grow like b, up to 3^40
    field = CycField(n)
    c = field.zeta() + field.zeta(n - 1)
    for e in range(4, 44, 4):
        b = 3**e
        with mpmath.workprec(256):
            r = int(mpmath.nint(2 * b * mpmath.cos(2 * mpmath.pi / n)))
        x = b * c - r
        assert not x.is_rational()
        assert interval_sign(x - 1) == -1 and interval_sign(x + 1) == 1
        assert x.sign() == interval_sign(x)


def test_haar_positive_certifies_irrational_pivots(monkeypatch):
    seen = []
    sign = CycScalar.sign

    def spy(x):
        if not x.is_rational():
            seen.append(x)
        return sign(x)

    monkeypatch.setattr(CycScalar, "sign", spy)
    H = build_irrational_gram()
    report = check_axioms(H)
    assert report.ok and report["haar_positive"].ok
    field = H.field
    root2 = field.zeta() - field.zeta(3)
    assert seen == [2 + root2, Fraction(1, 4) + root2 / 8]
    assert [interval_sign(x) for x in seen] == [1, 1]


def test_sort_key_total_order():
    field = CycField(6)
    xs = [field.zeta(k) for k in range(6)] + [field.zero, field.one + field.zeta()]
    keys = [x.sort_key() for x in xs]
    assert len(set(keys)) == len(set(repr(x) for x in xs))
    # equal scalars share a key
    assert (field.zeta(3)).sort_key() == (-field.one).sort_key()


# --- rational detection and lifting -------------------------------------


def test_rational_round_trip():
    field = CycField(12)
    for q in (Fraction(0), Fraction(5, 3), Fraction(-7, 2)):
        x = field.from_rational(q)
        assert x.is_rational()
        assert x.as_fraction() == q


def test_hidden_rational_is_detected():
    # z6 + z6^5 = 1 even though both summands are irrational
    field = CycField(6)
    x = field.zeta() + field.zeta(5)
    assert x.is_rational()
    assert x.as_fraction() == 1


def test_as_fraction_rejects_irrational():
    with pytest.raises(ValueError):
        CycField(8).zeta().as_fraction()


def test_lift_preserves_value():
    small = CycField(6)
    big = CycField(12)
    x = small.one + small.zeta() * small.from_rational(Fraction(1, 2))
    y = big.lift(x)
    assert y.field is big
    assert close(numeric(x), numeric(y))
    assert big.lift(small.zeta()) == big.zeta(2)


def test_lift_requires_divisibility():
    with pytest.raises(FieldOrderMismatch):
        CycField(8).lift(CycField(6).zeta())


def test_lift_is_ring_homomorphism():
    small, big = CycField(4), CycField(12)
    a = small.one + small.zeta()
    b = small.zeta() - small.from_rational(3)
    assert big.lift(a * b) == big.lift(a) * big.lift(b)
    assert big.lift(a + b) == big.lift(a) + big.lift(b)


# --- cyclotomic polynomial table ----------------------------------------


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_degree_matches_euler_phi():
    phi = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 8: 4, 12: 4}
    for n, d in phi.items():
        assert len(cyclotomic_polynomial(n)) == d + 1


def test_repr_round_trip_examples():
    field = CycField(6)
    half = field.from_rational(Fraction(1, 2))
    assert repr(field.one + field.zeta()) == "1 + z6"
    assert repr(-half + half * field.zeta()) == "-1/2 + 1/2*z6"


# --- differential check against a Fraction-per-coefficient reference ----

DIFF_ORDERS = (1, 3, 4, 5, 8, 12)


def ref_reduce(n, poly):
    """Remainder of a Fraction polynomial modulo the monic Phi_n."""
    cyclo = cyclotomic_polynomial(n)
    phi = len(cyclo) - 1
    p = [Fraction(c) for c in poly] + [Fraction(0)] * max(0, phi - len(poly))
    for k in range(len(p) - 1, phi - 1, -1):
        c = p[k]
        if c:
            for j, m in enumerate(cyclo):
                p[k - phi + j] -= c * m
    return tuple(p[:phi])


def ref_mul(n, a, b):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return ref_reduce(n, prod)


def ref_conjugate(n, a):
    out = [Fraction(0)] * (2 * n)
    for k, c in enumerate(a):
        out[(n - k) % n] += c
    return ref_reduce(n, out)


def ref_inverse(n, a):
    """Solve a * y == 1 by Gauss-Jordan elimination on the multiplication matrix."""
    phi = len(a)
    cols = [ref_mul(n, a, [Fraction(int(i == j)) for i in range(phi)]) for j in range(phi)]
    rows = [[cols[j][i] for j in range(phi)] + [Fraction(int(i == 0))] for i in range(phi)]
    for c in range(phi):
        p = next(r for r in range(c, phi) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(phi):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return tuple(row[phi] for row in rows)


def ref_hash(n, a):
    if not any(a[1:]):
        return hash(a[0])
    return hash((n, a))


def assert_canonical(x):
    assert len(x.num) == x.field.phi
    assert all(type(a) is int for a in x.num) and type(x.den) is int
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.num == (0,) * x.field.phi and x.den == 1


def assert_matches(x, ref):
    assert_canonical(x)
    assert x.coeffs == ref
    assert x.sort_key() == tuple((c.numerator, c.denominator) for c in ref)
    assert hash(x) == ref_hash(x.field.n, ref)
    assert bool(x) == any(ref)


diff_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def diff_pairs(draw):
    n = draw(st.sampled_from(DIFF_ORDERS))
    phi = len(cyclotomic_polynomial(n)) - 1
    coeffs = st.lists(diff_rationals, min_size=phi, max_size=phi)
    return n, tuple(draw(coeffs)), tuple(draw(coeffs))


@settings(max_examples=200, deadline=None)
@given(diff_pairs())
def test_differential_against_fraction_reference(case):
    n, ra, rb = case
    F = CycField(n)
    a, b = F.scalar(ra), F.scalar(rb)
    assert_matches(a, ra)
    assert_matches(b, rb)
    assert_matches(a + b, tuple(x + y for x, y in zip(ra, rb)))
    assert_matches(a - b, tuple(x - y for x, y in zip(ra, rb)))
    assert_matches(-a, tuple(-x for x in ra))
    assert_matches(a * b, ref_mul(n, ra, rb))
    # the unit-factor shortcut of __mul__, on both sides
    one = (Fraction(1),) + (Fraction(0),) * (F.phi - 1)
    minus_one = tuple(-x for x in one)
    units = (
        (F.one, one),
        (-F.one, minus_one),
        (F.scalar(1), one),
        (F.from_rational(-1), minus_one),
    )
    for u, ru in units:
        assert_matches(a * u, ref_mul(n, ra, ru))
        assert_matches(u * a, ref_mul(n, ru, ra))
    assert_matches(a.conjugate(), ref_conjugate(n, ra))
    if any(ra):
        assert_matches(a.inverse(), ref_inverse(n, ra))
        assert_matches(b / a, ref_mul(n, rb, ref_inverse(n, ra)))
    assert (a == b) == (ra == rb)
    assert (a.sort_key() == b.sort_key()) == (ra == rb)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DIFF_ORDERS), diff_rationals, diff_rationals)
def test_differential_rational_scalars(n, p, q):
    F = CycField(n)
    phi = F.phi
    x = F.from_rational(p)
    assert_matches(x, (p,) + (Fraction(0),) * (phi - 1))
    assert hash(x) == hash(p)
    assert x == p and x != p + 1
    assert (x == p.numerator) == (p.denominator == 1)
    assert_matches(x * q, (p * q,) + (Fraction(0),) * (phi - 1))
    assert_matches(x + q, (p + q,) + (Fraction(0),) * (phi - 1))
    assert_matches(q - x, (q - p,) + (Fraction(0),) * (phi - 1))
    if p:
        assert_matches(x.inverse(), (1 / p,) + (Fraction(0),) * (phi - 1))
    if phi > 1:
        # an irrational scalar never equals an int or a Fraction
        y = x + F.zeta()
        assert y != p + 1 and y != p.numerator


def test_rational_hash_is_the_fraction_hash():
    for n in DIFF_ORDERS:
        F = CycField(n)
        for q in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3), Fraction(10 ** 20, 3)):
            assert hash(F.from_rational(q)) == hash(q)
            assert F.from_rational(q) == q


def test_zero_is_canonical_after_cancellation():
    F = CycField(12)
    x = F.scalar([Fraction(1, 6), Fraction(-5, 4), Fraction(2, 3), Fraction(7, 9)])
    for z in (x - x, x + (-x), F.zeta(3) + F.zeta(9), F.zero * x, x * 0):
        assert not z and z.is_zero()
        assert (z.num, z.den) == ((0,) * 4, 1)
        assert z == F.zero and z == 0 and hash(z) == hash(0)


def test_from_integers_normalises_sign_and_content():
    F = CycField(8)
    x = F.from_integers([2, -4, 0, 6], -4)
    assert (x.num, x.den) == ((-1, 2, 0, -3), 2)
    # numerators past degree phi - 1 are reduced: z^4 == -1 in Q(zeta_8)
    assert F.from_integers([0, 0, 0, 0, 3], 6) == F.from_rational(Fraction(-1, 2))


# --- exactness checks survive python -O -------------------------------------


def test_non_exact_division_raises_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))
    code = (
        "from hopfcheck.cyclotomic import _poly_div_monic_int\n"
        "from hopfcheck.errors import TheoremViolation\n"
        "assert False, 'asserts are live'\n"
        "try:\n"
        "    _poly_div_monic_int((1, 0, 1), (-1, 1))\n"
        "except TheoremViolation:\n"
        "    print('TheoremViolation')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "TheoremViolation"
    with pytest.raises(TheoremViolation):
        from hopfcheck.cyclotomic import _poly_div_monic_int

        _poly_div_monic_int((1, 0, 1), (-1, 1))


# --- the singletons 0, 1, -1 and the rational branch --------------------------


@pytest.mark.parametrize("n", DIFF_ORDERS)
def test_constructors_return_the_singletons(n):
    F = CycField(n)
    tail = [0] * (F.phi - 1)
    for singleton, k in ((F.zero, 0), (F.one, 1), (F.minus_one, -1)):
        for value in (k, Fraction(k), Fraction(3 * k, 3), Fraction(-2 * k, -2)):
            assert F.from_rational(value) is singleton
            assert F.scalar(value) is singleton
        assert F.scalar(CycField(1).from_rational(Fraction(7 * k, 7))) is singleton
        for text in (str(k), "%d/3" % (3 * k), " %d/2 " % (2 * k)):
            assert scalar_from_json(F, text) is singleton
        assert scalar_from_json(F, k) is singleton
        assert scalar_from_json(F, {"order": n, "coeffs": [str(k)] + ["0"] * (F.phi - 1)}) is singleton
        assert F.scalar([Fraction(k)] + tail) is singleton
        assert F.from_integers([k] + tail) is singleton
        assert F.from_integers([-5 * k] + tail, -5) is singleton
    assert scalar_from_json(F, "1") is F.one and scalar_from_json(F, "-1") is F.minus_one
    assert F.from_rational(Fraction(3, 3)) is F.one
    # reduction modulo Phi_8: z^4 == -1
    assert CycField(8).from_integers([0, 0, 0, 0, 1]) is CycField(8).minus_one


def samples(F):
    """Zero, the units, rationals and (for phi > 1) irrational scalars of F."""
    out = [F.zero, F.one, F.minus_one, F.from_rational(Fraction(-7, 3)), F.from_rational(10 ** 20)]
    if F.phi > 1:
        out += [F.zeta() + Fraction(1, 2), F.zeta(F.n - 1) * Fraction(-4, 9), F.zeta(1) * F.zeta(2)]
    return out


@pytest.mark.parametrize("n", DIFF_ORDERS)
def test_product_with_the_one_singleton_is_the_other_factor(n):
    F = CycField(n)
    for x in samples(F):
        assert x * F.one is x
        assert F.one * x is x


@pytest.mark.parametrize("n", DIFF_ORDERS)
def test_units_that_are_not_the_singletons_give_the_same_values(n):
    F = CycField(n)
    tail = (0,) * (F.phi - 1)
    built_one, built_minus = CycScalar(F, (1,) + tail, 1), CycScalar(F, (-1,) + tail, 1)
    assert built_one is not F.one and built_minus is not F.minus_one
    units = [(built_one, F.one), (built_minus, F.minus_one), (F.zeta(0), F.one)]
    for divisor in (1, 2):
        if n % divisor == 0 and divisor < n:
            Fd = CycField(divisor)
            units += [(F.lift(Fd.one), F.one), (F.lift(Fd.minus_one), F.minus_one)]
    for u, singleton in units:
        assert u == singleton and u.is_one() == singleton.is_one()
        for x in samples(F):
            for got, want in (
                (x * u, x * singleton),
                (u * x, singleton * x),
                (x + u, x + singleton),
                (u - x, singleton - x),
            ):
                assert_canonical(got)
                assert (got.num, got.den) == (want.num, want.den)


def test_rational_branch_with_large_numerators():
    F = CycField(1)
    rng = random.Random(29)
    big = 10 ** 20
    for _ in range(300):
        p = Fraction(rng.randint(-big, big), rng.randint(1, big))
        q = Fraction(rng.randint(-big, big), rng.choice((1, 6, rng.randint(1, big))))
        x, y = F.from_rational(p), F.from_rational(q)
        for got, want in ((x * y, p * q), (x + y, p + q), (x - y, p - q), (y - x, q - p)):
            assert_canonical(got)
            assert (got.num, got.den) == ((want.numerator,), want.denominator)
        assert x - x is F.zero and x + (-x) is F.zero and x * F.zero is F.zero
    # cancellation down to an integer, and down to the canonical zero
    x = F.from_rational(Fraction(big + 1, 6))
    y = F.from_rational(Fraction(5 * big - 1, 6))
    assert ((x + y).num, (x + y).den) == ((big,), 1)
    assert (x - F.from_rational(Fraction(2 * big + 2, 12))) is F.zero
    unit = x * F.from_rational(Fraction(6, big + 1))
    assert (unit.num, unit.den) == ((1,), 1) and unit == F.one


@pytest.mark.parametrize("n", DIFF_ORDERS)
def test_rational_with_irrational(n):
    F = CycField(n)
    rng = random.Random(n)
    zeros = (Fraction(0),) * (F.phi - 1)

    def draw():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    for _ in range(60):
        rq = (draw(),) + zeros
        ra = tuple(draw() for _ in range(F.phi))
        q, a = F.scalar(rq), F.scalar(ra)
        assert_matches(q * a, ref_mul(n, rq, ra))
        assert_matches(a * q, ref_mul(n, ra, rq))
        assert_matches(q + a, tuple(x + y for x, y in zip(rq, ra)))
        assert_matches(a - q, tuple(x - y for x, y in zip(ra, rq)))
        assert_matches(q - a, tuple(x - y for x, y in zip(rq, ra)))


@pytest.mark.parametrize("n", DIFF_ORDERS + (2, 6))
def test_unit_results_are_the_singletons(n):
    F = CycField(n)
    tail = (0,) * (F.phi - 1)
    built_one, built_minus = CycScalar(F, (1,) + tail, 1), CycScalar(F, (-1,) + tail, 1)
    two, half = F.from_rational(2), F.from_rational(Fraction(1, 2))
    third, neg_third = F.from_rational(Fraction(1, 3)), F.from_rational(Fraction(-1, 3))
    cases = [
        # rational products, with and without a gcd
        (two * half, F.one),
        (half * two, F.one),
        (F.from_rational(-3) * third, F.minus_one),
        (built_minus * built_minus, F.one),
        (built_one * built_minus, F.minus_one),
        # rational sums and differences, with equal and with unequal denominators
        (half + half, F.one),
        (neg_third + F.from_rational(Fraction(-2, 3)), F.minus_one),
        (two - built_one, F.one),
        (F.from_rational(Fraction(-5, 2)) + F.from_rational(Fraction(3, 2)), F.minus_one),
        (half + F.from_rational(Fraction(1, 4)) + F.from_rational(Fraction(1, 4)), F.one),
        (third - F.from_rational(Fraction(4, 3)), F.minus_one),
        # negation of the singletons and of units built directly
        (-F.one, F.minus_one),
        (-F.minus_one, F.one),
        (-built_one, F.minus_one),
        (-built_minus, F.one),
        # the inverse of a rational
        (built_one.inverse(), F.one),
        (built_minus.inverse(), F.minus_one),
        (F.one.inverse(), F.one),
        (F.minus_one.inverse(), F.minus_one),
        (F.one / built_minus, F.minus_one),
        # zeta_n^k for k = 0 (mod n), and k = n/2 (mod n)
        (F.zeta(0), F.one),
        (F.zeta(n), F.one),
        (F.zeta(-3 * n), F.one),
    ]
    if n % 2 == 0:
        cases += [(F.zeta(n // 2), F.minus_one), (F.zeta(3 * n // 2), F.minus_one)]
    for got, singleton in cases:
        assert got is singleton
        assert (got.num, got.den) == ((1,) + tail, 1) if singleton is F.one else ((-1,) + tail, 1)
    # values that are not +-1 keep their value
    assert (-half).num == (-1,) + tail and (-half).den == 2
    assert (half.inverse().num, half.inverse().den) == ((2,) + tail, 1)
    assert (neg_third.inverse().num, neg_third.inverse().den) == ((-3,) + tail, 1)
    for k in range(1, n):
        if 2 * k != n:
            z = F.zeta(k)
            assert z is not F.one and z is not F.minus_one
            assert not z.is_one() and not (-z).is_one()
    for k in range(-n, 2 * n):
        z = F.zeta(k)
        assert (z.num, z.den) == (F._zeta_pows[k % n], 1)
        assert_canonical(z)
        assert_canonical(-z)
