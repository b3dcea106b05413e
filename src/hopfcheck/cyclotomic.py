"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A scalar is a vector in the power basis 1, z, ..., z^(phi(n)-1) of
Q(zeta_n), kept reduced modulo the n-th cyclotomic polynomial Phi_n.  It is
stored as integer numerators over one positive common denominator, in
canonical form: gcd(den, *num) == 1, and zero is (0, ..., 0)/1.  Equal
scalars therefore have equal (num, den), and the zero test and equality are
plain integer comparisons.  Phi_n is monic with integer coefficients, so
reduction and field conjugation (z -> z^(n-1)) are integer row operations
and every product or sum costs at most one gcd normalisation (a product by
exactly 1 or -1 costs none).

The cheap cases come first.  Each field keeps the singletons zero, one and
minus_one, and from_rational, from_integers and so scalar() (and the file
loader) return them for 0, 1 and -1; a product with the singleton one
returns the other factor by identity, before any other test.  When both
operands are rational (always, in Q = Q(zeta_1)), a product or sum uses
only num[0] and den: one integer product or sum, then one gcd.  Those
rational products and sums, negation, the inverse of a rational and zeta
also return the singletons for the results 1 and -1, so later products
with them take the identity shortcut.  Identity only skips work and never
decides a value: a scalar equal to 1 that is not the singleton (built
directly, or by lift) takes the value-based shortcut, and truth, equality
and is_one compare values.

Everything is exact; the sign of a real irrational scalar is read off a
fixed-point value of the standard complex embedding, in integers, at a
precision fixed in advance by the bound |y| >= A^-(phi-1) on a nonzero
algebraic integer y of coefficient sum A (see CycScalar.sign).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd

from .errors import FieldOrderMismatch, SchemaError, TheoremViolation


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_div_monic_int(num, den):
    # exact division of integer polynomials, den monic; remainder must vanish
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + dd]
        if c:
            q[i] = c
            for j, y in enumerate(den):
                num[i + j] -= c * y
    if any(num):
        raise TheoremViolation("non-exact polynomial division: remainder %r" % (num,))
    return q

_CYCLO_CACHE = {}


def cyclotomic_polynomial(n):
    """Coefficients of Phi_n over the integers, lowest degree first."""
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    if n < 1:
        raise SchemaError("cyclotomic order must be >= 1, got %r" % (n,))
    divisor = [1]  # product of Phi_d over the proper divisors d of n
    for d in range(1, n):
        if n % d == 0:
            divisor = _poly_mul(divisor, cyclotomic_polynomial(d))
    poly = _poly_div_monic_int([-1] + [0] * (n - 1) + [1], divisor)  # x^n - 1
    _CYCLO_CACHE[n] = tuple(poly)
    return _CYCLO_CACHE[n]


def _sparse(row):
    return tuple((i, c) for i, c in enumerate(row) if c)


_FIELDS = {}


class CycField:
    """The field Q(zeta_n), acting as a factory for its scalars."""

    def __new__(cls, n):
        n = int(n)
        if n in _FIELDS:
            return _FIELDS[n]
        self = object.__new__(cls)
        self._init(n)
        _FIELDS[n] = self
        return self

    def _init(self, n):
        if n < 1:
            raise SchemaError("cyclotomic order must be >= 1, got %r" % (n,))
        self.n = n
        self.cyclo = cyclotomic_polynomial(n)
        phi = self.phi = len(self.cyclo) - 1
        # integer rows of x^(phi + j) mod Phi_n, enough for products
        # (degree 2*phi - 2) and for all powers z^k, k < n
        top = max(2 * phi - 2, n - 1)
        pows = []
        cur = [-c for c in self.cyclo[:phi]]  # x^phi
        for _ in range(phi, top + 1):
            pows.append(tuple(cur))
            lead = cur[phi - 1]
            cur = [0] + cur[: phi - 1]
            if lead:
                cur = [s + lead * p for s, p in zip(cur, pows[0])]
        self._pows = tuple(_sparse(row) for row in pows)
        zpows = [tuple(int(i == k) for i in range(phi)) for k in range(phi)]
        zpows += pows[: n - phi]
        self._zeta_pows = tuple(zpows)
        self._conj_rows = tuple(_sparse(zpows[(n - k) % n]) for k in range(phi))
        # the zero tail of a rational scalar, and the singletons 0, 1, -1
        # that every constructor returns for those values
        self._tail = (0,) * (phi - 1)
        self.zero = CycScalar(self, (0,) + self._tail, 1)
        self.one = CycScalar(self, (1,) + self._tail, 1)
        self.minus_one = CycScalar(self, (-1,) + self._tail, 1)

    def __repr__(self):
        return "CycField(%d)" % self.n

    def __reduce__(self):  # pickling round-trips through the cache
        return (CycField, (self.n,))

    def scalar(self, value):
        """Coerce an int, Fraction, coefficient sequence, or scalar."""
        if isinstance(value, CycScalar):
            if value.field is self:
                return value
            if value.is_rational():
                return self.from_rational(value.as_fraction())
            raise FieldOrderMismatch(
                "cannot coerce scalar of order %d into Q(zeta_%d)"
                % (value.field.n, self.n)
            )
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        coeffs = [Fraction(c) for c in value]
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        return self.from_integers([c.numerator * (den // c.denominator) for c in coeffs], den)

    def from_integers(self, num, den=1):
        """The scalar sum(num[k] * z^k) / den for integers num and den != 0."""
        if not den:
            raise ZeroDivisionError("cyclotomic scalar with denominator 0")
        num = self._reduce(num)
        if den < 0:
            den, num = -den, [-a for a in num]
        x = _canonical(self, num, den)
        if x.den == 1 and not any(x.num[1:]):
            return self._rational(x.num[0], 1)
        return x

    def from_rational(self, q):
        """The scalar q for an int or a Fraction (or a value Fraction accepts)."""
        if type(q) is int:
            return self._rational(q, 1)
        if type(q) is not Fraction:
            q = Fraction(q)
        return self._rational(q.numerator, q.denominator)

    def _rational(self, n, d):
        """n / d for coprime integers with d > 0: the singleton for 0, 1, -1."""
        if d == 1 and -1 <= n <= 1:
            return self.one if n == 1 else self.minus_one if n else self.zero
        return CycScalar(self, (n,) + self._tail, d)

    def zeta(self, k=1):
        """The root of unity zeta_n^k as an exact scalar; the singleton one
        or minus_one when zeta_n^k is 1 or -1."""
        k %= self.n
        if not k:
            return self.one
        if 2 * k == self.n:
            return self.minus_one
        return CycScalar(self, self._zeta_pows[k], 1)

    def _reduce(self, num):
        """Integer coefficients mod Phi_n, as a list of length phi."""
        phi = self.phi
        c = list(num[:phi])
        c += [0] * (phi - len(c))
        for k in range(phi, len(num)):
            ck = num[k]
            if ck:
                for i, r in self._pows[k - phi]:
                    c[i] += ck * r
        return c

    def lift(self, scalar):
        """Embed a scalar from Q(zeta_m) for m dividing n via z_m -> z_n^(n/m)."""
        m = scalar.field.n
        if m == self.n:
            return scalar
        if self.n % m:
            raise FieldOrderMismatch(
                "order %d does not divide target order %d" % (m, self.n)
            )
        step = self.n // m
        out = [0] * self.phi
        for k, a in enumerate(scalar.num):
            if a:
                for i, r in enumerate(self._zeta_pows[(k * step) % self.n]):
                    out[i] += a * r
        return _canonical(self, out, scalar.den)


def _canonical(field, num, den):
    """The scalar num/den, divided through by gcd(den, *num); den > 0."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            return CycScalar(field, tuple([a // g for a in num]), den)
    return CycScalar(field, tuple(num), den)


def _add(x, y, sign):
    """x + sign * y for scalars of one field, sign 1 or -1."""
    a, b = x.num, y.num
    field = x.field
    if field.phi == 1 or not (any(a[1:]) or any(b[1:])):
        # both rational: one sum of numerators, then one gcd
        p, q = a[0], b[0]
        if not q:
            return x
        if not p:
            return y if sign > 0 else -y
        d1, d2 = x.den, y.den
        if d1 == d2:
            n = p + q if sign > 0 else p - q
        else:
            n = p * d2 + q * d1 if sign > 0 else p * d2 - q * d1
            d1 *= d2
        if not n:
            return field.zero
        if d1 != 1:
            g = gcd(n, d1)
            if g != 1:
                n //= g
                d1 //= g
        if d1 == 1 and (n == 1 or n == -1):
            return field.one if n == 1 else field.minus_one
        return CycScalar(field, (n,) + field._tail, d1)
    if not any(b):
        return x
    if not any(a):
        return y if sign > 0 else -y
    d1, d2 = x.den, y.den
    if d1 == d2:
        if sign > 0:
            return _canonical(field, [s + t for s, t in zip(a, b)], d1)
        return _canonical(field, [s - t for s, t in zip(a, b)], d1)
    g = gcd(d1, d2)
    s1, s2 = d2 // g, sign * (d1 // g)
    num = [s * s1 + t * s2 for s, t in zip(a, b)]
    if g == 1:  # coprime denominators: the result is already canonical
        return CycScalar(field, tuple(num), d1 * d2)
    return _canonical(field, num, d1 * s1)


class CycScalar:
    """An element of Q(zeta_n); immutable.

    `num` is a tuple of phi(n) integer numerators and `den` their positive
    common denominator, with gcd(den, *num) == 1.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self):
        """Power-basis coefficients as reduced Fractions."""
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def is_one(self):
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("scalar %r is not rational" % (self,))
        return Fraction(self.num[0], self.den)

    def is_real(self):
        return self.conjugate() == self

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycScalar):
            if other.field is self.field:
                return other
            raise FieldOrderMismatch(
                "mixed field orders %d and %d" % (self.field.n, other.field.n)
            )
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, o):
        if o.__class__ is not CycScalar or o.field is not self.field:
            o = self._coerce(o)
            if o is None:
                return NotImplemented
        return _add(self, o, 1)

    __radd__ = __add__

    def __sub__(self, o):
        if o.__class__ is not CycScalar or o.field is not self.field:
            o = self._coerce(o)
            if o is None:
                return NotImplemented
        return _add(self, o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        num = self.num
        if self.den == 1 and (num[0] == 1 or num[0] == -1) and not any(num[1:]):
            field = self.field
            return field.minus_one if num[0] == 1 else field.one
        return CycScalar(self.field, tuple([-a for a in num]), self.den)

    def __mul__(self, o):
        if o.__class__ is not CycScalar or o.field is not self.field:
            o = self._coerce(o)
            if o is None:
                return NotImplemented
        field = self.field
        if o is field.one:
            return self
        if self is field.one:
            return o
        a, b = self.num, o.num
        irr_a = irr_b = False
        if field.phi > 1:
            irr_a, irr_b = any(a[1:]), any(b[1:])
        if not (irr_a or irr_b):
            # both rational: one product of numerators, then one gcd
            n = a[0] * b[0]
            if not n:
                return field.zero
            d = self.den * o.den
            if d != 1:
                g = gcd(n, d)
                if g != 1:
                    n //= g
                    d //= g
            if d == 1 and (n == 1 or n == -1):
                return field.one if n == 1 else field.minus_one
            return CycScalar(field, (n,) + field._tail, d)
        # a factor of exactly 1 or -1 gives the other factor or its negation,
        # both canonical already
        if not irr_b:  # rational right factor
            q = b[0]
            if not q:
                return field.zero
            if o.den == 1 and (q == 1 or q == -1):
                return self if q == 1 else -self
            return _canonical(field, [c * q for c in a], self.den * o.den)
        if not irr_a:
            q = a[0]
            if not q:
                return field.zero
            if self.den == 1 and (q == 1 or q == -1):
                return o if q == 1 else -o
            return _canonical(field, [c * q for c in b], self.den * o.den)
        den = self.den * o.den
        prod = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _canonical(field, field._reduce(prod), den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        field = self.field
        if self.is_rational():
            q = self.num[0]
            if q < 0:
                return field._rational(-self.den, -q)
            return field._rational(self.den, q)
        # extended Euclid over Z[x] by pseudo-division, with the invariant
        # s_i * num == r_i (mod Phi_n); ends at a constant r1 = c, so that
        # self^-1 = den * s1 / c
        r0, s0 = list(field.cyclo), [0]
        r1, s1 = _trim(list(self.num)), [1]
        while len(r1) > 1:
            f, q, rem = _pseudo_divmod(r0, r1)
            qs = _poly_mul(q, s1)
            s2 = [f * x for x in s0] + [0] * max(0, len(qs) - len(s0))
            for i, y in enumerate(qs):
                s2[i] -= y
            r2, s2 = _trim(rem), _trim(s2)
            g = gcd(*r2, *s2)
            if g > 1:
                r2 = [x // g for x in r2]
                s2 = [x // g for x in s2]
            r0, s0, r1, s1 = r1, s1, r2, s2
        c = r1[0]
        if not c:
            raise TheoremViolation("Phi_%d not coprime to nonzero element %r" % (field.n, self))
        num = [x * self.den for x in field._reduce(s1)]
        if c < 0:
            c, num = -c, [-x for x in num]
        return _canonical(field, num, c)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def conjugate(self):
        # an automorphism of Z[zeta_n]: the numerators keep their content
        out = [0] * self.field.phi
        for k, a in enumerate(self.num):
            if a:
                for i, r in self.field._conj_rows[k]:
                    out[i] += a * r
        return CycScalar(self.field, tuple(out), self.den)

    # -- comparisons and ordering helpers ----------------------------------

    def __eq__(self, other):
        if isinstance(other, CycScalar):
            return (
                self.field.n == other.field.n
                and self.den == other.den
                and self.num == other.num
            )
        if isinstance(other, (int, Fraction)):
            return (
                self.den == other.denominator
                and self.num[0] == other.numerator
                and self.is_rational()
            )
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.num[0]) if self.den == 1 else hash(self.as_fraction())
        return hash((self.field.n, self.coeffs))

    def sort_key(self):
        den = self.den
        out = []
        for a in self.num:
            g = gcd(a, den)
            out.append((a // g, den // g))
        return tuple(out)

    def sign(self):
        """Certified sign (-1, 0, 1) of a real scalar, with integers only.

        den > 0, so y = sum a_k z^k, the numerator, carries the sign.  Let
        A = sum |a_k|.  y is a nonzero algebraic integer, so |N(y)| >= 1,
        and each of its phi conjugates has absolute value at most A; hence
        |y| >= A^-(phi-1).  y is real, so y = sum a_k cos(2 pi k / n), which
        is evaluated in fixed point with w fractional bits: pi by Machin's
        formula pi/4 = 4 arctan(1/5) - arctan(1/239), to within 4w + 40
        units of 2^-w (each floored series term is off by less than one
        unit, the truncated tail by less than one), and each cosine by its
        Taylor series on the angle folded into [0, pi], to within 8w + 64
        units (the angle's error, which cos does not enlarge, plus at most
        3 units per floored term over at most w + 5 terms, and the tail).
        With p = phi * bitlength(A) and w = p + bitlength(p) + 10,
        2^w >= 1024 (p + 1) 2^p > 2 (8w + 64) A^phi, so the sum is off by
        less than A (8w + 64) 2^-w < A^-(phi-1) / 2 <= |y| / 2 and has the
        sign of y.  w is fixed before evaluating: no loop, no failure.
        """
        if not self.is_real():
            raise ValueError("sign of a non-real scalar %r" % (self,))
        if self.is_zero():
            return 0
        if self.is_rational():
            return 1 if self.num[0] > 0 else -1
        n = self.field.n
        p = self.field.phi * sum(abs(a) for a in self.num).bit_length()
        w = p + p.bit_length() + 10
        pi = 16 * _arctan_inv(5, w) - 4 * _arctan_inv(239, w)
        total = sum(a * _cos_turn(min(k, n - k), n, pi, w) for k, a in enumerate(self.num) if a)
        return 1 if total > 0 else -1

    def embed(self):
        """Standard complex embedding z -> exp(2*pi*i/n), as a float."""
        z = cmath.exp(2j * cmath.pi / self.field.n)
        # int / int is correctly rounded, so this equals float(Fraction(a, den))
        return sum((a / self.den) * z ** k for k, a in enumerate(self.num) if a)

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mono = "z%d" % self.field.n + ("^%d" % k if k > 1 else "")
                terms.append(mono if c == 1 else "-" + mono if c == -1 else "%s*%s" % (c, mono))
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _arctan_inv(x, w):
    """2^w arctan(1/x) by its alternating series, each term floored."""
    total, t, m = 0, (1 << w) // x, 1
    while t:
        total += t // m if m % 4 == 1 else -(t // m)
        t //= x * x
        m += 2
    return total


def _cos_turn(k, n, pi, w):
    """2^w cos(2 pi k / n) for 2k <= n, by Taylor, from pi as 2^w pi."""
    x2 = (2 * k * pi // n) ** 2 >> w
    total = term = 1 << w
    m = 0
    while term:
        m += 2
        term = term * x2 // ((m - 1) * m << w)
        total += term if m % 4 == 0 else -term
    return total


def _trim(p):
    d = len(p)
    while d > 1 and not p[d - 1]:
        d -= 1
    return p[:d]


def _pseudo_divmod(a, b):
    """(f, q, r) with f * a == q * b + r, deg r < deg b, f a power of lc(b)."""
    db = len(b) - 1
    lead = b[db]
    r = list(a)
    q = [0] * max(1, len(a) - db)
    f = 1
    for i in range(len(a) - db - 1, -1, -1):
        c = r[i + db]
        if c:
            if lead != 1:
                r = [lead * x for x in r]
                q = [lead * x for x in q]
                f *= lead
            q[i] += c
            for j, y in enumerate(b):
                r[i + j] -= c * y
    return f, q, r[:db] if db > 0 else [0]
