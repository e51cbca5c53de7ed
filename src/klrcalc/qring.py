"""Exact arithmetic in Z[q, q^-1] and Q(q), plus quantum combinatorics.

Laurent polynomials are sparse maps exponent -> coefficient with no
stored zero coefficients.  The constructor, sums, products and every
division store an integral coefficient as an int (polycalc.exact), so
integer data stays in integer arithmetic; a Fraction comes in only from
a non-integral input or a true division, and every division goes
through _div, so no coefficient is a float.  There is one product loop
(_add_product, on dicts exponent -> coefficient), which LaurentPoly and
the form layer share, and one long division of polynomials in q
(_divmod), which exact_div and the gcd share: the gcd is Euclid on
pseudo-remainders, the dividend scaled so that every step of _divmod
divides ints exactly, so it stays in integer arithmetic.
hilbert_denominator builds D(beta) = prod (1 - q^{(c, c)}) over the
letters c of a word, the denominator of the Hilbert series of R(beta)
and of the word pairings.

Rational functions are pairs of Laurent polynomials divided by their
primitive gcd (by Gauss's lemma both quotients of integer inputs are
integral), with the denominator normalized to lowest exponent 0 and
leading coefficient 1, so equal values have equal parts, equality is
structural and values are safe to use as cache keys.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .polycalc import exact
from .rootdata import _check_int


class LaurentPoly:
    """A sparse Laurent polynomial with exact rational coefficients: int
    wherever the inputs and the divisions are integral."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                c = exact(c)
                if c:
                    clean[int(e)] = c
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return LaurentPoly()

    @staticmethod
    def one():
        return LaurentPoly({0: 1})

    @staticmethod
    def q(exp=1):
        return LaurentPoly({exp: 1})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def min_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no minimal exponent")
        return min(self.coeffs)

    def max_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no maximal exponent")
        return max(self.coeffs)

    def coeff(self, exp):
        return self.coeffs.get(exp, 0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly({0: other})
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _from_result(out, self.coeffs, other.coeffs)

    def __neg__(self):
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly()
            res = LaurentPoly.__new__(LaurentPoly)
            res.coeffs = {e: exact(c * other) for e, c in self.coeffs.items()}
            return res
        out = {}
        _add_product(out, self.coeffs, other.coeffs)
        return _from_result(out, self.coeffs, other.coeffs)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by q^k."""
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return res

    def bar(self):
        """The bar involution q -> q^-1."""
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = {-e: c for e, c in self.coeffs.items()}
        return res

    def exact_div(self, other):
        """Exact division; raises ValueError if the division has a remainder.

        Both operands are shifted to lowest exponent 0 and divided as
        polynomials in q: the lowest exponents of Laurent polynomials add,
        so self / other is a Laurent polynomial iff that division is exact,
        and its quotient is q^{min self - min other} times the polynomial
        quotient."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return LaurentPoly()
        lo, olo = min(self.coeffs), min(other.coeffs)
        quo, rem = _divmod(_lowered(self.coeffs, lo),
                           _lowered(other.coeffs, olo))
        if rem:
            raise ValueError("non-exact division")
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = _lowered(quo, olo - lo)
        return res

    # -- display ---------------------------------------------------------

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*q" if c != 1 else "q")
            else:
                parts.append(f"{c}*q^{e}" if c != 1 else f"q^{e}")
        return " + ".join(parts)


def _div(a, b):
    """The exact quotient a / b of two rational scalars, as an int when it
    is integral: the one true division of this module."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return exact(Fraction(a) / b)


def _divide_coeffs(p, c):
    """The Laurent polynomial of the dict p with every coefficient divided
    by the scalar c."""
    res = LaurentPoly.__new__(LaurentPoly)
    res.coeffs = {e: _div(x, c) for e, x in p.items()}
    return res


def _all_int(p):
    """Whether every coefficient of the dict p is an int."""
    return all(type(c) is int for c in p.values())


def _from_result(out, a, b):
    """The Laurent polynomial of the dict out, a sum or product of the
    dicts a and b.  Ints add and multiply to ints, so only when an operand
    holds a Fraction is each integral coefficient of out stored as an
    int."""
    if not (_all_int(a) and _all_int(b)):
        out = {e: exact(c) for e, c in out.items()}
    res = LaurentPoly.__new__(LaurentPoly)
    res.coeffs = out
    return res


def _add_product(acc, a, b):
    """acc += a * b for sparse Laurent polynomials given as dicts
    exponent -> coefficient; acc drops the coefficients that cancel.  The
    one product loop of the package."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            k = e1 + e2
            s = acc.get(k, 0) + c1 * c2
            if s:
                acc[k] = s
            else:
                del acc[k]


def _lowered(p, lo):
    """The dict p with every exponent lowered by lo."""
    return {e - lo: c for e, c in p.items()} if lo else p


def _divmod(a, b):
    """Long division of the polynomials a and b in q (dicts exponent ->
    coefficient, b nonzero): (quo, rem) as dicts with a = quo * b + rem
    and deg rem < deg b.  The one long division of the package."""
    rem = dict(a)
    quo = {}
    btop = max(b)
    blead = b[btop]
    while rem:
        top = max(rem)
        if top < btop:
            break
        c = _div(rem[top], blead)
        e = top - btop
        quo[e] = c
        for de, dc in b.items():
            k = de + e
            s = rem.get(k, 0) - dc * c
            if s:
                rem[k] = s
            else:
                del rem[k]
    return quo, rem


def _primitive(p):
    """The primitive part of the nonzero polynomial p in q (a dict
    exponent -> coefficient): p times the positive rational that makes
    its coefficients coprime integers.  Fraction coefficients have their
    denominators cleared here, once."""
    if not _all_int(p):
        den = lcm(*(c.denominator for c in p.values()))
        p = {e: c.numerator * (den // c.denominator) for e, c in p.items()}
    g = gcd(*p.values())
    return {e: c // g for e, c in p.items()} if g != 1 else p


def _poly_gcd(a, b):
    """The gcd of two nonzero Laurent polynomials (up to units q^k and
    sign) as a primitive integer polynomial in q: coprime integer
    coefficients, lowest exponent 0.  Euclid on pseudo-remainders: the
    dividend is scaled by lead(b)^(deg a - deg b + 1), so every quotient
    coefficient of _divmod is an exact int division, and each remainder
    is replaced by its primitive part."""
    a = _primitive(_lowered(a.coeffs, min(a.coeffs)))
    b = _primitive(_lowered(b.coeffs, min(b.coeffs)))
    if max(a) < max(b):
        a, b = b, a
    while b:
        top = max(b)
        scale = b[top] ** (max(a) - top + 1)
        _, r = _divmod({e: c * scale for e, c in a.items()}, b)
        a, b = b, _primitive(_lowered(r, min(r))) if r else r
    return a


def hilbert_denominator(cartan, word):
    """D(beta) = the product over the letters c of word of (1 - q^{(c, c)}),
    beta the weight of word: the denominator of the Hilbert series of the
    KLR algebra R(beta) and of the word pairings of weight beta."""
    out = {0: 1}
    for c in word:
        nxt = {}
        _add_product(nxt, out, {0: 1, cartan.dot(c, c): -1})
        out = nxt
    res = LaurentPoly.__new__(LaurentPoly)
    res.coeffs = out
    return res


class RatFunc:
    """A rational function in q, stored as a reduced num/den pair."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = LaurentPoly({0: num})
        if den is None:
            den = LaurentPoly.one()
        elif isinstance(den, (int, Fraction)):
            den = LaurentPoly({0: den})
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = LaurentPoly(), LaurentPoly.one()
            return
        # a single term c q^k is a unit times a scalar, so the gcd of a
        # monomial and anything is 1; a primitive gcd other than +-1 has
        # two terms or more
        if len(num.coeffs) > 1 and len(den.coeffs) > 1:
            g = _poly_gcd(num, den)
            if len(g) > 1:
                g = LaurentPoly(g)
                num = num.exact_div(g)
                den = den.exact_div(g)
        # normalize: den lowest exponent 0, leading (top) coefficient 1,
        # and every integral coefficient an int
        k = den.min_exp()
        den = den.shift(-k)
        num = num.shift(-k)
        lead = den.coeffs[den.max_exp()]
        if lead != 1 or not (_all_int(num.coeffs) and _all_int(den.coeffs)):
            den, num = (_divide_coeffs(den.coeffs, lead),
                        _divide_coeffs(num.coeffs, lead))
        self.num, self.den = num, den

    @staticmethod
    def zero():
        return RatFunc(LaurentPoly())

    @staticmethod
    def one():
        return RatFunc(LaurentPoly.one())

    @staticmethod
    def q(exp=1):
        return RatFunc(LaurentPoly.q(exp))

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        r = RatFunc.__new__(RatFunc)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc(other)
        return RatFunc(self.num * other.den, self.den * other.num)

    def __repr__(self):
        if self.den == LaurentPoly.one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


class DegreeWindow:
    """An inclusive range [d_min, d_max] of internal degrees.  A bound that
    is not an int (bool included) raises ValueError, as does d_min > d_max."""

    __slots__ = ("d_min", "d_max")

    def __init__(self, d_min, d_max):
        _check_int(d_min, "the window bound")
        _check_int(d_max, "the window bound")
        if d_min > d_max:
            raise ValueError("empty degree window")
        self.d_min = d_min
        self.d_max = d_max

    def __contains__(self, d):
        return self.d_min <= d <= self.d_max

    def __iter__(self):
        return iter(range(self.d_min, self.d_max + 1))

    def __repr__(self):
        return f"DegreeWindow({self.d_min}, {self.d_max})"


def quantum_integer(k, d):
    """[k]_i = (q_i^k - q_i^-k)/(q_i - q_i^-1) with q_i = q^d, as a Laurent polynomial."""
    if k == 0:
        return LaurentPoly()
    sign = 1
    if k < 0:
        k, sign = -k, -1
    # q_i^(k-1) + q_i^(k-3) + ... + q_i^(1-k)
    out = LaurentPoly({d * (k - 1 - 2 * l): 1 for l in range(k)})
    return out * sign


def quantum_factorial(k, d):
    """[k]_i! = [1]_i [2]_i ... [k]_i; the empty product is 1."""
    if k < 0:
        raise ValueError("negative quantum factorial")
    out = LaurentPoly.one()
    for l in range(1, k + 1):
        out = out * quantum_integer(l, d)
    return out


def zeta(k):
    """Number of ones in the binary expansion of k."""
    if k < 0:
        raise ValueError("zeta needs a nonnegative argument")
    return bin(k).count("1")


def sigma(k):
    """sum of bit positions of k minus zeta(k)(zeta(k)-1)/2."""
    if k < 0:
        raise ValueError("sigma needs a nonnegative argument")
    z = zeta(k)
    s = sum(pos for pos in range(k.bit_length()) if (k >> pos) & 1)
    return s - z * (z - 1) // 2


def series_window(f, w):
    """Power-series expansion of a RatFunc, truncated to a DegreeWindow.

    The (normalized) denominator must have a nonzero constant term.
    """
    den = f.den
    if f.num.is_zero():
        return LaurentPoly()
    c0 = den.coeff(0)
    if not c0:
        raise ValueError("denominator has zero constant term; not expandable")
    lo = f.num.min_exp()
    out = {}
    # inverse-series coefficients s_m of 1/den, computed on demand
    inv = [_div(1, c0)]

    def inv_coeff(m):
        while len(inv) <= m:
            t = len(inv)
            acc = 0
            for e, c in den.coeffs.items():
                if 1 <= e <= t:
                    acc += c * inv[t - e]
            inv.append(_div(-acc, c0))
        return inv[m]

    for d in range(max(lo, w.d_min), w.d_max + 1):
        acc = 0
        for e, c in f.num.coeffs.items():
            if e <= d:
                acc += c * inv_coeff(d - e)
        if acc:
            out[d] = acc
    return LaurentPoly(out)
