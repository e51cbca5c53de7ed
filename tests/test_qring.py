"""Exact Laurent polynomial / rational function arithmetic and quantum
combinatorics."""

import contextlib
import itertools
import signal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klrcalc import (
    DegreeWindow,
    GramCache,
    LaurentPoly,
    RatFunc,
    RootVector,
    quantum_factorial,
    quantum_integer,
    sequences,
    series_window,
    sigma,
    zeta,
)
from klrcalc import qring
from klrcalc.qring import _divmod, hilbert_denominator

laurent_dicts = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
)

# the same polynomials with coefficients divided by 1..4: Fraction
# coefficients wherever the quotient is not integral
fraction_dicts = st.tuples(laurent_dicts, st.integers(min_value=1,
                                                      max_value=4)).map(
    lambda t: LaurentPoly({e: Fraction(c, t[1])
                           for e, c in t[0].items()}).coeffs)


def lp(d):
    return LaurentPoly(d)


# -- Laurent polynomial ring laws ---------------------------------------


@settings(max_examples=60)
@given(laurent_dicts, laurent_dicts, laurent_dicts)
def test_ring_laws(a, b, c):
    a, b, c = lp(a), lp(b), lp(c)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a
    assert (a - a).is_zero()


@settings(max_examples=60)
@given(laurent_dicts, laurent_dicts)
def test_bar_is_ring_involution(a, b):
    a, b = lp(a), lp(b)
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


@settings(max_examples=60)
@given(laurent_dicts, st.integers(min_value=-5, max_value=5))
def test_shift_is_monomial_multiplication(a, s):
    a = lp(a)
    assert a.shift(s) == a * LaurentPoly.q(s)


def test_basic_identities():
    q = LaurentPoly.q()
    assert (LaurentPoly.one() + q) * (LaurentPoly.one() - q) == \
        LaurentPoly({0: 1, 2: -1})
    assert LaurentPoly({0: 1, 2: -1}).exact_div(
        LaurentPoly({0: 1, 1: -1})) == LaurentPoly({0: 1, 1: 1})
    p = LaurentPoly({-2: Fraction(1, 2), 3: -1})
    assert p.min_exp() == -2 and p.max_exp() == 3
    assert p.coeff(3) == -1 and p.coeff(0) == 0
    assert p.bar() == LaurentPoly({2: Fraction(1, 2), -3: -1})


# -- long division ------------------------------------------------------


def bounded(fn, seconds=1.0):
    """fn(), failing with TimeoutError if it has not returned in time."""
    def on_alarm(signum, frame):
        raise TimeoutError("call did not return")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_non_exact_division_raises():
    """1 / (1 + q) and (1 + 2q^3) / (1 + q) have no Laurent polynomial
    quotient: exact_div raises instead of running on."""
    one_plus_q = LaurentPoly({0: 1, 1: 1})
    for a in (LaurentPoly.one(), LaurentPoly({0: 1, 3: 2})):
        with pytest.raises(ValueError, match="non-exact"):
            bounded(lambda: a.exact_div(one_plus_q))
    with pytest.raises(ValueError, match="non-exact"):
        bounded(lambda: LaurentPoly({-2: 1}).exact_div(one_plus_q))
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.one().exact_div(LaurentPoly.zero())


def polynomial_in_q(d):
    """d shifted to lowest exponent 0."""
    lo = min(d, default=0)
    return {e - lo: c for e, c in d.items()}


@settings(max_examples=80)
@given(st.one_of(laurent_dicts, fraction_dicts),
       st.one_of(laurent_dicts, fraction_dicts))
def test_divmod_is_division_with_remainder(a, b):
    """a = quo * b + rem with deg rem < deg b, on int and Fraction
    coefficients."""
    a = polynomial_in_q(LaurentPoly(a).coeffs)
    b = polynomial_in_q(LaurentPoly(b).coeffs) or {2: 3}
    quo, rem = _divmod(a, b)
    assert lp(quo) * lp(b) + lp(rem) == lp(a)
    assert not rem or max(rem) < max(b)
    assert 0 not in quo.values() and 0 not in rem.values()


@settings(max_examples=80)
@given(st.one_of(laurent_dicts, fraction_dicts), laurent_dicts,
       st.integers(min_value=-6, max_value=6))
def test_exact_div_inverts_multiplication(a, b, s):
    """exact_div(a b, b) == a for Laurent polynomials with negative
    exponents, and the quotient stores canonical coefficients."""
    a, b = lp(a).shift(s), lp(b)
    if b.is_zero():
        b = LaurentPoly({-3: 2, 1: -1})
    got = (a * b).exact_div(b)
    assert got == a
    assert canonical_coeffs(got)


# -- the Hilbert series denominator -------------------------------------


def subset_sum_denominator(cartan, word):
    """prod (1 - q^{(c, c)}) over the letters of word, expanded as the
    signed sum over subsets of the letter positions."""
    out = LaurentPoly()
    for r in range(len(word) + 1):
        for sub in itertools.combinations(word, r):
            out = out + LaurentPoly({sum(cartan.dot(c, c) for c in sub):
                                     (-1) ** r})
    return out


def test_hilbert_denominator_matches_subset_sum(cartan_a2, cartan_b2,
                                                cartan_b2r, cartan_g2):
    for cartan in (cartan_a2, cartan_b2, cartan_b2r, cartan_g2):
        for n in range(5):
            for word in itertools.product("ij", repeat=n):
                got = hilbert_denominator(cartan, word)
                assert got == subset_sum_denominator(cartan, word), word
                assert all_int(got)


# -- rational functions -------------------------------------------------


def test_ratfunc_reduction_and_equality():
    num = LaurentPoly({0: 1, 4: -1})
    den = LaurentPoly({0: 1, 2: -1})
    r = RatFunc(num, den)
    assert r == RatFunc(LaurentPoly({0: 1, 2: 1}))
    # denominator normalized: constant term, leading coefficient 1
    assert r.den == LaurentPoly.one()
    assert hash(r) == hash(RatFunc(LaurentPoly({0: 1, 2: 1})))


def test_ratfunc_scalar_content_is_canonical():
    """Equal values built with different scalar content have equal parts
    and equal hashes: the denominator's leading coefficient is 1."""
    cases = [
        (RatFunc(LaurentPoly({0: 2}), LaurentPoly({0: 2})), RatFunc.one()),
        (RatFunc(LaurentPoly({0: 1}), LaurentPoly({0: 2})),
         RatFunc(LaurentPoly({0: 2}), LaurentPoly({0: 4}))),
        # (2 - 2q) / (4 - 4q^2) = (1/2) / (1 + q)
        (RatFunc(LaurentPoly({0: 2, 1: -2}), LaurentPoly({0: 4, 2: -4})),
         RatFunc(LaurentPoly({0: 1}), LaurentPoly({0: 2, 1: 2}))),
        (RatFunc(LaurentPoly({1: 3}), LaurentPoly({0: -6, 3: 3})),
         RatFunc(LaurentPoly({1: -1}), LaurentPoly({0: 2, 3: -1}))),
    ]
    for a, b in cases:
        assert a == b
        assert (a.num, a.den) == (b.num, b.den)
        assert hash(a) == hash(b)
        assert a.den.coeffs[a.den.max_exp()] == 1
        assert a.den.min_exp() == 0


def test_fraction_scalars_act_like_int_scalars():
    """A Fraction is a scalar wherever an int is: it builds a RatFunc,
    adds to and subtracts from both types, and compares equal to the
    constant of the same value."""
    half = Fraction(1, 2)
    half_lp = LaurentPoly({0: half})
    assert RatFunc(half) == RatFunc(half_lp)
    assert RatFunc(1, half) == RatFunc(LaurentPoly({0: 2}))
    assert RatFunc.one() + half == RatFunc(LaurentPoly({0: Fraction(3, 2)}))
    assert RatFunc.one() - half == RatFunc(half_lp)
    assert LaurentPoly.one() + half == LaurentPoly({0: Fraction(3, 2)})
    assert LaurentPoly.one() - half == half_lp
    assert LaurentPoly.q(1) - half == LaurentPoly({0: -half, 1: 1})
    assert RatFunc.one() == Fraction(1) and LaurentPoly.one() == Fraction(1)
    assert RatFunc(half) == half and half_lp == half
    assert RatFunc.one() != half and LaurentPoly.one() != half


def test_ratfunc_field_ops():
    one = RatFunc.one()
    q2 = RatFunc(LaurentPoly.q(2))
    r = one / (one - q2)
    assert r * (one - q2) == one
    assert (r - r).is_zero()
    assert r + r == r * RatFunc(LaurentPoly({0: 2}))
    with pytest.raises(ZeroDivisionError):
        one / RatFunc.zero()


def test_series_window_geometric():
    w = DegreeWindow(0, 6)
    geo = RatFunc(LaurentPoly.one(),
                  LaurentPoly({0: 1, 1: -1}))
    s = series_window(geo, w)
    assert s == LaurentPoly({d: 1 for d in range(7)})


def test_series_window_polynomial_identity():
    w = DegreeWindow(0, 8)
    num = LaurentPoly({0: 1, 5: -1})
    den = LaurentPoly({0: 1, 1: -1})
    assert series_window(RatFunc(num, den), w) == \
        LaurentPoly({d: 1 for d in range(5)})


def test_series_window_normalizes_denominator():
    # 1/(q - q^2) = q^-1 (1 + q + q^2 + ...): normalization shifts the
    # denominator to constant term 1 before expanding
    w = DegreeWindow(-1, 3)
    f = RatFunc(LaurentPoly.one(), LaurentPoly({1: 1, 2: -1}))
    assert series_window(f, w) == LaurentPoly({d: 1 for d in range(-1, 4)})


# -- integral storage ---------------------------------------------------


def all_int(p):
    return all(type(c) is int for c in p.coeffs.values())


def canonical_coeffs(p):
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(type(c) is int
               or (type(c) is Fraction and c.denominator != 1)
               for c in p.coeffs.values())


def test_integer_data_is_stored_as_int(cartan_a2, cartan_b2, cartan_g2):
    """Word pairings (integer numerators over D(beta), gcd-reduced) and
    quantum factorials hold only int coefficients."""
    for cartan in (cartan_a2, cartan_b2, cartan_g2):
        cache = GramCache(cartan)
        for beta in (RootVector({"i": 2, "j": 1}),
                     RootVector({"i": 1, "j": 2})):
            words = list(sequences(beta))
            for u in words:
                for v in words:
                    r = cache.pair_words(u, v)
                    assert all_int(r.num) and all_int(r.den), (u, v)
    for k in range(7):
        for d in (1, 2, 3):
            assert all_int(quantum_factorial(k, d)), (k, d)


def test_non_monic_normalisation_is_exact():
    """Dividing by a leading coefficient other than 1 gives Fraction
    coefficients where the quotient is not integral, int ones where it
    is, and never a float."""
    r = RatFunc(1, LaurentPoly({0: 2, 1: -2}))
    assert r.num.coeffs == {0: Fraction(-1, 2)}
    assert type(r.num.coeffs[0]) is Fraction
    assert r.den.coeffs == {0: -1, 1: 1} and all_int(r.den)
    # 2(1 + q) / 3(1 - q^2): the gcd 1 + q comes out of a non-monic pair
    r = RatFunc(LaurentPoly({0: 2, 1: 2}), LaurentPoly({0: 3, 2: -3}))
    assert r == RatFunc(LaurentPoly({0: Fraction(-2, 3)}),
                        LaurentPoly({0: -1, 1: 1}))
    assert all_int(r.den) and canonical_coeffs(r.num)
    half = LaurentPoly({0: Fraction(1, 2), 1: 3}) * 2
    assert half.coeffs == {0: 1, 1: 6} and all_int(half)
    for x in (r.num, r.den, half, LaurentPoly({0: 0.5})):
        assert not any(isinstance(c, float) for c in x.coeffs.values())


@settings(max_examples=80)
@given(laurent_dicts, laurent_dicts)
def test_ratfunc_of_int_and_fraction_inputs_agree(a, b):
    """A RatFunc built from integer polynomials equals, as a value, the
    one built from the same coefficients given as Fractions, and both
    store canonical coefficients."""
    if not any(b.values()):
        b = {0: 1}
    r = RatFunc(lp(a), lp(b))
    f = RatFunc(LaurentPoly({e: Fraction(c) for e, c in a.items()}),
                LaurentPoly({e: Fraction(c) for e, c in b.items()}))
    assert r == f
    assert r.num * lp(b) == lp(a) * r.den
    for x in (r.num, r.den, f.num, f.den):
        assert canonical_coeffs(x)


def test_ratfunc_parts_store_integral_coefficients_as_int():
    """The RatFunc normalisation stores an integral coefficient of its
    parts as an int."""
    r = RatFunc(LaurentPoly({0: Fraction(3, 2), 1: 1})) * \
        RatFunc(LaurentPoly({0: 2}))
    assert r.num.coeffs == {0: 3, 1: 2} and all_int(r.num)
    r = RatFunc(LaurentPoly({0: Fraction(6, 2)}),
                LaurentPoly({0: Fraction(4, 4), 1: 1}))
    assert r.num.coeffs == {0: 3} and all_int(r.num) and all_int(r.den)


def test_laurent_arithmetic_stores_integral_coefficients_as_int():
    """A sum, difference or product of Laurent polynomials with Fraction
    coefficients stores an integral coefficient such as 3/2 * 2 as an int
    and keeps a non-integral one as a Fraction."""
    half = LaurentPoly({0: Fraction(3, 2), 1: Fraction(1, 3)})
    third = Fraction(2, 3)
    for r, expected in (
            (half * LaurentPoly({0: 2}), {0: 3, 1: third}),
            (half * LaurentPoly({0: 6}), {0: 9, 1: 2}),
            (half + half, {0: 3, 1: third}),
            (half - LaurentPoly({0: Fraction(-1, 2), 1: Fraction(1, 3)}),
             {0: 2}),
            (LaurentPoly({0: 1, 1: third}) + half, {0: Fraction(5, 2), 1: 1})):
        assert r.coeffs == expected
        assert {e: type(c) for e, c in r.coeffs.items()} == \
            {e: type(c) for e, c in expected.items()}, r.coeffs


# -- RatFunc against Euclid over Q -------------------------------------


def euclid_over_q_parts(num, den):
    """The parts of RatFunc(num, den) reduced by a monic gcd from Euclid
    over Q, then normalized (den lowest exponent 0, leading coefficient
    1) and stored canonically: the reduction that the pseudo-remainder
    gcd replaced, kept here as the oracle."""
    if num.is_zero():
        return {}, {0: 1}
    a = polynomial_in_q(num.coeffs)
    b = polynomial_in_q(den.coeffs)
    while b:
        _, r = _divmod(a, b)
        a, b = b, polynomial_in_q(r)
    g = LaurentPoly({e: Fraction(c) / a[max(a)] for e, c in a.items()})
    if g != LaurentPoly.one():
        num, den = num.exact_div(g), den.exact_div(g)
    k = den.min_exp()
    num, den = num.shift(-k), den.shift(-k)
    lead = Fraction(den.coeffs[den.max_exp()])
    return (LaurentPoly({e: c / lead for e, c in num.coeffs.items()}).coeffs,
            LaurentPoly({e: c / lead for e, c in den.coeffs.items()}).coeffs)


def typed(p):
    """The dict p with each coefficient paired with its type, so that
    3 and Fraction(3, 1) differ."""
    return {e: (c, type(c)) for e, c in p.items()}


nonzero_dicts = st.one_of(laurent_dicts, fraction_dicts).filter(
    lambda d: any(d.values()))
monomial_dicts = st.tuples(
    st.integers(min_value=-6, max_value=6),
    st.one_of(st.integers(min_value=-9, max_value=9).filter(bool),
              st.fractions(min_value=-9, max_value=9, max_denominator=6)
              .filter(bool))).map(lambda t: {t[0]: t[1]})


def product_of(polys):
    out = LaurentPoly.one()
    for p in polys:
        out = out * p
    return out


# D(beta)-shaped denominators: products of factors 1 - q^m
dbeta = st.lists(st.sampled_from((1, 2, 3, 4, 6)), min_size=1,
                 max_size=4).map(
    lambda ms: product_of(LaurentPoly({0: 1, m: -1}) for m in ms))
shared_factor_pairs = st.tuples(st.one_of(nonzero_dicts, monomial_dicts),
                                nonzero_dicts, nonzero_dicts).map(
    lambda t: (lp(t[0]) * lp(t[2]), lp(t[1]) * lp(t[2])))
dbeta_pairs = st.tuples(st.one_of(nonzero_dicts, monomial_dicts),
                        st.sampled_from(({0: 1, 1: 1}, {0: 1, 1: -1})),
                        dbeta, st.integers(min_value=-3, max_value=3)).map(
    lambda t: (lp(t[0]) * lp(t[1]), t[2].shift(t[3])))
monomial_pairs = st.one_of(
    st.tuples(monomial_dicts.map(lp), nonzero_dicts.map(lp)),
    st.tuples(nonzero_dicts.map(lp), monomial_dicts.map(lp)))


@settings(max_examples=300)
@given(st.one_of(shared_factor_pairs, dbeta_pairs, monomial_pairs),
       st.booleans(), st.booleans())
@example((lp({0: 1, 1: 1}), lp({0: 1, 2: -1})), False, False)
@example((lp({0: 2, 1: 2}), lp({0: 3, 2: -3})), False, True)
@example((lp({0: 1, 3: -2}), lp({1: 3, 4: 5})), True, False)
def test_ratfunc_matches_euclid_over_q(pair, neg_num, neg_den):
    """RatFunc(num, den) has the parts of the Euclid-over-Q reduction,
    value for value and type for type: on products with a shared factor,
    D(beta)-shaped denominators over numerators with a factor 1 + q or
    1 - q, Fraction coefficients, negative leads and monomials."""
    num, den = pair
    if neg_num:
        num = -num
    if neg_den:
        den = -den
    r = RatFunc(num, den)
    want_num, want_den = euclid_over_q_parts(num, den)
    assert typed(r.num.coeffs) == typed(want_num)
    assert typed(r.den.coeffs) == typed(want_den)


# -- integer work stays integral ---------------------------------------


@contextlib.contextmanager
def div_types():
    """The set of the types of the quotients qring._div returns inside the
    with block."""
    types = set()
    div = qring._div

    def recording(a, b):
        out = div(a, b)
        types.add(type(out))
        return out

    with mock.patch.object(qring, "_div", recording):
        yield types


def test_word_pairings_divide_only_ints(cartan_a2, cartan_b2, cartan_b2r,
                                        cartan_g2):
    """Every division that GramCache.pair_words makes, over every word
    pair of heights 3 and 4, is an int division with an int quotient."""
    with div_types() as seen:
        for cartan in (cartan_a2, cartan_b2, cartan_b2r, cartan_g2):
            cache = GramCache(cartan)
            for n in (3, 4):
                for ni in range(n + 1):
                    words = sequences(RootVector({"i": ni, "j": n - ni}))
                    for u in words:
                        for v in words:
                            cache.pair_words(u, v)
    assert seen == {int}


@settings(max_examples=150)
@given(laurent_dicts, laurent_dicts, laurent_dicts,
       st.sampled_from((1, -1)))
@example({0: 1, 2: 3}, {0: 1, 1: 1}, {0: 1, 1: 2}, 1)
def test_ratfunc_of_integer_inputs_divides_only_ints(a, b, g, unit):
    """RatFunc(a g, b g) with integer a, b, g and b of leading
    coefficient +-1 divides only ints: the gcd's pseudo-remainders, the
    division by the gcd and the division by the leading coefficient of
    the reduced denominator are all exact."""
    b = dict(b)
    b[max(b, default=-1) + 1] = unit
    g = lp(g) or lp({1: 3, 2: -2})
    with div_types() as seen:
        r = RatFunc(lp(a) * g, lp(b) * g)
    assert seen <= {int}
    assert all_int(r.num) and all_int(r.den)


# -- degree windows -----------------------------------------------------


def test_degree_window():
    w = DegreeWindow(-2, 3)
    assert list(w) == [-2, -1, 0, 1, 2, 3]
    assert -2 in w and 3 in w and 4 not in w
    with pytest.raises(ValueError):
        DegreeWindow(1, 0)


@pytest.mark.parametrize("lo,hi,bad", [(True, 2, True), (0, 2.5, 2.5),
                                        (0.0, 2, 0.0), (0, "2", "'2'"),
                                        (False, True, False)])
def test_degree_window_refuses_a_bound_that_is_no_int(lo, hi, bad):
    """A window bound must be an int, bool refused: DegreeWindow(0, 2.5)
    was accepted and a cohomology sweep over it died with a bare
    TypeError."""
    with pytest.raises(ValueError, match=f"window bound {bad} is not an int"):
        DegreeWindow(lo, hi)


# -- quantum combinatorics ----------------------------------------------


def test_quantum_integers():
    assert quantum_integer(0, 1).is_zero()
    assert quantum_integer(1, 1) == LaurentPoly.one()
    assert quantum_integer(2, 1) == LaurentPoly({-1: 1, 1: 1})
    assert quantum_integer(3, 2) == LaurentPoly({-4: 1, 0: 1, 4: 1})
    # bar invariance (symmetric in q <-> q^-1)
    for k in range(7):
        for d in (1, 2, 3):
            v = quantum_integer(k, d)
            assert v.bar() == v


def test_quantum_factorial_recursion():
    for d in (1, 2):
        acc = LaurentPoly.one()
        for k in range(1, 6):
            acc = acc * quantum_integer(k, d)
            assert quantum_factorial(k, d) == acc


def test_zeta_sigma():
    for k in range(64):
        assert zeta(k) == bin(k).count("1")
    # sigma on a single bit at position p is p; zeta-choose-2 corrects pairs
    for p in range(8):
        assert sigma(1 << p) == p
    assert sigma(0) == 0
    assert sigma(3) == 0          # bits 0,1
    assert sigma(5) == 1          # bits 0,2
    assert sigma(6) == 2          # bits 1,2
    assert sigma(7) == 0          # bits 0,1,2 minus 3 pairs
