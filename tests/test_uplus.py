"""The decategorified shadow: the word algebra with its bilinear form,
twisted adjoint operators, Serre-quotient membership, and the comparison
of graded module dimensions with the form."""

import itertools
import random
from fractions import Fraction

import pytest

from klrcalc import (
    DegreeWindow,
    GramCache,
    LaurentPoly,
    RatFunc,
    RootVector,
    WordVector,
    ad_e,
    ad_e_divided,
    graded_basis,
    height,
    higher_serre_check,
    is_zero_mod_serre,
    k0_isometry_calibrate,
    pair,
    quantum_factorial,
    sequences,
    series_window,
    uplusi_member,
)


def q_rf(e):
    return RatFunc(LaurentPoly.q(e))


def one_minus_q(e):
    return RatFunc(LaurentPoly({0: 1, e: -1}))


# -- the bilinear form --------------------------------------------------


def test_generator_norm(cartan_a2, cartan_b2, cartan_g2):
    for cartan in (cartan_a2, cartan_b2, cartan_g2):
        cache = GramCache(cartan)
        for i in ("i", "j"):
            e = WordVector.generator(i)
            di = cartan.d(i)
            assert pair(e, e, cache) == RatFunc.one() / one_minus_q(2 * di)


def test_squared_generator_norm(cartan_a2):
    cache = GramCache(cartan_a2)
    e = WordVector.generator("i")
    ee = e * e
    num = RatFunc(LaurentPoly({0: 1, 2: 1}))
    den = one_minus_q(2) * one_minus_q(2)
    assert pair(ee, ee, cache) == num / den


def test_form_is_symmetric(cartan_a2, cartan_b2):
    """(u, v) = (v, u), the reversed pair computed in a second cache: one
    GramCache stores both argument orders as one entry."""
    rng = random.Random(41)
    for cartan in (cartan_a2, cartan_b2):
        cache = GramCache(cartan)
        mirror = GramCache(cartan)
        for h in (2, 3, 4):
            words = list(itertools.product("ij", repeat=h))
            for _ in range(15):
                w1, w2 = rng.choice(words), rng.choice(words)
                u = WordVector.from_word(w1)
                v = WordVector.from_word(w2)
                assert pair(u, v, cache) == pair(v, u, mirror)


def test_form_respects_weight(cartan_a2):
    cache = GramCache(cartan_a2)
    u = WordVector.from_word(("i", "j"))
    v = WordVector.from_word(("i", "i"))
    assert pair(u, v, cache).is_zero()


def oracle_pair_words(u, v, cartan, memo):
    """(e_u, e_v) by the RatFunc recursion, dividing by 1 - q^{(j, j)} at
    every level: the route the library used before it paired over the
    weight's fixed denominator."""
    if len(u) != len(v):
        return RatFunc.zero()
    if not u:
        return RatFunc.one()
    got = memo.get((u, v))
    if got is not None:
        return got
    j = v[-1]
    acc = RatFunc.zero()
    for p in range(len(u)):
        if u[p] == j:
            e = sum(cartan.dot(j, u[t]) for t in range(p))
            acc = acc + RatFunc.q(e) * oracle_pair_words(
                u[:p] + u[p + 1:], v[:-1], cartan, memo)
    memo[(u, v)] = acc / one_minus_q(cartan.dot(j, j))
    return memo[(u, v)]


def termwise_pair(u, v, cache):
    """The form as the sum of c1 c2 (w1, w2) over the term pairs, one
    RatFunc per term."""
    if u.beta != v.beta:
        return RatFunc.zero()
    acc = RatFunc.zero()
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            acc = acc + c1 * c2 * cache.pair_words(w1, w2)
    return acc


def test_pair_words_matches_ratfunc_recursion(cartan_a2, cartan_b2,
                                              cartan_b2r, cartan_g2):
    """N(u, v) / D(beta) equals the RatFunc recursion on every pair of
    words of one height <= 4, equal weights or not, and the memoized
    numerators are dicts of ints."""
    for cartan in (cartan_a2, cartan_b2, cartan_b2r, cartan_g2):
        cache = GramCache(cartan)
        memo = {}
        unequal = 0
        for h in range(5):
            words = list(itertools.product("ij", repeat=h))
            for u in words:
                for v in words:
                    want = oracle_pair_words(u, v, cartan, memo)
                    assert cache.pair_words(u, v) == want, (u, v)
                    if sorted(u) != sorted(v):
                        unequal += 1
                        assert want.is_zero()
        assert unequal
        assert cache.pair_words(("i",), ("i", "j")).is_zero()
        assert all(type(e) is int and type(c) is int
                   for n in cache._num.values() for e, c in n.items())


def _rescaled(v):
    """v with its coefficients multiplied in turn by 1/2, -3 and
    q/(1 + q^2): rational scalars and more than one denominator."""
    units = [RatFunc(LaurentPoly({0: Fraction(1, 2)})),
             RatFunc(LaurentPoly({0: -3})),
             RatFunc(LaurentPoly.q(1), LaurentPoly({0: 1, 2: 1}))]
    return WordVector(v.beta, {w: c * units[k % len(units)]
                               for k, (w, c) in
                               enumerate(sorted(v.terms.items()))})


def _serre_grid(cartan):
    """The ad_e_divided outputs of the Serre grid (both colour orders,
    n >= 0, m >= 1, n + m <= 4) as (i, j, n, m, vector)."""
    for i, j in (("i", "j"), ("j", "i")):
        for n in range(0, 5):
            for m in range(1, 5 - n):
                yield i, j, n, m, ad_e_divided(
                    n, i, WordVector.from_word((j,) * m), cartan)


@pytest.mark.parametrize("which", ["a2", "b2", "b2r", "g2"])
def test_pair_matches_termwise_sum(which, cartan_a2, cartan_b2, cartan_b2r,
                                   cartan_g2):
    """pair, which puts both vectors over a common denominator and builds
    one RatFunc, equals the term-by-term sum on the ad_e_divided outputs
    of the Serre grid, paired with every word of their weight and with
    themselves, and on the same vectors with rational coefficients of
    several denominators, paired with themselves."""
    cartan = {"a2": cartan_a2, "b2": cartan_b2, "b2r": cartan_b2r,
              "g2": cartan_g2}[which]
    cache = GramCache(cartan)
    many_dens = 0
    for i, j, n, m, v in _serre_grid(cartan):
        r = _rescaled(v)
        many_dens += len({c.den for c in r.terms.values()}) > 1
        for w in sequences(v.beta):
            u = WordVector.from_word(tuple(reversed(w)))
            assert pair(u, v, cache) == termwise_pair(u, v, cache), \
                (i, j, n, m)
        for x in (v, r):
            assert pair(x, x, cache) == termwise_pair(x, x, cache), \
                (i, j, n, m)
    assert many_dens


@pytest.mark.parametrize("which", ["a2", "b2", "b2r", "g2"])
def test_zero_tests_match_termwise_route(which, cartan_a2, cartan_b2,
                                         cartan_b2r, cartan_g2):
    """is_zero_mod_serre(v) holds iff termwise_pair(w, v) is zero for
    every word w of v's weight, and uplusi_member(v, i) iff it is zero
    for every such w that begins with i: on the ad_e_divided outputs of
    the Serre grid and on their copies with rational coefficients of
    several denominators.  Both verdicts occur for both tests."""
    cartan = {"a2": cartan_a2, "b2": cartan_b2, "b2r": cartan_b2r,
              "g2": cartan_g2}[which]
    cache = GramCache(cartan)
    seen = set()
    for i, j, n, m, v in _serre_grid(cartan):
        words = [tuple(reversed(w)) for w in sequences(v.beta)]
        for x in (v, _rescaled(v)):
            null = {w: termwise_pair(WordVector.from_word(w), x,
                                     cache).is_zero() for w in words}
            got = is_zero_mod_serre(x, cache)
            assert got == all(null.values()), (i, j, n, m)
            seen.add(("serre", got))
            for k in ("i", "j"):
                got = uplusi_member(x, k, cache)
                assert got == all(z for w, z in null.items()
                                  if w[0] == k), (i, j, n, m, k)
                seen.add(("member", got))
    assert seen == {("serre", True), ("serre", False),
                    ("member", True), ("member", False)}


# -- quantum Serre relations --------------------------------------------


def serre_element(i, j, cartan):
    """ad_i^(1 - c_ij)(e_j), which must vanish modulo the radical."""
    n = 1 - cartan.cartan(i, j)
    return ad_e_divided(n, i, WordVector.generator(j), cartan)


@pytest.mark.parametrize("which", ["a2", "b2", "g2"])
def test_serre_element_is_null(which, cartan_a2, cartan_b2, cartan_g2):
    cartan = {"a2": cartan_a2, "b2": cartan_b2, "g2": cartan_g2}[which]
    cache = GramCache(cartan)
    for i, j in (("i", "j"), ("j", "i")):
        v = serre_element(i, j, cartan)
        assert not v.is_zero()          # nonzero as a word vector
        assert is_zero_mod_serre(v, cache)   # but null for the form


@pytest.mark.parametrize("which", ["a2", "b2", "g2"])
def test_higher_serre_grid(which, cartan_a2, cartan_b2, cartan_g2):
    cartan = {"a2": cartan_a2, "b2": cartan_b2, "g2": cartan_g2}[which]
    cache = GramCache(cartan)
    for i, j in (("i", "j"), ("j", "i")):
        for n in range(0, 5):
            for m in range(1, 5 - n):
                assert higher_serre_check(n, m, i, j, cache), (i, j, n, m)


# -- divided adjoint powers ---------------------------------------------


def iterated_divided_adjoint(n, i, v, cartan):
    """ad_i applied n times, divided by [n]_i!: an independent route to
    the divided adjoint power."""
    for _ in range(n):
        v = ad_e(i, v, cartan)
    return v.scale(RatFunc(LaurentPoly.one(),
                           quantum_factorial(n, cartan.d(i))))


def test_divided_adjoint_two_routes(cartan_a2, cartan_b2, cartan_b2r,
                                    cartan_g2):
    """The closed alternating sum of ad_e_divided equals iterated ad_e
    divided by [n]_i!, on every generator for n <= 4, on the grid of
    higher_serre_check (e_j^m with n + m <= 4) and, for n <= 3, on the
    rescaled ad_j(e_i): its words j i and i j give the same word for
    different k.  For every built-in datum."""
    for cartan in (cartan_a2, cartan_b2, cartan_b2r, cartan_g2):
        for i in ("i", "j"):
            for base in ("i", "j"):
                v = WordVector.generator(base)
                for n in range(0, 5):
                    assert ad_e_divided(n, i, v, cartan) == \
                        iterated_divided_adjoint(n, i, v, cartan), \
                        (i, base, n)
            j = "j" if i == "i" else "i"
            v = _rescaled(ad_e(j, WordVector.generator(i), cartan))
            assert len(v.terms) == 2
            for n in range(0, 4):
                assert ad_e_divided(n, i, v, cartan) == \
                    iterated_divided_adjoint(n, i, v, cartan), (i, j, n)
        for i, j in (("i", "j"), ("j", "i")):
            for n in range(0, 5):
                for m in range(1, 5 - n):
                    v = WordVector.from_word((j,) * m)
                    assert ad_e_divided(n, i, v, cartan) == \
                        iterated_divided_adjoint(n, i, v, cartan), \
                        (i, j, n, m)


def test_q_leibniz(cartan_a2, cartan_b2):
    """ad_i(uv) = ad_i(u) v + q^(i,wt u) u ad_i(v), exactly."""
    rng = random.Random(43)
    for cartan in (cartan_a2, cartan_b2):
        for _ in range(20):
            h1, h2 = rng.randint(1, 2), rng.randint(1, 2)
            w1 = tuple(rng.choice("ij") for _ in range(h1))
            w2 = tuple(rng.choice("ij") for _ in range(h2))
            u = WordVector.from_word(w1)
            v = WordVector.from_word(w2)
            i = rng.choice("ij")
            lhs = ad_e(i, u * v, cartan)
            w = sum(cartan.dot(i, c) for c in w1)
            rhs = ad_e(i, u, cartan) * v + \
                (u * ad_e(i, v, cartan)).scale(q_rf(w))
            key_terms = lhs - rhs
            assert key_terms.is_zero()


# -- membership in the twisted-derivation kernel algebra ----------------


def test_uplusi_membership(cartan_a2):
    cache = GramCache(cartan_a2)
    ej = WordVector.generator("j")
    # ad_i(e_j) lies in the i-kernel subalgebra, e_j itself does too
    assert uplusi_member(ad_e("i", ej, cartan_a2), "i", cache)
    assert uplusi_member(ej, "i", cache)
    # e_i does not (it generates the complementary side)
    ei = WordVector.generator("i")
    assert not uplusi_member(ei, "i", cache)
    # e_j e_i has a nonzero i-derivative, so it is not a member
    assert not uplusi_member(ej * ei, "i", cache)


# -- independence of layer products (injective multiplication) ----------


def _rf_rank(rows):
    """Row rank of a matrix of rational functions, by exact elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat))
                    if not mat[r][col].is_zero()), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        for r in range(len(mat)):
            if r != rank and not mat[r][col].is_zero():
                f = mat[r][col] / prow[col]
                mat[r] = [a - f * b for a, b in zip(mat[r], prow)]
        rank += 1
    return rank


def test_layer_products_independent(cartan_a2, cartan_b2):
    """Products {ad_i-kernel element} * e_i^m of a fixed weight are
    linearly independent: the Gram matrix has full rank (height <= 3)."""
    for cartan in (cartan_a2, cartan_b2):
        cache = GramCache(cartan)
        ei = WordVector.generator("i")
        ej = WordVector.generator("j")
        kernel_layers = {
            (0, 1): [ej],                               # weight j
            (1, 1): [ad_e("i", ej, cartan)],            # weight i + j
        }
        cij = cartan.cartan("i", "j")
        if -cij >= 2:
            kernel_layers[(2, 1)] = [ad_e_divided(2, "i", ej, cartan)]
        for (a, b), layer in kernel_layers.items():
            for m in range(0, 3 - a - b + 1):
                prods = []
                for v in layer:
                    p = v
                    for _ in range(m):
                        p = p * ei
                    prods.append(p)
                # also the pure comparison vectors of the same weight
                gram = [[pair(u, v, cache) for v in prods] for u in prods]
                assert _rf_rank(gram) == len(prods), (a, b, m)


# -- comparison of module dimensions with the form ----------------------


K0_SHIFTS_A2 = {
    (1, 0): 0,
    (2, 0): 2,
    (1, 1): -1,
    (2, 1): 0,
    (1, 2): 0,
}


def test_k0_calibration_heights_up_to_3(ctx_a2):
    w = DegreeWindow(0, 10)
    for (a, b), shift in K0_SHIFTS_A2.items():
        beta = RootVector({"i": a, "j": b})
        report = k0_isometry_calibrate(beta, w, ctx_a2)
        assert report["shift"] == shift, (a, b)
        npairs = len(list(sequences(beta))) ** 2
        assert len(report["pairs"]) == npairs


def _k0_by_graded_basis(beta, window, ctx):
    """k0_isometry_calibrate by the window route: the form expanded as a
    power series over a padded window and compared, degree by degree in
    window, with len(graded_basis(...)) of the (mu, nu) block."""
    cache = GramCache(ctx.cartan)
    words = [tuple(reversed(s)) for s in sequences(beta)]
    pad = 2 * sum(abs(ctx.cartan.dot(a, b))
                  for a in beta.coeffs for b in beta.coeffs) \
        * max(height(beta), 1) + 2
    wide = DegreeWindow(window.d_min - pad, window.d_max + pad)
    entries = []
    shifts = set()
    for mu in words:
        for nu in words:
            form = series_window(
                pair(WordVector.from_word(mu), WordVector.from_word(nu),
                     cache), wide)
            dims = {}
            for d in wide:
                k = len(graded_basis(ctx, tuple(reversed(mu)),
                                     tuple(reversed(nu)), d))
                if k:
                    dims[d] = Fraction(k)
            if not dims and form.is_zero():
                continue
            if not dims or form.is_zero():
                raise ValueError("vanishing")
            s = min(e for e, c in form.coeffs.items() if c) - min(dims)
            for d in window:
                if form.coeff(d + s) != dims.get(d, 0):
                    raise ValueError("no shift")
            shifts.add(s)
            entries.append({"left": mu, "right": nu, "shift": s})
    if len(shifts) > 1:
        raise ValueError("not uniform")
    return {
        "weight": dict(beta.coeffs),
        "window": [window.d_min, window.d_max],
        "shift": (sorted(shifts)[0] if shifts else None),
        "pairs": entries,
    }


def test_k0_calibration_matches_per_degree_route(ctx_a2, ctx_b2, ctx_b2r,
                                                 ctx_g2):
    """The polynomial identity N = q^s P gives the same report as
    comparing the window expansion of the form with graded_basis counts
    degree by degree, for every weight of height <= 3 on A2, B2, B2r and
    G2, and of height 4 on A2."""
    w = DegreeWindow(0, 6)
    for ctx, top in ((ctx_a2, 4), (ctx_b2, 3), (ctx_b2r, 3), (ctx_g2, 3)):
        for h in range(1, top + 1):
            for a in range(h + 1):
                beta = RootVector({"i": a, "j": h - a})
                assert k0_isometry_calibrate(beta, w, ctx) == \
                    _k0_by_graded_basis(beta, w, ctx), (a, h - a)


def test_k0_window_is_report_only(ctx_b2):
    """The identity decides every degree at once: a window far from the
    support of every block changes only the report's window field."""
    beta = RootVector({"i": 2, "j": 1})
    near = k0_isometry_calibrate(beta, DegreeWindow(0, 6), ctx_b2)
    far = k0_isometry_calibrate(beta, DegreeWindow(-90, -80), ctx_b2)
    assert far["window"] == [-90, -80]
    assert {**far, "window": near["window"]} == near
