"""The nil Hecke algebra as the KLR algebra on strands of one colour:
products of one-colour KLR elements against the faithful polynomial
action, and the idempotent e_n of the divided powers."""

import random
from fractions import Fraction

import pytest

from klrcalc import (
    KLRContext,
    KLRElement,
    Poly,
    idempotent_e_klr,
    klr_generator,
    klr_multiply,
    nh_act,
)
from klrcalc.polycalc import all_perms, canonical_word, longest_word

from conftest import A2_DOT, G2_DOT, make_cartan


@pytest.fixture(scope="module")
def ctx():
    return KLRContext(make_cartan(A2_DOT))


def random_element(rng, ctx, n, max_deg=6, nterms=3):
    nu = ("i",) * n
    words = [canonical_word(g) for g in all_perms(n)]
    terms = {}
    for _ in range(nterms):
        word = rng.choice(words)
        budget = rng.randint(0, max_deg)
        e = [0] * n
        for _ in range(budget):
            e[rng.randrange(n)] += 1
        terms[(nu, word, tuple(e))] = rng.randint(-4, 4)
    return KLRElement(ctx, n, terms)


def random_poly(rng, n, deg=4, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(n))
        terms[e] = Fraction(rng.randint(-5, 5))
    return Poly(n, {e: c for e, c in terms.items() if c})


def gen(ctx, kind, k, n):
    return klr_generator(ctx, kind, k, [("i",) * n])


def test_product_matches_operator_composition(ctx):
    """The KLR product agrees with composition of the polynomial
    operators on random inputs (the faithful representation)."""
    rng = random.Random(2024)
    checked = 0
    for n in range(2, 5):
        for _ in range(70):
            u = random_element(rng, ctx, n)
            v = random_element(rng, ctx, n)
            p = random_poly(rng, n)
            lhs = nh_act(klr_multiply(u, v), p)
            rhs = nh_act(u, nh_act(v, p))
            assert lhs == rhs
            checked += 1
    assert checked >= 200


def test_tau_squares_to_zero(ctx):
    for n in range(2, 5):
        for k in range(1, n):
            t = gen(ctx, "tau", k, n)
            assert klr_multiply(t, t).is_zero()


def test_braid_relation(ctx):
    for n in range(3, 5):
        for k in range(1, n - 1):
            a = gen(ctx, "tau", k, n)
            b = gen(ctx, "tau", k + 1, n)
            lhs = klr_multiply(klr_multiply(a, b), a)
            rhs = klr_multiply(klr_multiply(b, a), b)
            assert lhs == rhs
            assert lhs == KLRElement.monomial(
                ctx, ("i",) * n, longest_word(k, k + 2), (0,) * n)


def test_x_tau_commutation(ctx):
    # tau_k x_k - x_{k+1} tau_k = -1 = x_k tau_k - tau_k x_{k+1}
    for n in range(2, 4):
        for k in range(1, n):
            t = gen(ctx, "tau", k, n)
            xk = gen(ctx, "x", k, n)
            xk1 = gen(ctx, "x", k + 1, n)
            one = KLRElement.idem(ctx, ("i",) * n)
            assert klr_multiply(t, xk) - klr_multiply(xk1, t) == -one
            assert klr_multiply(xk, t) - klr_multiply(t, xk1) == -one


def test_idempotent(ctx):
    for n in range(1, 6):
        e = idempotent_e_klr(ctx, "i", n)
        assert klr_multiply(e, e) == e
        assert e.degree() == 0


def test_idempotent_acts_as_projection(ctx):
    # e_n projects onto a rank-one summand: on the staircase monomial it
    # acts as the Schubert-type operator with image 1 after full division
    rng = random.Random(5)
    for n in range(2, 5):
        e = idempotent_e_klr(ctx, "i", n)
        p = random_poly(rng, n)
        q = nh_act(e, p)
        assert nh_act(e, q) == q


def test_degrees(ctx):
    """A dot has degree (i, i) and a crossing -(i, i): on A2 the nil Hecke
    grading 2|a| - 2 l(w), on the long root of G2 three times it."""
    n = 3
    assert gen(ctx, "x", 1, n).degree() == 2
    assert gen(ctx, "tau", 1, n).degree() == -2
    u = klr_multiply(gen(ctx, "x", 2, n), gen(ctx, "tau", 1, n))
    assert u.degree() == 0
    g2 = KLRContext(make_cartan(G2_DOT))
    nu = ("j",) * n
    assert klr_generator(g2, "x", 1, [nu]).degree() == 6
    assert klr_generator(g2, "tau", 1, [nu]).degree() == -6


def test_action_refuses_other_inputs(ctx):
    """The action is defined on one colour and on polynomials in as many
    variables as there are strands."""
    mixed = KLRElement.idem(ctx, ("i", "j"))
    with pytest.raises(ValueError, match="more than one colour"):
        nh_act(mixed, Poly.one(2))
    with pytest.raises(ValueError, match="3 variables on 2 strands"):
        nh_act(KLRElement.idem(ctx, ("i", "i")), Poly.one(3))
