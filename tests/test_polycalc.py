"""Permutations, reduced words, polynomial action, and divided difference
operators."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from klrcalc import (
    Perm,
    Poly,
    act,
    canonical_word,
    demazure,
    demazure_seq,
    longest_word,
    perm_of_word,
)
from klrcalc.polycalc import _coset_images, all_perms


def random_poly(rng, n, deg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(n))
        terms[e] = Fraction(rng.randint(-5, 5))
    return Poly(n, {e: c for e, c in terms.items() if c})


perms = st.permutations(list(range(1, 5))).map(lambda im: Perm(tuple(im)))


# -- permutations and words ---------------------------------------------


@settings(max_examples=80)
@given(perms)
def test_canonical_word_round_trip(g):
    w = canonical_word(g)
    assert len(w) == g.length()
    assert perm_of_word(w, g.n) == g


@settings(max_examples=80)
@given(perms, perms)
def test_length_subadditive_and_inverse(g, h):
    assert (g * h).length() <= g.length() + h.length()
    assert g.inv().length() == g.length()
    assert g * g.inv() == Perm.identity(g.n)


def test_longest_word():
    w0 = longest_word(1, 4)
    assert len(w0) == 6
    g = perm_of_word(w0, 4)
    assert g.images == (4, 3, 2, 1)


def test_all_perms_counts():
    for n in range(1, 6):
        ps = list(all_perms(n))
        assert len(ps) == len(set(ps))
        import math
        assert len(ps) == math.factorial(n)


# -- polynomial action --------------------------------------------------


def test_act_is_group_action():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 4)
        p = random_poly(rng, n)
        ims1 = list(range(1, n + 1))
        rng.shuffle(ims1)
        ims2 = list(range(1, n + 1))
        rng.shuffle(ims2)
        g, h = Perm(tuple(ims1)), Perm(tuple(ims2))
        assert act(g, act(h, p)) == act(g * h, p)
        assert act(Perm.identity(n), p) == p


def test_act_on_variables():
    p = Poly.x(1, 3)
    s1 = Perm.s(1, 3)
    assert act(s1, p) == Poly.x(2, 3)
    assert act(s1, Poly.x(3, 3)) == Poly.x(3, 3)


# -- divided differences ------------------------------------------------


def test_demazure_kills_symmetric():
    rng = random.Random(11)
    for _ in range(20):
        p = random_poly(rng, 3)
        sym = p + act(Perm.s(1, 3), p)
        assert demazure(1, 2, sym).is_zero()


def test_demazure_squares_to_zero():
    rng = random.Random(13)
    for _ in range(20):
        p = random_poly(rng, 3)
        assert demazure(1, 2, demazure(1, 2, p)).is_zero()
        assert demazure(2, 3, demazure(2, 3, p)).is_zero()


def test_demazure_twisted_leibniz():
    rng = random.Random(17)
    s = Perm.s(1, 3)
    for _ in range(20):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        lhs = demazure(1, 2, f * g)
        rhs = demazure(1, 2, f) * g + act(s, f) * demazure(1, 2, g)
        assert lhs == rhs


def test_demazure_values():
    x1, x2 = Poly.x(1, 2), Poly.x(2, 2)
    assert demazure(1, 2, x1) == -Poly.one(2)
    assert demazure(1, 2, x2) == Poly.one(2)
    assert demazure(1, 2, x1 * x2).is_zero()
    assert demazure(1, 2, x2 * x2) == x1 + x2


def test_demazure_seq_braid():
    rng = random.Random(19)
    for _ in range(20):
        p = random_poly(rng, 3, deg=4)
        assert demazure_seq((1, 2, 1), p) == demazure_seq((2, 1, 2), p)


def _transposition(k, l, n):
    im = list(range(1, n + 1))
    im[k - 1], im[l - 1] = l, k
    return Perm(im)


def test_demazure_inverts_multiplication_by_root():
    """(x_l - x_k) d_{k,l} f = f - s_{k,l} f on seeded polynomials in three
    and four variables, for adjacent and non-adjacent k < l."""
    rng = random.Random(23)
    for n in (3, 4):
        for k in range(1, n + 1):
            for l in range(k + 1, n + 1):
                root = Poly.x(l, n) - Poly.x(k, n)
                for _ in range(15):
                    f = random_poly(rng, n, deg=4, nterms=6)
                    assert root * demazure(k, l, f) == \
                        f - act(_transposition(k, l, n), f), (n, k, l, f)


def test_permute_tuple_matches_inverse_definition():
    """Position p of g.permute_tuple(t) carries t at g^-1(p), for every g
    in S_n, n <= 5, on a tuple of distinct labels."""
    for n in range(6):
        t = tuple("abcdef"[:n])
        for g in all_perms(n):
            ginv = g.inv()
            assert g.permute_tuple(t) == \
                tuple(t[ginv(p) - 1] for p in range(1, n + 1)), g


def test_coset_images_match_filtered_permutations():
    """_coset_images(n, rises) yields exactly the image tuples of the
    permutations u with u(p) < u(p + 1) for each p in rises, in the
    order of all_perms, for every set of rises of S_n, n <= 6."""
    for n in range(7):
        perms = [g.images for g in all_perms(n)]
        for mask in range(1 << max(n - 1, 0)):
            rises = {p for p in range(1, n) if mask >> (p - 1) & 1}
            assert list(_coset_images(n, rises)) == \
                [u for u in perms
                 if all(u[p - 1] < u[p] for p in rises)], (n, rises)
