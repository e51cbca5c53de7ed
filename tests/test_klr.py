"""Quiver Hecke algebra arithmetic: defining relations, normal form,
graded bases, central elements, and the crossing-product identities."""

import itertools
import random
from fractions import Fraction

import pytest

from klrcalc import (
    KLRContext,
    KLRElement,
    Poly,
    RootVector,
    demazure,
    diamond,
    graded_basis,
    idempotent_e_klr,
    klr_generator,
    klr_multiply,
    klr_multiply_many,
    q_multi,
    relation_residues,
    rev,
    sequences,
    tau_word_degree,
)
from klrcalc.klr import _poly_on_strands


def all_words(h, letters=("i", "j")):
    for n in range(1, h + 1):
        yield from itertools.product(letters, repeat=n)


def tau_word_el(ctx, word, pos_nu):
    """tau_{k_1} ... tau_{k_r} 1_nu with nu in position order."""
    seqs = list(sequences(RootVector.from_word(pos_nu)))
    els = [klr_generator(ctx, "tau", k, seqs) for k in word]
    els.append(KLRElement.idem(ctx, pos_nu))
    return klr_multiply_many(*els)


def generators_for(ctx, beta):
    """All defining generators of the weight-beta block."""
    seqs = list(sequences(beta))
    n = len(seqs[0])
    gens = [klr_generator(ctx, "x", k, seqs) for k in range(1, n + 1)]
    gens += [klr_generator(ctx, "tau", k, seqs) for k in range(1, n)]
    gens += [KLRElement.idem(ctx, nu) for nu in seqs]
    return gens


# -- defining relations -------------------------------------------------


@pytest.mark.parametrize("which", ["a2", "b2", "b2r"])
def test_defining_relations_height_3(which, ctx_a2, ctx_b2, ctx_b2r):
    ctx = {"a2": ctx_a2, "b2": ctx_b2, "b2r": ctx_b2r}[which]
    for nu in all_words(3):
        for name, res in relation_residues(ctx, nu).items():
            assert res.is_zero(), (which, nu, name)


# -- crossing polynomial ------------------------------------------------


def test_q_poly_basics(ctx_a2, ctx_b2):
    assert ctx_a2.q_poly("i", "i").is_zero()
    # A2: Q_{ij}(u, v) has degree -c_{ij} = 1 in u
    q = ctx_a2.q_poly("i", "j")
    assert max(e[0] for e in q.terms) == 1
    # B2 with i short: Q_{ij} has u-degree 2, v-degree 1
    qb = ctx_b2.q_poly("i", "j")
    assert max(e[0] for e in qb.terms) == 2
    assert max(e[1] for e in qb.terms) == 1
    # Q_{ij}(u,v) = Q_{ji}(v,u)
    qr = ctx_a2.q_poly("j", "i")
    assert {(b, a): c for (a, b), c in qr.terms.items()} == q.terms


# -- normal form / basis ------------------------------------------------


def test_graded_basis_small(ctx_a2):
    assert len(graded_basis(ctx_a2, None, ("i",), 0)) == 1
    assert len(graded_basis(ctx_a2, None, ("i",), 2)) == 1
    assert len(graded_basis(ctx_a2, None, ("i",), 1)) == 0
    # two strands of the same color: nil Hecke pattern, graded dims of
    # x-monomials times {1, tau}
    assert len(graded_basis(ctx_a2, None, ("i", "i"), -2)) == 1
    # degree 0 on two equal-color strands: 1 and the two monomials x_k tau
    assert len(graded_basis(ctx_a2, None, ("i", "i"), 0)) == 3


def test_basis_counts_match_word_shuffles(ctx_a2):
    # dimension of 1_mu R 1_nu in low degree equals the PBW count
    for nu in all_words(3):
        n = len(nu)
        total = 0
        for d in range(-6, 7):
            gb = graded_basis(ctx_a2, None, tuple(nu), d)
            total += len(gb)
            for key in gb:
                el = KLRElement.monomial(ctx_a2, key[0], key[1], key[2])
                assert el.degree() == d
        assert total > 0


def test_products_stay_in_basis(ctx_a2):
    """Every term of a product is a normal-form key of the right degree."""
    rng = random.Random(3)
    beta = RootVector({"i": 2, "j": 1})
    gens = generators_for(ctx_a2, beta)
    for _ in range(40):
        u, v = rng.choice(gens), rng.choice(gens)
        p = klr_multiply(u, v)
        for key, c in p.terms.items():
            nu, word, exps = key
            d = p.term_degree(key)
            gb = graded_basis(ctx_a2, None, nu, d)
            assert key in set(gb)


def test_associativity_random(ctx_a2, ctx_b2):
    rng = random.Random(23)
    for ctx in (ctx_a2, ctx_b2):
        beta = RootVector({"i": 2, "j": 1})
        gens = generators_for(ctx, beta)
        for _ in range(60):
            u, v, w = (rng.choice(gens) for _ in range(3))
            assert klr_multiply(klr_multiply(u, v), w) == \
                klr_multiply(u, klr_multiply(v, w))


def test_idempotents(ctx_a2):
    for nu in all_words(3):
        e = KLRElement.idem(ctx_a2, tuple(nu))
        assert klr_multiply(e, e) == e
        assert e.degree() == 0
    e1 = KLRElement.idem(ctx_a2, ("i", "j"))
    e2 = KLRElement.idem(ctx_a2, ("j", "i"))
    assert klr_multiply(e1, e2).is_zero()


def test_divided_power_idempotent(ctx_a2):
    for m in range(1, 4):
        e = idempotent_e_klr(ctx_a2, "i", m)
        assert klr_multiply(e, e) == e


# -- the order-reversing anti-automorphism ------------------------------


def test_rev_is_anti_automorphism(ctx_a2, ctx_b2):
    rng = random.Random(29)
    for ctx in (ctx_a2, ctx_b2):
        beta = RootVector({"i": 2, "j": 1})
        gens = generators_for(ctx, beta)
        for _ in range(40):
            u, v = rng.choice(gens), rng.choice(gens)
            assert rev(klr_multiply(u, v)) == klr_multiply(rev(v), rev(u))
            assert rev(rev(u)) == u
            # term degrees are preserved as a multiset (tau generators
            # summed over color words are not homogeneous)
            r = rev(u)
            assert sorted(u.term_degree(k) for k in u.terms) == \
                sorted(r.term_degree(k) for k in r.terms)


# -- central elements ---------------------------------------------------


def test_sum_of_dots_is_central(ctx_a2, ctx_b2):
    for ctx in (ctx_a2, ctx_b2):
        for word in all_words(3):
            beta = RootVector.from_word(word)
            seqs = list(sequences(beta))
            n = len(word)
            z = None
            for k in range(1, n + 1):
                g = klr_generator(ctx, "x", k, seqs)
                z = g if z is None else z + g
            for g in generators_for(ctx, beta):
                assert klr_multiply(z, g) == klr_multiply(g, z)


def test_crossing_polynomial_coefficients_central(ctx_a2, ctx_b2):
    """Each u-coefficient of Q_{i,beta}(u, x_1..x_n), summed over color
    words, commutes with the whole weight block."""
    for ctx in (ctx_a2, ctx_b2):
        for i in ("i", "j"):
            other = "j" if i == "i" else "i"
            for h in (1, 2):
                beta = RootVector({other: h})
                seqs = list(sequences(beta))
                n = h
                # collect u-coefficients: q_multi vars are v_1..v_n, u last
                by_deg = {}
                for nu in seqs:
                    q = q_multi(i, nu, ctx)
                    for e, c in q.terms.items():
                        m = e[n]
                        p = by_deg.setdefault((nu, m), {})
                        p[e[:n]] = p.get(e[:n], Fraction(0)) + c
                degrees = sorted({m for (_, m) in by_deg})
                for m in degrees:
                    z = None
                    for nu in seqs:
                        p = by_deg.get((nu, m))
                        if not p:
                            continue
                        el = _poly_on_strands(ctx, nu, tuple(range(1, n + 1)),
                                              Poly(n, p))
                        z = el if z is None else z + el
                    if z is None:
                        continue
                    for g in generators_for(ctx, beta):
                        assert klr_multiply(z, g) == klr_multiply(g, z), \
                            (i, h, m)


# -- multi-strand crossing identities -----------------------------------


def _check_full_crossings(ctx, i, other, hmax, hmax3):
    for h in range(1, hmax + 1):
        for nu in itertools.product((other,), repeat=h):
            n = len(nu)
            q = q_multi(i, nu, ctx)        # vars v_1..v_n, u = x_{n+1}
            full = nu + (i,)
            lhs = tau_word_el(
                ctx, tuple(range(n, 0, -1)) + tuple(range(1, n + 1)), full)
            rhs = _poly_on_strands(ctx, full, tuple(range(1, n + 2)), q)
            assert lhs == rhs, ("down-up", i, nu)
            full2 = (i,) + nu
            lhs2 = tau_word_el(
                ctx, tuple(range(1, n + 1)) + tuple(range(n, 0, -1)), full2)
            rhs2 = _poly_on_strands(
                ctx, full2, tuple(range(2, n + 2)) + (1,), q)
            assert lhs2 == rhs2, ("up-down", i, nu)
    for h in range(1, hmax3 + 1):
        for nu in itertools.product((other,), repeat=h):
            n = len(nu)
            full = (i,) + nu + (i,)
            w1 = tuple(range(n + 1, 1, -1)) + (1,) + tuple(range(2, n + 2))
            w2 = tuple(range(1, n + 1)) + (n + 1,) + tuple(range(n, 0, -1))
            lhs = tau_word_el(ctx, w1, full) - tau_word_el(ctx, w2, full)
            q = q_multi(i, nu, ctx)
            big = {}
            for e, c in q.terms.items():
                ee = [0] * (n + 2)
                ee[n + 1] = e[n]            # u -> x_{n+2}
                for k in range(n):
                    ee[k + 1] = e[k]        # v_k -> x_{k+1}
                big[tuple(ee)] = c
            pol = demazure(1, n + 2, Poly(n + 2, big))
            rhs = _poly_on_strands(ctx, full, tuple(range(1, n + 3)), pol)
            assert lhs == rhs, ("commutator", i, nu)


def test_full_crossing_identities(ctx_a2, ctx_b2):
    for ctx in (ctx_a2, ctx_b2):
        for i, other in (("i", "j"), ("j", "i")):
            _check_full_crossings(ctx, i, other, hmax=2, hmax3=1)


# -- concatenation product ----------------------------------------------


def test_diamond_product(ctx_a2):
    e1 = KLRElement.idem(ctx_a2, ("i",))
    e2 = KLRElement.idem(ctx_a2, ("j",))
    d = diamond(e1, e2)
    assert klr_multiply(d, d) == d
    assert d.n == 2
    # diamond with the unit of the empty block is the identity operation
    x = klr_generator(ctx_a2, "x", 1, [("i",)])
    dx = diamond(x, e2)
    assert dx.degree() == 2


def _assert_canonical_words(el):
    for _, word, _ in el.terms:
        g = el.ctx.word_perm(word, el.n)
        assert word == el.ctx.canon(g), word


def test_diamond_keeps_canonical_words(ctx_a2, ctx_b2):
    """Canonical words of block permutations concatenate, so diamond
    products of basis monomials are basis monomials.  Covers the products
    that cut out the terms of the divided complexes (n + m <= 5 strands)
    and every pair of basis monomials on up to two plus two strands."""
    for ctx in (ctx_a2, ctx_b2):
        for n in range(1, 5):
            for m in range(0, 6 - n):
                for k in range(n + 1):
                    top = diamond(idempotent_e_klr(ctx, "i", n - k),
                                  KLRElement.idem(ctx, ("j",) * m))
                    _assert_canonical_words(top)
                    _assert_canonical_words(
                        diamond(top, idempotent_e_klr(ctx, "i", k)))
        monomials = [KLRElement.monomial(ctx, *key)
                     for nu in all_words(2) for d in range(-4, 5)
                     for key in graded_basis(ctx, None, nu, d)]
        for y in monomials:
            for z in monomials:
                _assert_canonical_words(diamond(y, z))


def test_tau_word_degree(ctx_a2, ctx_b2):
    # single crossing of distinct colors: degree -i.j (= 1 in A2, 2 in B2)
    assert tau_word_degree(ctx_a2, (1,), ("i", "j")) == 1
    assert tau_word_degree(ctx_b2, (1,), ("i", "j")) == 2
    # equal colors: degree -i.i = -2 d_i
    assert tau_word_degree(ctx_a2, (1,), ("i", "i")) == -2
    assert tau_word_degree(ctx_b2, (1,), ("j", "j")) == -4
