"""Quiver Hecke algebra arithmetic: defining relations, normal form,
graded bases, central elements, and the crossing-product identities."""

import gc
import itertools
import math
import random
import time
from collections import deque
from fractions import Fraction
from operator import add

import pytest

from klrcalc import (
    CartanDatum,
    KLRContext,
    KLRElement,
    Perm,
    Poly,
    RootVector,
    demazure,
    diamond,
    graded_basis,
    idempotent_e_klr,
    klr_generator,
    klr_multiply,
    klr_multiply_many,
    nh_act,
    perm_of_word,
    relation_residues,
    rev,
    sequences,
    tau_word_degree,
)
from klrcalc import klr
from klrcalc.klr import _canonical_shape, _insertion_moves, _poly_on_strands
from klrcalc.polycalc import (all_perms, canonical_word, demazure_monomial,
                              longest_word)

from conftest import (A2_DOT, B2R_DOT, G2_DOT, HALF_UNITS, make_cartan,
                      q_multi)


# C3 by its dot form: j-k is a double bond, (k, k) = 2, and i, k are
# orthogonal; the units make Q_{j,k} and the orthogonal Q_{i,k} = 2 differ
# from the defaults.
C3_DOT = [[4, -2, 0], [-2, 4, -2], [0, -2, 2]]
C3_UNITS = {("i", "k"): {"t": 2}, ("j", "k"): {"t": -3}}

# (labels, dot form, units) of the data whose products are checked
# against an oracle on every colour word: three rank-two data and C3.
DATA = {
    "a2": (("i", "j"), A2_DOT, None),
    "b2r": (("i", "j"), B2R_DOT, None),
    "g2": (("i", "j"), G2_DOT, None),
    "c3": (("i", "j", "k"), C3_DOT, C3_UNITS),
}


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


def oracle_relation_residues(ctx, nu):
    """relation_residues with every product folded from the left,
    (((g_1 g_2) ...) g_r) 1_nu, and each generator built at each use."""
    nu = tuple(nu)
    n = len(nu)
    seqs = list(sequences(RootVector.from_word(nu)))
    one = KLRElement.idem(ctx, nu)

    def x(k):
        return klr_generator(ctx, "x", k, seqs)

    def t(k):
        return klr_generator(ctx, "tau", k, seqs)

    def prod(*els):
        out = els[0]
        for g in els[1:] + (KLRElement.idem(ctx, nu),):
            out = klr_multiply(out, g)
        return out

    out = {"idem_square": klr_multiply(one, one) - one}
    for mu in seqs:
        if mu != nu:
            out["idem_orthogonal"] = klr_multiply(KLRElement.idem(ctx, mu), one)
            break
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            out[f"x_commute_{k}_{l}"] = prod(x(k), x(l)) - prod(x(l), x(k))
    for k in range(1, n):
        snu = list(nu)
        snu[k - 1], snu[k] = snu[k], snu[k - 1]
        tk = prod(t(k))
        out[f"tau_idem_{k}"] = klr_multiply(
            KLRElement.idem(ctx, tuple(snu)), tk) - tk
        qel = _poly_on_strands(ctx, nu, (k, k + 1),
                               ctx.q_poly(nu[k - 1], nu[k]))
        out[f"tau_square_{k}"] = prod(t(k), t(k)) - qel
        for l in range(1, n + 1):
            if l not in (k, k + 1):
                out[f"tau_x_far_{k}_{l}"] = \
                    prod(t(k), x(l)) - prod(x(l), t(k))
        delta = one if nu[k - 1] == nu[k] else KLRElement(ctx, n)
        out[f"mixed_left_{k}"] = \
            prod(t(k), x(k + 1)) - prod(x(k), t(k)) - delta
        out[f"mixed_right_{k}"] = \
            prod(x(k + 1), t(k)) - prod(t(k), x(k)) - delta
        for l in range(k + 2, n):
            out[f"tau_far_{k}_{l}"] = prod(t(k), t(l)) - prod(t(l), t(k))
    for k in range(1, n - 1):
        lhs = prod(t(k + 1), t(k), t(k + 1)) - prod(t(k), t(k + 1), t(k))
        if nu[k - 1] == nu[k + 1]:
            q = ctx.q_poly(nu[k - 1], nu[k])
            err = {}
            for (a, b), c in q.terms.items():
                for s in range(a):
                    e = (s, b, a - 1 - s)
                    err[e] = err.get(e, 0) + c
            lhs = lhs - _poly_on_strands(ctx, nu, (k, k + 1, k + 2),
                                         Poly(3, err))
        out[f"braid_{k}"] = lhs
    return out


@pytest.mark.parametrize("labels, dot, units", DATA.values(),
                         ids=DATA.keys())
def test_defining_relations_height_4_match_left_fold(labels, dot, units):
    """On every height-4 colour word the residues vanish, and the
    right-folded products, their partial products shared within the call,
    give the same names in the same order as the left-folded oracle, each
    residue equal to the oracle's."""
    ctx = KLRContext(CartanDatum(list(labels), dot), units)
    oracle_ctx = KLRContext(CartanDatum(list(labels), dot), units)
    for nu in itertools.product(labels, repeat=4):
        res = relation_residues(ctx, nu)
        oracle = oracle_relation_residues(oracle_ctx, nu)
        assert list(res) == list(oracle), nu
        assert res == oracle, nu
        assert all(r.is_zero() for r in res.values()), nu


def test_residues_multiply_each_partial_product_once(monkeypatch):
    """Within one relation_residues call no pair of operands reaches
    klr_multiply twice, so each (generator, chain) product is made once;
    a second call on the same context and word makes the same products
    again (nothing is kept between calls), and a context made afterwards
    gets residues of its own.  Every height-4 word of A2, B2r and G2."""
    real = klr.klr_multiply
    calls = []

    def spy(u, v):
        calls.append((frozenset(u.terms.items()), frozenset(v.terms.items())))
        return real(u, v)

    monkeypatch.setattr(klr, "klr_multiply", spy)
    for dot in (A2_DOT, B2R_DOT, G2_DOT):
        ctx = KLRContext(make_cartan(dot))
        for nu in itertools.product(("i", "j"), repeat=4):
            calls.clear()
            first = relation_residues(ctx, nu)
            made = list(calls)
            assert len(set(made)) == len(made), nu
            calls.clear()
            assert relation_residues(ctx, nu) == first, nu
            assert calls == made, nu
        fresh = KLRContext(make_cartan(dot))
        res = relation_residues(fresh, ("i", "j", "i", "j"))
        assert all(r.ctx is fresh for r in res.values())


def test_residue_memo_dies_with_the_call():
    """relation_residues leaves nothing for the cycle collector, so the
    partial products it shares are freed when the call returns, not at
    the next collection."""
    ctx = KLRContext(make_cartan(G2_DOT))
    gc.collect()
    gc.disable()
    try:
        for nu in itertools.product(("i", "j"), repeat=4):
            relation_residues(ctx, nu)
            assert gc.collect() == 0, nu
    finally:
        gc.enable()


@pytest.mark.parametrize("nu", [("k",), ("i", "k"), ("k", "j", "i")],
                         ids=["k", "i-k", "k-j-i"])
def test_relation_residues_refuse_unknown_colours(nu, ctx_a2):
    """A colour the Cartan datum lacks raises a ValueError naming it, not
    a residue dict or a bare KeyError from the root data."""
    with pytest.raises(ValueError, match="colour 'k' is not a label"):
        relation_residues(ctx_a2, nu)


UNKNOWN_COLOUR_ELEMENTS = {
    "idem": lambda ctx: KLRElement.idem(ctx, ("i", "k")),
    "monomial": lambda ctx: KLRElement.monomial(ctx, ("k", "i"), (1,),
                                                (0, 1)),
    "generator": lambda ctx: klr_generator(ctx, "x", 1,
                                           [("i", "j"), ("i", "k")]),
}


@pytest.mark.parametrize("q_config", [{("i", "k"): {"t": 2}},
                                      {("k", "j"): {"terms": []}}])
def test_context_refuses_unknown_colours_in_the_q_table(q_config,
                                                        cartan_a2):
    with pytest.raises(ValueError, match="colour 'k' is not a label"):
        KLRContext(cartan_a2, q_config)


@pytest.mark.parametrize("words", [[("i",), ("i", "j")],
                                   [("i", "j"), ("i", "i")]])
def test_generator_refuses_words_of_mixed_weight(words, ctx_a2):
    """klr_generator sets its terms directly, so it checks itself that its
    colour words share one weight: words of two lengths would give a key
    on too few strands, and words of two weights a mixed element."""
    for kind in ("x", "tau"):
        with pytest.raises(ValueError, match="differ in weight"):
            klr_generator(ctx_a2, kind, 1, words)


def test_generator_refuses_a_root_vector(ctx_a2):
    """The colour words are words, not a weight: sequences(beta) gives
    them."""
    with pytest.raises(TypeError):
        klr_generator(ctx_a2, "x", 1, RootVector({"i": 1, "j": 1}))


@pytest.mark.parametrize("index", [1.7, 1.0, True])
def test_generator_refuses_a_strand_index_that_is_no_int(index, ctx_a2):
    """The strand index is refused, not truncated: int() made 1.7 the index
    of tau_1 and True that of x_1."""
    for kind in ("x", "tau"):
        with pytest.raises(ValueError,
                           match=f"strand index {index!r} is not an int"):
            klr_generator(ctx_a2, kind, index, [("i", "j")])


@pytest.mark.parametrize("make", UNKNOWN_COLOUR_ELEMENTS.values(),
                         ids=UNKNOWN_COLOUR_ELEMENTS.keys())
def test_element_constructors_refuse_unknown_colours(make, ctx_a2):
    """The element constructors refuse a colour the Cartan datum lacks
    with a ValueError naming it; the element they built would die with a
    bare KeyError in .degree() or in a cyclic module."""
    with pytest.raises(ValueError, match="colour 'k' is not a label"):
        make(ctx_a2)


def test_multiply_many_folds_from_the_right(ctx_g2, monkeypatch):
    """klr_multiply_many(t_1, t_2, t_1, 1_nu) multiplies onto 1_nu first:
    every right operand of klr_multiply has right color word nu, and the
    product equals the left fold."""
    nu = ("i", "i", "j")
    seqs = list(sequences(RootVector.from_word(nu)))
    t1, t2 = (klr_generator(ctx_g2, "tau", k, seqs) for k in (1, 2))
    one = KLRElement.idem(ctx_g2, nu)
    left = klr_multiply(klr_multiply(klr_multiply(t1, t2), t1), one)
    real = klr.klr_multiply
    rights = []
    monkeypatch.setattr(klr, "klr_multiply",
                        lambda u, v: rights.append(v) or real(u, v))
    assert klr_multiply_many(t1, t2, t1, one) == left
    assert len(rights) == 3
    assert all(key[0] == nu for v in rights for key in v.terms)


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


def test_orthogonal_colours_share_one_unit():
    """For orthogonal colours (c_ij = c_ji = 0) Q_{i,j} = Q_{j,i} is the
    constant unit: a unit given for either order serves both, the same
    unit given for both orders is accepted, the defining relations hold,
    and two different units are refused."""
    cartan = make_cartan([[2, 0], [0, 2]])
    assert KLRContext(cartan).q_poly("i", "j").terms == {(0, 0): 1}
    for cfg in ({("i", "j"): {"t": 5}}, {("j", "i"): {"t": 5}},
                {("i", "j"): {"t": 5}, ("j", "i"): {"t": "5"}}):
        ctx = KLRContext(cartan, cfg)
        for i, j in (("i", "j"), ("j", "i")):
            assert ctx.q_poly(i, j).terms == {(0, 0): 5}, (cfg, i, j)
        for nu in all_words(3):
            for name, res in relation_residues(ctx, nu).items():
                assert res.is_zero(), (cfg, nu, name)
    for cfg in ({("i", "j"): {"t": 5}, ("j", "i"): {"t": 3}},
                {("j", "i"): {"t": 3}, ("i", "j"): {"t": 5}}):
        with pytest.raises(ValueError, match="orthogonal colours must agree"):
            KLRContext(cartan, cfg)


def test_q_terms_of_both_orders_must_mirror():
    """Extra Q terms given for both (i,j) and (j,i) must be mirror images,
    so that Q_{i,j}(u,v) = Q_{j,i}(v,u); mirror images are accepted, in any
    order and split, and give that identity, as do terms given for (i,j)
    alone."""
    cartan = make_cartan([[2, -4], [-4, 2]])
    with pytest.raises(ValueError, match="not mirror images"):
        KLRContext(cartan, {("i", "j"): {"terms": [[1, 3, 1]]},
                            ("j", "i"): {"terms": [[2, 2, 5]]}})
    with pytest.raises(ValueError, match="not mirror images"):
        KLRContext(cartan, {("i", "j"): {"terms": [[1, 3, 1]]},
                            ("j", "i"): {"terms": [[3, 1, 2]]}})
    ctx = KLRContext(cartan, {
        ("i", "j"): {"terms": [[1, 3, 1], [2, 2, "5/2"], [2, 2, "5/2"]]},
        ("j", "i"): {"terms": [[2, 2, 5], [3, 1, 1]]}})
    q, qr = ctx.q_poly("i", "j"), ctx.q_poly("j", "i")
    assert q.terms == {(4, 0): 1, (0, 4): 1, (1, 3): 1, (2, 2): 5}
    assert {(b, a): c for (a, b), c in qr.terms.items()} == q.terms
    one = KLRContext(cartan, {("i", "j"): {"terms": [[1, 3, 1], [2, 2, 5]]}})
    assert one.q_poly("i", "j").terms == q.terms
    assert one.q_poly("j", "i").terms == qr.terms


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


def _brute_basis(ctx, nu, d_max):
    """Every PBW key x^a tau_w 1_nu of degree <= d_max with its left colour
    word, by a box search over exponents; a crossing of the strands that
    start at r < s (an inversion of w) has degree -(nu_r, nu_s)."""
    dot = ctx.cartan.dot
    n = len(nu)
    out = {}
    for g in all_perms(n):
        tau_deg = -sum(dot(nu[r], nu[s]) for r in range(n)
                       for s in range(r + 1, n) if g(r + 1) > g(s + 1))
        ginv = g.inv()
        lam = tuple(nu[ginv(p) - 1] for p in range(1, n + 1))
        weights = [dot(c, c) for c in lam]
        boxes = [range((d_max - tau_deg) // w + 1) for w in weights]
        for a in itertools.product(*boxes):
            deg = tau_deg + sum(x * w for x, w in zip(a, weights))
            if deg <= d_max:
                out.setdefault(deg, []).append(
                    (lam, (nu, canonical_word(g), a)))
    return out


def test_graded_basis_matches_box_search(ctx_a2, ctx_b2, ctx_g2):
    """On heights <= 3, graded_basis in degrees -6..6, unfiltered and
    filtered by each left colour word, equals a box search."""
    for ctx in (ctx_a2, ctx_b2, ctx_g2):
        for nu in all_words(3):
            brute = _brute_basis(ctx, nu, 6)
            lefts = set(itertools.permutations(nu))
            for d in range(-6, 7):
                found = brute.get(d, [])
                assert graded_basis(ctx, None, nu, d) == \
                    sorted(key for _, key in found), (nu, d)
                for mu in lefts:
                    assert graded_basis(ctx, mu, nu, d) == \
                        sorted(key for lam, key in found if lam == mu)


def _brute_cosets(ctx, nu, w0):
    """The PBW coset table from its definition: the g in S_n of least
    length in their coset g S_B, S_B the permutations that keep each block
    of w0's letters, in all_perms order, each with its left colour word,
    canonical word, x weights and crossing degree."""
    dot = ctx.cartan.dot
    n = len(nu)
    block = list(range(n + 1))      # block[p] = least position of p's block
    for p in sorted(set(w0)):
        block[p + 1] = block[p]
    perms = all_perms(n)
    parabolic = [v for v in perms
                 if all(block[v(p)] == block[p] for p in range(1, n + 1))]
    out = []
    for g in perms:
        if g.length() > min((g * v).length() for v in parabolic):
            continue
        ginv = g.inv()
        lam = tuple(nu[ginv(p) - 1] for p in range(1, n + 1))
        deg = -sum(dot(nu[r], nu[s]) for r in range(n)
                   for s in range(r + 1, n) if g(r + 1) > g(s + 1))
        out.append((lam, canonical_word(g),
                    tuple(dot(c, c) for c in lam), deg))
    return tuple(out)


def _two_blocks(nB, nA):
    """The w0 of product_dims for shuffles of nA top strands with nB
    bottom strands: the longest word of S_nB x S_nA."""
    return longest_word(1, nB) + tuple(k + nB for k in longest_word(1, nA))


def test_pbw_cosets_match_brute_force(ctx_a2, ctx_b2, ctx_g2):
    """KLRContext.pbw_cosets equals the table built from the definitions,
    row for row and in order, for plain idempotents (w0 = ()) on up to six
    strands, for parabolic w0 and for the two-block w0 of every shuffle
    product on up to five strands, and is built once per (nu, w0)."""
    cases = [(nu, ()) for nu in all_words(3)]
    cases += [(nu, ()) for nu in (("i",) * 6, ("i", "i", "i", "j", "j", "j"),
                                  ("j", "i", "j", "j", "i", "i"))]
    cases += [(("i", "i", "j"), (1,)), (("j", "i", "i"), (2,)),
              (("i", "i", "j", "j", "j"), (1, 3, 4, 3)),
              (("j", "j", "j", "i"), (1, 2, 1)),
              (("i", "j", "j", "i", "i"), (2, 4))]
    word = ("i", "j", "j", "i", "j")
    cases += [(word[:nB + nA], _two_blocks(nB, nA))
              for nB in range(6) for nA in range(6 - nB)]
    for ctx in (ctx_a2, ctx_b2, ctx_g2):
        for nu, w0 in cases:
            got = ctx.pbw_cosets(nu, w0)
            assert got == _brute_cosets(ctx, nu, w0), (nu, w0)
            assert ctx.pbw_cosets(nu, w0) is got
    # the number of minimal coset representatives is n! / |S_B|
    assert len(ctx_a2.pbw_cosets(("i", "i", "j", "j", "j"),
                                 (1, 3, 4, 3))) == 10


def test_colour_words_of_one_length_share_their_cosets(cartan_a2):
    """The representatives and their canonical words are one entry per
    (n, w0), shared by every colour word of that length."""
    ctx = KLRContext(cartan_a2)
    first = ctx.pbw_cosets(("i", "j", "j"))
    second = ctx.pbw_cosets(("j", "i", "j"))
    assert list(ctx._coset_reps) == [(3, ())]
    assert len(first) == len(second) == 6
    assert all(a[1] is b[1] for a, b in zip(first, second))
    assert first != second


def test_graded_basis_reuses_the_coset_table(cartan_a2, monkeypatch):
    """Only the first graded_basis call on a colour word builds a coset
    table, and another colour word of the same length builds none."""
    builds = []
    real = klr._coset_images
    monkeypatch.setattr(klr, "_coset_images", lambda n, rises:
                        builds.append((n, rises)) or real(n, rises))
    ctx = KLRContext(cartan_a2)
    nu = ("i", "j", "i")
    first = graded_basis(ctx, None, nu, 2)
    assert builds == [(3, set())]
    assert graded_basis(ctx, None, nu, 2) == first
    graded_basis(ctx, ("i", "i", "j"), nu, 4)
    graded_basis(ctx, None, ("j", "i", "i"), 2)
    assert builds == [(3, set())]


def test_mismatched_operands_raise(cartan_a2):
    """Sums and products need one context and one weight; the zero element
    is compatible with everything of its strand count, and colour words of
    one weight in different orders are compatible.  The checks hold on
    cold tables, on the left colour and weight tables of both contexts
    once a product and a sum have filled them, and in both directions
    between the two contexts."""
    ctx = KLRContext(cartan_a2)
    other = KLRContext(cartan_a2)
    ops = (lambda u, v: u + v, lambda u, v: u - v, klr_multiply)

    def check(ctx, other):
        ij, ji, ii = (KLRElement.idem(ctx, nu)
                      for nu in (("i", "j"), ("j", "i"), ("i", "i")))
        zero = KLRElement(ctx, 2)
        for op in ops:
            for u, v in ((ij, ii), (ii, ij),
                         (ij, KLRElement.idem(ctx, ("i",)))):
                with pytest.raises(ValueError, match="weight mismatch"):
                    op(u, v)
            with pytest.raises(ValueError, match="context mismatch"):
                op(ij, KLRElement.idem(other, ("i", "j")))
            op(ij, zero)
            op(zero, ii)
            op(ij, ji)

    # cold tables (only check's own idempotents have weight keys), then
    # warm: a product and a sum of two colour orders fill both tables of
    # both contexts, and the checks still refuse
    check(ctx, other)
    for c in (ctx, other):
        t1 = KLRElement.monomial(c, ("i", "j"), (1,), (0, 0))
        klr_multiply(KLRElement.monomial(c, ("j", "i"), (1,), (0, 0)), t1)
        KLRElement.idem(c, ("i", "j")) + KLRElement.idem(c, ("j", "i"))
        assert c._left_colors and c._weight_keys
    check(ctx, other)
    check(other, ctx)
    ij, ji = KLRElement.idem(ctx, ("i", "j")), KLRElement.idem(ctx, ("j", "i"))
    assert (ij + KLRElement(ctx, 2)) == ij
    assert not klr_multiply(ij, ji)


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
        assert word == canonical_word(perm_of_word(word, el.n)), word


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


# -- Coxeter move paths -------------------------------------------------


def apply_moves(word, moves):
    """Apply ('c', p) / ('b', p) moves, rejecting any that is not a legal
    commute of letters at distance >= 2 or braid of a triple (a, a+-1, a)."""
    w = list(word)
    for kind, p in moves:
        if kind == "c":
            assert abs(w[p] - w[p + 1]) >= 2, (word, kind, p, w)
            w[p], w[p + 1] = w[p + 1], w[p]
        else:
            assert kind == "b", kind
            assert w[p] == w[p + 2] and abs(w[p] - w[p + 1]) == 1, \
                (word, kind, p, w)
            w[p:p + 3] = [w[p + 1], w[p], w[p + 1]]
    return tuple(w)


def reduced_words(g):
    """Every reduced word of g, by peeling off left descents."""
    if g == Perm.identity(g.n):
        yield ()
        return
    for k in range(1, g.n):
        h = Perm.s(k, g.n) * g
        if h.length() < g.length():
            for w in reduced_words(h):
                yield (k,) + w


def random_reduced_word(rng, g):
    """A seeded random reduced word of g."""
    word = []
    while g != Perm.identity(g.n):
        k = rng.choice([k for k in range(1, g.n)
                        if (Perm.s(k, g.n) * g).length() < g.length()])
        word.append(k)
        g = Perm.s(k, g.n) * g
    return tuple(word)


def word_moves(w):
    """Every legal commute or braid move on the word w, with its result."""
    for p in range(len(w) - 1):
        if abs(w[p] - w[p + 1]) >= 2:
            yield ("c", p), w[:p] + (w[p + 1], w[p]) + w[p + 2:]
    for p in range(len(w) - 2):
        if w[p] == w[p + 2] and abs(w[p] - w[p + 1]) == 1:
            yield ("b", p), w[:p] + (w[p + 1], w[p], w[p + 1]) + w[p + 3:]


def oracle_move_path(src, dst):
    """A shortest move path, found by breadth-first search over the
    reduced words of the permutation."""
    seen = {src: None}
    queue = deque([src])
    while queue:
        w = queue.popleft()
        if w == dst:
            path = []
            while seen[w] is not None:
                w, move = seen[w]
                path.append(move)
            return tuple(reversed(path))
        for move, w2 in word_moves(w):
            if w2 not in seen:
                seen[w2] = (w, move)
                queue.append(w2)
    raise RuntimeError(f"no move path between {src} and {dst}")


def oracle_insertion_moves(word):
    """A shortest move path from a reduced word to its canonical word: the
    oracle for klr._insertion_moves."""
    return oracle_move_path(
        word, canonical_word(perm_of_word(word, max(word) + 1)))


def oracle_insert(ctx, k, word, nu, n):
    """klr._insert walked along the breadth-first oracle's moves, whose
    braid suffixes need not be canonical: each error term's tail
    tau_suffix 1_nu is rewritten letter by letter, then multiplied by the
    polynomial and by tau_prefix."""
    acc = {}
    cur = (k,) + word
    for move, p in oracle_insertion_moves(cur):
        if move == "c":
            cur = cur[:p] + (cur[p + 1], cur[p]) + cur[p + 2:]
            continue
        a, b = cur[p], cur[p + 1]
        c0 = min(a, b)
        sign = 1 if a == c0 + 1 else -1
        prefix, suffix = cur[:p], cur[p + 3:]
        cur = prefix + (b, a, b) + suffix
        mu = perm_of_word(suffix, n).permute_tuple(nu)
        if mu[c0 - 1] != mu[c0 + 1]:
            continue
        qn = ctx.q_poly(mu[c0 - 1], mu[c0]).subst_vars(
            {1: c0 + 2, 2: c0 + 1}, n)
        tail = klr._tau_word_times(ctx, suffix, {(nu, (), (0,) * n): 1}, n)
        mid = {}
        for e, ce in demazure(c0, c0 + 2, qn).terms.items():
            for (nu2, w2, exps), c in tail.items():
                klr._add_term(mid, (nu2, w2, tuple(map(add, exps, e))),
                              sign * ce * c)
        for key, c in klr._tau_word_times(ctx, prefix, mid, n).items():
            klr._add_term(acc, key, c)
    assert cur == canonical_word(perm_of_word((k,) + word, n))
    klr._add_term(acc, (nu, cur, (0,) * n), 1)
    return acc


def _insert_letter(word, base, size, moves):
    """The letter-by-letter reference of klr._insertion_moves, at any
    position: append to moves the Coxeter moves that put the letter
    k = word[base] in front of the canonical word of word[base + 1:],
    whose run lengths size holds (size[m] = len(R_m), long enough to index
    k + 1), and update size to the runs of word[base:]."""
    k = word[base]
    if k < 1:
        raise ValueError(f"letters must be positive: {word}")
    a, b = k - size[k], k + 1 - size[k + 1]
    if b <= a:
        raise ValueError(f"letter {k} at position {base} of {word} "
                         "does not lengthen the rest: not reduced")
    p0 = base + sum(size[2:k])
    moves += [("c", p) for p in range(base, p0)]
    for t, j in enumerate(range(k, b - 1, -1)):
        q = p0 + t + k - j      # position of the braid triple
        moves += [("c", p) for p in range(q + j - a, q + 1, -1)]
        moves.append(("b", q))
        moves += [("c", p) for p in range(q - 1, p0 + t - 1, -1)]
    size[k], size[k + 1] = k - b + 1, k + 1 - a


def _canon_moves(word):
    """Coxeter moves from a reduced word to its canonical word, and the
    lengths of that word's runs: its letters inserted right to left, each
    into the canonical word of the suffix after it (_insert_letter)."""
    size = [0] * (max(word, default=0) + 2)     # size[m] = len(R_m)
    moves = []
    for base in range(len(word) - 1, -1, -1):
        _insert_letter(word, base, size, moves)
    return moves, size


def _insertions(max_n):
    """(k, g, canonical word of g, whether k lengthens g) for every letter
    k of S_n, n <= max_n."""
    for n in range(1, max_n + 1):
        for g in all_perms(n):
            canon = canonical_word(g)
            for k in range(1, n):
                yield k, g, canon, (Perm.s(k, n) * g).length() > g.length()


def test_move_paths_are_legal_and_canonical():
    """Every reduced word in S_n, n <= 5, reaches its canonical word by
    the legal moves of _canon_moves, and every insertion of a letter k
    that lengthens g in S_n, n <= 6, lands on the canonical word of s_k g
    by legal moves."""
    words = 0
    for n in range(1, 6):
        for g in all_perms(n):
            canon = canonical_word(g)
            for w in reduced_words(g):
                moves, _ = _canon_moves(w)
                assert apply_moves(w, moves) == canon, w
                words += 1
    assert words == 3137
    ascents = 0
    for k, g, canon, ascent in _insertions(6):
        if ascent:
            assert apply_moves((k,) + canon, _insertion_moves((k,) + canon)) \
                == canonical_word(Perm.s(k, g.n) * g), (k, canon)
            ascents += 1
    assert ascents == 2083


def test_move_path_rejects_bad_words():
    """_insertion_moves raises ValueError on every letter k that does not
    lengthen g in S_n, n <= 6, and on a letter 0; _canon_moves raises it
    on words that are not reduced."""
    descents = 0
    for k, g, canon, ascent in _insertions(6):
        if not ascent:
            with pytest.raises(ValueError):
                _insertion_moves((k,) + canon)
            descents += 1
    assert descents == 2083
    for word in ((0,), (0, 1)):
        with pytest.raises(ValueError):
            _insertion_moves(word)
    for word in ((1, 1), (1, 2, 1, 2), (2, 3, 1, 2, 1, 2), (0,), (1, -1)):
        with pytest.raises(ValueError):
            _canon_moves(word)


def test_insertion_moves_match_canon_moves():
    """The moves built from the runs of a canonical word are those of the
    letter-by-letter reference, on every insertion in S_n, n <= 6."""
    for k, _, canon, ascent in _insertions(6):
        if ascent:
            assert _insertion_moves((k,) + canon) == \
                _canon_moves((k,) + canon)[0], (k, canon)


def test_insertion_braid_suffixes_are_canonical():
    """Along the moves of every insertion in S_n, n <= 6, the part of the
    word right of each braid triple is a canonical word, so _insert may
    take the tail tau_suffix 1_nu of an error term as one monomial.  Each
    triple is (c+1, c, c+1), so each error term has sign +1."""
    braids = 0
    for k, g, canon, ascent in _insertions(6):
        if not ascent:
            continue
        cur = (k,) + canon
        for move, p in _insertion_moves(cur):
            if move == "b":
                assert cur[p] == cur[p + 1] + 1, (k, canon, p)
                suffix = cur[p + 3:]
                assert suffix == canonical_word(perm_of_word(suffix, g.n)), \
                    (k, canon, p)
                braids += 1
            cur = apply_moves(cur, [(move, p)])
    assert braids == 1333


def test_insertion_must_land_on_the_canonical_word(monkeypatch):
    """A move path cut short leaves the walk off the canonical word, and
    the product raises rather than store a word that is not canonical.
    The plan table is emptied first: another test may have made the plan
    of (2, (1, 2)) already, and then no walk would run."""
    monkeypatch.setattr(klr, "_PLANS", {})
    ctx = KLRContext(make_cartan(A2_DOT))
    real = klr._insertion_moves
    monkeypatch.setattr(klr, "_insertion_moves",
                        lambda word: real(word)[:-1])
    nu = ("i", "i", "i")
    # (2, 1, 2) needs a braid move to reach the canonical word (1, 2, 1)
    with pytest.raises(RuntimeError):
        klr_multiply(KLRElement.monomial(ctx, nu, (2,), (0, 0, 0)),
                     KLRElement.monomial(ctx, nu, (1, 2), (0, 0, 0)))
    assert (2, (1, 2)) not in klr._PLANS


def test_canonical_shape_matches_canonical_word():
    """The landing check of the plans: on every reduced word of S_n,
    n <= 5, the shape test holds exactly when the word is the canonical
    word of its permutation, so on one word per permutation."""
    words = shaped = 0
    for n in range(1, 6):
        for g in all_perms(n):
            for w in reduced_words(g):
                assert _canonical_shape(w) == \
                    (w == canonical_word(perm_of_word(w, n))), w
                words += 1
                shaped += _canonical_shape(w)
    assert (words, shaped) == (3137, 1 + 2 + 6 + 24 + 120)
    for word in ((1, 1), (2, 1, 2), (1, 3, 2, 3), (3, 2, 1, 2)):
        assert not _canonical_shape(word), word


def _adjacent_commute_twice(moves, word):
    """The walk with two commutes of the first two neighbouring letters of
    word that differ by one put in front: the word comes back unchanged,
    so the walk still ends on the canonical word."""
    p = next(p for p in range(len(word) - 1)
             if abs(word[p] - word[p + 1]) == 1)
    return [("c", p), ("c", p)] + moves


def _wrapped_commute_twice(moves, word):
    """The walk with two commutes at position -1 put in front, which a
    list index would read as the last and the first letter of word."""
    if abs(word[-1] - word[0]) < 2:
        raise StopIteration
    return [("c", -1), ("c", -1)] + moves


def _first_braid_shifted(moves, word):
    """The walk with its first braid move one position further right."""
    t = next(t for t, (move, _) in enumerate(moves) if move == "b")
    return moves[:t] + [("b", moves[t][1] + 1)] + moves[t + 1:]


@pytest.mark.parametrize("break_walk, count", [
    (_adjacent_commute_twice, 263),
    (_wrapped_commute_twice, 83),
    (_first_braid_shifted, 97),
], ids=["adjacent-commute", "wrapped-commute", "shifted-braid"])
def test_illegal_walks_are_refused(monkeypatch, break_walk, count):
    """Every insertion in S_n, n <= 5, whose walk can be broken so (it has
    neighbouring letters differing by one, first and last letters
    differing by at least 2, or a braid), walked with an illegal move:
    the product raises and no plan of its (k, w) is kept.
    The pairs of commutes undo each other, so the walk still lands on the
    canonical word and only the move check can refuse it."""
    real = klr._insertion_moves
    monkeypatch.setattr(klr, "_insertion_moves",
                        lambda word: break_walk(real(word), word))
    cases = 0
    for k, g, canon, ascent in _insertions(5):
        if not ascent:
            continue
        word = (k,) + canon
        try:
            break_walk(real(word), word)
        except StopIteration:   # nothing of that kind to break
            continue
        monkeypatch.setattr(klr, "_PLANS", {})
        n = g.n
        nu = ("i",) * n
        ctx = KLRContext(make_cartan(A2_DOT))
        with pytest.raises(RuntimeError):
            klr_multiply(KLRElement.monomial(ctx, nu, (k,), (0,) * n),
                         KLRElement.monomial(ctx, nu, canon, (0,) * n))
        assert (k, canon) not in klr._PLANS
        cases += 1
    assert cases == count


# -- colour-independent plans against the per-colour-word walk ----------


def walk_tau_times(ctx, memo, k, terms, n):
    """tau_k * (PBW terms), rewritten by walk_mult_tau_word."""
    acc = {}
    for (nu, word, exps), c in terms.items():
        swapped = list(exps)
        swapped[k - 1], swapped[k] = swapped[k], swapped[k - 1]
        for (nu2, w2, e2), cc in walk_mult_tau_word(
                ctx, memo, k, word, nu, n).items():
            klr._add_term(acc, (nu2, w2, tuple(map(add, e2, swapped))),
                          c * cc)
        im = perm_of_word(word, n).images
        if nu[im.index(k)] == nu[im.index(k + 1)]:
            sign, monos = demazure_monomial(k, k + 1, exps)
            for e in monos:
                klr._add_term(acc, (nu, word, e), sign * c)
    return acc


def walk_tau_word_times(ctx, memo, word, terms, n):
    for k in reversed(word):
        terms = walk_tau_times(ctx, memo, k, terms, n)
    return terms


def walk_mult_tau_word(ctx, memo, k, word, nu, n):
    """tau_k * (tau_word 1_nu), word canonical, worked out afresh for each
    colour word nu, memoized per (k, word, nu) in memo only: the branch
    from the permutation of word on n strands; for an ascent the walk
    along _insertion_moves, each braid (a, b, a) -> (b, a, b) with
    c = min(a, b) reading the colours of tau_suffix 1_nu at c, c+1, c+2
    and emitting sign tau_prefix partial_{c,c+2} Q(x_{c+2}, x_{c+1})
    tau_suffix 1_nu, sign +1 exactly when a = c+1; for a descent
    Q(x_k, x_{k+1}) read from the colours of tau_v 1_nu, v = canon(s_k w),
    minus tau_k times the error of the insertion of k into v."""
    key = (k, word, nu)
    if key in memo:
        return memo[key]
    g = perm_of_word(word, n)
    v = canonical_word(Perm.s(k, n) * g)
    res = {}
    if g.images.index(k) < g.images.index(k + 1):
        cur = (k,) + word
        for move, p in _insertion_moves(cur):
            if move == "c":
                cur = cur[:p] + (cur[p + 1], cur[p]) + cur[p + 2:]
                continue
            a, b = cur[p], cur[p + 1]
            c0 = min(a, b)
            sign = 1 if a == c0 + 1 else -1
            prefix, suffix = cur[:p], cur[p + 3:]
            cur = prefix + (b, a, b) + suffix
            mu = perm_of_word(suffix, n).permute_tuple(nu)
            if mu[c0 - 1] != mu[c0 + 1]:
                continue
            qn = ctx.q_poly(mu[c0 - 1], mu[c0]).subst_vars(
                {1: c0 + 2, 2: c0 + 1}, n)
            mid = {(nu, suffix, e): sign * c
                   for e, c in demazure(c0, c0 + 2, qn).terms.items()}
            for key2, c in walk_tau_word_times(ctx, memo, prefix, mid,
                                               n).items():
                klr._add_term(res, key2, c)
        assert cur == v
        klr._add_term(res, (nu, v, (0,) * n), 1)
    else:
        rho = perm_of_word(v, n).permute_tuple(nu)
        if rho[k - 1] != rho[k]:
            qn = ctx.q_poly(rho[k - 1], rho[k]).subst_vars({1: k, 2: k + 1}, n)
            res = dict(((nu, v, e), c) for e, c in qn.terms.items())
        main = (nu, word, (0,) * n)
        err = {key2: -c for key2, c in walk_mult_tau_word(
            ctx, memo, k, v, nu, n).items() if key2 != main}
        for key2, c in walk_tau_times(ctx, memo, k, err, n).items():
            klr._add_term(res, key2, c)
    memo[key] = res
    return res


@pytest.mark.parametrize("labels, dot, units", DATA.values(),
                         ids=DATA.keys())
def test_plans_match_the_per_colour_walk(monkeypatch, labels, dot, units):
    """tau_k tau_w 1_nu from the plans equals the per-colour-word walk for
    every canonical w in S_n, every k and every colour word nu, n = 2..5,
    on one context and an empty plan table filled in increasing n, so the
    plans made on few strands serve more (a plan does not depend on n).
    Both branches run, and each emits terms besides its leading one
    (braid error terms, and Q with an error for a descent)."""
    monkeypatch.setattr(klr, "_PLANS", {})
    ctx = KLRContext(CartanDatum(list(labels), dot), units)
    memo = {}
    seen = set()
    for n in range(2, 6):
        for g in all_perms(n):
            w = canonical_word(g)
            for k in range(1, n):
                ascent = (Perm.s(k, n) * g).length() > g.length()
                for nu in itertools.product(labels, repeat=n):
                    got = klr._mult_tau_word(ctx, k, w, nu, n)
                    assert got == walk_mult_tau_word(ctx, memo, k, w, nu, n), \
                        (k, w, nu)
                    seen.add((ascent, len(got) > 1))
    assert seen == {(True, False), (True, True), (False, False),
                    (False, True)}
    # one plan per (k, w) of S_5: those of fewer strands are among them
    assert len(klr._PLANS) == math.factorial(5) * 4


def test_plans_are_shared_across_colour_words(monkeypatch, ctx_b2r):
    """After the height-4 residues on an empty plan table, fewer (k, w)
    plans serve the products memoized per (k, w, nu), and every product's
    (k, w) has a plan."""
    monkeypatch.setattr(klr, "_PLANS", {})
    ctx = KLRContext(ctx_b2r.cartan)
    for nu in all_words(4):
        if len(nu) == 4:
            relation_residues(ctx, nu)
    assert 0 < len(klr._PLANS) < len(ctx._mult_tau)
    assert {(k, w) for k, w, _ in ctx._mult_tau} <= set(klr._PLANS)


def _every_tau_product(labels, max_n=5):
    """(k, canonical w, nu, n) for every tau_k tau_w 1_nu, n = 2..max_n."""
    for n in range(2, max_n + 1):
        for g in all_perms(n):
            w = canonical_word(g)
            for k in range(1, n):
                for nu in itertools.product(labels, repeat=n):
                    yield k, w, nu, n


def test_plans_made_on_one_datum_serve_others(monkeypatch):
    """The plans filled by every tau_k tau_w 1_nu, n <= 5, on G2 replay
    on A2 and on C3 with units to the per-colour-word walk of each, and
    no new plan is made: the table holds one plan per (k, w) whatever the
    Cartan datum or Q."""
    monkeypatch.setattr(klr, "_PLANS", {})
    g2 = KLRContext(make_cartan(G2_DOT))
    for k, w, nu, n in _every_tau_product(("i", "j")):
        klr._mult_tau_word(g2, k, w, nu, n)
    assert len(klr._PLANS) == math.factorial(5) * 4
    for labels, dot, units in [(("i", "j"), A2_DOT, None),
                               (("i", "j", "k"), C3_DOT, C3_UNITS)]:
        ctx = KLRContext(CartanDatum(list(labels), dot), units)
        memo = {}
        for k, w, nu, n in _every_tau_product(labels):
            assert klr._mult_tau_word(ctx, k, w, nu, n) == \
                walk_mult_tau_word(ctx, memo, k, w, nu, n), (labels, k, w, nu)
        assert len(klr._PLANS) == math.factorial(5) * 4


# -- the straightening kernel and products against the walk --------------

# DATA, and A2 under HALF_UNITS, whose products carry Fraction coefficients
KERNEL_DATA = {**DATA, "a2-half": (("i", "j"), A2_DOT, HALF_UNITS)}


def random_pbw_terms(rng, nus, words):
    """A dict of one to six random PBW terms x^a tau_w 1_nu: nu from nus,
    w from words, exponents 0..3 with zeros common and every fifth vector
    all zero, and int or Fraction coefficients."""
    n = len(nus[0])
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
        if rng.random() < 0.2:
            exps = (0,) * n
        terms[rng.choice(nus), rng.choice(words), exps] = rng.choice(
            (1, -2, 3, Fraction(1, 2), Fraction(-3, 4)))
    return terms


def kernel_case(k, key, c, n):
    """Which path of _tau_times_element the term c x^a tau_w 1_nu takes
    under tau_k, and whether c is a Fraction."""
    nu, word, exps = key
    if not any(exps):
        path = "zero shift"
    elif exps[k - 1] == exps[k]:
        path = "a_k = a_k+1"
    else:
        im = perm_of_word(word, n).images
        path = ("demazure" if nu[im.index(k)] == nu[im.index(k + 1)]
                else "no demazure")
    return path, type(c) is Fraction


@pytest.mark.parametrize("labels, dot, units", KERNEL_DATA.values(),
                         ids=KERNEL_DATA.keys())
def test_tau_times_element_matches_the_walk(labels, dot, units):
    """tau_k times random PBW elements, n = 2..4 and every k, equals the
    per-colour-word walk walk_tau_times item for item and in insertion
    order.  Every path of the kernel is met, with int and with Fraction
    coefficients: an all-zero exponent vector, a_k = a_{k+1} on a nonzero
    vector, and a_k != a_{k+1} with and without a Demazure term.  On
    tau_1 (x_1 + x_2) 1_ii the two Demazure terms cancel, and no key is
    left for them."""
    rng = random.Random(28)
    ctx = KLRContext(CartanDatum(list(labels), dot), units)
    memo = {}
    seen = set()
    for n in range(2, 5):
        nus = list(itertools.product(labels, repeat=n))
        words = [canonical_word(g) for g in all_perms(n)]
        for _ in range(40):
            terms = random_pbw_terms(rng, nus, words)
            for k in range(1, n):
                want = walk_tau_times(ctx, memo, k, terms, n)
                got = klr._tau_times_element(ctx, k, terms, n)
                assert list(got.items()) == list(want.items()), (k, terms)
                seen.update(kernel_case(k, key, c, n)
                            for key, c in terms.items())
    assert seen == {(path, frac) for frac in (False, True) for path in
                    ("zero shift", "a_k = a_k+1", "demazure", "no demazure")}
    ii = (labels[0],) * 2
    terms = {(ii, (), (1, 0)): 1, (ii, (), (0, 1)): 1}
    got = klr._tau_times_element(ctx, 1, terms, 2)
    assert list(got.items()) == [((ii, (1,), (0, 1)), 1),
                                 ((ii, (1,), (1, 0)), 1)]
    assert list(got.items()) == list(
        walk_tau_times(ctx, memo, 1, terms, 2).items())


def walk_multiply(ctx, memo, u, v):
    """u v by the walk: each term c x^a tau_w 1_nu of u folds tau_w into
    the terms of v with left colour word nu (walk_tau_word_times), then
    shifts every exponent vector of the result by a.  The left colour
    words come from perm_of_word, not from the context's table."""
    acc = {}
    for (nu, word, exps), cu in u.terms.items():
        sub = {key: c for key, c in v.terms.items()
               if perm_of_word(key[1], v.n).permute_tuple(key[0]) == nu}
        if not sub:
            continue
        for (nu2, w2, e2), c2 in walk_tau_word_times(ctx, memo, word, sub,
                                                     u.n).items():
            klr._add_term(acc, (nu2, w2, tuple(map(add, e2, exps))),
                          cu * c2)
    return acc


@pytest.mark.parametrize("labels, dot, units", KERNEL_DATA.values(),
                         ids=KERNEL_DATA.keys())
def test_klr_multiply_matches_the_walk_fold(labels, dot, units):
    """klr_multiply(u, v) of random elements of one weight, n = 2..4,
    equals walk_multiply item for item and in insertion order, with left
    factors whose matching terms have zero and nonzero exponents."""
    rng = random.Random(29)
    ctx = KLRContext(CartanDatum(list(labels), dot), units)
    memo = {}
    shifts = set()
    for n in range(2, 5):
        words = [canonical_word(g) for g in all_perms(n)]
        for _ in range(30):
            nu = tuple(rng.choice(labels) for _ in range(n))
            nus = sorted(set(itertools.permutations(nu)))
            u = KLRElement(ctx, n, random_pbw_terms(rng, nus, words))
            v = KLRElement(ctx, n, random_pbw_terms(rng, nus, words))
            want = walk_multiply(ctx, memo, u, v)
            got = klr_multiply(u, v)
            assert list(got.terms.items()) == list(want.items()), (u, v)
            lefts = {v.left_colors(key) for key in v.terms}
            shifts.update(any(exps) for nu, _, exps in u.terms
                          if nu in lefts)
    assert shifts == {False, True}


def oracle_canonical_word(g):
    """The recursive form of canonical_word: peel the top strand and
    recurse on the permutation of the strands left."""
    n = g.n
    if n == 0:
        return ()
    im = list(g.images)
    r = im.index(n) + 1
    sub = Perm(q for q in im if q != n)
    return oracle_canonical_word(sub) + tuple(range(n - 1, r - 1, -1))


def test_canonical_word_matches_recursive_oracle():
    count = 0
    for n in range(0, 8):
        for g in all_perms(n):
            assert canonical_word(g) == oracle_canonical_word(g), g
            count += 1
    assert count == sum(math.factorial(n) for n in range(8))


def _tau_times_monomials(ctx, n):
    """tau_k tau_w 1_nu for every colour word nu, permutation w and k."""
    out = {}
    for nu in itertools.product(("i", "j"), repeat=n):
        seqs = list(sequences(RootVector.from_word(nu)))
        taus = [klr_generator(ctx, "tau", k, seqs) for k in range(1, n)]
        for g in all_perms(n):
            m = KLRElement.monomial(ctx, nu, canonical_word(g), (0,) * n)
            for k, t in enumerate(taus, start=1):
                out[nu, g, k] = klr_multiply(t, m)
    return out


def _random_monomial(rng, ctx, nu):
    """A seeded PBW monomial x^a tau_w 1_nu with exponents at most 1."""
    n = len(nu)
    return KLRElement.monomial(ctx, nu, canonical_word(rng.choice(all_perms(n))),
                               [rng.randint(0, 1) for _ in range(n)])


def _left_colours(el):
    return el.left_colors(next(iter(el.terms)))


def _random_monomial_products(ctx, n, count, seed):
    """Seeded products u v of composable PBW monomials on n strands."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        v = _random_monomial(rng, ctx, tuple(rng.choice("ij") for _ in range(n)))
        u = _random_monomial(rng, ctx, _left_colours(v))
        out.append(klr_multiply(u, v))
    return out


@pytest.mark.parametrize("dot", [A2_DOT, B2R_DOT, G2_DOT],
                         ids=["a2", "b2r", "g2"])
def test_constructive_paths_match_bfs_oracle(dot, monkeypatch):
    """Normal forms computed along the constructive move paths equal those
    computed by oracle_insert along the breadth-first oracle's paths, on
    fresh contexts."""
    ctx = KLRContext(make_cartan(dot))
    expected = ([_tau_times_monomials(ctx, n) for n in range(2, 5)],
                _random_monomial_products(ctx, 5, 30, seed=5))
    monkeypatch.setattr(klr, "_insert", oracle_insert)
    oracle = KLRContext(make_cartan(dot))
    assert ([_tau_times_monomials(oracle, n) for n in range(2, 5)],
            _random_monomial_products(oracle, 5, 30, seed=5)) == expected


@pytest.mark.parametrize("dot", [B2R_DOT, G2_DOT], ids=["b2r", "g2"])
def test_defining_relations_height_5(dot):
    ctx = KLRContext(make_cartan(dot))
    for nu in all_words(5):
        if len(nu) < 5:
            continue
        for name, res in relation_residues(ctx, nu).items():
            assert res.is_zero(), (nu, name)


@pytest.mark.parametrize("dot", [A2_DOT, B2R_DOT, G2_DOT],
                         ids=["a2", "b2r", "g2"])
def test_monomial_products_associative_and_rev_compatible(dot):
    """Seeded triples of composable PBW monomials on four strands.  These
    products take braid moves in both directions with equal outer colours,
    so each error-term sign is checked (the residues of the defining
    relations do not reach the (c, c+1, c) -> (c+1, c, c+1) sign)."""
    ctx = KLRContext(make_cartan(dot))
    rng = random.Random(7)
    for _ in range(40):
        w = _random_monomial(rng, ctx, tuple(rng.choice("ij") for _ in range(4)))
        v = _random_monomial(rng, ctx, _left_colours(w))
        u = _random_monomial(rng, ctx, _left_colours(v))
        assert klr_multiply(klr_multiply(u, v), w) == \
            klr_multiply(u, klr_multiply(v, w))
        assert rev(klr_multiply(u, v)) == klr_multiply(rev(v), rev(u))


def _alternating(n):
    return tuple(itertools.islice(itertools.cycle(("i", "j")), n))


def _ascending_runs(n):
    """The reduced word (n-1)(n-2, n-1)...(1, ..., n-1) of w0 in S_n."""
    return tuple(k for low in range(n - 1, 0, -1) for k in range(low, n))


def _tau_letter_by_letter(ctx, nu, word):
    """tau_word 1_nu, built by left-multiplying one crossing at a time."""
    seqs = list(sequences(RootVector.from_word(nu)))
    el = KLRElement.idem(ctx, nu)
    for k in reversed(word):
        el = klr_multiply(klr_generator(ctx, "tau", k, seqs), el)
    return el


def test_tau_w0_on_seven_strands_is_fast():
    """Left multiplication never searches the reduced words of w0, whose
    number grows too fast for a search at seven strands."""
    ctx = KLRContext(make_cartan(A2_DOT))
    nu, word = _alternating(7), _ascending_runs(7)
    start = time.perf_counter()
    el = _tau_letter_by_letter(ctx, nu, word)
    assert time.perf_counter() - start < 20
    w0 = perm_of_word(word, 7)
    assert w0.length() == len(word) == 21
    top = (nu, canonical_word(w0), (0,) * 7)
    assert el.terms[top] == 1
    assert all(len(key[1]) < 21 for key in el.terms if key != top)


def test_tau_w0_on_six_strands_matches_bfs_oracle(monkeypatch):
    """The ascending-run word of w0 and seeded random reduced words of w0
    (whose braid moves emit error terms) on six alternating strands."""
    ctx = KLRContext(make_cartan(A2_DOT))
    nu = _alternating(6)
    rng = random.Random(3)
    w0 = perm_of_word(_ascending_runs(6), 6)
    words = [_ascending_runs(6)] + [random_reduced_word(rng, w0)
                                    for _ in range(5)]
    results = [_tau_letter_by_letter(ctx, nu, w) for w in words]
    monkeypatch.setattr(klr, "_insert", oracle_insert)
    oracle = KLRContext(make_cartan(A2_DOT))
    assert results == [_tau_letter_by_letter(oracle, nu, w) for w in words]
    assert max(len(el.terms) for el in results) > 1


def test_one_colour_products_match_nil_hecke():
    """On strands of one colour the KLR algebra is the nil Hecke algebra,
    whose polynomial action (nh_act) is faithful and reads PBW keys only.
    Each seeded product acts as its two factors do, one after the other, on
    every Artin monomial x^b (b_t <= t - 1).  Those monomials span Pol_n
    over the symmetric polynomials, over which the action is linear, so
    the check decides the product."""
    rng = random.Random(41)
    for dot, colour in ((A2_DOT, "i"), (G2_DOT, "j")):
        ctx = KLRContext(make_cartan(dot))
        for n in range(1, 5):
            nu = (colour,) * n
            words = [canonical_word(g) for g in all_perms(n)]
            artin = [Poly(n, {b: 1}) for b in
                     itertools.product(*(range(t) for t in range(1, n + 1)))]
            assert len(artin) == math.factorial(n)
            for _ in range(40):
                pair = []
                for _ in range(2):
                    terms = {}
                    for _ in range(rng.randint(1, 3)):
                        a = tuple(rng.randint(0, 2) for _ in range(n))
                        terms[nu, rng.choice(words), a] = rng.randint(-3, 3)
                    pair.append(KLRElement(ctx, n, terms))
                u, v = pair
                prod = klr_multiply(u, v)
                for b in artin:
                    assert nh_act(prod, b) == nh_act(u, nh_act(v, b)), \
                        (dot, u, v, b)


# -- coefficients: int when integral, Fraction from a rational unit ------


def _random_triples(ctx, count, seed):
    """Seeded triples (u, v, w) of composable PBW monomials on 4 strands."""
    rng = random.Random(seed)
    for _ in range(count):
        w = _random_monomial(rng, ctx, tuple(rng.choice("ij") for _ in range(4)))
        v = _random_monomial(rng, ctx, _left_colours(w))
        u = _random_monomial(rng, ctx, _left_colours(v))
        yield u, v, w


@pytest.mark.parametrize("dot", [A2_DOT, B2R_DOT, G2_DOT],
                         ids=["a2", "b2r", "g2"])
def test_rational_units_promote_to_fractions(dot):
    """With t_(i,j) = 1/2 and t_(j,i) = -3 the defining relations hold on
    every height-4 colour word, products stay associative, and the unit
    1/2 survives as a Fraction that prints as 1/2."""
    ctx = KLRContext(make_cartan(dot), HALF_UNITS)
    for nu in all_words(4):
        if len(nu) < 4:
            continue
        for name, res in relation_residues(ctx, nu).items():
            assert res.is_zero(), (nu, name)
    for u, v, w in _random_triples(ctx, 20, seed=13):
        assert klr_multiply(klr_multiply(u, v), w) == \
            klr_multiply(u, klr_multiply(v, w))
    # tau_1^2 1_(i,j) = Q_{i,j}(x_1, x_2) = x_1^{-c_ij}/2 - 3 x_2^{-c_ji}
    t1 = KLRElement.monomial(ctx, ("i", "j"), (1,), (0, 0))
    sq = klr_multiply(KLRElement.monomial(ctx, ("j", "i"), (1,), (0, 0)), t1)
    assert sorted(type(c).__name__ for c in sq.terms.values()) == \
        ["Fraction", "int"]
    assert sorted(t["coeff"] for t in sq.to_json_obj()) == ["-3", "1/2"]


def _assert_int_coefficients(terms, where):
    bad = {k: c for k, c in terms.items() if type(c) is not int}
    assert not bad, (where, bad)


@pytest.mark.parametrize("dot", [A2_DOT, B2R_DOT, G2_DOT],
                         ids=["a2", "b2r", "g2"])
def test_default_units_keep_int_coefficients(dot):
    """With the default units every coefficient is an int: of the twist
    polynomials, of every memoized normal form that the height-4 residues
    fill in, and of seeded monomial products."""
    ctx = KLRContext(make_cartan(dot))
    for nu in all_words(4):
        if len(nu) < 4:
            continue
        for name, res in relation_residues(ctx, nu).items():
            assert res.is_zero(), (nu, name)
    for i, j in itertools.product("ij", repeat=2):
        _assert_int_coefficients(ctx.q_poly(i, j).terms, (i, j))
    assert ctx._mult_tau
    for key, terms in ctx._mult_tau.items():
        _assert_int_coefficients(terms, key)
    for u, v, w in _random_triples(ctx, 20, seed=17):
        _assert_int_coefficients(klr_multiply(klr_multiply(u, v), w).terms,
                                 (u, v, w))


# -- per-context tables, one-pass subtraction, checked constructors -----


@pytest.mark.parametrize("dot", [A2_DOT, B2R_DOT, G2_DOT],
                         ids=["a2", "b2r", "g2"])
def test_left_colour_and_weight_tables_match_their_oracles(dot):
    """After the residues of every colour word of height <= 5 on a fresh
    context, each stored left colour word equals the word permutation
    applied to nu, and each weight key is nu sorted.  The residues meet
    words of length at most 2 only, so seeded products of monomials on
    five strands then add longer words, and the tables are checked
    again."""
    ctx = KLRContext(make_cartan(dot))

    def check():
        assert ctx._left_colors and ctx._weight_keys
        for (word, nu), lam in ctx._left_colors.items():
            assert lam == perm_of_word(word, len(nu)).permute_tuple(nu), \
                (word, nu)
        for nu, key in ctx._weight_keys.items():
            assert key == tuple(sorted(nu)), nu
        return {len(word) for word, _ in ctx._left_colors}

    for nu in all_words(5):
        relation_residues(ctx, nu)
    assert check() == {0, 1, 2}
    _random_monomial_products(ctx, 5, 30, seed=41)
    assert max(check()) > 5


def test_subtraction_matches_adding_the_negative(ctx_a2):
    """u - v equals u + (-v) item for item and in insertion order, with
    int and Fraction coefficients: partial cancellation, full
    cancellation (u - u is zero with no key left), and the zero element
    on either side; neither operand changes."""
    rng = random.Random(31)
    nu = ("i", "j", "i")
    nus = sorted(set(itertools.permutations(nu)))
    words = [canonical_word(g) for g in all_perms(3)]
    zero = KLRElement(ctx_a2, 3)
    for _ in range(60):
        u = KLRElement(ctx_a2, 3, random_pbw_terms(rng, nus, words))
        v = KLRElement(ctx_a2, 3, random_pbw_terms(rng, nus, words))
        # a v sharing keys with u, some coefficients equal
        w = KLRElement(ctx_a2, 3, {**v.terms, **dict(
            rng.sample(sorted(u.terms.items(), key=repr), 1))})
        for a, b in ((u, v), (u, w), (w, u), (u, u), (u, zero), (zero, u),
                     (zero, zero)):
            before = (dict(a.terms), dict(b.terms))
            got, want = a - b, a + (-b)
            assert list(got.terms.items()) == list(want.terms.items())
            assert (a.terms, b.terms) == before
    assert not (u - u).terms
    assert (zero - u) == -u


def reference_plan(k, word):
    """_plan with every image read from a Perm built by perm_of_word, and
    nothing stored."""
    n = max((k,) + word) + 1
    im = perm_of_word(word, n).images
    rk, rk1 = im.index(k), im.index(k + 1)
    if rk >= rk1:
        return rk, rk1, canonical_word(perm_of_word((k,) + word, n)), None
    braids = []
    cur = [k, *word]
    for move, p in _insertion_moves((k,) + word):
        if move == "c":
            cur[p], cur[p + 1] = cur[p + 1], cur[p]
            continue
        c = cur[p + 1]
        cur[p:p + 3] = c, c + 1, c
        suffix = tuple(cur[p + 3:])
        h = perm_of_word(suffix, n).images
        braids.append((tuple(cur[:p]), suffix, c, h.index(c),
                       h.index(c + 1), h.index(c + 2)))
    return rk, rk1, tuple(cur), tuple(braids)


def test_plans_match_the_perm_of_word_reference(monkeypatch):
    """_plan, which swaps images in a plain list, equals reference_plan
    for every k and canonical w of S_n, n <= 6 (the words of S_n for
    smaller n are among those of S_6), in both branches."""
    monkeypatch.setattr(klr, "_PLANS", {})
    branches = set()
    for g in all_perms(6):
        w = canonical_word(g)
        for k in range(1, 6):
            want = reference_plan(k, w)
            assert klr._plan(k, w) == want, (k, w)
            branches.add(want[3] is None)
    assert branches == {False, True}
    assert len(klr._PLANS) == math.factorial(6) * 5


BAD_LETTER_WORDS = [(0,), (2,), (3,), (-1,), (1, 0)]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_letters_out_of_range_raise(warm, monkeypatch, cartan_a2):
    """A word with a letter 0, negative or >= n refuses with ValueError on
    its way through klr_multiply, on either side of the product, on cold
    tables and on tables warmed by a product of the same colour words;
    nothing is stored for it.  _plan refuses a letter below 1 itself."""
    monkeypatch.setattr(klr, "_PLANS", dict(klr._PLANS))
    ctx = KLRContext(cartan_a2)
    ij = ("i", "j")
    one = KLRElement.idem(ctx, ij)
    if warm:
        klr_multiply(KLRElement.monomial(ctx, ("j", "i"), (1,), (1, 0)),
                     KLRElement.monomial(ctx, ij, (1,), (0, 1)))
    for word in BAD_LETTER_WORDS:
        for exps in ((0, 0), (1, 0)):
            bad = KLRElement(ctx, 2, {(ij, word, exps): 1})
            with pytest.raises(ValueError, match="simple transposition"):
                klr_multiply(one, bad)
            with pytest.raises(ValueError, match="simple transposition"):
                klr_multiply(bad, one)
        assert (word, ij) not in ctx._left_colors
        assert not any(w == word for _, w, _ in ctx._mult_tau)
    for k, word in ((0, ()), (1, (0,)), (-1, (1,)), (0, (1,)), (2, (1, 0))):
        with pytest.raises(ValueError, match="letters must be positive"):
            klr._plan(k, word)
        assert (k, word) not in klr._PLANS


NOT_PBW_MONOMIALS = {
    "square": (("i", "j"), (1, 1), (0, 0)),
    "braid-word": (("i", "j", "i"), (2, 1, 2), (0, 0, 0)),
    "descending-runs": (("i", "j", "i", "j"), (3, 1), (0, 0, 0, 0)),
    "letter-n": (("i", "j"), (2,), (0, 0)),
    "letter-0": (("i", "j"), (0,), (0, 0)),
    "negative-exponent": (("i", "j"), (), (0, -1)),
    "short-exponents": (("i", "j"), (), (0,)),
    "long-exponents": (("i", "j"), (1,), (0, 0, 0)),
    "float-exponent": (("i", "j"), (), (0, 1.0)),
    "float-letter": (("i", "j"), (1.0,), (0, 0)),
}


@pytest.mark.parametrize("key", NOT_PBW_MONOMIALS.values(),
                         ids=NOT_PBW_MONOMIALS.keys())
def test_monomial_refuses_keys_not_in_normal_form(key, ctx_a2):
    """monomial builds PBW basis keys only: a word that is not canonical
    or has a letter outside 1..n-1, or exponents that are not n
    nonnegative ints, raise ValueError at construction."""
    with pytest.raises(ValueError):
        KLRElement.monomial(ctx_a2, *key)


def test_monomial_keeps_basis_keys(ctx_a2):
    """Canonical words with nonnegative exponents still build, with the
    coefficient stored as __init__ stores it, and a zero coefficient gives
    the zero element."""
    m = KLRElement.monomial(ctx_a2, ["i", "j", "i"], [1, 2, 1], [0, 2, 1],
                            Fraction(4, 2))
    assert list(m.terms.items()) == [((("i", "j", "i"), (1, 2, 1),
                                       (0, 2, 1)), 2)]
    assert type(m.terms[("i", "j", "i"), (1, 2, 1), (0, 2, 1)]) is int
    assert m == KLRElement(ctx_a2, 3, {(("i", "j", "i"), (1, 2, 1),
                                        (0, 2, 1)): "2"})
    assert not KLRElement.monomial(ctx_a2, ("i", "j"), (1,), (0, 0), 0)
    for g in all_perms(4):
        KLRElement.monomial(ctx_a2, ("i",) * 4, canonical_word(g), (0,) * 4)


def test_constructor_refuses_mixed_weights_and_strand_counts(ctx_a2):
    """KLRElement(ctx, n, terms) refuses terms of two weights, and keys
    whose colour word or exponent vector is not on n strands, also when
    their coefficient is zero; terms of one weight in several colour
    orders build.  So no sum can mix weights behind its first key."""
    ii, ij, ji = ("i", "i"), ("i", "j"), ("j", "i")
    for terms in ({(ii, (), (0, 0)): 1, (ij, (), (0, 0)): 1},
                  {(ij, (), (0, 0)): 1, (ii, (1,), (0, 0)): 0}):
        with pytest.raises(ValueError, match="weight mismatch"):
            KLRElement(ctx_a2, 2, terms)
    for key in (("i", "i", "j"), (), (0, 0)), (ij, (), (0, 0, 0)), \
            (ii, (), (0,)):
        with pytest.raises(ValueError, match="not on 2 strands"):
            KLRElement(ctx_a2, 2, {key: 1})
    el = KLRElement(ctx_a2, 2, {(ij, (), (1, 0)): 1, (ji, (1,), (0, 0)): 2})
    assert len(el.terms) == 2
    with pytest.raises(ValueError, match="weight mismatch"):
        KLRElement.idem(ctx_a2, ii) + KLRElement(
            ctx_a2, 2, {(ij, (), (0, 0)): 1})


def test_generators_store_what_the_constructor_would(ctx_a2):
    """klr_generator sets its terms directly: they equal, item for item,
    the terms that KLRElement(ctx, n, terms) stores, with int
    coefficients."""
    seqs = list(sequences(RootVector({"i": 2, "j": 1})))
    for kind, k in (("x", 1), ("x", 3), ("tau", 1), ("tau", 2)):
        g = klr_generator(ctx_a2, kind, k, seqs)
        built = KLRElement(ctx_a2, 3, g.terms)
        assert list(g.terms.items()) == list(built.terms.items())
        assert {type(c) for c in g.terms.values()} == {int}


def reference_multiply(u, v):
    """u v as klr_multiply made it before the left colour table: v's terms
    grouped by perm_of_word(word, n).permute_tuple(nu), key by key."""
    ctx, n = u.ctx, u.n
    by_left = {}
    for key, c in v.terms.items():
        nu, word, _ = key
        lam = perm_of_word(word, n).permute_tuple(nu)
        by_left.setdefault(lam, {})[key] = c
    acc = {}
    for (nu, word, exps), cu in u.terms.items():
        sub = by_left.get(nu)
        if sub:
            for (nu2, w2, e2), c2 in klr._tau_word_times(ctx, word, sub,
                                                         n).items():
                klr._add_term(acc, (nu2, w2, tuple(map(add, e2, exps))),
                              cu * c2)
    return acc


@pytest.mark.parametrize("dot", [A2_DOT, B2R_DOT, G2_DOT],
                         ids=["a2", "b2r", "g2"])
def test_klr_multiply_matches_per_term_grouping(dot):
    """On seeded products of elements with several left colour words,
    n = 2..4, klr_multiply equals reference_multiply item for item and
    in insertion order, on one context whose tables warm as it goes."""
    rng = random.Random(37)
    ctx = KLRContext(make_cartan(dot))
    for n in range(2, 5):
        words = [canonical_word(g) for g in all_perms(n)]
        for _ in range(25):
            nu = tuple(rng.choice("ij") for _ in range(n))
            nus = sorted(set(itertools.permutations(nu)))
            u = KLRElement(ctx, n, random_pbw_terms(rng, nus, words))
            v = KLRElement(ctx, n, random_pbw_terms(rng, nus, words))
            got = klr_multiply(u, v)
            assert list(got.terms.items()) == \
                list(reference_multiply(u, v).items()), (u, v)
