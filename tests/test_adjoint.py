"""Complexes of cyclic modules computing the categorified adjoint action:
differentials square to zero, cohomology is concentrated in degree zero,
and the graded ranks match the closed formulas and identity checks."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from klrcalc import (
    CyclicProjective,
    DegreeWindow,
    DimTable,
    KLRContext,
    KLRElement,
    LaurentPoly,
    ProjComplex,
    RatFunc,
    RootVector,
    build_ad_complex,
    build_divided_complex,
    cohomology_dims,
    dims_E_word,
    grk_ad_divided_Ej,
    is_quotient_zero,
    klr_multiply,
    mackey_shadow_check,
    nderivation_check,
    product_dims,
    sequences,
    series_window,
    serre_exactness_check,
    ses_identity_check,
    underlying_degree,
)
from klrcalc import adjoint
from klrcalc.adjoint import _echelon_insert, _matrix_rank, _pack
from klrcalc.klr import (_tau_word_times, graded_basis, idempotent_e_klr,
                         klr_multiply_many, tau_word_degree)
from klrcalc.polycalc import all_perms, canonical_word, perm_of_word

from conftest import A2_DOT, B2_DOT, G2_DOT, HALF_UNITS, make_cartan


# -- construction sanity (the constructor verifies d^2 = 0 exactly) ------


AD_CASES = [
    (1, ("j",), "i"),
    (2, ("j",), "i"),
    (1, ("j", "j"), "i"),
    (2, ("j", "j"), "i"),
    (1, ("j", "i"), "i"),
    (3, ("j",), "i"),
    (0, ("j",), "i"),
]


@pytest.mark.parametrize("n,nu,i", AD_CASES)
def test_ad_complex_builds_and_squares_to_zero(n, nu, i, ctx_a2):
    cplx = build_ad_complex(n, nu, i, ctx_a2)
    assert cplx.length() == n + 1


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (3, 1), (0, 1)])
def test_divided_complex_builds(n, m, ctx_a2, ctx_b2):
    for ctx in (ctx_a2, ctx_b2):
        cplx = build_divided_complex(n, ("j",) * m, "i", ctx)
        assert cplx.length() == n + 1


def oracle_ad_complex_words(n, r):
    """Differential words of the binomial complex, built by iterated cones.

    Returns (subsets, entries): subsets[k] lists the k-subsets of {1..n};
    entries maps (S, S') with S' = S minus one element to (sign, word),
    where the word is a single ascending run in the ambient strand letters.
    The recursion: the next complex is the cone of the crossing morphism
    from (previous complex with an extra bottom strand, shifted) to
    (previous complex with an extra top strand).  Subsets containing the
    new index come from the bottom-strand copy, whose differential words
    shift up by one and change sign; the connecting entries are the runs
    moving the new top strand to the bottom.
    """
    entries = {}
    for m in range(1, n + 1):
        new = {}
        for (S, Sp), (sign, word) in entries.items():
            # bottom-strand copy: letters shift up, sign flips
            new[(S + (m,), Sp + (m,))] = (-sign, tuple(l + 1 for l in word))
            # top-strand copy: unchanged
            new[(S, Sp)] = (sign, word)
        # connecting morphism: remove the new index m
        for k in range(m):
            for S in itertools.combinations(range(1, m), k):
                new[(S + (m,), S)] = (1, tuple(range(1, m + r)))
        entries = new
    subsets = [sorted(itertools.combinations(range(1, n + 1), k))
               for k in range(n + 1)]
    return subsets, entries


@pytest.mark.parametrize("which", ["a2", "b2", "b2r", "g2"])
def test_ad_complex_entries_match_iterated_cones(which, ctx_a2, ctx_b2,
                                                 ctx_b2r, ctx_g2):
    """For n <= 4 and every i/j word nu with |nu| <= 2, the closed-form
    differential of the binomial complex has exactly the entries of the
    iterated cones, each the oracle's +-tau_word 1_mu with mu the color
    word of its target."""
    ctx = {"a2": ctx_a2, "b2": ctx_b2, "b2r": ctx_b2r, "g2": ctx_g2}[which]
    for n in range(1, 5):
        for r in range(3):
            subsets, entries = oracle_ad_complex_words(n, r)
            for nu in itertools.product("ij", repeat=r):
                cplx = build_ad_complex(n, nu, "i", ctx)
                assert [len(col) for col in cplx.terms] == \
                    [len(col) for col in subsets]
                got = {(subsets[k][si], subsets[k - 1][ti]): z
                       for k, dk in enumerate(cplx.diffs, start=1)
                       for (si, ti), z in dk.items()}
                assert got.keys() == entries.keys(), (n, nu)
                pos_nu = tuple(reversed(nu))
                for (S, Sp), (sign, word) in entries.items():
                    k = len(Sp)
                    mu = ("i",) * k + pos_nu + ("i",) * (n - k)
                    want = KLRElement(ctx, n + r, _tau_word_times(
                        ctx, word, KLRElement.idem(ctx, mu).terms, n + r))
                    assert got[(S, Sp)] == (want if sign > 0 else -want), \
                        (n, nu, S, Sp)


@pytest.mark.parametrize("fault,message", [
    ("negate", "square to zero"),
    ("dot", "wrong degree"),
    ("frame", "idempotent-framed"),
    ("drop", "one differential per consecutive pair"),
])
def test_projcomplex_rejects_each_fault(fault, message, ctx_a2):
    """Rebuilding a valid complex with one fault raises that fault's
    ValueError: a negated d_2 entry breaks d^2 = 0, x_1 on the left of an
    entry shifts its degree, 1_mu added to an entry leaves f_src H f_tgt,
    and a missing differential leaves a pair of terms unconnected."""
    cplx = build_ad_complex(2, ("j",), "i", ctx_a2)
    terms, diffs = cplx.terms, cplx.diffs
    ProjComplex(ctx_a2, terms, diffs)
    (si, ti), z = next(iter(diffs[0].items()))
    lam = terms[1][si].nu
    if fault == "negate":
        key, z2 = next(iter(diffs[1].items()))
        diffs[1][key] = -z2
    elif fault == "dot":
        x1 = KLRElement.monomial(ctx_a2, lam, (), (1,) + (0,) * (len(lam) - 1))
        diffs[0][(si, ti)] = klr_multiply(x1, z)
    elif fault == "frame":
        mu = next(mu for mu in sequences(RootVector.from_word(lam))
                  if mu != lam)
        diffs[0][(si, ti)] = z + KLRElement.idem(ctx_a2, mu)
    else:
        diffs = diffs[:1]
    with pytest.raises(ValueError, match=message):
        ProjComplex(ctx_a2, terms, diffs)


def basis_vectors(rows):
    """The basis vectors of a block of rows (word, exps, table), as the
    list of pairs (word, a), one per exponent vector a of each row, in row
    order: the per-vector form the tests read."""
    return [(word, a) for word, exps, _ in rows for a in exps]


def full_columns(cplx, k, d, lam):
    """The block's columns as whole sparse vectors, one per basis vector
    whose word has a nonzero product, with no unit column peeled, each
    tagged with the number of terms of its word's product."""
    return [(len(prod), {b + _pack(exps): c for b, c in prod})
            for si, src in enumerate(cplx.terms[k])
            for word, exps in basis_vectors(src.blocks(d).get(lam, ()))
            if (prod := cplx._word_prod(k, si, word))]


def test_component_matrix_shapes_and_ranks(ctx_a2):
    """Each block has one column per basis vector whose word has a nonzero
    product and none for the others.  The vectors whose word's product
    has one term give unit columns, which are peeled into the key set
    units with no column built; so unit columns + other columns + vectors
    with a zero product = the block's dimension.  units holds exactly the
    keys of the unit columns, and every other column is its whole column
    with those keys dropped."""
    cplx = build_ad_complex(2, ("j",), "i", ctx_a2)
    skipped_some = repeated_some = emptied_some = False
    for d in range(0, 7):
        for lam in sorted(cplx.left_color_words(d)):
            for k in (1, 2):
                units, cols = cplx._raw_columns(k, d, lam)
                full = full_columns(cplx, k, d, lam)
                unit_cols = [col for terms, col in full if terms == 1]
                zero = sum(1 for si, src in enumerate(cplx.terms[k])
                           for word, _ in basis_vectors(
                               src.blocks(d).get(lam, ()))
                           if not cplx._word_prod(k, si, word))
                assert len(unit_cols) + len(cols) + zero == \
                    cplx.term_dim(k, d, lam)
                assert units == {p for col in unit_cols for p in col}
                assert cols == [{p: c for p, c in col.items()
                                 if p not in units}
                                for terms, col in full if terms > 1]
                skipped_some |= zero > 0
                repeated_some |= len(units) < len(unit_cols)
                emptied_some |= not all(cols)
                rank = cplx.block_rank(k, d, lam)
                assert rank == oracle_rank([col for _, col in full])
                assert rank <= min(cplx.term_dim(k, d, lam),
                                   cplx.term_dim(k - 1, d, lam))
    assert skipped_some and repeated_some and emptied_some


# -- the closed-form basis of H·f against the echelon oracle -------------


def echelon_dims(p, d):
    """Reference dimensions of the degree-d component of H·f by left color
    word: right-multiply every PBW monomial of degree d + shift by f and
    take the rank of the images in each left-color block."""
    images = {}
    for key in graded_basis(p.ctx, None, p.nu, underlying_degree(p.shift, d)):
        v = klr_multiply(KLRElement(p.ctx, p.n, {key: 1}), p.f)
        if v:
            lam = v.left_colors(key)
            images.setdefault(lam, []).append(dict(v.terms))
    dims = {lam: _matrix_rank(cols) for lam, cols in images.items()}
    return {lam: r for lam, r in dims.items() if r}


def test_closed_form_basis_matches_echelon_oracle(ctx_a2, ctx_b2, ctx_b2r,
                                                  ctx_g2):
    """Every term of every divided complex with n + m <= 4 has, in every
    degree 0..6 and left color word, as many basis vectors as the
    enumerate-project-echelon construction finds."""
    for ctx in (ctx_a2, ctx_b2, ctx_b2r, ctx_g2):
        for n, m in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
            cplx = build_divided_complex(n, ("j",) * m, "i", ctx)
            for col in cplx.terms:
                for p in col:
                    for d in range(0, 7):
                        got = {lam: p.dim(d, lam) for lam in p.blocks(d)}
                        assert got == echelon_dims(p, d), (n, m, p.nu, d)


def test_closed_form_basis_vectors(ctx_a2, ctx_b2):
    """Each basis vector x^exps tau_word 1_nu lies in H·f, has degree
    d + shift, and each block is linearly independent."""
    for ctx in (ctx_a2, ctx_b2):
        for n, m in [(1, 1), (2, 1), (1, 2)]:
            cplx = build_divided_complex(n, ("j",) * m, "i", ctx)
            for col in cplx.terms:
                for p in col:
                    for d in range(0, 5):
                        for lam, rows in p.blocks(d).items():
                            block = basis_vectors(rows)
                            vecs = []
                            for word, exps in block:
                                v = klr_multiply(
                                    KLRElement.monomial(ctx, lam, (), exps),
                                    _tau_el(ctx, word, p.nu))
                                assert klr_multiply(v, p.f) == v
                                assert v.degree() == d + p.shift
                                vecs.append(dict(v.terms))
                            assert _matrix_rank(vecs) == len(block)


def test_cyclic_projective_rejects_nonconforming_idempotents(ctx_a2):
    """1_(i,i) - e_2 has two PBW terms; -tau_1 tau_2 tau_1 1_(i,j,i) is one
    monomial, but its colors are not constant on the block of its word."""
    two_terms = (KLRElement.idem(ctx_a2, ("i", "i"))
                 - idempotent_e_klr(ctx_a2, "i", 2))
    mixed = KLRElement.monomial(ctx_a2, ("i", "j", "i"), (1, 2, 1),
                                (0, 0, 0), -1)
    for f, why in ((two_terms, "single PBW monomial"),
                   (mixed, "longest word")):
        assert klr_multiply(f, f) == f
        with pytest.raises(ValueError, match=why):
            CyclicProjective(ctx_a2, f)


@pytest.mark.parametrize("shift", [2.5, 2.0, True, "2"])
def test_cyclic_projective_refuses_a_shift_that_is_no_int(shift, ctx_a2):
    """The shift is refused, not truncated: int() made 2.5 a shift of 2
    and True a shift of 1."""
    f = KLRElement.idem(ctx_a2, ("i", "j"))
    with pytest.raises(ValueError, match=f"shift {shift!r} is not an int"):
        CyclicProjective(ctx_a2, f, shift)


def _exp_vectors(weights, total):
    """All nonnegative integer vectors a with sum a_k * weights_k = total,
    in increasing lex order."""
    if total < 0:
        return
    if not weights:
        if total == 0:
            yield ()
        return
    for a in range(total // weights[0] + 1):
        for rest in _exp_vectors(weights[1:], total - a * weights[0]):
            yield (a,) + rest


def _left_word(g, nu):
    ginv = g.inv()
    return tuple(nu[ginv(p) - 1] for p in range(1, len(nu) + 1))


def keywise_blocks(p, d):
    """The basis of the degree-d component of H·f, key by key: every PBW
    key x^a tau_u 1_nu over the minimal coset representatives u, each
    with its own left colour word."""
    ctx, nu, dot = p.ctx, p.nu, p.ctx.cartan.dot
    letters = set(p.w0)
    e = underlying_degree(p.shift, d) - tau_word_degree(ctx, p.w0, nu)
    found = {}
    for u in all_perms(p.n):
        if not all(u(q) < u(q + 1) for q in letters):
            continue
        word = canonical_word(u)
        weights = tuple(dot(c, c) for c in _left_word(u, nu))
        for exps in _exp_vectors(weights,
                                 e - tau_word_degree(ctx, word, nu)):
            lam = _left_word(perm_of_word(word, p.n), nu)
            found.setdefault(lam, []).append((word + p.w0, exps))
    return {lam: found[lam] for lam in sorted(found)}


def test_blocks_match_keywise_construction(ctx_a2, ctx_b2, ctx_b2r, ctx_g2):
    """blocks(d) flattened to its basis vectors, its dict order and list
    order included, equals the key-by-key construction on every term of
    the plain and the divided complexes with n + m <= 4, degrees 0..6."""
    for ctx in (ctx_a2, ctx_b2, ctx_b2r, ctx_g2):
        for n, m in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
            for build in (build_ad_complex, build_divided_complex):
                cplx = build(n, ("j",) * m, "i", ctx)
                for col in cplx.terms:
                    for p in col:
                        for d in range(0, 7):
                            got = {lam: basis_vectors(rows)
                                   for lam, rows in p.blocks(d).items()}
                            want = keywise_blocks(p, d)
                            assert list(got.items()) == list(want.items()), \
                                (build.__name__, n, m, p.nu, d)


def test_modules_with_one_idempotent_share_one_basis(ctx_a2, ctx_b2):
    """Summands with the same nu and w0 return the identical basis object
    at equal underlying degree, the context's ctx.basis: the C(n, k)
    summands of a column of an undivided complex, and the terms of two
    divided complexes built alike.  graded_basis lists the keys of
    ctx.basis(nu, (), d), sorted, filtered by left colour word."""
    for ctx in (ctx_a2, ctx_b2):
        cplx = build_ad_complex(3, ("j",), "i", ctx)
        for col in cplx.terms[1:-1]:
            assert len(col) == 3 and len({p.shift for p in col}) > 1
            for e in range(-2, 8):
                got = [p.blocks(e - p.shift) for p in col]
                assert all(b is ctx.basis(col[0].nu, (), e) for b in got)
        first, again = (build_divided_complex(2, ("j",), "i", ctx)
                        for _ in range(2))
        assert any(p.w0 for p, in first.terms)
        for (p,), (q,) in zip(first.terms, again.terms):
            assert all(p.blocks(d) is q.blocks(d) for d in range(-2, 8))
        for nu in (("i", "j", "i"), ("j", "j", "i")):
            for d in range(-6, 8):
                basis = ctx.basis(nu, (), d)
                assert graded_basis(ctx, None, nu, d) == sorted(
                    (nu, w, a) for rows in basis.values()
                    for w, a in basis_vectors(rows))
                for lam in set(itertools.permutations(nu)):
                    assert graded_basis(ctx, lam, nu, d) == sorted(
                        (nu, w, a)
                        for w, a in basis_vectors(basis.get(lam, ())))


def test_basis_rows_share_the_exponent_tables(ctx_a2, ctx_b2, ctx_g2):
    """blocks(d) has one row (word, exps, table) per minimal coset
    representative u with vectors in degree d, word = canon(u) + w0: exps
    is the context's memoized exp_vectors table itself, not a copy, and
    table is its key, the x weights (c, c) of the left colour word and the
    degree left for the x's after tau_u tau_w0; no word appears twice in
    a block; and dim counts the flattened vectors, per block and in all.
    On every term of the plain and the divided complexes with n + m <= 4
    (the latter with parabolic w0), degrees 0..6."""
    for ctx in (ctx_a2, ctx_b2, ctx_g2):
        dot = ctx.cartan.dot
        parabolic = False
        for n, m in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
            for build in (build_ad_complex, build_divided_complex):
                cplx = build(n, ("j",) * m, "i", ctx)
                for p in (p for col in cplx.terms for p in col):
                    parabolic |= bool(p.w0)
                    for d in range(0, 7):
                        e = underlying_degree(p.shift, d) - \
                            tau_word_degree(ctx, p.w0, p.nu)
                        count = 0
                        for lam, rows in p.blocks(d).items():
                            weights = tuple(dot(c, c) for c in lam)
                            words = [row[0] for row in rows]
                            assert len(set(words)) == len(words)
                            for word, exps, table in rows:
                                u = word[:len(word) - len(p.w0)]
                                assert u + p.w0 == word
                                want = (weights,
                                        e - tau_word_degree(ctx, u, p.nu))
                                assert table == want
                                assert exps and \
                                    exps is ctx.exp_vectors(*want)
                            vecs = len(basis_vectors(rows))
                            assert p.dim(d, lam) == vecs
                            count += vecs
                        assert p.dim(d) == count, (n, m, p.nu, d)
        assert parabolic


def word_products(cplx, k, si, word):
    """tau_word 1_nu . z by klr_multiply for every entry z of d_k out of
    summand si, as a dict (ti, PBW key) -> coefficient.  word = canon(u) +
    w0 need not be canonical, so the basis monomials tau_canon(u) 1_nu and
    tau_w0 1_nu (w0 fixes nu) multiply z one after the other."""
    src = cplx.terms[k][si]
    cut = len(word) - len(src.w0)
    assert word[cut:] == src.w0
    head, tail = (KLRElement.monomial(cplx.ctx, src.nu, w, (0,) * src.n)
                  for w in (word[:cut], src.w0))
    return {(ti, key): c
            for (a, ti), z in cplx.diffs[k - 1].items() if a == si
            for key, c in klr_multiply(head, klr_multiply(tail, z)).terms.items()}


def scaled_word_products(cplx, k, si, word):
    """word_products scaled by the lcm of their denominators, with that
    lcm."""
    want = word_products(cplx, k, si, word)
    scale = lcm(*(Fraction(c).denominator for c in want.values()))
    return scale, {key: c * scale for key, c in want.items()}


def unpack_key(key, n):
    """A packed column key split into its high part (the target id) and
    its n exponent fields of 32 bits each, the first strand highest."""
    fields = []
    for _ in range(n):
        fields.append(key & 0xFFFFFFFF)
        key >>= 32
    return key, tuple(reversed(fields))


def decode_keys(cplx, n, items):
    """Pairs (packed key, c) on n strands decoded through the complex's
    target ids into a dict (ti, PBW key) -> c, checking that the ids
    number their targets 0, 1, ... and that no packed key repeats."""
    items = list(items)
    targets = {i: t for t, i in cplx._target_ids.items()}
    assert sorted(targets) == list(range(len(cplx._target_ids)))
    assert len({key for key, _ in items}) == len(items)
    out = {}
    for key, c in items:
        i, e = unpack_key(key, n)
        ti, mu, w2 = targets[i]
        out[(ti, (mu, w2, e))] = c
    return out


def flat_word_prod(cplx, k, si, word):
    """The cached flat tuple of _word_prod, decoded by decode_keys."""
    return decode_keys(cplx, cplx.terms[k][si].n,
                       cplx._word_prod(k, si, word))


def test_word_prod_matches_klr_multiply(ctx_a2, ctx_b2, ctx_b2r, ctx_g2):
    """The cached products tau_word 1_nu . z equal klr_multiply of the
    monomial tau_word 1_nu with each entry z out of the source summand,
    scaled by the lcm of their denominators (1 under the default units),
    for every basis word of every source summand of the plain and the
    divided complexes with n + m <= 4."""
    for ctx in (ctx_a2, ctx_b2, ctx_b2r, ctx_g2):
        for n, m in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
            for build in (build_ad_complex, build_divided_complex):
                cplx = build(n, ("j",) * m, "i", ctx)
                for k in range(1, cplx.length()):
                    for si, src in enumerate(cplx.terms[k]):
                        for _, word, _, _ in ctx.pbw_cosets(src.nu, src.w0):
                            word += src.w0
                            scale, want = scaled_word_products(
                                cplx, k, si, word)
                            assert scale == 1
                            assert flat_word_prod(cplx, k, si, word) == \
                                want, (build.__name__, n, m, k, word)


def test_differential_products_keep_int_coefficients(ctx_a2, ctx_b2):
    """With the default units every differential product tau_word 1_nu . z
    that the ranks use is, before any scaling, an integer combination of
    PBW keys, and the cache holds it unchanged."""
    for ctx in (ctx_a2, ctx_b2):
        for n, m in [(2, 1), (1, 2), (3, 1)]:
            for build in (build_ad_complex, build_divided_complex):
                cplx = build(n, ("j",) * m, "i", ctx)
                cohomology_dims(cplx, DegreeWindow(0, 4))
                assert cplx._word_prods
                for k, si, word in list(cplx._word_prods):
                    want = word_products(cplx, k, si, word)
                    bad = {key: c for key, c in want.items()
                           if type(c) is not int}
                    assert not bad, (k, si, word, bad)
                    assert flat_word_prod(cplx, k, si, word) == want


def test_packed_fields_hold_exponents_below_2_31(ctx_a2, monkeypatch):
    """An exponent up to 2^31 - 1 packs into its 32-bit field exactly, and
    two such fields add with no carry; 2^31 or a negative exponent raises
    ValueError, from _pack and from a column whose basis vector carries
    it.  The guard is a raise, so it holds under python -O too."""
    top = 2 ** 31 - 1
    for exps in [(), (top,), (0, top, 5), (top, top)]:
        assert unpack_key(_pack(exps), len(exps)) == (0, exps)
    assert unpack_key(_pack((top, 1)) + _pack((top, 0)), 2) == \
        (0, (2 * top, 1))
    for exps in [(2 ** 31,), (0, 2 ** 31), (-1, 0)]:
        with pytest.raises(ValueError, match="packed"):
            _pack(exps)

    def columns_with(big):
        """A complex, a basis word of d_1 whose product has more than one
        term, and the unit keys and columns of d_1 on its block, once the
        block is replaced by that word times x^(big, ..., big)."""
        cplx = build_divided_complex(1, ("j",), "i", ctx_a2)
        src = cplx.terms[1][0]
        d, lam, word = next((d, lam, word) for d in range(8)
                            for lam, rows in src.blocks(d).items()
                            for word, _ in basis_vectors(rows)
                            if len(cplx._word_prod(1, 0, word)) > 1)
        monkeypatch.setattr(src, "blocks", lambda _: {
            lam: [(word, ((big,) * src.n,), ("big", big))]})
        return (cplx, word) + cplx._raw_columns(1, d, lam)

    cplx, word, units, (col,) = columns_with(top)
    assert not units
    want = {(ti, (mu, w2, tuple(x + top for x in e))): c
            for (ti, (mu, w2, e)), c in
            flat_word_prod(cplx, 1, 0, word).items()}
    assert want and decode_keys(cplx, cplx.terms[1][0].n,
                                col.items()) == want
    with pytest.raises(ValueError, match="packed"):
        columns_with(top + 1)

    def big(cplx, x):
        """The exponent vector (x, 0, ..., 0) of the complex's d_1."""
        return (x,) + (0,) * (cplx.terms[1][0].n - 1)

    def target_pack(cplx, x):
        """_word_prod of a word no basis has, with _suffix_prod patched to
        give the single term x^big(cplx, x) on target 0; the packed key
        must hold that vector."""
        e, mu = big(cplx, x), cplx.terms[0][0].nu
        cplx._suffix_prod = lambda k, si, word: ((0, {(mu, (), e): 1}),)
        try:
            ((key, c),) = cplx._word_prod(1, 0, (99, x))
        finally:
            del cplx._suffix_prod
        assert unpack_key(key, len(e))[1] == e and c == 1

    # a target exponent of 2^31 raises on a cold and on a warm memo of
    # packed target vectors, and neither memo nor product cache keeps it
    cold = build_divided_complex(1, ("j",), "i", ctx_a2)
    warm = build_divided_complex(1, ("j",), "i", ctx_a2)
    cohomology_dims(warm, DegreeWindow(0, 3))
    assert not cold._packed_targets and warm._packed_targets
    for cplx in (cold, warm):
        before = dict(cplx._packed_targets)
        with pytest.raises(ValueError, match="packed"):
            target_pack(cplx, top + 1)
        assert cplx._packed_targets == before
        assert (1, 0, (99, top + 1)) not in cplx._word_prods
        target_pack(cplx, top)
        assert cplx._packed_targets[big(cplx, top)] == _pack(big(cplx, top))


@pytest.mark.parametrize("dot, units", [(A2_DOT, None), (B2_DOT, None),
                                        (A2_DOT, HALF_UNITS)],
                         ids=["a2", "b2", "a2-half"])
def test_word_prods_pack_each_target_term(dot, units):
    """After cohomology_dims on the plain and the divided complexes with
    n + m <= 4, every cached _word_prods pair is, in order, (id << 32 n |
    _pack(e), c m) over the terms c x^e tau_w2 1_mu of the word's
    _suffix_prod with each target ti, where id = _target_ids[(ti, mu, w2)]
    and m is the lcm of the word's denominators, and every coefficient is
    an int.  The memo of packed target vectors holds _pack(e) of exactly
    the vectors e met.  The complexes share one context."""
    ctx = KLRContext(make_cartan(dot), units)
    scales = set()
    for n, m in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
        for build in (build_ad_complex, build_divided_complex):
            cplx = build(n, ("j",) * m, "i", ctx)
            cohomology_dims(cplx, DegreeWindow(0, 4))
            assert cplx._word_prods
            ids = cplx._target_ids
            met = set()
            for (k, si, word), got in cplx._word_prods.items():
                terms = [(ti, key, c) for ti, prod in
                         cplx._suffix_prod(k, si, word)
                         for key, c in prod.items()]
                scale = lcm(*(Fraction(c).denominator for *_, c in terms))
                scales.add(scale)
                shift = 32 * cplx.terms[k][si].n
                assert got == tuple(
                    (ids[ti, mu, w2] << shift | _pack(e), c * scale)
                    for ti, (mu, w2, e), c in terms), (k, si, word)
                assert all(type(c) is int for _, c in got)
                met.update(e for _, (_, _, e), _ in terms)
            assert cplx._packed_targets == {e: _pack(e) for e in met}
    assert (max(scales) > 1) == (units is not None)


def test_complexes_on_one_context_keep_their_own_packing_memos(ctx_a2):
    """Two complexes on one context, on three strands and on two: ranking
    the first fills its memos only, and each memo of packed target
    vectors holds vectors of its own complex's length."""
    a = build_ad_complex(2, ("j",), "i", ctx_a2)
    b = build_ad_complex(1, ("j",), "i", ctx_a2)
    cohomology_dims(a, DegreeWindow(0, 3))
    assert a._packed_targets and a._packed
    assert not b._packed_targets and not b._packed and not b._target_ids
    cohomology_dims(b, DegreeWindow(0, 3))
    assert b._packed_targets
    assert {len(e) for e in a._packed_targets} == {3}
    assert {len(e) for e in b._packed_targets} == {2}


@pytest.mark.parametrize("units", [None, HALF_UNITS], ids=["unit", "half"])
def test_suffix_memo_holds_the_suffixes_of_ranked_words(units):
    """After cohomology_dims, the suffix memo holds exactly the distinct
    nonempty suffixes of the basis words of the ranked blocks, and each
    holds the product by the one tau-word loop _tau_word_times of that
    suffix with every entry of the differential, unscaled."""
    for dot in (A2_DOT, B2_DOT):
        ctx = KLRContext(make_cartan(dot), units)
        for n, m in [(2, 1), (1, 2), (3, 1)]:
            for build in (build_ad_complex, build_divided_complex):
                cplx = build(n, ("j",) * m, "i", ctx)
                cohomology_dims(cplx, DegreeWindow(0, 4))
                want = set()
                for k, d, lam in cplx._ranks:
                    for si, src in enumerate(cplx.terms[k]):
                        for word, _ in basis_vectors(
                                src.blocks(d).get(lam, ())):
                            want.update((k, si, word[j:])
                                        for j in range(len(word)))
                assert want and set(cplx._suffix_prods) == want
                for (k, si, suffix), got in cplx._suffix_prods.items():
                    n_strands = cplx.terms[k][si].n
                    prods = {ti: _tau_word_times(ctx, suffix, z.terms,
                                                 n_strands)
                             for (a, ti), z in cplx.diffs[k - 1].items()
                             if a == si}
                    assert got == tuple((ti, prods[ti]) for ti in
                                        sorted(prods) if prods[ti]), \
                        (build.__name__, n, m, k, si, suffix)


# -- Euler characteristic ------------------------------------------------


def euler_from_table(gdt, k_range, d):
    return sum((-1) ** k * gdt.dim(k, d) for k in k_range)


def test_euler_characteristic(ctx_a2):
    """Alternating sums of term dimensions and of cohomology dimensions
    agree in every degree."""
    w = DegreeWindow(0, 8)
    cplx = build_ad_complex(2, ("j",), "i", ctx_a2)
    gdt = cohomology_dims(cplx, w)
    for d in w:
        terms = sum((-1) ** k * cplx.term_dim(k, d)
                    for k in range(cplx.length()))
        coh = sum((-1) ** k * gdt.dim(k, d) for k in range(cplx.length()))
        assert terms == coh, d


@pytest.mark.parametrize("dot", [A2_DOT, B2_DOT, G2_DOT],
                         ids=["a2", "b2", "g2"])
def test_cohomology_blocks_keep_their_euler_characteristic(dot):
    """The one cohomology formula against the terms it comes from, on the
    plain and divided complexes of j^m with n + m <= 4, degrees 0..6.  Per
    (d, lam), the alternating sum over k of the H^{-k} blocks of
    cohomology_dims equals that of term_dim(k, d, lam), since the ranks
    of d_k and d_{k+1} cancel in it; no block has lower cohomology; and
    the H^0 table of the identities (read on demand, on a fresh complex)
    equals the k = 0 rows of cohomology_dims."""
    ctx = KLRContext(make_cartan(dot))
    w = DegreeWindow(0, 6)
    nonzero = 0
    for n in range(4):
        for m in range(1, 5 - n):
            for build in (build_ad_complex, build_divided_complex):
                cplx = build(n, ("j",) * m, "i", ctx)
                refined = cohomology_dims(cplx, w).refined
                nonzero += bool(refined)
                assert not {key: v for key, v in refined.items()
                            if key[0] and v}, (build.__name__, n, m)
                h0 = adjoint._cohomology_h0_refined(
                    build(n, ("j",) * m, "i", ctx))
                for d in w:
                    for lam in cplx.left_color_words(d):
                        terms = sum((-1) ** k * cplx.term_dim(k, d, lam)
                                    for k in range(cplx.length()))
                        coh = sum((-1) ** k * refined.get((-k, lam, d), 0)
                                  for k in range(cplx.length()))
                        assert coh == terms, (build.__name__, n, m, d, lam)
                    assert h0.at(d) == {lam: v for (k, lam, e), v
                                        in refined.items()
                                        if k == 0 and e == d and v}, \
                        (build.__name__, n, m, d)
    assert nonzero > 10, nonzero


# -- concentration in cohomological degree zero --------------------------


def test_no_lower_cohomology_small(ctx_a2, ctx_b2):
    # concentration applies to modules over the quotient algebra: the
    # underlying color word must avoid the adjoint color i
    w = DegreeWindow(0, 8)
    for ctx in (ctx_a2, ctx_b2):
        for n, word in [(1, ("j",)), (2, ("j",)), (1, ("j", "j")),
                        (2, ("j", "j")), (3, ("j",))]:
            cplx = build_ad_complex(n, word, "i", ctx)
            gdt = cohomology_dims(cplx, w)
            bad = {kd: v for kd, v in gdt.dims.items()
                   if kd[0] != 0 and v}
            assert not bad, (n, word)


# -- graded rank of divided adjoint powers vs the closed formula ---------


def h0_table(cplx, w):
    gdt = cohomology_dims(cplx, w)
    return {d: gdt.dim(0, d) for d in w}


@pytest.mark.parametrize("which,n", [("a2", 1), ("b2", 1), ("b2", 2)])
def test_divided_adjoint_rank_formula(which, n, ctx_a2, ctx_b2):
    ctx = {"a2": ctx_a2, "b2": ctx_b2}[which]
    w = DegreeWindow(0, 10)
    cplx = build_divided_complex(n, ("j",), "i", ctx)
    got = h0_table(cplx, w)
    expect = series_window(grk_ad_divided_Ej(n, "i", "j", ctx), w)
    for d in w:
        assert got[d] == expect.coeff(d), (which, n, d)


def parent_grk_ad_divided_Ej(n, i, j, cartan):
    """The closed formula with its denominator written out as
    (1 - q^{2 d_j}) (1 - q^{2 d_i})^n."""
    di, dj = cartan.d(i), cartan.d(j)
    cij = cartan.cartan(i, j)
    num = LaurentPoly.q(di * n * (n - 1) // 2)
    for k in range(n):
        num = num * (LaurentPoly.one()
                     - LaurentPoly.q(2 * di * (-cij - k)))
    den = LaurentPoly.one() - LaurentPoly.q(2 * dj)
    for _ in range(n):
        den = den * (LaurentPoly.one() - LaurentPoly.q(2 * di))
    return RatFunc(num, den)


def test_grk_ad_divided_Ej_matches_written_out_formula(ctx_a2, ctx_b2,
                                                       ctx_b2r, ctx_g2):
    for ctx in (ctx_a2, ctx_b2, ctx_b2r, ctx_g2):
        for i, j in (("i", "j"), ("j", "i")):
            for n in range(5):
                assert grk_ad_divided_Ej(n, i, j, ctx) == \
                    parent_grk_ad_divided_Ej(n, i, j, ctx.cartan), (i, j, n)


def test_adjoint_module_grows_forever(ctx_a2):
    """The weight-space count of ad(E_j) is supported in every even degree:
    the module is infinite dimensional in the graded sense."""
    w = DegreeWindow(0, 14)
    got = h0_table(build_ad_complex(1, ("j",), "i", ctx_a2), w)
    for d in w:
        if d % 2 == 0:
            assert got[d] > 0, d
        else:
            assert got[d] == 0, d


# -- dimension bookkeeping ----------------------------------------------


def rows_of(table, degrees):
    """{lam: {d: dim}} of a DimTable read at each of the degrees."""
    out = {}
    for d in degrees:
        for lam, v in table.at(d).items():
            out.setdefault(lam, {})[d] = v
    return out


def test_product_dims_matches_concatenation(ctx_a2, ctx_b2, ctx_b2r, ctx_g2):
    """The shuffle product of the tables of two words is the table of the
    concatenated word, from below both lowest degrees up to degree 8."""
    for ctx in (ctx_a2, ctx_b2, ctx_b2r, ctx_g2):
        for w1 in [("i",), ("j",), ("i", "j"), ("j", "j")]:
            for w2 in [("i",), ("j",)]:
                P = product_dims(dims_E_word(ctx, w1), dims_E_word(ctx, w2),
                                 ctx)
                C = dims_E_word(ctx, w1 + w2)
                assert P.words == C.words, (w1, w2)
                window = DegreeWindow(min(P.lo, C.lo) - 2, 8)
                assert any(C.at(d) for d in window)
                assert P.agrees_with(C, window), (ctx.cartan, w1, w2)


def shuffle_product_dims(A, B, ctx):
    """product_dims from its own shuffle loop: each set of positions of
    the A strands among nA + nB gives the word lam, and each B strand
    crosses every A strand placed below it, adding -(a, b) to the degree.
    Returns (lo, words, function of the degree)."""
    dot = ctx.cartan.dot
    shuffles = []
    for lamA in sorted(A.words):
        for lamB in sorted(B.words):
            nA, nB = len(lamA), len(lamB)
            for posA in itertools.combinations(range(nA + nB), nA):
                lam, ia, ib, deg = [], 0, 0, 0
                for p in range(nA + nB):
                    if p in posA:
                        lam.append(lamA[ia])
                        ia += 1
                    else:
                        deg -= sum(dot(ca, lamB[ib]) for ca in lamA[:ia])
                        lam.append(lamB[ib])
                        ib += 1
                shuffles.append((lamA, lamB, tuple(lam), deg))

    def fn(d):
        out = {}
        for lamA, lamB, lam, deg in shuffles:
            e = d - deg
            v = sum(A.dim(a, lamA) * B.dim(e - a, lamB)
                    for a in range(A.lo, e - B.lo + 1))
            if v:
                out[lam] = out.get(lam, 0) + v
        return out
    lo = A.lo + B.lo + min((s[3] for s in shuffles), default=0)
    return lo, frozenset(s[2] for s in shuffles), fn


def test_product_dims_matches_shuffle_loop(ctx_a2, ctx_b2, ctx_b2r, ctx_g2):
    """product_dims, which reads its shuffles from the coset table, equals
    the shuffle loop in its words, its lowest degree and every degree
    from two below it up to six above, on every pair of words of total
    length <= 5, empty words included."""
    words = [w for n in range(6) for w in itertools.product("ij", repeat=n)]
    for ctx in (ctx_a2, ctx_b2, ctx_b2r, ctx_g2):
        tables = {w: dims_E_word(ctx, w) for w in words}
        for w1 in words:
            for w2 in words:
                if len(w1) + len(w2) > 5:
                    continue
                A, B = tables[w1], tables[w2]
                P = product_dims(A, B, ctx)
                lo, want_words, fn = shuffle_product_dims(A, B, ctx)
                assert (P.lo, P.words) == (lo, want_words), (w1, w2)
                for d in range(lo - 2, lo + 7):
                    assert P.at(d) == fn(d), (ctx.cartan, w1, w2, d)


def test_dims_E_word_matches_enumeration(ctx_a2, ctx_b2, ctx_g2):
    """The series rows of dims_E_word equal the counts of the PBW keys
    that graded_basis enumerates, per left color word, for every word of
    length <= 3 up to degree 8, and nothing lies below the table's lo."""
    hi = 8
    for ctx in (ctx_a2, ctx_b2, ctx_g2):
        for n in (1, 2, 3):
            for word in itertools.product("ij", repeat=n):
                pos = tuple(reversed(word))
                el = KLRElement(ctx, n)
                want = {}
                for d in range(-3 * 6, hi + 1):
                    for key in graded_basis(ctx, None, pos, d):
                        row = want.setdefault(el.left_colors(key), {})
                        row[d] = row.get(d, 0) + 1
                got = dims_E_word(ctx, word)
                assert got.lo == min(min(row) for row in want.values())
                assert got.words == set(want)
                assert rows_of(got, range(-3 * 6, hi + 1)) == want, word


def test_dim_table_algebra(ctx_a2):
    D = dims_E_word(ctx_a2, ("i", "j"))
    assert D.add(D).sub(D).agrees_with(D, DegreeWindow(-2, 8))
    assert D.at(4) and D.add(D).at(4) == {lam: 2 * v
                                          for lam, v in D.at(4).items()}
    assert underlying_degree(2, 3) == 5
    # (q^s M)_d = M_{d+s}: a shift by s moves every row, and the lowest
    # degree of the table, down by s
    for s in (2, -3):
        S = D.shifted(s)
        assert S.lo == D.lo - s and S.words == D.words
        for lam in D.words:
            assert any(D.dim(d, lam) for d in range(-2, 9))
            assert all(S.dim(d - s, lam) == D.dim(d, lam)
                       for d in range(-2, 9))


def test_scaled_by_quantum_integer_keeps_completeness(ctx_b2):
    """[m]_i M is the sum of the shifts q_i^{m-1-2l} M, l < m, at every
    degree, starting d_i (m - 1) below M; [0]_i M is the zero module; a
    negative multiplicity is refused."""
    D = dims_E_word(ctx_b2, ("i", "j"))
    for m, d_i in ((1, 1), (2, 1), (3, 2)):
        S = D.scaled_by_quantum_integer(m, d_i)
        top = d_i * (m - 1)
        assert S.lo == D.lo - top and S.words == D.words
        for d in range(S.lo - 2, 11):
            assert S.at(d) == {
                lam: v for lam in D.words
                if (v := sum(D.dim(d + top - 2 * d_i * l, lam)
                             for l in range(m)))}
    Z = D.scaled_by_quantum_integer(0, 1)
    assert not Z.words and not any(Z.at(d) for d in range(-4, 11))
    for m in (-1, -2):
        with pytest.raises(ValueError, match="negative multiplicity"):
            D.scaled_by_quantum_integer(m, 1)


def test_dim_table_sub_refuses_negative_dimensions():
    """A negative difference is not a dimension: it raises at whichever
    degree it is read, also below the lowest degree of the minuend, and
    the other degrees stay readable."""
    def table(lo, rows):
        return DimTable(lo, {lam for row in rows.values() for lam in row},
                        lambda d: rows.get(d, {}))

    A = table(0, {0: {("i",): 1}, 5: {("i",): 1}})
    for e, row in ((0, {("i",): 2}), (3, {("j",): 1}), (5, {("i",): 2}),
                   (-1, {("j",): 1})):
        diff = A.sub(table(min(e, 0), {e: row}))
        with pytest.raises(ValueError, match="negative dimension"):
            diff.at(e)
        assert all(diff.at(d) == A.at(d) for d in range(-1, 6) if d != e)
    assert not any(A.sub(A).at(d) for d in range(-1, 6))


def test_dims_E_word_rows_times_denominator_are_coset_polynomials(
        ctx_a2, ctx_b2, ctx_g2):
    """Each row of dims_E_word is the series of P_lam / D(beta), so the row
    read up to degree hi, times D(beta), is ctx.coset_polynomials through
    degree hi, with int coefficients throughout."""
    hi = 6
    for ctx in (ctx_a2, ctx_b2, ctx_g2):
        for n in (0, 1, 2, 3):
            for word in itertools.product("ij", repeat=n):
                pos = tuple(reversed(word))
                den = LaurentPoly.one()
                for c in pos:
                    den = den * (LaurentPoly.one()
                                 - LaurentPoly.q(ctx.cartan.dot(c, c)))
                got = dims_E_word(ctx, word)
                rows = rows_of(got, range(got.lo, hi + 1))
                assert all(type(v) is int for row in rows.values()
                           for v in row.values())
                lhs = {lam: {d: v for d, v in (LaurentPoly(row) * den)
                             .coeffs.items() if d <= hi}
                       for lam, row in rows.items()}
                rhs = {lam: {d: v for d, v in poly.items() if d <= hi}
                       for lam, poly in ctx.coset_polynomials(pos).items()}
                assert lhs == {lam: row for lam, row in rhs.items() if row}
    # the table starts at the lowest degree of every P_lam
    D = dims_E_word(ctx_a2, ("i", "j"))
    assert D.lo == 0 and D.at(0) and not any(D.at(d) for d in range(-5, 0))


# -- the quotient test ---------------------------------------------------


def test_is_quotient_zero_examples(ctx_a2):
    # one j strand: the i-derivative of E_j is nonzero in type A2
    assert not is_quotient_zero(RootVector.simple("j"), "i", ctx_a2)
    # pure i weight: E_i^n E_i has zero quotient by the embedded image
    assert is_quotient_zero(RootVector.simple("i"), "i", ctx_a2)


# -- product identities on graded dimensions ----------------------------


W8 = DegreeWindow(0, 8)


@pytest.mark.parametrize("mspec", [("j",),
                                   ("j", "j"),
                                   ("ad", 1, ("j",))])
def test_ses_identity(mspec, ctx_a2):
    assert ses_identity_check(mspec, "i", W8, ctx_a2)


@pytest.mark.parametrize("n", [1, 2])
def test_nderivation(n, ctx_a2):
    assert nderivation_check(("j",), ("j",), n, "i", W8, ctx_a2)


@pytest.mark.parametrize("mspec", [("j",), ("ad", 1, ("j",))])
def test_mackey(mspec, ctx_a2):
    assert mackey_shadow_check(mspec, "i", DegreeWindow(0, 10), ctx_a2)


@pytest.mark.parametrize("dot", [A2_DOT, G2_DOT], ids=["a2", "g2"])
@pytest.mark.parametrize("check,window", [
    (lambda w, ctx: mackey_shadow_check(("ad", 1, ("j",)), "i", w, ctx),
     DegreeWindow(0, 10)),
    (lambda w, ctx: ses_identity_check(("ad", 1, ("j",)), "i", w, ctx),
     W8),
    (lambda w, ctx: nderivation_check(("j",), ("j",), 2, "i", w, ctx), W8),
], ids=["mackey", "ses", "nderivation"])
def test_identities_rank_only_the_degrees_they_read(dot, check, window,
                                                    monkeypatch):
    """The dimension tables are read on demand, so H^0 is ranked only as
    far as the identity's own shifts reach past the window, and not up to
    a guessed headroom that grows with the height."""
    degrees = []
    block_rank = ProjComplex.block_rank

    def recording(self, k, d, lam):
        degrees.append(d)
        return block_rank(self, k, d, lam)

    monkeypatch.setattr(ProjComplex, "block_rank", recording)
    assert check(window, KLRContext(make_cartan(dot)))
    assert degrees and max(degrees) <= window.d_max + 6


@pytest.mark.parametrize("spec", [("ad", -1, ("j",)),
                                  ("ad", 1.0, ("j",)),
                                  ("ad", True, ("j",)),
                                  ("ad", 1, ("ad", 1, ("j",))),
                                  ("ad", 1, (("j",),)),
                                  ("ad", 1),
                                  (("j",), "j")])
def test_bad_module_specs_are_refused(spec, ctx_a2):
    for check in (ses_identity_check, mackey_shadow_check):
        with pytest.raises(ValueError, match="module spec"):
            check(spec, "i", W8, ctx_a2)


UNKNOWN_LABEL_CALLS = {
    "ses-word": lambda ctx: ses_identity_check(("k",), "i", W8, ctx),
    "ses-i": lambda ctx: ses_identity_check(("j",), "k", W8, ctx),
    "mackey-word": lambda ctx: mackey_shadow_check(("k",), "i", W8, ctx),
    "mackey-ad": lambda ctx: mackey_shadow_check(("ad", 1, ("k",)), "i", W8,
                                                 ctx),
    "mackey-i": lambda ctx: mackey_shadow_check(("j",), "k", W8, ctx),
    "nderivation-m": lambda ctx: nderivation_check(("k",), ("j",), 1, "i",
                                                   W8, ctx),
    "nderivation-n": lambda ctx: nderivation_check(("j",), ("j", "k"), 1,
                                                   "i", W8, ctx),
    "nderivation-i": lambda ctx: nderivation_check(("j",), ("j",), 1, "k",
                                                   W8, ctx),
    "ad-complex-word": lambda ctx: build_ad_complex(1, ("k",), "i", ctx),
    "divided-complex-i": lambda ctx: build_divided_complex(1, ("j",), "k",
                                                           ctx),
    "serre-j": lambda ctx: serre_exactness_check(1, 1, "i", "k",
                                                 DegreeWindow(0, 2), ctx),
    "serre-i": lambda ctx: serre_exactness_check(1, 1, "k", "j",
                                                 DegreeWindow(0, 2), ctx),
    "dims-E-word": lambda ctx: dims_E_word(ctx, ("k",)),
}


@pytest.mark.parametrize("call", UNKNOWN_LABEL_CALLS.values(),
                         ids=UNKNOWN_LABEL_CALLS.keys())
def test_unknown_colour_labels_are_refused(call, ctx_a2):
    """A colour the Cartan datum lacks, in the module word or as the
    adjoint colour, raises a ValueError naming it, not a bare KeyError
    from the root data."""
    with pytest.raises(ValueError, match="colour 'k' is not a label"):
        call(ctx_a2)


BAD_POWER_CALLS = {
    "ad-complex": lambda n, ctx: build_ad_complex(n, ("j",), "i", ctx),
    "divided-complex": lambda n, ctx: build_divided_complex(n, ("j",), "i",
                                                            ctx),
    "serre": lambda n, ctx: serre_exactness_check(n, 1, "i", "j",
                                                  DegreeWindow(0, 2), ctx),
}


@pytest.mark.parametrize("n", [-1, -3, 1.0, True, "1"])
@pytest.mark.parametrize("call", BAD_POWER_CALLS.values(),
                         ids=BAD_POWER_CALLS.keys())
def test_complex_builders_refuse_a_bad_power(call, n, ctx_a2):
    """A power that is no nonnegative int raises a ValueError naming it,
    instead of a complex with no terms (and a Serre cell that does not
    exist)."""
    with pytest.raises(ValueError, match=f"power {n!r} is not a "
                                         "nonnegative int"):
        call(n, ctx_a2)


@pytest.mark.parametrize("m", [0, -1, True, 1.5, "1"])
def test_serre_check_refuses_a_bad_strand_count(m, ctx_a2):
    """A strand count m that is no positive int raises a ValueError naming
    it, instead of an ok report on a cell that does not exist (m <= 0,
    or True as 1) or a bare TypeError (m = 1.5)."""
    with pytest.raises(ValueError, match=f"strand count {m!r} is not a "
                                         "positive int"):
        serre_exactness_check(1, m, "i", "j", DegreeWindow(0, 2), ctx_a2)


SERRE_CELL_LABEL_CALLS = {
    "grk-i": lambda ctx: grk_ad_divided_Ej(1, "k", "j", ctx),
    "grk-j": lambda ctx: grk_ad_divided_Ej(1, "i", "k", ctx),
    "quotient-i": lambda ctx: is_quotient_zero(RootVector.simple("j"), "k",
                                               ctx),
    "quotient-beta": lambda ctx: is_quotient_zero(
        RootVector({"i": 1, "k": 1}), "i", ctx),
}


@pytest.mark.parametrize("call", SERRE_CELL_LABEL_CALLS.values(),
                         ids=SERRE_CELL_LABEL_CALLS.keys())
def test_serre_cell_helpers_refuse_unknown_colours(call, ctx_a2):
    """The closed graded rank and the quotient rule refuse a colour the
    Cartan datum lacks as the builders do, not with a bare KeyError."""
    with pytest.raises(ValueError, match="colour 'k' is not a label"):
        call(ctx_a2)


@pytest.mark.parametrize("n", [-1, 1.5, True, "1"])
def test_graded_rank_formula_refuses_a_bad_power(n, ctx_a2):
    """grk_ad_divided_Ej takes the builders' power: n = -1 gave a rational
    function and n = 1.5 a bare TypeError."""
    with pytest.raises(ValueError, match=f"power {n!r} is not a "
                                         "nonnegative int"):
        grk_ad_divided_Ej(n, "i", "j", ctx_a2)


# -- the shadow of the crossing product decomposition -------------------


def test_tau_product_concatenation(ctx_a2, ctx_b2):
    """tau_[1..r+s] 1_{i,beta,gamma} factors through the two partial
    ascents, for all color splittings of total height <= 3."""
    for ctx in (ctx_a2, ctx_b2):
        for total in range(1, 4):
            for r in range(0, total + 1):
                s = total - r
                for bword in itertools.product("ij", repeat=r):
                    for gword in itertools.product("ij", repeat=s):
                        _check_tau_product(ctx, bword, gword)


def _tau_el(ctx, word, pos_nu):
    if not word:
        return KLRElement.idem(ctx, pos_nu)
    from klrcalc import klr_generator
    seqs = list(sequences(RootVector.from_word(pos_nu)))
    els = [klr_generator(ctx, "tau", k, seqs) for k in word]
    els.append(KLRElement.idem(ctx, pos_nu))
    return klr_multiply_many(*els)


def _check_tau_product(ctx, bword, gword):
    r, s = len(bword), len(gword)
    pos = tuple(gword) + tuple(bword) + ("i",)
    full = tuple(range(1, r + s + 1))
    lhs = _tau_el(ctx, full, pos)
    w1 = tuple(range(1, s + 1))
    w2 = tuple(range(s + 1, r + s + 1))
    rhs = _tau_el(ctx, w2, pos)
    if w1:
        # the first ascent is a plain product of crossings over the whole
        # weight block; only the rightmost factor is cut to 1_pos
        from klrcalc import klr_generator
        seqs = list(sequences(RootVector.from_word(pos)))
        first = klr_multiply_many(
            *[klr_generator(ctx, "tau", k, seqs) for k in w1])
        rhs = klr_multiply(first, rhs)
    assert lhs == rhs, (bword, gword)


# -- the Serre-exactness report ----------------------------------------


def test_serre_report_carries_lower_cohomology(ctx_a2, monkeypatch):
    """Lower cohomology is reported by (cohomological degree, degree) and
    fails the check."""
    import klrcalc.adjoint as adjoint

    def fake_dims(cplx, window):
        return adjoint.GradedDimTable(window, {(-1, 2): 1})

    monkeypatch.setattr(adjoint, "cohomology_dims", fake_dims)
    rep = adjoint.serre_exactness_check(1, 1, "i", "j", DegreeWindow(0, 4),
                                        ctx_a2)
    assert rep["lower_cohomology"] == {"-1@2": 1}
    assert rep["ok"] is False


def test_serre_report_fails_without_h0_where_h0_is_expected(ctx_a2):
    """A2 (1, 1) is not expected exact; on a window below its cohomology
    H^0 is empty, so the observed vanishing disagrees and the check fails."""
    rep = serre_exactness_check(1, 1, "i", "j", DegreeWindow(-30, -20),
                                ctx_a2)
    assert rep["expected_exact"] is False
    assert rep["h0_dims"] == {} and rep["lower_cohomology"] == {}
    assert rep["observed_exact"] is True
    assert rep["ok"] is False


# -- exact rank against the dense-scan Fraction oracle --------------------


def oracle_echelon_insert(rows, vec):
    """Reduce the sparse vector against every echelon row in turn, in
    Fraction arithmetic; if a nonzero remainder survives, normalize it,
    append it, and return True."""
    v = dict(vec)
    for pivot, row in rows:
        c = v.get(pivot)
        if c:
            for k, rc in row.items():
                s = v.get(k, Fraction(0)) - c * rc
                if s:
                    v[k] = s
                else:
                    v.pop(k, None)
    if not v:
        return False
    pivot = min(v)
    inv = 1 / v[pivot]
    rows.append((pivot, {k: c * inv for k, c in v.items()}))
    return True


def oracle_rank(columns):
    rows = []
    return sum(1 for col in columns if oracle_echelon_insert(rows, col))


def random_columns(rng):
    """A sparse matrix with Fraction entries of both signs, numerators up to
    7 and denominators up to 4 (so pivot entries are rarely +-1), and with
    empty columns, repeated columns and rational combinations of earlier
    columns."""
    nrows = rng.randint(1, 9)
    keys = [(rng.randint(0, 2), rng.choice("abc"), r) for r in range(nrows)]
    cols = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.1:
            cols.append({})
        elif kind < 0.2 and cols:
            cols.append(dict(rng.choice(cols)))
        elif kind < 0.45 and len(cols) >= 2:
            a, b = rng.sample(cols, 2)
            x = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))
            y = Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 4))
            col = {}
            for k in set(a) | set(b):
                c = x * a.get(k, 0) + y * b.get(k, 0)
                if c:
                    col[k] = c
            cols.append(col)
        else:
            col = {}
            for k in rng.sample(keys, rng.randint(1, min(4, nrows))):
                col[k] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7),
                                  rng.randint(1, 4))
            cols.append(col)
    return cols


def int_columns(columns):
    """Each rational column scaled by the lcm of its denominators, as a
    fresh dict of nonzero ints; the rank is unchanged."""
    out = []
    for col in columns:
        m = lcm(*(Fraction(c).denominator for c in col.values()))
        out.append({k: int(c * m) for k, c in col.items() if c})
    return out


def with_unit_columns(rng, cols):
    """cols with one-entry columns mixed in at seeded places: several on
    one key with different coefficients, some on keys the other columns
    hold, and a column over unit keys only, left empty once they are
    dropped."""
    cols = list(cols)
    keys = sorted({p for col in cols for p in col}) or [(0, "a", 0)]
    unit_keys = rng.sample(keys, rng.randint(1, min(3, len(keys))))
    for p in unit_keys:
        for _ in range(rng.randint(1, 3)):
            cols.insert(rng.randint(0, len(cols)),
                        {p: Fraction(rng.choice([-3, -1, 1, 2, 5]),
                                     rng.randint(1, 3))})
    if len(unit_keys) >= 2:
        cols.insert(rng.randint(0, len(cols)),
                    {p: Fraction(rng.choice([-2, 1, 3])) for p in unit_keys})
    return cols


def peel_units(columns):
    """(units, rest): the keys of the one-entry columns, and the other
    columns with those keys dropped, the form in which block_rank hands a
    block to _matrix_rank."""
    units = {p for col in columns if len(col) == 1 for p in col}
    return units, [{p: c for p, c in col.items() if p not in units}
                   for col in columns if len(col) != 1]


def test_matrix_rank_exact(ctx_a2, ctx_b2):
    """_matrix_rank equals the Fraction oracle on seeded random matrices,
    in their own column order, a seeded shuffle of it and its reverse,
    with and without unit columns mixed in (repeated on one key with
    different coefficients, on keys dense columns also hold, and clearing
    a column entirely), and with the unit columns handed over already
    peeled as block_rank does; and block_rank equals the oracle's rank of
    the columns built by klr_multiply on every block of the plain and
    divided complexes with n + m <= 4 on A2 and B2 in degrees 0..4."""
    assert _matrix_rank([{(0, "a"): 1, (1, "b"): 2},
                         {(0, "a"): 2, (1, "b"): 4},
                         {(1, "b"): 1}]) == 2
    assert _matrix_rank([]) == 0
    assert _matrix_rank(iter([{0: 2, 1: 3}, {0: 1, 1: 2}])) == 2
    assert _matrix_rank([{0: 4, 1: 2}, {0: -2, 1: -1}, {}]) == 1
    assert _matrix_rank([{0: 3}, {0: -1}, {0: 2, 1: 5}, {1: 1, 2: 1}]) == 3
    assert len({0, 1}) + _matrix_rank([{2: 1}, {0: 1, 2: 2}]) == 4
    rng = random.Random(20201)
    for trial in range(800):
        cols = random_columns(rng)
        if trial % 2:
            cols = with_unit_columns(rng, cols)
        want = oracle_rank(cols)
        assert _matrix_rank(int_columns(cols)) == want, cols
        shuffled = int_columns(cols)
        rng.shuffle(shuffled)
        assert _matrix_rank(shuffled) == want, cols
        assert _matrix_rank(int_columns(cols[::-1])) == want, cols
        units, rest = peel_units(int_columns(cols))
        assert len(units) + _matrix_rank(rest) == want, cols
    for ctx in (ctx_a2, ctx_b2):
        for n, m in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
            for cplx in (build_ad_complex(n, ("j",) * m, "i", ctx),
                         build_divided_complex(n, ("j",) * m, "i", ctx)):
                for d in range(0, 5):
                    for lam in sorted(cplx.left_color_words(d)):
                        for k in range(1, cplx.length()):
                            want = oracle_rank(klr_columns(cplx, k, d, lam))
                            assert cplx.block_rank(k, d, lam) == want, \
                                (n, m, k, d, lam)


def test_matrix_rank_reduces_sparse_columns_first(monkeypatch):
    """On a fill-bound matrix with no unit column, one dense column over
    keys 0..50 listed before the 50 two-entry columns {k: 1, k + 1: 1},
    the rank is 51 and the rows found at the keys of the incoming columns
    hold at most 100 entries in all: the two-entry columns become rows
    first and the dense column meets each once.  Taking the columns as
    they come stores the dense column as a row, and each two-entry column
    after it meets a row of about 50 entries and leaves one as long."""
    real = adjoint._echelon_insert
    read = []

    def counted(rows, v):
        read.append(sum(len(rows[k]) for k in v if k in rows))
        return real(rows, v)

    monkeypatch.setattr(adjoint, "_echelon_insert", counted)
    keys = range(51)
    cols = [{k: 1 for k in keys}] + [{k: 1, k + 1: 1} for k in keys[:-1]]
    assert _matrix_rank(cols) == 51
    assert len(read) == 51
    assert sum(read) <= 100, sum(read)


def klr_columns(cplx, k, d, lam):
    """Columns of d_k on the (d, lam) block with Fraction entries, built
    without the product cache: x^exps tau_word 1_nu times each entry z of
    d_k out of its summand, by klr_multiply."""
    ctx = cplx.ctx
    cols = []
    for si, src in enumerate(cplx.terms[k]):
        entries = [(ti, z) for (a, ti), z in cplx.diffs[k - 1].items()
                   if a == si]
        for word, exps in basis_vectors(src.blocks(d).get(lam, ())):
            v = klr_multiply(KLRElement.monomial(ctx, lam, (), exps),
                             _tau_el(ctx, word, src.nu))
            cols.append({(ti, key): Fraction(c) for ti, z in entries
                         for key, c in klr_multiply(v, z).terms.items()})
    return cols


@pytest.mark.parametrize("dot", [A2_DOT, B2_DOT, G2_DOT],
                         ids=["a2", "b2", "g2"])
def test_block_ranks_under_rational_units(dot):
    """With t_(i,j) = 1/2 and t_(j,i) = -3 the products carry Fraction
    coefficients; every block rank of the plain and the divided complexes
    with n + m <= 4, degrees 0..4, equals the Fraction oracle's rank of the
    columns built by klr_multiply, and every cached product is the
    klr_multiply product scaled by one lcm per word, across all targets.
    The plain complexes have several targets per source summand."""
    ctx = KLRContext(make_cartan(dot), HALF_UNITS)
    scales = set()
    for n, m in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
        for build in (build_ad_complex, build_divided_complex):
            cplx = build(n, ("j",) * m, "i", ctx)
            for d in range(0, 5):
                for lam in sorted(cplx.left_color_words(d)):
                    for k in range(1, cplx.length()):
                        want = oracle_rank(klr_columns(cplx, k, d, lam))
                        assert cplx.block_rank(k, d, lam) == want, \
                            (build.__name__, n, m, k, d, lam)
            for k, si, word in list(cplx._word_prods):
                scale, want = scaled_word_products(cplx, k, si, word)
                scales.add(scale)
                assert flat_word_prod(cplx, k, si, word) == want, \
                    (build.__name__, n, m, k, si, word)
    assert max(scales) > 1


def test_block_rank_rejects_the_ends(ctx_a2):
    """Only d_1 .. d_{length-1} exist; asking for another raises and
    caches nothing."""
    cplx = build_divided_complex(2, ("j",), "i", ctx_a2)
    lams = sorted(cplx.left_color_words(1))
    assert lams
    for k in (-1, 0, cplx.length()):
        for lam in lams:
            with pytest.raises(ValueError, match="no differential"):
                cplx.block_rank(k, 1, lam)
    assert not cplx._ranks


def test_echelon_insert_visits_each_pivot_once_in_order():
    """Each insertion reads every row it reduces by once, in increasing
    pivot order."""

    class LoggedRows(dict):
        def __getitem__(self, p):
            visits.append(p)
            return dict.__getitem__(self, p)

    rng = random.Random(7)
    for _ in range(200):
        rows = LoggedRows()
        for col in int_columns(random_columns(rng)):
            visits = []
            _echelon_insert(rows, col)
            assert visits == sorted(set(visits)), visits
