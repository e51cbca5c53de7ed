"""Complexes of cyclic modules computing the categorified adjoint action:
differentials square to zero, cohomology is concentrated in degree zero,
and the graded ranks match the closed formulas and identity checks."""

import itertools

import pytest

from klrcalc import (
    CyclicProjective,
    DegreeWindow,
    KLRElement,
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
    ses_identity_check,
    tau_embed,
    underlying_degree,
)
from klrcalc.adjoint import _matrix_rank
from klrcalc.klr import graded_basis, idempotent_e_klr, klr_multiply_many


# -- construction sanity (the constructor verifies d^2 = 0 exactly) ------


AD_CASES = [
    (1, ("j",), "i"),
    (2, ("j",), "i"),
    (1, ("j", "j"), "i"),
    (2, ("j", "j"), "i"),
    (1, ("j", "i"), "i"),
    (3, ("j",), "i"),
]


@pytest.mark.parametrize("n,nu,i", AD_CASES)
def test_ad_complex_builds_and_squares_to_zero(n, nu, i, ctx_a2):
    cplx = build_ad_complex(n, nu, i, ctx_a2)
    assert cplx.length() == n + 1


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (3, 1)])
def test_divided_complex_builds(n, m, ctx_a2, ctx_b2):
    for ctx in (ctx_a2, ctx_b2):
        cplx = build_divided_complex(n, ("j",) * m, "i", ctx)
        assert cplx.length() == n + 1


def test_component_matrix_shapes_and_ranks(ctx_a2):
    cplx = build_ad_complex(2, ("j",), "i", ctx_a2)
    for d in range(0, 7):
        for lam in sorted(cplx.left_color_words(d)):
            for k in (1, 2):
                cols = cplx._raw_columns(k, d, lam)
                assert len(cols) == cplx.term_dim(k, d, lam)
                rank = cplx.block_rank(k, d, lam)
                assert rank == _matrix_rank(cols)
                assert rank <= min(cplx.term_dim(k, d, lam),
                                   cplx.term_dim(k - 1, d, lam))


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
            images.setdefault(lam, []).append(v.terms)
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
                        for lam, block in p.blocks(d).items():
                            vecs = []
                            for word, exps in block:
                                v = klr_multiply(
                                    KLRElement.monomial(ctx, lam, (), exps),
                                    _tau_el(ctx, word, p.nu))
                                assert klr_multiply(v, p.f) == v
                                assert v.degree() == d + p.shift
                                vecs.append(v.terms)
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


def test_product_dims_matches_concatenation(ctx_a2):
    hi = 12
    for w1 in [("i",), ("j",), ("i", "j")]:
        for w2 in [("i",), ("j",)]:
            A = dims_E_word(ctx_a2, w1, hi)
            B = dims_E_word(ctx_a2, w2, hi)
            P = product_dims(A, B, ctx_a2)
            assert P.hi >= 8
            assert P.agrees_with(dims_E_word(ctx_a2, w1 + w2, hi),
                                 DegreeWindow(0, 8))


def test_dim_table_algebra(ctx_a2):
    D = dims_E_word(ctx_a2, ("i", "j"), 8)
    assert D.add(D).sub(D).agrees_with(D, DegreeWindow(0, 8))
    S = D.shifted(2)
    assert S.dim(3, next(iter(S.table))) == D.dim(1, next(iter(D.table)))
    assert underlying_degree(2, 3) == 5


# -- the crossing embedding and quotient test ---------------------------


def test_tau_embed_degree(ctx_a2, ctx_b2):
    for ctx in (ctx_a2, ctx_b2):
        for word in [("j",), ("j", "j"), ("i", "j")]:
            beta = RootVector.from_word(word)
            el = tau_embed(beta, "i", ctx)
            dot = ctx.cartan.dot
            expected = -sum(dot("i", c) * beta.get(c) for c in ("i", "j"))
            assert el.degree() == expected


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


# -- raw rank helper -----------------------------------------------------


def test_matrix_rank_exact():
    from fractions import Fraction
    cols = [{(0, "a"): Fraction(1), (1, "b"): Fraction(2)},
            {(0, "a"): Fraction(2), (1, "b"): Fraction(4)},
            {(1, "b"): Fraction(1)}]
    assert _matrix_rank(cols) == 2
    assert _matrix_rank([]) == 0
