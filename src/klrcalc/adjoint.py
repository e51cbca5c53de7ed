"""Adjoint-action machinery: cyclic projective modules, the two families of
complexes categorifying powers and divided powers of the adjoint operator,
exact graded cohomology, and the graded-dimension identities that come with
them (induction products, derivation filtrations, Mackey-type counts).

Grading convention used throughout: a module shifted by q^s has
(q^s M)_d = M_{d+s}.  This is centralized in `underlying_degree`.
"""

from fractions import Fraction
from itertools import combinations

from .qring import (LaurentPoly, RatFunc, quantum_integer,
                    series_window, sigma, zeta)
from .rootdata import RootVector, height, pairing, sequences
from .klr import (KLRElement, diamond, graded_basis, idempotent_e_klr,
                  klr_multiply)


def underlying_degree(shift, d):
    """Degree in the unshifted module of the degree-d part of q^shift M."""
    return d + shift


def _asc(a, b):
    """The ascending run word (a, a+1, ..., b); empty when b < a."""
    return tuple(range(a, b + 1))


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals
# ---------------------------------------------------------------------------

def _echelon_insert(rows, vec):
    """Reduce the sparse vector against the echelon rows; if a nonzero
    remainder survives, normalize it, append it, and return True."""
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


def _matrix_rank(columns):
    """Rank of a list of sparse columns (dicts index -> Fraction)."""
    rows = []
    rank = 0
    for col in columns:
        if _echelon_insert(rows, col):
            rank += 1
    return rank


# ---------------------------------------------------------------------------
# cyclic projective modules and complexes
# ---------------------------------------------------------------------------

class CyclicProjective:
    """A graded module H·f for an idempotent f, carrying a shift q^shift.

    The degree-d component has a basis extracted from the PBW monomials of
    degree d + shift with right color word that of f, projected by right
    multiplication by f and column-reduced inside each left-color block.
    """

    def __init__(self, ctx, f, shift=0):
        if not isinstance(f, KLRElement):
            raise TypeError("f must be a KLRElement")
        ff = klr_multiply(f, f)
        if ff != f:
            raise ValueError("f is not idempotent")
        nus = {key[0] for key in f.terms}
        if len(nus) != 1:
            raise ValueError("idempotent must have a single right color word")
        self.ctx = ctx
        self.f = f
        self.shift = int(shift)
        self.gamma = f.weight()
        self.nu = nus.pop()
        self.n = len(self.nu)
        self.is_plain = (f == KLRElement.idem(ctx, self.nu))
        self._blocks = {}
        self._meta = {}

    def blocks(self, d):
        """Basis of the degree-d component, as an ordered dict
        lam -> list of sparse vectors over PBW keys."""
        if d in self._blocks:
            return self._blocks[d]
        e = underlying_degree(self.shift, d)
        basis = graded_basis(self.ctx, None, self.nu, e)
        blocks = {}
        meta = {}
        if self.is_plain:
            for key in basis:
                lam = self._left(key)
                blocks.setdefault(lam, []).append({key: Fraction(1)})
                meta.setdefault(lam, []).append((key[1], key[2]))
        else:
            # x^a tau_w 1_nu . f = x^a . (tau_w 1_nu . f): the expensive
            # product only depends on the word, so compute it once per word
            # and graft the exponents on afterwards.
            word_images = {}
            echelons = {}
            zero = (0,) * self.n
            for key in basis:
                nu0, word, exps = key
                u = word_images.get(word)
                if u is None:
                    u = klr_multiply(
                        KLRElement.monomial(self.ctx, nu0, word, zero),
                        self.f).terms
                    word_images[word] = u
                if not u:
                    continue
                v = {(mu, w2, tuple(a + b for a, b in zip(e2, exps))): c
                     for (mu, w2, e2), c in u.items()}
                lam = self._left(key)
                rows = echelons.setdefault(lam, [])
                if _echelon_insert(rows, v):
                    blocks.setdefault(lam, []).append(v)
                    meta.setdefault(lam, []).append((word, exps))
        out = {lam: blocks[lam] for lam in sorted(blocks)}
        self._blocks[d] = out
        self._meta[d] = {lam: meta[lam] for lam in out}
        return out

    def basis_meta(self, d):
        """(word, exps) provenance of each basis vector of blocks(d):
        the vector equals x^exps . (tau_word 1_nu . f)."""
        self.blocks(d)
        return self._meta[d]

    def _left(self, key):
        nu, word, _ = key
        return self.ctx.word_perm(word, self.n).permute_tuple(nu)

    def dim(self, d, lam=None):
        blocks = self.blocks(d)
        if lam is not None:
            return len(blocks.get(lam, ()))
        return sum(len(v) for v in blocks.values())


class ProjComplex:
    """A bounded complex of finite sums of cyclic projectives.

    terms[k] is the list of summands in cohomological degree -k; diffs[k]
    (for k >= 1) maps terms[k] -> terms[k-1] and is a dict
    (src_index, tgt_index) -> element z acting by right multiplication.
    """

    def __init__(self, ctx, terms, diffs):
        self.ctx = ctx
        self.terms = [list(t) for t in terms]
        self.diffs = [dict(d) for d in diffs]
        self._ranks = {}
        self._word_prods = {}
        if len(self.diffs) != max(len(self.terms) - 1, 0):
            raise ValueError("need one differential per consecutive pair")
        self._validate()

    def _validate(self):
        for k, dk in enumerate(self.diffs, start=1):
            for (si, ti), z in dk.items():
                src = self.terms[k][si]
                tgt = self.terms[k - 1][ti]
                if not z.terms:
                    continue
                # z must live in f_src H f_tgt and be degree-homogeneous
                left = klr_multiply(src.f, z)
                right = klr_multiply(z, tgt.f)
                if left != z or right != z:
                    raise ValueError("differential entry not idempotent-framed")
                if z.degree() != tgt.shift - src.shift:
                    raise ValueError("differential entry has the wrong degree")
        # d^2 = 0
        for k in range(2, len(self.terms)):
            upper = self.diffs[k - 1]
            lower = self.diffs[k - 2]
            for si in range(len(self.terms[k])):
                for ti in range(len(self.terms[k - 2])):
                    acc = None
                    for (a, m), z1 in upper.items():
                        if a != si:
                            continue
                        z2 = lower.get((m, ti))
                        if z2 is None:
                            continue
                        prod = klr_multiply(z1, z2)
                        acc = prod if acc is None else acc + prod
                    if acc is not None and acc.terms:
                        raise ValueError("differential does not square to zero")

    def length(self):
        return len(self.terms)

    def term_dim(self, k, d, lam=None):
        return sum(p.dim(d, lam) for p in self.terms[k])

    def left_color_words(self, d):
        """All left color words appearing in any term at degree d."""
        out = set()
        for col in self.terms:
            for p in col:
                out.update(p.blocks(d))
        return out

    def _targets(self, k, si):
        """Target summands of the nonzero entries of d_k out of summand si."""
        dk = self.diffs[k - 1]
        return [ti for ti in range(len(self.terms[k - 1])) if (si, ti) in dk]

    def _word_prod(self, k, si, ti, word):
        """tau_word 1_nu . z for the differential entry z out of summand si;
        every basis vector of the source is x^exps times such a product, so
        this straightening is cached per word across all degrees."""
        key = (k, si, ti, word)
        u = self._word_prods.get(key)
        if u is None:
            src = self.terms[k][si]
            z = self.diffs[k - 1][(si, ti)]
            u = klr_multiply(
                KLRElement.monomial(self.ctx, src.nu, word, (0,) * src.n),
                z).terms
            self._word_prods[key] = u
        return u

    def _raw_columns(self, k, d, lam):
        """Columns of d_k on the (d, lam) block, one per source basis
        vector, as sparse vectors over (target summand, PBW key) pairs.
        The target basis vectors are independent, so the rank of these
        columns is the rank of the block."""
        columns = []
        for si, src in enumerate(self.terms[k]):
            metas = src.basis_meta(d).get(lam, [])
            targets = self._targets(k, si)
            for word, exps in metas:
                col = {}
                for ti in targets:
                    for (mu, w2, e2), c in self._word_prod(
                            k, si, ti, word).items():
                        col[(ti, (mu, w2, tuple(
                            a + b for a, b in zip(e2, exps))))] = c
                columns.append(col)
        return columns

    def block_rank(self, k, d, lam):
        key = (k, d, lam)
        r = self._ranks.get(key)
        if r is None:
            if not any(p.dim(d, lam) for p in self.terms[k]):
                r = 0
            else:
                r = _matrix_rank(self._raw_columns(k, d, lam))
            self._ranks[key] = r
        return r


class GradedDimTable:
    """Cohomology dimensions per (cohomological degree, internal degree).

    Graded components are enumerated exactly degree by degree, so no entry
    depends on truncation.  refined maps (cohomological degree, left color
    word, internal degree) to the dimension of that block.
    """

    def __init__(self, window, dims, refined=None):
        self.window = window
        self.dims = dims
        self.refined = refined or {}
        for v in self.dims.values():
            if v < 0:
                raise ValueError("negative dimension")

    def dim(self, cohdeg, d):
        return self.dims.get((cohdeg, d), 0)


def cohomology_dims(cplx, window, idem_filter=None):
    """Graded cohomology dimensions of a complex over a degree window.

    idem_filter, when given, is a written-order color prefix: only basis
    vectors whose topmost left colors match it are kept (the restriction
    functor cutting off the named top strands).
    """
    filt = tuple(idem_filter) if idem_filter is not None else None

    def keep(lam):
        if filt is None:
            return True
        if len(lam) < len(filt):
            return False
        return tuple(reversed(lam))[:len(filt)] == filt

    nterms = cplx.length()
    dims = {}
    refined = {}
    for d in window:
        lams = sorted(lam for lam in cplx.left_color_words(d) if keep(lam))
        for lam in lams:
            ranks = [0] * (nterms + 1)
            for k in range(1, nterms):
                ranks[k] = cplx.block_rank(k, d, lam)
            for k in range(nterms):
                h = cplx.term_dim(k, d, lam) - ranks[k] - ranks[k + 1]
                if h:
                    refined[(-k, lam, d)] = refined.get((-k, lam, d), 0) + h
                    dims[(-k, d)] = dims.get((-k, d), 0) + h
    return GradedDimTable(window, dims, refined)


# ---------------------------------------------------------------------------
# the tau-embedding element and the two complexes
# ---------------------------------------------------------------------------

def tau_embed(beta, i, ctx):
    """The element tau_[1..r] 1_{i,beta} (r = height of beta) whose right
    multiplication realizes the embedding q_i^w M E_i -> E_i M."""
    r = height(beta)
    word = _asc(1, r)
    el = KLRElement(ctx, r + 1)
    for nu in sequences(beta):
        key = (tuple(nu) + (i,), word, (0,) * (r + 1))
        el.terms[key] = Fraction(1)
    if r == 0:
        return KLRElement.idem(ctx, (i,))
    return el


def is_quotient_zero(beta, i, ctx):
    """Whether the i-adapted quotient algebra at weight beta vanishes:
    true exactly when the i-reflection of beta leaves the positive cone."""
    from .rootdata import reflect
    _, in_qplus = reflect(ctx.cartan, i, beta)
    return not in_qplus


def _word_weight_w(ctx, i, nu_pos):
    return sum(ctx.cartan.cartan(i, c) for c in nu_pos)


def _apply_tau_word(ctx, word, el):
    """Left-multiply an element by tau_{word} (product order, rightmost
    letter applied first)."""
    from .klr import _tau_times_element
    terms = el.terms
    for k in reversed(word):
        terms = _tau_times_element(ctx, k, terms, el.n)
        if not terms:
            break
    out = KLRElement(ctx, el.n)
    out.terms = dict(terms)
    return out


def _ad_complex_words(n, r):
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
            for S in combinations(range(1, m), k):
                new[(S + (m,), S)] = (1, _asc(1, m - 1 + r))
        entries = new
    subsets = [sorted(combinations(range(1, n + 1), k)) for k in range(n + 1)]
    return subsets, entries


def build_ad_complex(n, nu, i, ctx):
    """The 2^n-term complex computing the n-th adjoint power applied to the
    cyclic module of the written color word nu (the binomial-shaped complex
    indexed by subsets of {1..n})."""
    nu = tuple(nu)
    pos_nu = tuple(reversed(nu))
    r = len(nu)
    w = _word_weight_w(ctx, i, pos_nu)
    di = ctx.cartan.d(i)
    subsets, entries = _ad_complex_words(n, r)
    terms = []
    for k in range(n + 1):
        col = []
        for S in subsets[k]:
            f = KLRElement.idem(ctx, (i,) * k + pos_nu + (i,) * (n - k))
            shift = di * (k * w + 2 * (sum(S) - k))
            col.append(CyclicProjective(ctx, f, shift))
        terms.append(col)
    diffs = []
    for k in range(1, n + 1):
        dk = {}
        for si, S in enumerate(subsets[k]):
            for ti, Sp in enumerate(subsets[k - 1]):
                got = entries.get((S, Sp))
                if got is None:
                    continue
                sign, word = got
                tgt = terms[k - 1][ti]
                z = _apply_tau_word(ctx, word, tgt.f)
                if sign < 0:
                    z = -z
                dk[(si, ti)] = z
        diffs.append(dk)
    return ProjComplex(ctx, terms, diffs)


def build_divided_complex(n, nu, i, ctx):
    """The (n+1)-term complex computing the n-th divided adjoint power
    applied to the cyclic module of the written color word nu; each term is
    cut out by nil Hecke idempotents on the i-strand blocks."""
    nu = tuple(nu)
    pos_nu = tuple(reversed(nu))
    r = len(nu)
    w = _word_weight_w(ctx, i, pos_nu)
    di = ctx.cartan.d(i)
    mid = KLRElement.idem(ctx, pos_nu) if r else None

    def fk(k):
        parts = []
        if n - k:
            parts.append(idempotent_e_klr(ctx, i, n - k))
        if mid is not None:
            parts.append(mid)
        if k:
            parts.append(idempotent_e_klr(ctx, i, k))
        if not parts:
            raise ValueError("empty complex term")
        out = parts[0]
        for p in parts[1:]:
            out = diamond(out, p)
        return out

    terms = []
    for k in range(n + 1):
        shift = di * (k * (n + w - 1)
                      - (n - k) * (n - k - 1) // 2
                      - k * (k - 1) // 2)
        terms.append([CyclicProjective(ctx, fk(k), shift)])
    diffs = []
    for k in range(1, n + 1):
        src = terms[k][0]
        tgt = terms[k - 1][0]
        z = _apply_tau_word(ctx, _asc(k, n + r - 1), tgt.f)
        z = klr_multiply(src.f, z)
        if (k - 1) % 2:
            z = -z
        diffs.append({(0, 0): z})
    return ProjComplex(ctx, terms, diffs)


def grk_ad_divided_Ej(n, i, j, ctx):
    """Closed formula for the graded rank of the n-th divided adjoint power
    of the degree-zero cyclic generator of color j."""
    if i == j:
        raise ValueError("colors must differ")
    di = ctx.cartan.d(i)
    dj = ctx.cartan.d(j)
    cij = ctx.cartan.cartan(i, j)
    num = LaurentPoly.q(di * n * (n - 1) // 2)
    for k in range(n):
        num = num * (LaurentPoly.one()
                     - LaurentPoly.q(2 * di * (-cij - k)))
    den = LaurentPoly.one() - LaurentPoly.q(2 * dj)
    one_minus_qi2 = LaurentPoly.one() - LaurentPoly.q(2 * di)
    for _ in range(n):
        den = den * one_minus_qi2
    return RatFunc(num, den)


# ---------------------------------------------------------------------------
# refined graded-dimension tables
# ---------------------------------------------------------------------------

class DimTable:
    """Graded dimensions of a module, refined by full left color word.

    table maps a position-order color word to {degree: dim}; entries are
    complete for every degree <= hi (absent means zero there).
    """

    __slots__ = ("table", "hi")

    def __init__(self, table, hi):
        self.table = {lam: {d: v for d, v in row.items() if v}
                      for lam, row in table.items()}
        self.table = {lam: row for lam, row in self.table.items() if row}
        self.hi = hi

    def total(self):
        out = {}
        for row in self.table.values():
            for d, v in row.items():
                out[d] = out.get(d, 0) + v
        return out

    def dim(self, d, lam=None):
        if lam is not None:
            return self.table.get(lam, {}).get(d, 0)
        return sum(row.get(d, 0) for row in self.table.values())

    def min_degree(self):
        degs = [d for row in self.table.values() for d in row]
        return min(degs) if degs else None

    def is_zero(self):
        return not self.table

    def shifted(self, s):
        """The table of q^s times this module."""
        out = {lam: {d - s: v for d, v in row.items()}
               for lam, row in self.table.items()}
        return DimTable(out, self.hi - s)

    def scaled_by_quantum_integer(self, m, d_i):
        """The table of [m]_i copies (a sum of shifts of this module)."""
        out = {}
        hi = self.hi
        for e, c in quantum_integer(m, d_i).coeffs.items():
            sh = self.shifted(e)
            hi = min(hi, sh.hi)
            for lam, row in sh.table.items():
                dst = out.setdefault(lam, {})
                for d, v in row.items():
                    dst[d] = dst.get(d, 0) + int(c) * v
        return DimTable(out, hi)

    def add(self, other):
        out = {lam: dict(row) for lam, row in self.table.items()}
        for lam, row in other.table.items():
            dst = out.setdefault(lam, {})
            for d, v in row.items():
                dst[d] = dst.get(d, 0) + v
        return DimTable(out, min(self.hi, other.hi))

    def sub(self, other):
        out = {lam: dict(row) for lam, row in self.table.items()}
        for lam, row in other.table.items():
            dst = out.setdefault(lam, {})
            for d, v in row.items():
                dst[d] = dst.get(d, 0) - v
        hi = min(self.hi, other.hi)
        for lam, row in out.items():
            for d, v in row.items():
                if v < 0 and d <= hi:
                    raise ValueError(
                        f"negative dimension {v} at ({lam}, {d})")
        return DimTable(out, hi)

    def agrees_with(self, other, window):
        hi = min(self.hi, other.hi)
        lams = set(self.table) | set(other.table)
        for d in window:
            if d > hi:
                return False
            for lam in lams:
                if self.dim(d, lam) != other.dim(d, lam):
                    return False
        return True


def dims_E_word(ctx, nu, hi):
    """Refined graded dimensions of the cyclic module of the written color
    word nu, complete up to degree hi (PBW monomial counts)."""
    pos_nu = tuple(reversed(tuple(nu)))
    n = len(pos_nu)
    if n == 0:
        return DimTable({(): {0: 1}}, hi)
    from .klr import tau_word_degree
    from .polycalc import all_perms
    from .klr import _exp_vectors
    dot = ctx.cartan.dot
    table = {}
    for g in all_perms(n):
        lam = g.permute_tuple(pos_nu)
        word = ctx.canon(g)
        base = tau_word_degree(ctx, word, pos_nu)
        weights = tuple(dot(c, c) for c in lam)
        row = table.setdefault(lam, {})
        for d in range(base, hi + 1):
            cnt = sum(1 for _ in _exp_vectors(weights, d - base))
            if cnt:
                row[d] = row.get(d, 0) + cnt
    return DimTable(table, hi)


def product_dims(A, B, ctx):
    """Refined dims of the induced product M N from refined dims of M (top
    strands) and N (bottom strands), via shuffle coset representatives."""
    dot = ctx.cartan.dot
    out = {}
    hi = min(A.hi, B.hi)
    minA, minB = A.min_degree(), B.min_degree()
    if minA is None or minB is None:
        return DimTable({}, 10 ** 9)
    tmin = 0
    for lamA, rowA in A.table.items():
        for lamB, rowB in B.table.items():
            nA, nB = len(lamA), len(lamB)
            for posA in combinations(range(nA + nB), nA):
                posA = set(posA)
                lam = []
                ia = ib = 0
                tdeg = 0
                placedA = []
                for p in range(nA + nB):
                    if p in posA:
                        lam.append(lamA[ia])
                        placedA.append((p, lamA[ia]))
                        ia += 1
                    else:
                        # this N strand crosses every M strand already
                        # placed below it
                        for _, ca in placedA:
                            tdeg -= dot(ca, lamB[ib])
                        lam.append(lamB[ib])
                        ib += 1
                tmin = min(tmin, tdeg)
                lam = tuple(lam)
                dst = out.setdefault(lam, {})
                for dA, vA in rowA.items():
                    for dB, vB in rowB.items():
                        d = dA + dB + tdeg
                        dst[d] = dst.get(d, 0) + vA * vB
    hi_out = min(A.hi + minB, B.hi + minA) + tmin
    table = {lam: {d: v for d, v in row.items() if d <= hi_out}
             for lam, row in out.items()}
    return DimTable(table, hi_out)


def dims_E_i(ctx, i, hi):
    """Refined dims of the one-strand module of color i."""
    return dims_E_word(ctx, (i,), hi)


def induced_graded_dim(N, i, ctx):
    """Refined dims of the left and right inductions by one i-strand:
    (dims of E_i N, dims of N E_i)."""
    Ei = dims_E_i(ctx, i, N.hi)
    return product_dims(Ei, N, ctx), product_dims(N, Ei, ctx)


def adE_dims(D, i, w, ctx):
    """Refined dims of the adjoint induction applied to a module with the
    given refined dims and weight pairing w (the cokernel count)."""
    EiD, DEi = induced_graded_dim(D, i, ctx)
    di = ctx.cartan.d(i)
    return EiD.sub(DEi.shifted(di * w))


def adF_dims(D, i, w, ctx):
    """Refined dims of the adjoint restriction: shift by q_i^{1-w} of the
    components whose top color is i, with the top strand removed."""
    di = ctx.cartan.d(i)
    s = di * (1 - w)
    out = {}
    for lam, row in D.table.items():
        if lam and lam[-1] == i:
            out[lam[:-1]] = {d - s: v for d, v in row.items()}
    return DimTable(out, D.hi - s)


# ---------------------------------------------------------------------------
# module specs and the identity checks
# ---------------------------------------------------------------------------

def _cohomology_h0_refined(cplx, hi):
    """Refined dims of H^0 of a complex, complete up to degree hi.

    H^0 is the cokernel of the first differential, so only dim - rank of
    that one map is needed per degree; no window sweep over the whole
    complex is performed.
    """
    from .klr import tau_word_degree
    from .polycalc import all_perms
    lo = 0
    for p in cplx.terms[0]:
        m = min(tau_word_degree(p.ctx, p.ctx.canon(g), p.nu)
                for g in all_perms(p.n))
        lo = min(lo, m - p.shift)
    table = {}
    for d in range(lo, hi + 1):
        lams = set()
        for p in cplx.terms[0]:
            lams.update(p.blocks(d))
        for lam in sorted(lams):
            h = cplx.term_dim(0, d, lam)
            if cplx.length() > 1:
                h -= cplx.block_rank(1, d, lam)
            if h:
                table.setdefault(lam, {})[d] = h
    return DimTable(table, hi)


def module_spec_dims(spec, i, ctx, hi):
    """Refined dims for a module spec.

    spec is either a tuple of colors (the written word of a product of
    one-strand generators) or ("ad", n, inner_spec) for the n-th adjoint
    power, computed as H^0 of the corresponding complex (inner_spec must be
    a plain word there).
    """
    if isinstance(spec, tuple) and spec and spec[0] == "ad":
        _, n, inner = spec
        cplx = build_ad_complex(n, tuple(inner), i, ctx)
        return _cohomology_h0_refined(cplx, hi)
    return dims_E_word(ctx, tuple(spec), hi)


def module_spec_weight(spec):
    if isinstance(spec, tuple) and spec and spec[0] == "ad":
        _, n, inner = spec
        word = tuple(inner)
        return RootVector.from_word(word), n, word
    return RootVector.from_word(tuple(spec)), 0, tuple(spec)


def ses_identity_check(m_spec, i, window, ctx):
    """Check dim adE(M) + q_i^w dim(M E_i) = dim(E_i M) per degree and left
    color word, with adE(M) computed independently from cohomology."""
    beta, nlayers, word = module_spec_weight(m_spec)
    w = pairing(ctx.cartan, i, beta) + 2 * nlayers
    di = ctx.cartan.d(i)
    hi = window.d_max + _dims_buffer(ctx, i, beta, nlayers + 1)
    D = module_spec_dims(m_spec, i, ctx, hi)
    ad_cplx = build_ad_complex(nlayers + 1, word, i, ctx)
    adE = _cohomology_h0_refined(ad_cplx, window.d_max)
    EiM, MEi = induced_graded_dim(D, i, ctx)
    lhs = adE.add(MEi.shifted(di * w))
    return lhs.agrees_with(EiM, window)


def _dims_buffer(ctx, i, beta, extra_i):
    """Degree headroom so that shifted comparisons stay inside complete
    tables: the largest possible total crossing drop plus shifts."""
    dot = ctx.cartan.dot
    colors = []
    for lab, c in beta.coeffs.items():
        colors.extend([lab] * c)
    colors.extend([i] * extra_i)
    drop = 0
    for a in range(len(colors)):
        for b in range(a + 1, len(colors)):
            # only equal-color crossings lower the degree
            drop += max(0, dot(colors[a], colors[b]))
    return drop + ctx.cartan.d(i) * (
        abs(pairing(ctx.cartan, i, beta)) * max(extra_i, 1)
        + 2 * extra_i + 2)


def nderivation_check(nu_m, nu_n, n, i, window, ctx):
    """Check the binary-weight filtration count: the refined dims of the
    n-th adjoint power of the product M N equal the sum over k < 2^n of the
    q_i-shifted products of adjoint powers of the factors."""
    nu_m, nu_n = tuple(nu_m), tuple(nu_n)
    beta_m = RootVector.from_word(nu_m)
    w = pairing(ctx.cartan, i, beta_m)
    di = ctx.cartan.d(i)
    beta_all = RootVector.from_word(nu_m + nu_n)
    hi = window.d_max + _dims_buffer(ctx, i, beta_all, n + 1)
    # the left side is compared directly on the window, so it only needs
    # to be complete up to d_max; the headroom is for the shifted products
    lhs = _cohomology_h0_refined(
        build_ad_complex(n, nu_m + nu_n, i, ctx), window.d_max)
    ad_m = {m: _cohomology_h0_refined(build_ad_complex(m, nu_m, i, ctx), hi)
            for m in range(n + 1)}
    ad_n = {m: _cohomology_h0_refined(build_ad_complex(m, nu_n, i, ctx), hi)
            for m in range(n + 1)}
    rhs = None
    for k in range(2 ** n):
        zk = zeta(k)
        s = di * ((n - zk) * w + 2 * sigma(k))
        piece = product_dims(ad_m[zk], ad_n[n - zk], ctx).shifted(s)
        rhs = piece if rhs is None else rhs.add(piece)
    return lhs.agrees_with(rhs, window)


def mackey_shadow_check(m_spec, i, window, ctx):
    """Check the commutator count: for w >= 0,
    dim adE adF M = dim adF adE M + [w]_i dim M, mirrored for w <= 0."""
    beta, nlayers, word = module_spec_weight(m_spec)
    w = pairing(ctx.cartan, i, beta) + 2 * nlayers
    di = ctx.cartan.d(i)
    hi = window.d_max + 2 * _dims_buffer(ctx, i, beta, nlayers + 2)
    D = module_spec_dims(m_spec, i, ctx, hi)
    adE_M = _cohomology_h0_refined(
        build_ad_complex(nlayers + 1, word, i, ctx), hi)
    adF_M = adF_dims(D, i, w, ctx)
    # adE on the restricted module via the cokernel count
    lhs = adE_dims(adF_M, i, w - 2, ctx)
    rhs = adF_dims(adE_M, i, w + 2, ctx)
    if w >= 0:
        rhs = rhs.add(D.scaled_by_quantum_integer(w, di))
    else:
        lhs = lhs.add(D.scaled_by_quantum_integer(-w, di))
    return lhs.agrees_with(rhs, window)


def serre_exactness_check(n, m, i, j, window, ctx):
    """Build the divided complex on m strands of color j and report whether
    its cohomology vanishes on the window, against the expected criterion
    n > -m * c_{ij}."""
    cij = ctx.cartan.cartan(i, j)
    cplx = build_divided_complex(n, (j,) * m, i, ctx)
    gdt = cohomology_dims(cplx, window)
    h0 = {d: v for (k, d), v in gdt.dims.items() if k == 0 and v}
    hneg = {(k, d): v for (k, d), v in gdt.dims.items() if k != 0 and v}
    expected_exact = n > -m * cij
    report = {
        "n": n, "m": m,
        "expected_exact": expected_exact,
        "h0_dims": {d: h0[d] for d in sorted(h0)},
        "lower_cohomology": {f"{k}@{d}": v
                             for (k, d), v in sorted(hneg.items())},
        "window": [window.d_min, window.d_max],
    }
    observed_exact = not h0 and not hneg
    report["observed_exact"] = observed_exact
    report["ok"] = (observed_exact == expected_exact) and not hneg
    if not expected_exact and not h0:
        report["ok"] = False
    return report
