"""Adjoint-action machinery: cyclic projective modules, the two families of
complexes categorifying powers and divided powers of the adjoint operator,
exact graded cohomology, and the graded-dimension identities that come with
them (induction products, derivation filtrations, Mackey-type counts).

Grading convention used throughout: a module shifted by q^s has
(q^s M)_d = M_{d+s}.  This is centralized in `underlying_degree`.
"""

from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm

from .qring import (DegreeWindow, LaurentPoly, RatFunc, hilbert_denominator,
                    quantum_integer, series_window, sigma, zeta)
from .rootdata import RootVector, _check_int, _check_labels, pairing, reflect
from .klr import (KLRElement, _tau_times_element, _tau_word_times, diamond,
                  idempotent_e_klr, klr_multiply, tau_word_degree)
from .polycalc import longest_word, perm_of_word


def underlying_degree(shift, d):
    """Degree in the unshifted module of the degree-d part of q^shift M."""
    return d + shift


def _asc(a, b):
    """The ascending run word (a, a+1, ..., b); empty when b < a."""
    return tuple(range(a, b + 1))


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals
# ---------------------------------------------------------------------------

def _echelon_insert(rows, v):
    """One step of pivot-indexed, fraction-free integer elimination.

    rows maps each pivot to its row, a sparse integer vector whose least
    key is the pivot, divided by the gcd of its entries and signed so that
    the pivot entry is positive.  Reducing by the row with pivot p adds
    only keys greater than p, so the pivots of the integer vector v are
    taken from a heap in increasing order, each needed row is visited
    once, and no other row is looked at.  The entry c of the vector at
    pivot p is cleared by v <- (a/g) v - (c/g) row with a the pivot entry
    and g = gcd(a, c).  If a nonzero remainder survives, it is divided by
    its signed gcd in place, v itself is stored as the new row and True is
    returned.  v is reduced in place and must not be used by the caller
    afterwards.
    """
    heap = [k for k in v if k in rows]
    heapify(heap)
    while heap:
        p = heappop(heap)
        c = v.get(p)
        if c is None:
            continue
        row = rows[p]
        a = row[p]
        g = gcd(a, c)
        s, t = a // g, c // g
        if s != 1:
            for k in v:
                v[k] *= s
        for k, rc in row.items():
            x = t * rc
            old = v.get(k)
            if old is None:
                v[k] = -x
                if k in rows:
                    heappush(heap, k)
            elif old == x:
                del v[k]
            else:
                v[k] = old - x
    if not v:
        return False
    p = min(v)
    g = gcd(*v.values())
    if v[p] < 0:
        g = -g
    if g != 1:
        for k in v:
            v[k] //= g
    rows[p] = v
    return True


def _matrix_rank(columns):
    """Rank over the rationals of an iterable of sparse columns (dicts
    index -> nonzero int).  Any totally ordered hashable keys will do; the
    complexes pass the packed int keys of ProjComplex._word_prod, whose
    pivot order follows first-seen target ids, and the rank does not
    depend on that order.  Unit columns are not peeled here: a complex's
    are peeled by ProjComplex._raw_columns before its columns are built.

    The columns are eliminated by `_echelon_insert` with empty columns
    dropped, in increasing order of the number of entries (a stable sort,
    so ties keep their order).  The rank does not depend on the column
    order, but the work does: the cost of a block is fill, the entries a
    reduction adds, and not coefficient growth.  Sparse columns become
    rows first, and a denser column that reduces against them picks up
    little fill; on a block whose dense columns come first, each later
    sparse column is reduced against the grown rows.  The sort holds all
    columns of a block at once.  The columns are consumed: each is reduced
    in place."""
    rows = {}
    return sum(_echelon_insert(rows, col)
               for col in sorted(filter(None, columns), key=len))


# ---------------------------------------------------------------------------
# packed exponent vectors
# ---------------------------------------------------------------------------

# Bits per strand in a packed exponent vector.  Each field holds an
# exponent below 2^(_FIELD - 1), so the sum of two fields never carries.
_FIELD = 32
_FIELD_LIMIT = 1 << (_FIELD - 1)


def _pack(exps):
    """The exponent vector exps as one int, one _FIELD-bit field per
    strand, the first strand in the highest field.  Two packed vectors add
    with no carry between fields, so their sum is the packed fieldwise
    sum.  An exponent outside 0 .. 2^31 - 1 raises ValueError.

    The range check runs on every call.  ProjComplex memoizes packed
    vectors per complex (_packed per source exponent table,
    _packed_targets per target vector) and stores one only after this
    call returns, so a bad exponent raises on a cold and a warm memo
    alike."""
    key = 0
    for e in exps:
        if not 0 <= e < _FIELD_LIMIT:
            raise ValueError(f"exponent {e} does not fit a packed "
                             f"{_FIELD}-bit field (limit 2^{_FIELD - 1})")
        key = key << _FIELD | e
    return key


# ---------------------------------------------------------------------------
# cyclic projective modules and complexes
# ---------------------------------------------------------------------------

class CyclicProjective:
    """A graded module H·f for an idempotent monomial f = x^delta tau_w0 1_nu,
    carrying a shift q^shift.

    w0 is the longest word of the parabolic subgroup S_B generated by its
    letters and nu is constant on the blocks of B (plain idempotents have
    w0 = ()).  Since tau_w0 x^delta tau_w0 = tau_w0, H·f = H·tau_w0 1_nu,
    whose degree-d component has the basis x^a tau_u tau_w0 1_nu of degree
    d + shift, u running over the minimal coset representatives of S_n/S_B.
    That basis is the context's (KLRContext.basis), shared by every
    module with the same nu and w0.
    """

    def __init__(self, ctx, f, shift=0):
        if not isinstance(f, KLRElement):
            raise TypeError("f must be a KLRElement")
        if len(f.terms) != 1:
            raise ValueError("f must be a single PBW monomial")
        if klr_multiply(f, f) != f:
            raise ValueError("f is not idempotent")
        ((nu, w0, _),) = f.terms
        self.ctx = ctx
        self.f = f
        self.shift = _check_int(shift, "the shift")
        self.nu = nu
        self.n = len(nu)
        self.w0 = w0
        # a reduced word is the longest word of the parabolic subgroup its
        # letters generate iff each letter is a descent of its permutation
        g = perm_of_word(w0, self.n)
        if len(w0) != g.length() or any(
                g(p) < g(p + 1) or nu[p - 1] != nu[p] for p in w0):
            raise ValueError("the word of f must be the longest word of a "
                             "parabolic subgroup whose blocks carry one color")
        self._w0_degree = tau_word_degree(ctx, w0, nu)
        # the coset table is built here, when the complex is, and not
        # inside the first rank computation that needs a basis
        ctx.pbw_cosets(nu, w0)

    def blocks(self, d):
        """Basis of the degree-d component, as a dict sorted by left color
        word lam -> list of rows (word, exps, table), one per minimal coset
        representative u with vectors in this degree, with word =
        (reduced word of u) + w0: the row stands for the vectors
        x^a tau_word 1_nu, a in exps, and table keys exps.  This is the
        context's basis of the vectors of degree d + shift
        (KLRContext.basis)."""
        return self.ctx.basis(self.nu, self.w0,
                              underlying_degree(self.shift, d)
                              - self._w0_degree)

    def dim(self, d, lam=None):
        """Dimension of the degree-d component, or of its lam block: the
        summed lengths of the rows' exponent tables."""
        blocks = self.blocks(d)
        rows = (blocks.values() if lam is None
                else [blocks.get(lam, ())])
        return sum(len(exps) for block in rows for _, exps, _ in block)


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
        self._suffix_prods = {}
        self._target_ids = {}
        self._packed = {}
        self._packed_targets = {}
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
        # d^2 = 0: compose each entry of d_k with the entries of d_{k-1}
        # out of its target, summed per (source, target) pair
        for k in range(2, len(self.terms)):
            lower = self.diffs[k - 2]
            sums = {}
            for (si, m), z1 in self.diffs[k - 1].items():
                for ti in range(len(self.terms[k - 2])):
                    z2 = lower.get((m, ti))
                    if z2 is not None:
                        prod = klr_multiply(z1, z2)
                        acc = sums.get((si, ti))
                        sums[(si, ti)] = prod if acc is None else acc + prod
            if any(acc.terms for acc in sums.values()):
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

    def _suffix_prod(self, k, si, word):
        """tau_word . z for every differential entry z of d_k out of summand
        si, as a tuple of (ti, PBW terms) over the targets ti, in
        increasing order, whose product is nonzero.  The letters are
        applied one at a time, rightmost first, and tau_word . z =
        tau_{word[0]} . (tau_{word[1:]} . z), so the product is memoized
        per nonempty suffix and basis words sharing a tail share its
        straightening.  The empty word gives the entries z themselves.
        Coefficients are left as the rewriting produces them."""
        if not word:
            dk = self.diffs[k - 1]
            return tuple((ti, z.terms) for ti in range(len(self.terms[k - 1]))
                         if (z := dk.get((si, ti))) is not None and z.terms)
        key = (k, si, word)
        out = self._suffix_prods.get(key)
        if out is None:
            n = self.terms[k][si].n
            out = []
            for ti, terms in self._suffix_prod(k, si, word[1:]):
                terms = _tau_times_element(self.ctx, word[0], terms, n)
                if terms:
                    out.append((ti, terms))
            out = self._suffix_prods[key] = tuple(out)
        return out

    def _word_prod(self, k, si, word):
        """tau_word 1_nu . z for every differential entry z of d_k out of
        summand si, as one flat tuple of (key, c) pairs, one per term
        c x^e tau_w2 1_mu of the product with the entry into target
        summand ti.  The key packs the term into one int, id << (32 n) |
        _pack(e), where id numbers the triple (ti, mu, w2) in first-seen
        order in the complex's _target_ids and n is the number of strands.
        Every basis vector of the source is x^a times tau_word 1_nu, so
        this product is cached per word across all degrees, and the key
        of the term x^a . x^e tau_w2 1_mu is key + _pack(a).  The product
        itself comes from the suffix memo (_suffix_prod).  Each target
        vector e is packed once per complex: _pack(e) is memoized in
        _packed_targets, beside the source tables' _packed, so a vector
        met again skips _pack and its range check, which ran when the
        vector was first stored.  All
        coefficients of the word are scaled by one positive integer, the
        lcm of their denominators, so they are ints and the columns built
        from the tuple keep their rank.  The word need not be canonical
        (basis words end in the word of f).  Every term of z has left
        color word nu, since _validate checks f_src z = z."""
        key = (k, si, word)
        u = self._word_prods.get(key)
        if u is None:
            terms = [(ti, pbw, c) for ti, prod in self._suffix_prod(k, si, word)
                     for pbw, c in prod.items()]
            m = lcm(*(c.denominator for _, _, c in terms))
            shift = _FIELD * self.terms[k][si].n
            ids = self._target_ids
            packs = self._packed_targets
            u = []
            for ti, (mu, w2, e), c in terms:
                p = packs.get(e)
                if p is None:
                    p = packs[e] = _pack(e)
                b = ids.setdefault((ti, mu, w2), len(ids)) << shift
                u.append((b | p, c.numerator * (m // c.denominator)))
            u = self._word_prods[key] = tuple(u)
        return u

    def _raw_columns(self, k, d, lam):
        """The columns of d_k on the (d, lam) block with its unit columns
        peeled, as (units, columns).  There is one column per source basis
        vector whose word has a nonzero product (the other vectors map to
        zero and give no column), over the packed int keys of _word_prod:
        the column of x^a tau_word 1_nu adds _pack(a) to every key of the
        word's product.  The basis rows are walked as they come, one row
        (word, exps, table) per word, so each word's product is fetched
        once, and the packed shifts of a whole exponent table are taken
        from the complex's _packed memo, keyed by the row's table and
        filled once per complex.  No field carries, since _pack keeps
        every exponent below 2^31.  A word whose product has one term
        gives unit columns only; units is the set of their keys, and no
        dict is built for them.  columns holds a fresh dict of nonzero
        ints for each vector of the other words, with every key of units
        left out.  Reducing by the unit column {p: c} clears entry p and
        changes nothing else, so dropping the keys is exact; the columns
        are built only after the last word is read, since a unit key
        found later would otherwise stay in the columns built before it.
        This is the one place unit columns are peeled; columns may be
        left empty or with one entry.  The target basis vectors are
        independent and each column is a positive multiple of the image
        of its basis vector, so the rank of the block is len(units) plus
        _matrix_rank(columns)."""
        packed = self._packed
        units = set()
        dense = []
        for si, src in enumerate(self.terms[k]):
            for word, exps, table in src.blocks(d).get(lam, ()):
                prod = self._word_prod(k, si, word)
                if not prod:
                    continue
                shifts = packed.get(table)
                if shifts is None:
                    shifts = packed[table] = tuple(map(_pack, exps))
                if len(prod) == 1:
                    ((b, _),) = prod
                    units.update([b + a for a in shifts])
                else:
                    dense.append((prod, shifts))
        return units, [{key: c for b, c in prod
                        if (key := b + a) not in units}
                       for prod, shifts in dense for a in shifts]

    def block_rank(self, k, d, lam):
        """Rank of d_k: terms[k] -> terms[k-1] on the (d, lam) block: the
        number of unit keys _raw_columns collected while it assembled the
        block plus the rank of the other columns, which hold none of
        those keys."""
        key = (k, d, lam)
        r = self._ranks.get(key)
        if r is None:
            if not 0 < k < len(self.terms):
                raise ValueError(f"no differential d_{k} in a complex with "
                                 f"{len(self.terms)} terms")
            units, columns = self._raw_columns(k, d, lam)
            r = self._ranks[key] = len(units) + _matrix_rank(columns)
        return r

    def cohomology_dim(self, k, d, lam):
        """Dimension of the lam block of H^{-k} at degree d: the term
        dimension less the ranks of d_k out of terms[k] and of d_{k+1}
        into it, where they exist."""
        h = self.term_dim(k, d, lam)
        if k:
            h -= self.block_rank(k, d, lam)
        if k + 1 < len(self.terms):
            h -= self.block_rank(k + 1, d, lam)
        return h


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


def cohomology_dims(cplx, window):
    """Graded cohomology dimensions of a complex over a degree window,
    one ProjComplex.cohomology_dim per (d, lam, k) in that order."""
    dims = {}
    refined = {}
    for d in window:
        for lam in sorted(cplx.left_color_words(d)):
            for k in range(cplx.length()):
                h = cplx.cohomology_dim(k, d, lam)
                if h:
                    refined[(-k, lam, d)] = refined.get((-k, lam, d), 0) + h
                    dims[(-k, d)] = dims.get((-k, d), 0) + h
    return GradedDimTable(window, dims, refined)


# ---------------------------------------------------------------------------
# the two complexes
# ---------------------------------------------------------------------------

def is_quotient_zero(beta, i, ctx):
    """Whether the i-adapted quotient algebra at weight beta vanishes:
    true exactly when the i-reflection of beta leaves the positive cone.
    A colour of i or beta that is no label of the Cartan datum raises
    ValueError."""
    _check_labels(ctx.cartan, (i,), beta.coeffs)
    _, in_qplus = reflect(ctx.cartan, i, beta)
    return not in_qplus


def _complex(ctx, terms, entries):
    """The complex on terms whose differential d_k has one entry
    sign f_src tau_word f_tgt from summand si of terms[k] to summand ti of
    terms[k-1] for each (k, si, ti, sign, word) in entries."""
    diffs = [{} for _ in terms[1:]]
    for k, si, ti, sign, word in entries:
        tgt = terms[k - 1][ti]
        z = KLRElement(ctx, tgt.n,
                       _tau_word_times(ctx, word, tgt.f.terms, tgt.n))
        z = klr_multiply(terms[k][si].f, z)
        diffs[k - 1][(si, ti)] = -z if sign < 0 else z
    return ProjComplex(ctx, terms, diffs)


def build_ad_complex(n, nu, i, ctx):
    """The 2^n-term complex computing the n-th adjoint power applied to the
    cyclic module of the written color word nu (the binomial-shaped complex
    indexed by subsets of {1..n}).

    The complex is an iterated cone: the next complex is the cone of the
    crossing morphism from (previous complex with an extra bottom strand,
    shifted) to (previous complex with an extra top strand).  Subsets
    containing the new index m come from the bottom-strand copy, whose
    differential words shift up by one letter and change sign; the
    connecting entries are the runs tau_(1, ..., m-1+r), r = len(nu), moving
    the new top strand to the bottom.  Unwound, d has one entry from S to
    S minus m for each m in S: with t the number of elements of S above m,
    it is (-1)^t tau_(1+t, ..., m-1+r+t).

    n must be a nonnegative int and i and the letters of nu labels of
    the Cartan datum; anything else raises ValueError.
    """
    nu = tuple(nu)
    _check_int(n, "the adjoint power", 0)
    _check_labels(ctx.cartan, (i,), nu)
    pos_nu = tuple(reversed(nu))
    r = len(nu)
    w = pairing(ctx.cartan, i, RootVector.from_word(nu))
    di = ctx.cartan.d(i)
    subsets = [list(combinations(range(1, n + 1), k)) for k in range(n + 1)]
    index = {S: si for col in subsets for si, S in enumerate(col)}
    terms = []
    for k, col in enumerate(subsets):
        word = (i,) * k + pos_nu + (i,) * (n - k)
        terms.append([CyclicProjective(ctx, KLRElement.idem(ctx, word),
                                       di * (k * w + 2 * (sum(S) - k)))
                      for S in col])
    # removing the elements of S from the largest down lists the targets in
    # increasing order
    entries = [(k, si, index[tuple(s for s in S if s != m)],
                -1 if t % 2 else 1, _asc(1 + t, m - 1 + r + t))
               for k in range(1, n + 1) for si, S in enumerate(subsets[k])
               for t, m in enumerate(reversed(S))]
    return _complex(ctx, terms, entries)


def build_divided_complex(n, nu, i, ctx):
    """The (n+1)-term complex computing the n-th divided adjoint power
    applied to the cyclic module of the written color word nu; each term is
    cut out by nil Hecke idempotents on the i-strand blocks.  n, nu and i
    are checked as in build_ad_complex."""
    nu = tuple(nu)
    _check_int(n, "the adjoint power", 0)
    _check_labels(ctx.cartan, (i,), nu)
    pos_nu = tuple(reversed(nu))
    r = len(nu)
    w = pairing(ctx.cartan, i, RootVector.from_word(nu))
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
    return _complex(ctx, terms, [(k, 0, 0, -1 if (k - 1) % 2 else 1,
                                  _asc(k, n + r - 1))
                                 for k in range(1, n + 1)])


def grk_ad_divided_Ej(n, i, j, ctx):
    """Closed formula for the graded rank of the n-th divided adjoint power
    of the degree-zero cyclic generator of color j, over the Hilbert
    denominator of the word j i^n: (1 - q^{2 d_j}) (1 - q^{2 d_i})^n.
    n must be a nonnegative int and i and j different labels of the
    Cartan datum; anything else raises ValueError."""
    _check_int(n, "the adjoint power", 0)
    _check_labels(ctx.cartan, (i, j))
    if i == j:
        raise ValueError("colors must differ")
    di = ctx.cartan.d(i)
    cij = ctx.cartan.cartan(i, j)
    num = LaurentPoly.q(di * n * (n - 1) // 2)
    for k in range(n):
        num = num * (LaurentPoly.one()
                     - LaurentPoly.q(2 * di * (-cij - k)))
    return RatFunc(num, hilbert_denominator(ctx.cartan, (j,) + (i,) * n))


# ---------------------------------------------------------------------------
# refined graded-dimension tables
# ---------------------------------------------------------------------------

class DimTable:
    """Graded dimensions of a module, refined by full left color word and
    evaluated on demand.

    A table is three things: a degree lo below which the module is zero,
    the position-order color words its rows may have, and a function from
    a degree d to {lam: dim of the lam row at d}.  The function is called
    only at the degrees that are read, once per degree (at() memoizes
    it), and a table built from others reads them at exactly the degrees
    it needs, so every value read is exact: there is no truncation.
    """

    __slots__ = ("lo", "words", "_fn", "_memo")

    def __init__(self, lo, words, fn):
        self.lo = lo
        self.words = frozenset(words)
        self._fn = fn
        self._memo = {}

    def at(self, d):
        """{lam: dim} at degree d, zero dimensions left out."""
        row = self._memo.get(d)
        if row is None:
            row = self._memo[d] = {} if d < self.lo else {
                lam: v for lam, v in self._fn(d).items() if v}
        return row

    def dim(self, d, lam):
        return self.at(d).get(lam, 0)

    def shifted(self, s):
        """The table of q^s times this module: (q^s M)_d = M_{d+s}."""
        return DimTable(self.lo - s, self.words, lambda d: self.at(d + s))

    def scaled_by_quantum_integer(self, m, d_i):
        """The table of [m]_i copies, the sum of the shifts q_i^{m-1-2l}
        M for l < m ([0]_i copies are the zero module).  A negative m is
        no multiplicity and raises ValueError."""
        if m < 0:
            raise ValueError(f"negative multiplicity {m}")
        out = DimTable(self.lo, (), lambda d: {})
        for e in quantum_integer(m, d_i).coeffs:
            out = out.add(self.shifted(-e))
        return out

    def _combined(self, other, sign):
        """The function of self + sign * other.  A negative value is not a
        dimension and raises ValueError at whichever degree it is read."""
        def fn(d):
            out = dict(self.at(d))
            for lam, v in other.at(d).items():
                x = out[lam] = out.get(lam, 0) + sign * v
                if x < 0:
                    raise ValueError(
                        f"negative dimension {x} at ({lam}, {d})")
            return out
        return fn

    def add(self, other):
        return DimTable(min(self.lo, other.lo), self.words | other.words,
                        self._combined(other, 1))

    def sub(self, other):
        # a row of other off the words of self would be negative
        return DimTable(min(self.lo, other.lo), self.words,
                        self._combined(other, -1))

    def agrees_with(self, other, window):
        return all(self.at(d) == other.at(d) for d in window)


def dims_E_word(ctx, nu):
    """Refined graded dimensions of the cyclic module of the written color
    word nu: the row of lam is the series of P_lam / D(beta) with
    P_lam = ctx.coset_polynomials(nu)[lam] (nu in position order), expanded
    at each degree that is read.  The table starts at the lowest degree
    of the P_lam.  A letter of nu that is no label of the Cartan datum
    raises ValueError."""
    pos_nu = tuple(reversed(tuple(nu)))
    _check_labels(ctx.cartan, pos_nu)
    den = hilbert_denominator(ctx.cartan, pos_nu)
    polys = ctx.coset_polynomials(pos_nu)
    rows = {lam: RatFunc(LaurentPoly(poly), den)
            for lam, poly in polys.items()}
    return DimTable(min(min(poly) for poly in polys.values()), rows,
                    lambda d: {lam: series_window(f, DegreeWindow(d, d))
                               .coeff(d) for lam, f in rows.items()})


def product_dims(A, B, ctx):
    """Refined dims of the induced product M N from refined dims of M (top
    strands) and N (bottom strands), via shuffle coset representatives.

    The shuffles of a word lamA of A with a word lamB of B are the rows
    (lam, deg) of ctx.pbw_cosets(lamB + lamA, w0), w0 the longest word of
    S_nB x S_nA; deg is the degree of the crossings.  The product at
    degree d adds A(a, lamA) B(d - deg - a, lamB) for a from A.lo to
    d - deg - B.lo, so A and B are read at exactly those degrees."""
    shuffles = []
    for lamA in sorted(A.words):
        for lamB in sorted(B.words):
            nB = len(lamB)
            w0 = longest_word(1, nB) + tuple(
                k + nB for k in longest_word(1, len(lamA)))
            shuffles += [(lamA, lamB, lam, deg) for lam, _, _, deg
                         in ctx.pbw_cosets(lamB + lamA, w0)]

    def fn(d):
        out = {}
        for lamA, lamB, lam, deg in shuffles:
            e = d - deg
            v = sum(A.dim(a, lamA) * B.dim(e - a, lamB)
                    for a in range(A.lo, e - B.lo + 1))
            out[lam] = out.get(lam, 0) + v
        return out
    return DimTable(A.lo + B.lo + min((s[3] for s in shuffles), default=0),
                    (s[2] for s in shuffles), fn)


def induced_graded_dim(N, i, ctx):
    """Refined dims of the left and right inductions by one i-strand:
    (dims of E_i N, dims of N E_i)."""
    Ei = dims_E_word(ctx, (i,))
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
    top_i = DimTable(D.lo, (lam[:-1] for lam in D.words
                            if lam and lam[-1] == i),
                     lambda d: {lam[:-1]: v for lam, v in D.at(d).items()
                                if lam and lam[-1] == i})
    return top_i.shifted(ctx.cartan.d(i) * (1 - w))


# ---------------------------------------------------------------------------
# module specs and the identity checks
# ---------------------------------------------------------------------------

def _cohomology_h0_refined(cplx):
    """Refined dims of H^0 of a complex, as a table evaluated on demand.

    H^0 is the cokernel of the first differential, so at each degree that
    is read only ProjComplex.cohomology_dim(0, ...) is computed, per left
    color word; no window sweep over the whole complex is performed.  The
    table starts at the lowest degree of terms[0], and its words are the
    left color words of the summands there.
    """
    polys = [(p.ctx.coset_polynomials(p.nu), p.shift) for p in cplx.terms[0]]
    lo = min(min(map(min, rows.values())) - shift for rows, shift in polys)

    def fn(d):
        return {lam: cplx.cohomology_dim(0, d, lam)
                for lam in sorted(set().union(*(p.blocks(d)
                                                for p in cplx.terms[0])))}
    return DimTable(lo, set().union(*(rows for rows, _ in polys)), fn)


def module_spec_dims(spec, i, ctx):
    """Refined dims for a module spec (see module_spec_weight): the series
    table of a plain word, or the H^0 table of the adjoint complex for
    ("ad", n, word)."""
    _, n, word = module_spec_weight(spec)
    if spec[:1] == ("ad",):
        return _cohomology_h0_refined(build_ad_complex(n, word, i, ctx))
    return dims_E_word(ctx, word)


def module_spec_weight(spec):
    """(weight, n, word) of a module spec, the one place specs are checked.

    spec is either a plain word, a tuple of colors (the written word of a
    product of one-strand generators; n = 0), or ("ad", n, word) for the
    n-th adjoint power of the plain word's module, n a nonnegative int.
    Anything else raises ValueError naming the spec."""
    n, word = 0, spec
    if isinstance(spec, tuple) and spec[:1] == ("ad",):
        if len(spec) != 3:
            raise ValueError(f"module spec {spec!r} is not ('ad', n, word)")
        _, n, word = spec
    word = tuple(word)
    _check_int(n, f"module spec {spec!r}: the power", 0)
    if word[:1] == ("ad",) or any(isinstance(c, (tuple, list)) for c in word):
        raise ValueError(f"module spec {spec!r}: {word!r} is not a plain "
                         "word")
    return RootVector.from_word(word), n, word


def ses_identity_check(m_spec, i, window, ctx):
    """Check dim adE(M) + q_i^w dim(M E_i) = dim(E_i M) per degree and left
    color word, with adE(M) computed independently from cohomology."""
    beta, nlayers, word = module_spec_weight(m_spec)
    _check_labels(ctx.cartan, (i,), word)
    w = pairing(ctx.cartan, i, beta) + 2 * nlayers
    di = ctx.cartan.d(i)
    D = module_spec_dims(m_spec, i, ctx)
    adE = module_spec_dims(("ad", nlayers + 1, word), i, ctx)
    EiM, MEi = induced_graded_dim(D, i, ctx)
    lhs = adE.add(MEi.shifted(di * w))
    return lhs.agrees_with(EiM, window)


def nderivation_check(nu_m, nu_n, n, i, window, ctx):
    """Check the binary-weight filtration count: the refined dims of the
    n-th adjoint power of the product M N equal the sum over k < 2^n of the
    q_i-shifted products of adjoint powers of the factors."""
    nu_m, nu_n = tuple(nu_m), tuple(nu_n)
    _check_labels(ctx.cartan, (i,), nu_m, nu_n)
    beta_m = RootVector.from_word(nu_m)
    w = pairing(ctx.cartan, i, beta_m)
    di = ctx.cartan.d(i)

    def ad(m, nu):
        return _cohomology_h0_refined(build_ad_complex(m, nu, i, ctx))
    lhs = ad(n, nu_m + nu_n)
    # the product for zeta(k) = z serves every k with that many ones
    prods = {z: product_dims(ad(z, nu_m), ad(n - z, nu_n), ctx)
             for z in range(n + 1)}
    rhs = None
    for k in range(2 ** n):
        zk = zeta(k)
        piece = prods[zk].shifted(di * ((n - zk) * w + 2 * sigma(k)))
        rhs = piece if rhs is None else rhs.add(piece)
    return lhs.agrees_with(rhs, window)


def mackey_shadow_check(m_spec, i, window, ctx):
    """Check the commutator count: for w >= 0,
    dim adE adF M = dim adF adE M + [w]_i dim M, mirrored for w <= 0."""
    beta, nlayers, word = module_spec_weight(m_spec)
    _check_labels(ctx.cartan, (i,), word)
    w = pairing(ctx.cartan, i, beta) + 2 * nlayers
    di = ctx.cartan.d(i)
    D = module_spec_dims(m_spec, i, ctx)
    adE_M = module_spec_dims(("ad", nlayers + 1, word), i, ctx)
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
    n > -m * c_{ij}.  m must be a positive int; the builder checks n, i
    and j."""
    _check_int(m, "the strand count", 1)
    cplx = build_divided_complex(n, (j,) * m, i, ctx)
    cij = ctx.cartan.cartan(i, j)
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
    return report
