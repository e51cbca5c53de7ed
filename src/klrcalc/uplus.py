"""Word-algebra oracle with the bilinear form.

Elements are finite linear combinations of color words (products of the
one-letter generators e_i, written left to right) with rational-function
coefficients.  The bilinear form is determined by

    (e_i, e_j) = delta_ij / (1 - q_i^2),
    (y, z z') = (r(y), z (x) z'),

where r is the algebra map with r(e_i) = e_i (x) 1 + 1 (x) e_i into the
twisted tensor square, (y (x) z)(y' (x) z') = q^{wt(z).wt(y')} yy' (x) zz'.
Zero-testing is always done through the form (a Gram test against all
words of the same weight), never through a presentation of the quotient
algebra.
"""

from .qring import (LaurentPoly, RatFunc, _add_product, hilbert_denominator,
                    quantum_factorial)
from .rootdata import RootVector, pairing, sequences

__all__ = [
    "WordVector", "GramCache", "pair", "is_zero_mod_serre", "ad_e",
    "ad_e_divided", "higher_serre_check", "uplusi_member",
    "k0_isometry_calibrate",
]


class WordVector:
    """A finite sum of color words with RatFunc coefficients.

    All words share one weight; words are tuples of index labels in
    written order (the leftmost letter is the leftmost factor).
    """

    def __init__(self, beta, terms=None):
        self.beta = beta
        self.terms = {}
        for w, c in (terms or {}).items():
            w = tuple(w)
            if RootVector.from_word(w) != beta:
                raise ValueError(f"word {w} does not have the stated weight")
            if not isinstance(c, RatFunc):
                c = RatFunc(c)
            if c:
                self.terms[w] = c

    @staticmethod
    def generator(i):
        """The one-letter element e_i."""
        return WordVector(RootVector.simple(i), {(i,): 1})

    @staticmethod
    def from_word(word):
        word = tuple(word)
        return WordVector(RootVector.from_word(word), {word: 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, WordVector) and self.beta == other.beta
                and self.terms == other.terms)

    def __add__(self, other):
        if self.beta != other.beta:
            raise ValueError("cannot add elements of different weights")
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, RatFunc.zero()) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return WordVector(self.beta, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if not isinstance(c, RatFunc):
            c = RatFunc(c)
        return WordVector(self.beta, {w: v * c for w, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = out.get(w, RatFunc.zero()) + c1 * c2
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return WordVector(self.beta + other.beta, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            bits.append(f"({self.terms[w]})*e[{','.join(map(str, w))}]")
        return " + ".join(bits)


class GramCache:
    """Memoized word pairings for one Cartan datum.

    The pairing of two words of weight beta is N(u, v) / D(beta), where
    D(beta) is the product over the letters j of beta of (1 - q^{(j, j)})
    and N is an integer Laurent polynomial.  With j the last letter of v
    and v' = v without it, N satisfies the division-free recursion

        N(u, v) = sum over p with u_p = j of
                  q^{(j, u_1) + ... + (j, u_{p-1})} N(u without u_p, v'),

    with N((), ()) = 1; words of different weights get N = 0.  N is
    memoized as a dict exponent -> int, under both argument orders since
    the form is symmetric.  The dicts in the memo are shared and must not
    be modified.  D is qring.hilbert_denominator of either word, built
    per call.  pair_words builds one RatFunc per call; pair and the zero
    tests read N directly.
    """

    def __init__(self, cartan):
        self.cartan = cartan
        self._num = {((), ()): {0: 1}}

    def pair_words(self, u, v):
        u, v = tuple(u), tuple(v)
        if len(u) != len(v):
            return RatFunc.zero()
        return RatFunc(LaurentPoly(self._numerator(u, v)),
                       hilbert_denominator(self.cartan, v))

    def _numerator(self, u, v):
        """N(u, v) for two words of one length."""
        got = self._num.get((u, v))
        if got is not None:
            return got
        dot = self.cartan.dot
        j = v[-1]
        vp = v[:-1]
        acc = {}
        e = 0
        for p, a in enumerate(u):
            if a == j:
                _add_product(acc, {e: 1}, self._numerator(u[:p] + u[p + 1:],
                                                          vp))
            e += dot(j, a)
        self._num[(u, v)] = self._num[(v, u)] = acc
        return acc


def pair(u, v, cache):
    """The bilinear form on two WordVectors (0 if the weights differ).

    With u and v over their common denominators L_u and L_v, the sum of
    a b N(w1, w2) over the term pairs is one numerator dict, and the
    value is one RatFunc over L_u L_v D."""
    if u.beta != v.beta or not u.terms or not v.terms:
        return RatFunc.zero()
    num_of = cache._numerator
    lu, us = _over_common_denominator(u)
    lv, vs = _over_common_denominator(v)
    acc = {}
    for w1, a in us:
        inner = {}
        for w2, b in vs:
            _add_product(inner, b, num_of(w1, w2))
        _add_product(acc, a, inner)
    return RatFunc(LaurentPoly(acc), lu * lv * hilbert_denominator(
        cache.cartan, next(iter(v.terms))))


def _over_common_denominator(x):
    """(L, [(word, numerator)]) with x = sum of numerator / L * word: L is
    the product of the distinct coefficient denominators of x, and each
    numerator is a dict exponent -> coefficient."""
    dens = {c.den for c in x.terms.values()}
    big = LaurentPoly.one()
    for d in dens:
        big = big * d
    cofactor = {d: big.exact_div(d) for d in dens}
    return big, [(w, (c.num * cofactor[c.den]).coeffs)
                 for w, c in x.terms.items()]


def is_zero_mod_serre(v, cache):
    """Whether v vanishes in the quotient algebra: by non-degeneracy of
    the form this holds iff (w, v) = 0 for every word w of the weight."""
    return _pairs_to_zero((tuple(reversed(w)) for w in sequences(v.beta)),
                          v, cache)


def _pairs_to_zero(words, v, cache):
    """Whether (w, v) = 0 for every written word w of v's weight in
    words.  With v over its common denominator, (w, v) is zero iff the
    numerator sum of b N(w, w2) over the terms of v is."""
    num_of = cache._numerator
    _, vs = _over_common_denominator(v)
    for w in words:
        acc = {}
        for w2, b in vs:
            _add_product(acc, b, num_of(w, w2))
        if acc:
            return False
    return True


def ad_e(i, v, cartan):
    """The adjoint operator e_i * v - q_i^w * v * e_i, w the weight
    pairing of i against the weight of v."""
    ei = WordVector.generator(i)
    w = pairing(cartan, i, v.beta)
    di = cartan.d(i)
    return ei * v - (v * ei).scale(RatFunc.q(di * w))


def ad_e_divided(n, i, v, cartan):
    """Divided n-th adjoint power ad_i^n(v) / [n]_i!, by the closed
    alternating sum over k of
    (-1)^k q_i^{k(n-1+w)} e_i^{(n-k)} v e_i^{(k)}, w = <i, wt v>: the word
    i^{n-k} u i^k gets c_u (-1)^k q_i^{k(n-1+w)} / ([n-k]_i! [k]_i!)."""
    di = cartan.d(i)
    w = pairing(cartan, i, v.beta)
    facts = [quantum_factorial(k, di) for k in range(n + 1)]
    out = {}
    for k in range(n + 1):
        c = RatFunc(LaurentPoly({di * k * (n - 1 + w): (-1) ** k}),
                    facts[n - k] * facts[k])
        for u, cu in v.terms.items():
            word = (i,) * (n - k) + u + (i,) * k
            out[word] = out[word] + cu * c if word in out else cu * c
    return WordVector(v.beta + RootVector.simple(i, n), out)


def higher_serre_check(n, m, i, j, cache):
    """Whether the divided n-th adjoint power of e_j^m vanishes matches
    the criterion n > -m c_{ij}."""
    cartan = cache.cartan
    ej = WordVector.from_word((j,) * m)
    v = ad_e_divided(n, i, ej, cartan)
    expected = n > -m * cartan.cartan(i, j)
    return is_zero_mod_serre(v, cache) == expected


def uplusi_member(v, i, cache):
    """Whether v pairs to zero against every e_i z with z a word of the
    complementary weight: the form-theoretic membership test for the
    kernel subalgebra that the twisted adjoint operators map into."""
    coeffs = dict(v.beta.coeffs)
    coeffs[i] = coeffs.get(i, 0) - 1
    if coeffs[i] < 0:
        return True
    return _pairs_to_zero(((i,) + tuple(reversed(z))
                           for z in sequences(RootVector(coeffs))), v, cache)


def k0_isometry_calibrate(beta, window, ctx):
    """Compare the form against graded dimensions of the idempotent-
    truncated algebra, as an identity of integer Laurent polynomials.

    For words mu, nu of weight beta, the (mu, nu) block 1_mu R(beta) 1_nu
    has Hilbert series P(mu, nu) / D(beta), where P is the numerator
    ctx.coset_polynomials(nu)[mu] with both words read in position order;
    the form is (e_mu, e_nu) = N(mu, nu) / D(beta) (see GramCache).  So
    the block dimensions match the form up to one power of q in every
    degree iff N = q^s P, with s = min N - min P.  The report records s
    per pair, and a ValueError is raised unless the identity holds for
    every pair with the same s.  window is only recorded in the report.
    """
    cache = GramCache(ctx.cartan)
    words = [tuple(reversed(s)) for s in sequences(beta)]
    rows = {nu: ctx.coset_polynomials(tuple(reversed(nu))) for nu in words}
    entries = []
    shifts = set()
    for mu in words:
        mu_pos = tuple(reversed(mu))
        for nu in words:
            form = cache._numerator(mu, nu)
            dims = rows[nu].get(mu_pos)
            if not dims and not form:
                continue
            if not dims or not form:
                raise ValueError("form and graded dimensions disagree "
                                 "about vanishing")
            s = min(form) - min(dims)
            if form != {d + s: k for d, k in dims.items()}:
                raise ValueError(
                    f"no monomial correction matches block ({mu},{nu})")
            shifts.add(s)
            entries.append({"left": mu, "right": nu, "shift": s})
    if len(shifts) > 1:
        raise ValueError(f"correction exponent not uniform: {sorted(shifts)}")
    return {
        "weight": dict(beta.coeffs),
        "window": [window.d_min, window.d_max],
        "shift": (sorted(shifts)[0] if shifts else None),
        "pairs": entries,
    }
