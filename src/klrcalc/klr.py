"""The quiver Hecke algebra H_beta: PBW normal form, products, diamond
inclusions, the rev anti-automorphism, and graded bases.

Elements are stored in the x-left PBW form: finite sums of monomials
x^a tau_w 1_nu keyed by (nu, word, exps) where

* nu is the color word in position order: nu[k-1] is the color of
  strand k, strand 1 being the rightmost in the written tuple
  (written tuples list colors right to left);
* word is the canonical reduced word of w (see polycalc.canonical_word),
  applied to idempotents rightmost letter first;
* exps is the exponent vector of the left polynomial part.

Left multiplication by a crossing is rewritten recursively: commute
tau_k past the polynomial part (producing a Demazure error term when the
two crossed colors agree), then either extend the word to the canonical
word of the longer permutation - braid moves with equal outer colors
emit polynomial error terms - or split off tau_k^2 = Q(x_k, x_{k+1}).
Every error term strictly drops the crossing count, so the rewriting
terminates; results are memoized on the context.

Every product tau_k tau_w 1_nu with w canonical is one letter insertion.
When k lengthens w, the word (k,) + w is taken to the canonical word of
s_k w along commute and braid moves built in closed form from the runs
of w (_insertion_moves), O(n^2) moves however many reduced words the
permutation has.  When k is a descent, v = canon(s_k w) is the shorter
word, the insertion of k into v gives tau_k tau_v = tau_w + E, and
tau_k tau_w = Q(x_k, x_{k+1}) tau_v - tau_k E.

The Coxeter side of tau_k tau_w depends only on (k, w): the branch, v,
the braid moves of the walk and the right positions of the strands they
cross.  It is computed once per (k, w) as a plan (_plan) and kept in one
process-wide table, _PLANS, keyed by (k, w) alone: a plan holds for any
number of strands, any Cartan datum and any Q, so every context reads the
same table.  It is replayed for each colour word nu, which only decides
which braids emit an error term and which Q_{i,j} appears.  The products
themselves are memoized per context and (k, w, nu), and each Q_{i,j}
placed on strands once per context and (i, j, strand, n).
"""

from __future__ import annotations

from operator import add

from .polycalc import (Poly, _canonical_word, _coset_images, _permuted,
                       _word_images, demazure, demazure_monomial, exact,
                       longest_word)
from .rootdata import RootVector, _check_int, _check_labels, sequences


def _q_scalar(c, what):
    """A unit or Q-term coefficient of the crossing-polynomial table as an
    exact rational; a float is refused, since its binary value is not the
    decimal that was written (write "1/10", not 0.1)."""
    if isinstance(c, float):
        raise ValueError(f"{what} must be an integer or a string such as "
                         f"\"1/10\", not the float {c!r}")
    try:
        return exact(c)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a rational number, got {c!r}")


def _q_terms(terms):
    """The extra terms [s, t, c] of one Q-table entry as the polynomial
    {(s, t): sum of c} they add, zero sums dropped."""
    out = {}
    for s, tt, c in terms:
        out[s, tt] = out.get((s, tt), 0) + exact(c)
    return {e: c for e, c in out.items() if c}


class KLRContext:
    """Cartan datum, the twist polynomials Q_{i,j}, and rewriting caches.

    Every memo table lives on the context and is filled on first use:

    * _left_colors: (word, nu) -> left colour word of tau_word 1_nu
      (left_colors), read when klr_multiply groups terms by left colour;
    * _weight_keys: nu -> its colours sorted (weight_key), read when two
      elements are checked to share a weight;
    * _mult_tau: (k, word, nu) -> normal form of tau_k tau_word 1_nu
      (_mult_tau_word);
    * _strand_qs: (i, j, k, n, braid) -> Q_{i,j} placed on strands
      (_q_on_strands);
    * _coset_reps: (n, w0) -> (images, canonical word) of each minimal
      coset representative, shared by the colour words of length n;
    * _exp_vectors, _pbw_cosets, _basis: the PBW basis tables
      (exp_vectors, pbw_cosets, basis).

    The hot loops probe a table inline and call the filling method only
    on a miss."""

    def __init__(self, cartan, q_config=None):
        self.cartan = cartan
        self.q_config = q_config or {}
        units, extra = self._validate_q_config()
        self._qpolys = {}
        for i in cartan.index_set:
            for j in cartan.index_set:
                terms = {} if i == j else {
                    (-cartan.cartan(i, j), 0): units.get((i, j), 1),
                    (0, -cartan.cartan(j, i)): units.get((j, i), 1),
                    **extra.get((i, j), {})}
                self._qpolys[i, j] = Poly(2, terms)
        self._left_colors = {}
        self._weight_keys = {}
        self._mult_tau = {}
        self._strand_qs = {}
        self._coset_reps = {}
        self._exp_vectors = {}
        self._pbw_cosets = {}
        self._basis = {}

    # -- configuration -----------------------------------------------------

    def _validate_q_config(self):
        """The units and extra terms of q_config, validated: units
        {(i, j): t_(i,j)} and extra terms {(i, j): {(s, t): c}}, the
        terms of each entry also stored mirrored under (j, i), since
        Q_{i,j}(u, v) = Q_{j,i}(v, u); when both orders are given they
        must agree.  For orthogonal colours (c_ij = c_ji = 0) Q_{i,j} is
        the constant unit itself, so a unit given for one order is also
        stored for the other, and two different units are refused."""
        units, extra = {}, {}
        for (i, j), cfg in self.q_config.items():
            _check_labels(self.cartan, (i, j))
            if i == j:
                raise ValueError("Q_{i,i} is identically zero and not configurable")
            t = _q_scalar(cfg.get("t", 1), f"unit t_({i},{j})")
            if t == 0:
                raise ValueError(f"unit t_({i},{j}) must be invertible, got 0")
            if self.cartan.cartan(i, j) == 0 and \
                    units.setdefault((j, i), t) != t:
                raise ValueError(
                    f"units t_({i},{j}) and t_({j},{i}) of orthogonal colours "
                    f"must agree, since Q_{{{i},{j}}} = Q_{{{j},{i}}} is that "
                    f"one unit")
            units[i, j] = t
            di, dj = self.cartan.d(i), self.cartan.d(j)
            target = -self.cartan.dot(i, j)
            for s, tt, coeff in cfg.get("terms", ()):
                if not (type(s) is int and type(tt) is int
                        and s > 0 and tt > 0):
                    raise ValueError(
                        "extra Q terms need positive integer exponents, "
                        f"got {s!r}, {tt!r}")
                _q_scalar(coeff, f"extra Q term coefficient for ({i},{j})")
                if di * s + dj * tt != target:
                    raise ValueError(
                        f"extra Q term u^{s}v^{tt} for ({i},{j}) breaks homogeneity")
            if not cfg.get("terms"):
                continue
            terms = _q_terms(cfg["terms"])
            mirrored = {(tt, s): c for (s, tt), c in terms.items()}
            if extra.setdefault((i, j), terms) != terms or \
                    extra.setdefault((j, i), mirrored) != mirrored:
                raise ValueError(
                    f"extra Q terms for ({i},{j}) and ({j},{i}) are not "
                    f"mirror images, so Q_{{{i},{j}}}(u,v) != "
                    f"Q_{{{j},{i}}}(v,u)")
        return units, extra

    def q_poly(self, i, j):
        """Q_{i,j}(u, v) as a Poly in two variables (u = x_1, v = x_2)."""
        return self._qpolys[i, j]

    # -- word caches -------------------------------------------------------

    def left_colors(self, word, nu):
        """The left colour word of tau_word 1_nu (nu in position order):
        position w(r) carries the colour of right position r.  A letter
        outside 1..len(nu)-1 raises ValueError.  Memoized per (word, nu)."""
        key = (word, nu)
        out = self._left_colors.get(key)
        if out is None:
            out = _permuted(_word_images(word, len(nu)), nu)
            self._left_colors[key] = out
        return out

    def weight_key(self, nu):
        """The weight of a colour word as its colours sorted: two words have
        one weight exactly when their keys are equal.  Memoized per nu."""
        out = self._weight_keys.get(nu)
        if out is None:
            out = self._weight_keys[nu] = tuple(sorted(nu))
        return out

    def exp_vectors(self, weights, total):
        """All nonnegative integer vectors a with sum a_k * weights_k =
        total, as a tuple in increasing lex order; memoized on the context."""
        key = (weights, total)
        out = self._exp_vectors.get(key)
        if out is None:
            if total < 0:
                out = ()
            elif not weights:
                out = ((),) if total == 0 else ()
            else:
                w0, rest = weights[0], weights[1:]
                out = tuple((a,) + tail for a in range(total // w0 + 1)
                            for tail in self.exp_vectors(rest, total - a * w0))
            self._exp_vectors[key] = out
        return out

    def pbw_cosets(self, nu, w0=()):
        """The degree-independent part of the PBW basis x^a tau_u tau_w0 1_nu
        of H tau_w0 1_nu, one entry (lam, word, weights, deg) per minimal
        coset representative u of S_n/S_B (no letter of w0 is a descent of
        u), in the order of _coset_images: lam = u(nu) is the left color
        word, word the canonical word of u (both from _coset_reps), weights
        the degrees (lam_k, lam_k) of the x's and deg the degree of
        tau_u 1_nu; basis reads the vectors of each degree from it.  w0 = ()
        gives the PBW basis of H 1_nu.  Memoized per (nu, w0)."""
        key = (nu, w0)
        out = self._pbw_cosets.get(key)
        if out is None:
            n = len(nu)
            reps = self._coset_reps.get((n, w0))
            if reps is None:
                reps = self._coset_reps[n, w0] = tuple(
                    (u, _canonical_word(u))
                    for u in _coset_images(n, set(w0)))
            dot = self.cartan.dot
            out = []
            for u, word in reps:
                lam = _permuted(u, nu)
                out.append((lam, word, tuple(dot(c, c) for c in lam),
                            tau_word_degree(self, word, nu)))
            out = self._pbw_cosets[key] = tuple(out)
        return out

    def basis(self, nu, w0, e):
        """The basis vectors x^a tau_u tau_w0 1_nu of H tau_w0 1_nu of
        degree e + deg(tau_w0 1_nu), one row per minimal coset
        representative u with vectors in that degree, as a dict sorted by
        left color word lam -> list of rows (canon(u) + w0, exps, table)
        in pbw_cosets order.  exps lists the vectors' exponents a: it is
        the memoized exp_vectors(weights, e - deg) tuple itself, shared
        with every row and every degree that reads the same table, and
        table = (weights, e - deg) is its memo key, so a consumer can key
        its own per-table data on it without hashing exps.  No word
        appears twice in a block.  Memoized per (nu, w0, e) and shared by
        its callers, who must not change it."""
        key = (nu, w0, e)
        out = self._basis.get(key)
        if out is None:
            found = {}
            for lam, word, weights, deg in self.pbw_cosets(nu, w0):
                table = (weights, e - deg)
                exps = self.exp_vectors(*table)
                if exps:
                    found.setdefault(lam, []).append((word + w0, exps, table))
            out = self._basis[key] = {lam: found[lam] for lam in sorted(found)}
        return out

    def coset_polynomials(self, nu):
        """The Hilbert numerators of H 1_nu, as {lam: {deg: count}}: P_lam
        counts the rows u of pbw_cosets(nu) with u(nu) = lam by the degree
        of tau_u 1_nu.  The x's on the strands contribute 1 / D(beta) with
        D(beta) = qring.hilbert_denominator(cartan, nu), the product over
        the letters c of nu of (1 - q^{(c, c)}), so 1_lam H 1_nu has
        Hilbert series P_lam / D(beta)."""
        out = {}
        for lam, _, _, deg in self.pbw_cosets(nu):
            row = out.setdefault(lam, {})
            row[deg] = row.get(deg, 0) + 1
        return out


def _insertion_moves(word):
    """The Coxeter moves that turn word = (k,) + w, w a canonical word,
    into the canonical word of s_k w.

    Moves: ('c', p) swaps commuting letters at positions p, p+1;
    ('b', p) applies the braid move to the triple at p, p+1, p+2.  The
    canonical word is R_2 R_3 ... R_n with R_m = (m-1, ..., r_m) (empty
    when r_m = m), so the nonempty R_m are the maximal runs of w falling
    by one, R_m the one that starts with m-1.  Commute k right past
    R_2 ... R_{k-1}, so that k R_k = (k, ..., a) =: c with a = r_k; then
    move each letter j = k, ..., b of R_{k+1} = (k, ..., b) left through c
    (b > a exactly when k is an ascent): commute past (j-2, ..., a), braid
    (j, j-1, j) -> (j-1, j, j-1), commute j-1 past (k, ..., j+1).  This
    leaves (k-1, ..., b-1) c.  Raises ValueError when k is not positive or
    does not lengthen w.
    """
    k = word[0]
    if k < 1:
        raise ValueError(f"letters must be positive: {word}")
    size = [0] * (max(word) + 2)    # size[m] = len(R_m)
    m = 0
    for p in range(1, len(word)):
        if p == 1 or word[p] != word[p - 1] - 1:
            m = word[p] + 1
        size[m] += 1
    a, b = k - size[k], k + 1 - size[k + 1]
    if b <= a:
        raise ValueError(f"letter {k} of {word} does not lengthen the "
                         "rest: not reduced")
    p0 = sum(size[2:k])
    moves = [("c", p) for p in range(p0)]
    for t, j in enumerate(range(k, b - 1, -1)):
        q = p0 + t + k - j      # position of the braid triple
        moves += [("c", p) for p in range(q + j - a, q + 1, -1)]
        moves.append(("b", q))
        moves += [("c", p) for p in range(q - 1, p0 + t - 1, -1)]
    return moves


class KLRElement:
    """A finite sum of PBW monomials x^a tau_w 1_nu over a fixed weight.

    Coefficients are rational: int when integral, `Fraction` only from a
    non-integral unit or Q-term coefficient of the context (and then
    possibly also where such fractions sum to an integer)."""

    __slots__ = ("ctx", "n", "terms")

    def __init__(self, ctx, n, terms=None):
        """The element sum c * key over terms {(nu, word, exps): c}, zero
        coefficients dropped and the rest stored as exact rationals.

        Each key must lie on n strands (nu and exps of length n) and all
        keys must share one weight (ctx.weight_key); otherwise ValueError.
        The words are not checked: monomial builds a checked basis key.
        Internal builders whose keys are good by construction set .terms
        directly instead."""
        self.ctx = ctx
        self.n = n
        self.terms = {}
        if terms:
            keys = ctx._weight_keys
            first = None
            for key, c in terms.items():
                nu, _, exps = key
                if len(nu) != n or len(exps) != n:
                    raise ValueError(f"term {key} is not on {n} strands")
                wk = keys.get(nu)
                if wk is None:
                    wk = ctx.weight_key(nu)
                if first is None:
                    first = wk
                elif wk != first:
                    raise ValueError(f"weight mismatch: term {key} is not of "
                                     f"the weight {first}")
                c = exact(c)
                if c:
                    self.terms[key] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def idem(ctx, nu):
        """1_nu for a single color word (position order).  A colour that is
        no label of the Cartan datum raises ValueError."""
        nu = tuple(nu)
        _check_labels(ctx.cartan, nu)
        n = len(nu)
        return KLRElement(ctx, n, {(nu, (), (0,) * n): 1})

    @staticmethod
    def monomial(ctx, nu, word, exps, coeff=1):
        """coeff x^exps tau_word 1_nu, nu in position order.  The key must
        be a PBW basis key: word a canonical word (_canonical_shape) of
        letters in 1..n-1, exps n nonnegative ints.  A key that is not, or
        a colour that is no label of the Cartan datum, raises ValueError."""
        nu, word, exps = tuple(nu), tuple(word), tuple(exps)
        _check_labels(ctx.cartan, nu)
        n = len(nu)
        if any(type(a) is not int for a in word + exps):
            raise ValueError(f"word {word} and exponents {exps} must be "
                             f"ints")
        if word and not (0 < min(word) and max(word) < n
                         and _canonical_shape(word)):
            raise ValueError(f"word {word} is not a canonical word on "
                             f"{n} strands")
        if len(exps) != n or (exps and min(exps) < 0):
            raise ValueError(f"exponents {exps} are not {n} nonnegative "
                             f"integers")
        res = KLRElement(ctx, n)
        coeff = exact(coeff)
        if coeff:
            res.terms[nu, word, exps] = coeff
        return res

    # -- basic structure ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, KLRElement) and self.n == other.n
                and self.terms == other.terms)

    def __add__(self, other):
        _check_compatible(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = KLRElement(self.ctx, self.n)
        res.terms = out
        return res

    def __neg__(self):
        res = KLRElement(self.ctx, self.n)
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __sub__(self, other):
        _check_compatible(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) - c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = KLRElement(self.ctx, self.n)
        res.terms = out
        return res

    def scale(self, c):
        c = exact(c)
        res = KLRElement(self.ctx, self.n)
        if c:
            res.terms = {k: cc * c for k, cc in self.terms.items()}
        return res

    def weight(self):
        """The common weight of the stored terms (None for the zero element)."""
        for nu, _, _ in self.terms:
            return RootVector.from_word(nu)
        return None

    def term_degree(self, key):
        nu, word, exps = key
        dot = self.ctx.cartan.dot
        left = self.left_colors(key)
        return (sum(a * dot(c, c) for a, c in zip(exps, left))
                + tau_word_degree(self.ctx, word, nu))

    def degree(self):
        """The single degree of a homogeneous element (None if zero)."""
        degs = {self.term_degree(k) for k in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element with degrees {sorted(degs)}")
        return degs.pop()

    def left_colors(self, key):
        """The left colour word of a term (ctx.left_colors)."""
        nu, word, _ = key
        return self.ctx.left_colors(word, nu)

    # -- serialization / display ------------------------------------------

    def to_json_obj(self):
        """PBW terms as {nu, word, exps, coeff}; nu in written (right-to-left) order."""
        out = []
        for key in sorted(self.terms):
            nu, word, exps = key
            out.append({
                "nu": list(reversed(nu)),
                "word": list(word),
                "exps": list(exps),
                "coeff": str(self.terms[key]),
            })
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            nu, word, exps = key
            c = self.terms[key]
            bits = [] if c == 1 else [str(c)]
            for k, a in enumerate(exps, start=1):
                if a:
                    bits.append(f"x{k}" + (f"^{a}" if a > 1 else ""))
            for k in word:
                bits.append(f"t{k}")
            bits.append("1[" + ",".join(str(c) for c in reversed(nu)) + "]")
            parts.append("*".join(bits))
        return " + ".join(parts)


def _check_compatible(u, v):
    """Raise unless u and v share a context and a weight; the weight of a
    nonzero element is the weight key (ctx.weight_key) of any of its keys,
    since the constructor refuses terms of mixed weight."""
    ctx = u.ctx
    if ctx is not v.ctx:
        raise ValueError("context mismatch")
    if u.n != v.n:
        raise ValueError("weight mismatch")
    if u.terms and v.terms:
        (nu, _, _), (mu, _, _) = next(iter(u.terms)), next(iter(v.terms))
        if nu != mu:
            keys = ctx._weight_keys
            a, b = keys.get(nu), keys.get(mu)
            if a is None:
                a = ctx.weight_key(nu)
            if b is None:
                b = ctx.weight_key(mu)
            if a != b:
                raise ValueError("weight mismatch")


# ---------------------------------------------------------------------------
# generator constructors
# ---------------------------------------------------------------------------

def klr_generator(ctx, kind, arg, words):
    """A generator as a normal-form element summed over color words.

    kind 'x', 'tau': arg is the strand index, summed over the given
    color words, position-order tuples such as sequences(beta) gives (a
    RootVector raises TypeError).  An unknown colour, or words whose weight
    keys (ctx.weight_key) differ, raise ValueError; the terms are then set
    directly, with no per-key check of the constructor.
    """
    seqs = [tuple(s) for s in words]
    if not seqs:
        raise ValueError("no color words supplied")
    _check_labels(ctx.cartan, *seqs)
    first = ctx.weight_key(seqs[0])
    for nu in seqs:
        if ctx.weight_key(nu) != first:
            raise ValueError(f"color words {seqs[0]} and {nu} differ in "
                             "weight")
    n = len(seqs[0])
    k = _check_int(arg, "the strand index")
    terms = {}
    if kind == "x":
        if not 1 <= k <= n:
            raise ValueError(f"x index {k} out of range 1..{n}")
        for nu in seqs:
            e = [0] * n
            e[k - 1] = 1
            terms[(nu, (), tuple(e))] = 1
    elif kind == "tau":
        if not 1 <= k <= n - 1:
            raise ValueError(f"tau index {k} out of range 1..{n - 1}")
        for nu in seqs:
            terms[(nu, (k,), (0,) * n)] = 1
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    res = KLRElement(ctx, n)
    res.terms = terms
    return res


# ---------------------------------------------------------------------------
# the rewriting engine
# ---------------------------------------------------------------------------

# The plan of every (k, word) met so far, by any context: see _plan.
_PLANS = {}


def _add_term(acc, key, c):
    s = acc.get(key, 0) + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def _tau_times_element(ctx, k, terms, n):
    """Normal form of tau_k * (element given by PBW terms): for each term
    x^a tau_word 1_nu, tau_k tau_word 1_nu times x^(s_k a), plus the
    Demazure term of x^a when the strands tau_k crosses, read at the right
    positions r_k, r_k1 of the plan of (k, word), have equal colours.

    This is the inner loop of all rewriting, and it takes three shortcuts
    that leave every term, coefficient and insertion order as _add_term
    would make them.  It probes the product memo ctx._mult_tau itself and
    calls _mult_tau_word only on a miss.  When a is all zero, the
    product's keys are taken as they are, with no exponent addition.
    When a_k = a_{k+1}, s_k a is a and the Demazure term is zero, so
    neither s_k a is built nor the plan read.  Terms are accumulated
    inline; every coefficient is nonzero, so a sum that cancels had a key
    to delete."""
    acc = {}
    get = acc.get
    memo = ctx._mult_tau
    for (nu, word, exps), c in terms.items():
        prod = memo.get((k, word, nu))
        if prod is None:
            prod = _mult_tau_word(ctx, k, word, nu, n)
        if not any(exps):
            for key, cc in prod.items():
                s = get(key, 0) + c * cc
                if s:
                    acc[key] = s
                else:
                    del acc[key]
            continue
        # commute tau_k past x^exps (relation between tau and x)
        a, b = exps[k - 1], exps[k]
        swapped = exps if a == b else exps[:k - 1] + (b, a) + exps[k + 1:]
        for (nu2, word2, exps2), cc in prod.items():
            key = (nu2, word2, tuple(map(add, exps2, swapped)))
            s = get(key, 0) + c * cc
            if s:
                acc[key] = s
            else:
                del acc[key]
        if a == b:
            continue
        # strands k, k+1 on the left of tau_word 1_nu start at the right
        # positions r_k, r_k1 of the plan, made with the product; equal
        # colors emit a Demazure term
        plan = _PLANS[k, word]
        if nu[plan[0]] == nu[plan[1]]:
            sign, monos = demazure_monomial(k, k + 1, exps)
            x = sign * c
            for e in monos:
                key = (nu, word, e)
                s = get(key, 0) + x
                if s:
                    acc[key] = s
                else:
                    del acc[key]
    return acc


def _canonical_shape(word):
    """Whether a word of positive letters is the canonical word of its
    permutation: its maximal runs falling by one, R_m = (m-1, ..., r_m),
    have strictly increasing first letters.  Each permutation has exactly
    one word of that shape (polycalc.canonical_word), and such a word is
    reduced."""
    top = 0     # first letter of the run so far
    for p, a in enumerate(word):
        if p and a == word[p - 1] - 1:
            continue
        if a <= top:
            return False
        top = a
    return True


def _plan(k, word):
    """The colour-independent part of tau_k * (tau_word 1_nu), word
    canonical, as (r_k, r_k1, v, braids), stored in _PLANS under
    (k, word).

    r_k and r_k1 are the right positions (from 0) of the strands at left
    positions k and k+1 of tau_word, so k lengthens word exactly when
    r_k < r_k1; v is the canonical word of s_k w.  For a descent braids
    is None.  For an ascent braids holds one entry (prefix, suffix, c,
    r0, r1, r2) per braid move (c+1, c, c+1) -> (c, c+1, c) along
    _insertion_moves((k,) + word), the word being prefix + triple +
    suffix, and r0, r1, r2 the right positions of the strands at left
    positions c, c+1, c+2 of tau_suffix; each error term thus has sign
    +1.  Strands above every letter are fixed, so none of this depends on
    the number of strands, and none of it on the Cartan datum or Q: one
    table serves every context.

    The ascent walk is checked move by move: each commute must swap
    letters that differ by at least 2, each braid triple must be
    (c+1, c, c+1), and the word it ends on must have the canonical shape
    (_canonical_shape).  Legal moves keep the permutation s_k w, which
    has exactly one word of that shape, so this is as strong as comparing
    the end of the walk with canon(s_k w).  Raises RuntimeError, storing
    no plan, when a check fails, and ValueError when a letter is not
    positive.

    Images are kept in plain lists (_word_images), with no Perm built:
    for a descent, the images of s_k w are those of w with the values k
    and k+1 swapped."""
    letters = (k,) + word
    if min(letters) < 1:
        raise ValueError(f"letters must be positive: {letters}")
    n = max(letters) + 1
    im = _word_images(word, n)
    rk, rk1 = im.index(k), im.index(k + 1)
    if rk < rk1:
        braids = []
        cur = [k, *word]
        last = len(cur) - 2     # the last position a commute may take
        for move, p in _insertion_moves((k,) + word):
            if move == "c" and 0 <= p <= last \
                    and abs(cur[p] - cur[p + 1]) >= 2:
                cur[p], cur[p + 1] = cur[p + 1], cur[p]
                continue
            if not (move == "b" and 0 <= p < last
                    and cur[p] == cur[p + 2] == cur[p + 1] + 1):
                raise RuntimeError(f"illegal move {move, p} on {tuple(cur)} "
                                   f"inserting {k} into {word}")
            c = cur[p + 1]
            cur[p:p + 3] = c, c + 1, c
            suffix = tuple(cur[p + 3:])
            h = _word_images(suffix, n)
            braids.append((tuple(cur[:p]), suffix, c, h.index(c),
                           h.index(c + 1), h.index(c + 2)))
        v = tuple(cur)
        if not _canonical_shape(v):
            raise RuntimeError("insertion did not land on the canonical word")
        braids = tuple(braids)
    else:
        im[rk], im[rk1] = k + 1, k
        v = _canonical_word(im)
        braids = None
    out = _PLANS[k, word] = (rk, rk1, v, braids)
    return out


def _q_on_strands(ctx, a, b, k, n, braid):
    """Q_{a,b}(x_k, x_{k+1}) on n strands, or for a braid (braid true) the
    error term partial_{k,k+2} Q_{a,b}(x_{k+2}, x_{k+1}), as a tuple of
    (exps, c); memoized per (a, b, k, n, braid)."""
    key = (a, b, k, n, braid)
    out = ctx._strand_qs.get(key)
    if out is None:
        q = ctx.q_poly(a, b)
        if braid:
            q = demazure(k, k + 2, q.subst_vars({1: k + 2, 2: k + 1}, n))
        else:
            q = q.subst_vars({1: k, 2: k + 1}, n)
        out = ctx._strand_qs[key] = tuple(q.terms.items())
    return out


def _mult_tau_word(ctx, k, word, nu, n):
    """Normal form of tau_k * (tau_word 1_nu) for a canonical word,
    memoized per (k, word, nu); the plan of (k, word) says which branch
    and where the colours of nu are read.  A crossing k outside 1..n-1
    raises ValueError before anything is stored."""
    ck = (k, word, nu)
    hit = ctx._mult_tau.get(ck)
    if hit is not None:
        return hit
    if not 1 <= k < n:
        raise ValueError(f"letter {k} is not a simple transposition of S_{n}")
    rk, rk1, v, _ = _PLANS.get((k, word)) or _plan(k, word)
    if rk < rk1:
        # s_k w is longer than w
        res = _insert(ctx, k, word, nu, n)
    else:
        # inserting k into v = canon(s_k w) gives tau_k tau_v = tau_word + E,
        # so tau_k tau_word = Q(x_k, x_{k+1}) tau_v - tau_k E; in tau_v the
        # strands at left positions k, k+1 start at r_k1, r_k
        main = (nu, word, (0,) * n)
        res = {}
        a, b = nu[rk1], nu[rk]
        if a != b:
            res = {(nu, v, e): c
                   for e, c in _q_on_strands(ctx, a, b, k, n, False)}
        err = {key: -c for key, c in _mult_tau_word(ctx, k, v, nu, n).items()
               if key != main}
        if err:
            for key, c in _tau_times_element(ctx, k, err, n).items():
                _add_term(res, key, c)
    ctx._mult_tau[ck] = res
    return res


def _tau_word_times(ctx, word, terms, n):
    """Normal form of tau_word * (element given by PBW terms), the letters
    applied one at a time, rightmost first; the word need not be reduced.
    With an empty word the input dict itself is returned."""
    for k in reversed(word):
        if not terms:
            break
        terms = _tau_times_element(ctx, k, terms, n)
    return terms


def _insert(ctx, k, word, nu, n):
    """Normal form of tau_k * (tau_word 1_nu) for a canonical word that k
    lengthens: the main term tau_v 1_nu, v = canon(s_k w), plus one
    polynomial error term for each braid of the plan of (k, word) whose
    outer strands have equal colours in nu.  The suffix right of each
    braid is canonical, so its error term tau_prefix P tau_suffix 1_nu
    needs only tau_prefix multiplied out."""
    acc = {}
    _, _, target, braids = _PLANS.get((k, word)) or _plan(k, word)
    for prefix, suffix, c, r0, r1, r2 in braids:
        a = nu[r0]
        if a != nu[r2]:
            continue
        err = _q_on_strands(ctx, a, nu[r1], c, n, True)
        if err:
            mid = {(nu, suffix, e): cc for e, cc in err}
            for key, cc in _tau_word_times(ctx, prefix, mid, n).items():
                _add_term(acc, key, cc)
    _add_term(acc, (nu, target, (0,) * n), 1)
    return acc


def klr_multiply(u, v):
    """The product of two elements, reduced to PBW normal form.  Each term
    c x^a tau_w 1_nu of u multiplies tau_w into the terms of v with left
    colour word nu (_tau_word_times) and shifts the result by x^a; when a
    is all zero the exponent addition is skipped.  The left colour words
    of v's terms are read from ctx._left_colors, probed inline and filled
    by ctx.left_colors on a miss.  Terms are accumulated inline, as in
    _tau_times_element."""
    _check_compatible(u, v)
    ctx, n = u.ctx, u.n
    acc = {}
    get = acc.get
    # group v's terms by left color word once
    lefts = ctx._left_colors
    by_left = {}
    for key, c in v.terms.items():
        nu, word, _ = key
        lam = lefts.get((word, nu))
        if lam is None:
            lam = ctx.left_colors(word, nu)
        by_left.setdefault(lam, {})[key] = c
    for (nu, word, exps), cu in u.terms.items():
        sub = by_left.get(nu)
        if not sub:
            continue
        prod = _tau_word_times(ctx, word, sub, n)
        if not any(exps):
            for key2, c2 in prod.items():
                s = get(key2, 0) + cu * c2
                if s:
                    acc[key2] = s
                else:
                    del acc[key2]
            continue
        for (nu2, word2, exps2), c2 in prod.items():
            key2 = (nu2, word2, tuple(map(add, exps2, exps)))
            s = get(key2, 0) + cu * c2
            if s:
                acc[key2] = s
            else:
                del acc[key2]
    res = KLRElement(ctx, n)
    res.terms = acc
    return res


def klr_multiply_many(*factors):
    """The product of the factors, folded from the right: f_1 (f_2 (...
    (f_{r-1} f_r))).  A product that ends in an idempotent 1_nu is then
    cut down to 1_nu before any other factor is rewritten."""
    out = factors[-1]
    for f in reversed(factors[:-1]):
        out = klr_multiply(f, out)
    return out


# ---------------------------------------------------------------------------
# diamond, rev, graded bases
# ---------------------------------------------------------------------------

def diamond(y, z):
    """y diamond z = l(y) r(z): z keeps the low strand positions, y is
    shifted on top.  Basis monomials multiply to basis monomials because
    canonical words of block permutations concatenate."""
    if y.ctx is not z.ctx:
        raise ValueError("context mismatch")
    ctx = y.ctx
    ny, nz = y.n, z.n
    n = ny + nz
    acc = {}
    for (nuy, wy, ey), cy in y.terms.items():
        wys = tuple(k + nz for k in wy)
        for (nuz, wz, ez), cz in z.terms.items():
            word = wz + wys
            key = (nuz + nuy, word, ez + ey)
            _add_term(acc, key, cy * cz)
    res = KLRElement(ctx, n)
    res.terms = acc
    return res


def rev(u):
    """The anti-automorphism reversing color words: 1_nu -> 1_(reversed nu),
    x_k -> x_{n+1-k}, tau_l -> -tau_{n-l}; products reverse order.

    The sign on the crossings is forced: without it the map sends the
    relation tau_k x_{k+1} - x_k tau_k = 1 (equal colors) to the same
    relation with the wrong sign on the right-hand side.
    """
    ctx, n = u.ctx, u.n
    acc = {}
    for (nu, word, exps), c in u.terms.items():
        nur = tuple(reversed(nu))
        wordr = tuple(n - k for k in reversed(word))
        expsr = tuple(reversed(exps))
        # the right colour word of tau_wordr whose left colour word is nur
        mu = tuple(nur[q - 1] for q in _word_images(wordr, n))
        if len(word) % 2:
            c = -c
        for key, cc in _tau_word_times(
                ctx, wordr, {(mu, (), expsr): c}, n).items():
            _add_term(acc, key, cc)
    res = KLRElement(ctx, n)
    res.terms = acc
    return res


def tau_word_degree(ctx, word, nu):
    """Degree of tau_word 1_nu; the word need not be reduced or canonical."""
    dot = ctx.cartan.dot
    deg = 0
    cur = list(nu)
    for k in reversed(word):
        deg -= dot(cur[k - 1], cur[k])
        cur[k - 1], cur[k] = cur[k], cur[k - 1]
    return deg


def graded_basis(ctx, mu_filter, nu, d):
    """All PBW monomial keys x^a tau_w 1_nu of degree d whose left color
    word matches mu_filter (None for no filter), as a sorted list: the
    rows of ctx.basis(nu, (), d) flattened, one key per exponent vector
    of each row."""
    nu = tuple(nu)
    blocks = ctx.basis(nu, (), d)
    rows = (blocks.values() if mu_filter is None
            else [blocks.get(tuple(mu_filter), ())])
    return sorted((nu, word, a) for block in rows
                  for word, exps, _ in block for a in exps)


def idempotent_e_klr(ctx, i, m):
    """The nil Hecke idempotent e_m on m strands of color i, as an element:
    x_2 x_3^2 ... x_m^{m-1} tau_{w0[1,m]} 1_{(i,...,i)}."""
    nu = (i,) * m
    if m == 1:
        return KLRElement.idem(ctx, nu)
    # longest_word(1, m) is already the canonical word of w0[1, m]
    return KLRElement.monomial(ctx, nu, longest_word(1, m), tuple(range(m)))


def _poly_on_strands(ctx, nu, positions, poly):
    """poly (in len(positions) variables) evaluated at the x's of the
    given strand positions of 1_nu, as a normal-form element."""
    n = len(nu)
    terms = {}
    for e, c in poly.terms.items():
        exps = [0] * n
        for p, a in zip(positions, e):
            exps[p - 1] += a
        terms[(tuple(nu), (), tuple(exps))] = c
    return KLRElement(ctx, n, terms)


def relation_residues(ctx, nu):
    """Left-minus-right residues of the defining relations on 1_nu.

    Returns a dict name -> KLRElement; every value must reduce to zero.
    Generators are summed over all color words of the weight and cut down
    by right multiplication with 1_nu, so both sides are honest products
    of generator elements.  Each product is folded from the right,
    g_1 (g_2 (... (g_r 1_nu))), so only its 1_nu part is ever rewritten.
    The partial products are shared within the call: each chain of
    generator names, such as (("tau", k), ("x", l)) for tau_k (x_l 1_nu),
    is multiplied out once, as g_1 times the product of the shorter chain,
    however many relations end in it.  The memo dies with the call.  A
    colour of nu that is no label of the Cartan datum raises ValueError.
    """
    nu = tuple(nu)
    n = len(nu)
    beta = RootVector.from_word(nu)
    seqs = list(sequences(beta))
    one = KLRElement.idem(ctx, nu)
    xs = [None] + [("x", k) for k in range(1, n + 1)]
    ts = [None] + [("tau", k) for k in range(1, n)]
    gens = {name: klr_generator(ctx, *name, seqs) for name in xs[1:] + ts[1:]}
    chains = {(): one}

    def prod(*names):
        """g_1 (g_2 (... (g_r 1_nu))) for the named generators.  A loop,
        not a recursion: a closure that calls itself would hold chains in
        a reference cycle past the end of the call."""
        for r in reversed(range(len(names))):
            if names[r:] not in chains:
                chains[names[r:]] = klr_multiply(gens[names[r]],
                                                 chains[names[r + 1:]])
        return chains[names]

    out = {}
    out["idem_square"] = klr_multiply(one, one) - one
    for mu in seqs:
        if mu != nu:
            out["idem_orthogonal"] = klr_multiply(
                KLRElement.idem(ctx, mu), one)
            break
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            out[f"x_commute_{k}_{l}"] = \
                prod(xs[k], xs[l]) - prod(xs[l], xs[k])
    for k in range(1, n):
        snu = list(nu)
        snu[k - 1], snu[k] = snu[k], snu[k - 1]
        tk = prod(ts[k])
        out[f"tau_idem_{k}"] = klr_multiply(
            KLRElement.idem(ctx, tuple(snu)), tk) - tk
        qel = _poly_on_strands(ctx, nu, (k, k + 1),
                               ctx.q_poly(nu[k - 1], nu[k]))
        out[f"tau_square_{k}"] = prod(ts[k], ts[k]) - qel
        for l in range(1, n + 1):
            if l not in (k, k + 1):
                out[f"tau_x_far_{k}_{l}"] = \
                    prod(ts[k], xs[l]) - prod(xs[l], ts[k])
        delta = one if nu[k - 1] == nu[k] else KLRElement(ctx, n)
        out[f"mixed_left_{k}"] = \
            prod(ts[k], xs[k + 1]) - prod(xs[k], ts[k]) - delta
        out[f"mixed_right_{k}"] = \
            prod(xs[k + 1], ts[k]) - prod(ts[k], xs[k]) - delta
        for l in range(k + 2, n):
            out[f"tau_far_{k}_{l}"] = \
                prod(ts[k], ts[l]) - prod(ts[l], ts[k])
    for k in range(1, n - 1):
        lhs = prod(ts[k + 1], ts[k], ts[k + 1]) - prod(ts[k], ts[k + 1], ts[k])
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
