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
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .polycalc import (Perm, Poly, all_perms, canonical_word, demazure,
                       longest_word, perm_of_word)
from .rootdata import RootVector, sequences


class KLRContext:
    """Cartan datum, the twist polynomials Q_{i,j}, and rewriting caches."""

    def __init__(self, cartan, q_config=None):
        self.cartan = cartan
        self.q_config = q_config or {}
        self._validate_q_config()
        self._qpolys = {}
        self._canon = {}
        self._perm_of_word = {}
        self._mult_tau = {}
        self._nf_reduced = {}
        self._paths = {}

    # -- configuration -----------------------------------------------------

    def _validate_q_config(self):
        for (i, j), cfg in self.q_config.items():
            self.cartan.check_index(i)
            self.cartan.check_index(j)
            if i == j:
                raise ValueError("Q_{i,i} is identically zero and not configurable")
            t = Fraction(cfg.get("t", 1))
            if t == 0:
                raise ValueError(f"unit t_({i},{j}) must be invertible, got 0")
            di, dj = self.cartan.d(i), self.cartan.d(j)
            target = -self.cartan.dot(i, j)
            for s, tt, coeff in cfg.get("terms", ()):
                if s <= 0 or tt <= 0:
                    raise ValueError("extra Q terms need positive exponents")
                if di * s + dj * tt != target:
                    raise ValueError(
                        f"extra Q term u^{s}v^{tt} for ({i},{j}) breaks homogeneity")

    def q_poly(self, i, j):
        """Q_{i,j}(u, v) as a Poly in two variables (u = x_1, v = x_2)."""
        key = (i, j)
        if key in self._qpolys:
            return self._qpolys[key]
        if i == j:
            p = Poly.zero(2)
        else:
            cij = self.cartan.cartan(i, j)
            cji = self.cartan.cartan(j, i)
            tij = Fraction(self.q_config.get((i, j), {}).get("t", 1))
            tji = Fraction(self.q_config.get((j, i), {}).get("t", 1))
            p = Poly(2, {(-cij, 0): tij, (0, -cji): tji})
            # extra middle terms; the (j,i) block mirrors via Q_{i,j}(u,v)=Q_{j,i}(v,u)
            seen = self.q_config.get((i, j), {}).get("terms", ())
            mirrored = [(tt, s, c) for s, tt, c in
                        self.q_config.get((j, i), {}).get("terms", ())]
            terms = list(seen) or mirrored
            for s, tt, c in terms:
                p = p + Poly(2, {(s, tt): Fraction(c)})
        self._qpolys[key] = p
        return p

    # -- word caches -------------------------------------------------------

    def canon(self, g):
        w = self._canon.get(g)
        if w is None:
            w = canonical_word(g)
            self._canon[g] = w
        return w

    def word_perm(self, word, n):
        key = (word, n)
        g = self._perm_of_word.get(key)
        if g is None:
            g = perm_of_word(word, n)
            self._perm_of_word[key] = g
        return g

    def move_path(self, src, dst):
        """BFS path of Coxeter moves from one reduced word to another.

        Moves: ('c', p) swaps commuting letters at positions p, p+1;
        ('b', p) applies the braid move to the triple at p, p+1, p+2.
        """
        key = (src, dst)
        if key in self._paths:
            return self._paths[key]
        if src == dst:
            self._paths[key] = ()
            return ()
        seen = {src: None}
        queue = deque([src])
        while queue:
            w = queue.popleft()
            for move, w2 in _word_moves(w):
                if w2 not in seen:
                    seen[w2] = (w, move)
                    if w2 == dst:
                        path = []
                        cur = dst
                        while seen[cur] is not None:
                            prev, mv = seen[cur]
                            path.append(mv)
                            cur = prev
                        path.reverse()
                        path = tuple(path)
                        self._paths[key] = path
                        return path
                    queue.append(w2)
        raise RuntimeError(f"no move path between reduced words {src} and {dst}")


def _word_moves(w):
    out = []
    for p in range(len(w) - 1):
        if abs(w[p] - w[p + 1]) >= 2:
            out.append((("c", p), w[:p] + (w[p + 1], w[p]) + w[p + 2:]))
    for p in range(len(w) - 2):
        if w[p] == w[p + 2] and abs(w[p] - w[p + 1]) == 1:
            out.append((("b", p), w[:p] + (w[p + 1], w[p], w[p + 1]) + w[p + 3:]))
    return out


class KLRElement:
    """A finite sum of PBW monomials x^a tau_w 1_nu over a fixed weight."""

    __slots__ = ("ctx", "n", "terms")

    def __init__(self, ctx, n, terms=None):
        self.ctx = ctx
        self.n = n
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[key] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx, n):
        return KLRElement(ctx, n)

    @staticmethod
    def idem(ctx, nu):
        """1_nu for a single color word (position order)."""
        nu = tuple(nu)
        n = len(nu)
        return KLRElement(ctx, n, {(nu, (), (0,) * n): 1})

    @staticmethod
    def monomial(ctx, nu, word, exps, coeff=1):
        return KLRElement(ctx, len(nu), {(tuple(nu), tuple(word), tuple(exps)): coeff})

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
            s = out.get(k, Fraction(0)) + c
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
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
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
        nu, word, _ = key
        return self.ctx.word_perm(word, self.n).permute_tuple(nu)

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
    if u.ctx is not v.ctx:
        raise ValueError("context mismatch")
    if u.n != v.n:
        raise ValueError("weight mismatch")
    wu, wv = u.weight(), v.weight()
    if wu is not None and wv is not None and wu != wv:
        raise ValueError("weight mismatch")


# ---------------------------------------------------------------------------
# generator constructors
# ---------------------------------------------------------------------------

def klr_generator(ctx, kind, arg, beta_or_sequences):
    """A generator as a normal-form element summed over color words.

    kind 'idem': arg is the written color word (nu_r, ..., nu_1);
    kind 'x', 'tau': arg is the strand index, summed over the given
    color words (an iterable of position-order tuples).
    """
    if kind == "idem":
        nu = tuple(reversed(tuple(arg)))
        return KLRElement.idem(ctx, nu)
    seqs = [tuple(s) for s in beta_or_sequences]
    if not seqs:
        raise ValueError("no color words supplied")
    n = len(seqs[0])
    k = int(arg)
    terms = {}
    if kind == "x":
        if not 1 <= k <= n:
            raise ValueError(f"x index {k} out of range 1..{n}")
        for nu in seqs:
            e = [0] * n
            e[k - 1] = 1
            terms[(nu, (), tuple(e))] = Fraction(1)
    elif kind == "tau":
        if not 1 <= k <= n - 1:
            raise ValueError(f"tau index {k} out of range 1..{n - 1}")
        for nu in seqs:
            terms[(nu, (k,), (0,) * n)] = Fraction(1)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return KLRElement(ctx, n, terms)


# ---------------------------------------------------------------------------
# the rewriting engine
# ---------------------------------------------------------------------------

def _add_term(acc, key, c):
    s = acc.get(key, Fraction(0)) + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def _mult_poly_terms(poly_terms, terms, n, acc, scale=1):
    """Accumulate (polynomial * element) given the polynomial's monomials."""
    for e, ce in poly_terms.items():
        for (nu, word, exps), c in terms.items():
            key = (nu, word, tuple(a + b for a, b in zip(exps, e)))
            _add_term(acc, key, ce * c * scale)


def _tau_times_element(ctx, k, terms, n):
    """Normal form of tau_k * (element given by PBW terms)."""
    acc = {}
    for (nu, word, exps), c in terms.items():
        g = ctx.word_perm(word, n)
        lam = g.permute_tuple(nu)
        # commute tau_k past x^exps (relation between tau and x)
        swapped = list(exps)
        swapped[k - 1], swapped[k] = swapped[k], swapped[k - 1]
        base = _mult_tau_word(ctx, k, word, nu, n)
        for key, cc in base.items():
            nu2, word2, exps2 = key
            key2 = (nu2, word2, tuple(a + b for a, b in zip(exps2, swapped)))
            _add_term(acc, key2, c * cc)
        if lam[k - 1] == lam[k]:
            mono = Poly(n, {tuple(exps): 1})
            err = demazure(k, k + 1, mono)
            if err:
                _mult_poly_terms(err.terms, {(nu, word, (0,) * n): Fraction(1)},
                                 n, acc, scale=c)
    return acc


def _mult_tau_word(ctx, k, word, nu, n):
    """Normal form of tau_k * (tau_word 1_nu) for a canonical word."""
    ck = (k, word, nu)
    hit = ctx._mult_tau.get(ck)
    if hit is not None:
        return hit
    g = ctx.word_perm(word, n)
    sk = Perm.s(k, n)
    skg = sk * g
    if skg.length() > g.length():
        res = _nf_reduced(ctx, (k,) + word, nu, n)
    else:
        # word has a reduced expression starting with k
        v = ctx.canon(skg)
        target = (k,) + v
        corr = _rewrite_word(ctx, word, target, nu, n)
        acc = {}
        # tau_k tau_k tau_v 1_nu = Q(x_k, x_{k+1}) tau_v 1_nu
        gv = ctx.word_perm(v, n)
        rho = gv.permute_tuple(nu)
        if rho[k - 1] != rho[k]:
            qp = ctx.q_poly(rho[k - 1], rho[k])
            qn = qp.subst_vars({1: k, 2: k + 1}, n)
            _mult_poly_terms(qn.terms, {(nu, v, (0,) * n): Fraction(1)}, n, acc)
        if corr:
            for key, cc in _tau_times_element(ctx, k, corr, n).items():
                _add_term(acc, key, cc)
        res = acc
    ctx._mult_tau[ck] = res
    return res


def _nf_reduced(ctx, word, nu, n):
    """Normal form of tau_word 1_nu for an arbitrary reduced word."""
    ck = (word, nu)
    hit = ctx._nf_reduced.get(ck)
    if hit is not None:
        return hit
    target = ctx.canon(ctx.word_perm(word, n))
    acc = {(nu, target, (0,) * n): Fraction(1)}
    corr = _rewrite_word(ctx, word, target, nu, n)
    for key, c in corr.items():
        _add_term(acc, key, c)
    ctx._nf_reduced[ck] = acc
    return acc


def _rewrite_word(ctx, src, dst, nu, n):
    """Error terms E with tau_src 1_nu = tau_dst 1_nu + E, in normal form."""
    acc = {}
    cur = src
    for move, p in ctx.move_path(src, dst):
        if move == "c":
            cur = cur[:p] + (cur[p + 1], cur[p]) + cur[p + 2:]
            continue
        a, b = cur[p], cur[p + 1]
        c0 = min(a, b)
        sign = 1 if a == c0 + 1 else -1  # old triple (c+1,c,c+1) keeps +error
        suffix = cur[p + 3:]
        prefix = cur[:p]
        cur = cur[:p] + (b, a, b) + cur[p + 3:]
        mu = ctx.word_perm(suffix, n).permute_tuple(nu)
        if mu[c0 - 1] != mu[c0 + 1]:
            continue
        qp = ctx.q_poly(mu[c0 - 1], mu[c0])
        if qp.is_zero():
            continue
        qn = qp.subst_vars({1: c0 + 2, 2: c0 + 1}, n)
        perr = demazure(c0, c0 + 2, qn)
        if perr.is_zero():
            continue
        tail = _nf_reduced(ctx, suffix, nu, n)
        mid = {}
        _mult_poly_terms(perr.terms, tail, n, mid, scale=sign)
        for k in reversed(prefix):
            mid = _tau_times_element(ctx, k, mid, n)
        for key, cc in mid.items():
            _add_term(acc, key, cc)
    if cur != dst:
        raise RuntimeError("move path did not land on the target word")
    return acc


def klr_multiply(u, v):
    """The product of two elements, reduced to PBW normal form."""
    _check_compatible(u, v)
    ctx, n = u.ctx, u.n
    acc = {}
    # group v's terms by left color word once
    by_left = {}
    for key, c in v.terms.items():
        lam = v.left_colors(key)
        by_left.setdefault(lam, {})[key] = c
    for (nu, word, exps), cu in u.terms.items():
        sub = by_left.get(nu)
        if not sub:
            continue
        cur = sub
        for k in reversed(word):
            cur = _tau_times_element(ctx, k, cur, n)
            if not cur:
                break
        if not cur:
            continue
        for (nu2, word2, exps2), c2 in cur.items():
            key2 = (nu2, word2, tuple(a + b for a, b in zip(exps2, exps)))
            _add_term(acc, key2, cu * c2)
    res = KLRElement(ctx, n)
    res.terms = acc
    return res


def klr_multiply_many(*factors):
    out = factors[0]
    for f in factors[1:]:
        out = klr_multiply(out, f)
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
        g = ctx.word_perm(wordr, n)
        mu = g.inv().permute_tuple(nur)
        if len(word) % 2:
            c = -c
        cur = {(mu, (), expsr): c}
        for k in reversed(wordr):
            cur = _tau_times_element(ctx, k, cur, n)
        for key, cc in cur.items():
            _add_term(acc, key, cc)
    res = KLRElement(ctx, n)
    res.terms = acc
    return res


def _exp_vectors(weights, total):
    """All nonnegative integer vectors a with sum a_k * weights_k = total."""
    if total < 0:
        return
    if not weights:
        if total == 0:
            yield ()
        return
    w0 = weights[0]
    for a in range(total // w0 + 1):
        for rest in _exp_vectors(weights[1:], total - a * w0):
            yield (a,) + rest


def tau_word_degree(ctx, word, nu):
    """Degree of tau_word 1_nu; the word need not be reduced or canonical."""
    dot = ctx.cartan.dot
    deg = 0
    cur = list(nu)
    for k in reversed(word):
        deg -= dot(cur[k - 1], cur[k])
        cur[k - 1], cur[k] = cur[k], cur[k - 1]
    return deg


def _pbw_keys(ctx, nu, d, perms):
    """The PBW monomial keys x^a tau_w 1_nu of degree d, w running over
    perms (each written with its canonical word), perm by perm."""
    dot = ctx.cartan.dot
    for g in perms:
        word = ctx.canon(g)
        weights = tuple(dot(c, c) for c in g.permute_tuple(nu))
        for a in _exp_vectors(weights, d - tau_word_degree(ctx, word, nu)):
            yield (nu, word, a)


def graded_basis(ctx, mu_filter, nu, d):
    """All PBW monomial keys x^a tau_w 1_nu of degree d whose left color
    word matches mu_filter (None for no filter), as a sorted list."""
    nu = tuple(nu)
    perms = [g for g in all_perms(len(nu))
             if mu_filter is None or g.permute_tuple(nu) == tuple(mu_filter)]
    return sorted(_pbw_keys(ctx, nu, d, perms))


def idempotent_e_klr(ctx, i, m):
    """The nil Hecke idempotent e_m on m strands of color i, as an element:
    x_2 x_3^2 ... x_m^{m-1} tau_{w0[1,m]} 1_{(i,...,i)}."""
    nu = (i,) * m
    if m == 1:
        return KLRElement.idem(ctx, nu)
    w0 = ctx.canon(ctx.word_perm(longest_word(1, m), m))
    exps = tuple(range(m))
    return KLRElement.monomial(ctx, nu, w0, exps)


def _poly_on_strands(ctx, nu, positions, poly):
    """poly (in len(positions) variables) evaluated at the x's of the
    given strand positions of 1_nu, as a normal-form element."""
    n = len(nu)
    terms = {}
    for e, c in poly.terms.items():
        exps = [0] * n
        for p, a in zip(positions, e):
            exps[p - 1] += a
        terms[(tuple(nu), (), tuple(exps))] = Fraction(c)
    return KLRElement(ctx, n, terms)


def relation_residues(ctx, nu):
    """Left-minus-right residues of the defining relations on 1_nu.

    Returns a dict name -> KLRElement; every value must reduce to zero.
    Generators are summed over all color words of the weight and cut down
    by right multiplication with 1_nu, so both sides are honest products
    of generator elements.
    """
    nu = tuple(nu)
    n = len(nu)
    beta = RootVector.from_word(nu)
    seqs = list(sequences(beta))
    one = KLRElement.idem(ctx, nu)

    def x(k):
        return klr_generator(ctx, "x", k, seqs)

    def t(k):
        return klr_generator(ctx, "tau", k, seqs)

    def prod(*els):
        return klr_multiply_many(*els, KLRElement.idem(ctx, nu))

    out = {}
    out["idem_square"] = klr_multiply(one, one) - one
    for mu in seqs:
        if mu != nu:
            out["idem_orthogonal"] = klr_multiply(
                KLRElement.idem(ctx, mu), one)
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
                    err[e] = err.get(e, Fraction(0)) + Fraction(c)
            lhs = lhs - _poly_on_strands(ctx, nu, (k, k + 1, k + 2),
                                         Poly(3, err))
        out[f"braid_{k}"] = lhs
    return out
