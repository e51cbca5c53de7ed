"""Polynomials in x_1..x_n with the symmetric-group action, Demazure
operators, and reduced-word machinery.

Permutations are stored as 1-indexed image tuples and act on positions.
A word (k_1, ..., k_r) denotes the product s_{k_1} ... s_{k_r} applied
right to left (the rightmost letter acts first), matching how a product
tau_{k_1} ... tau_{k_r} eats an idempotent from the right.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


# ---------------------------------------------------------------------------
# permutations and words
# ---------------------------------------------------------------------------

class Perm:
    """A permutation of {1..n}, stored by its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")

    @staticmethod
    def _trusted(images):
        """A Perm from an image tuple known to be a permutation."""
        g = Perm.__new__(Perm)
        g.images = images
        return g

    @staticmethod
    def identity(n):
        return Perm(range(1, n + 1))

    @staticmethod
    def s(k, n):
        """The simple transposition s_k in S_n."""
        if not 1 <= k < n:
            raise ValueError(f"s_{k} is not a simple transposition of S_{n}")
        im = list(range(1, n + 1))
        im[k - 1], im[k] = im[k], im[k - 1]
        return Perm._trusted(tuple(im))

    @property
    def n(self):
        return len(self.images)

    def __call__(self, p):
        return self.images[p - 1]

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __mul__(self, other):
        """Function composition: (self * other)(p) = self(other(p))."""
        if len(self.images) != len(other.images):
            raise ValueError("size mismatch")
        return Perm._trusted(tuple(self.images[q - 1] for q in other.images))

    def inv(self):
        out = [0] * len(self.images)
        for p, q in enumerate(self.images, start=1):
            out[q - 1] = p
        return Perm._trusted(tuple(out))

    def length(self):
        """Coxeter length = inversion count."""
        im = self.images
        return sum(1 for a in range(len(im)) for b in range(a + 1, len(im))
                   if im[a] > im[b])

    def permute_tuple(self, t):
        """Left color word of tau_w 1_nu for w with word-permutation self:
        position self(r) carries the color of right position r."""
        return _permuted(self.images, t)

    def __repr__(self):
        return f"Perm{self.images}"


def perm_of_word(word, n):
    """The permutation of a word, rightmost letter applied first."""
    return Perm._trusted(tuple(_word_images(word, n)))


def _word_images(word, n):
    """The images of perm_of_word(word, n) as a list, with no Perm built.
    A letter outside 1..n-1 raises ValueError."""
    im = list(range(1, n + 1))
    for k in word:
        if not 1 <= k < n:
            raise ValueError(f"letter {k} is not a simple transposition "
                             f"of S_{n}")
        # right multiplication by s_k swaps the images of k and k+1
        im[k - 1], im[k] = im[k], im[k - 1]
    return im


def _permuted(images, t):
    """The tuple t moved by the permutation with these images: position
    images[r] carries t[r], as in the left colour word of tau_w 1_nu."""
    out = [None] * len(images)
    for r, q in enumerate(images):
        out[q - 1] = t[r]
    return tuple(out)


def _coset_images(n, rises, head=()):
    """The images u of the minimal representatives of the cosets u S_B,
    S_B generated by the s_p, p in the set rises: u(p) < u(p+1) for each
    such p.  In all_perms order; head holds u(1), ..., u(r), and u(r+1)
    runs over the free values that leave a larger one for each later
    position of its block, so no branch dead-ends."""
    r = len(head)
    if r == n:
        yield head
        return
    end = r + 1     # the last position of r+1's block
    while end in rises:
        end += 1
    low = head[-1] + 1 if r in rises else 1
    free = [v for v in range(low, n + 1) if v not in head]
    for v in free[:len(free) - (end - r - 1)]:
        yield from _coset_images(n, rises, head + (v,))


def canonical_word(g):
    """The fixed reduced word of a permutation.

    Rule: peel the strand ending at the top position; if r = g^-1(n)
    then word(g) = word(g') ++ [n-1, n-2, ..., r] where g' is g with the
    top strand removed.  The strands are peeled in a loop, top first, and
    the runs joined bottom first.  Words for block permutations are the
    concatenation of the blocks' words, so diamond products of basis
    monomials stay basis-aligned.
    """
    return _canonical_word(g.images)


def _canonical_word(images):
    """canonical_word of the permutation with these images, a sequence
    known to be a permutation of 1..n; no Perm is built."""
    im = list(images)
    runs = []
    for top in range(len(im), 0, -1):
        r = im.index(top) + 1
        del im[r - 1]
        runs.append(range(top - 1, r - 1, -1))
    return tuple(k for run in reversed(runs) for k in run)


def longest_word(k, l):
    """Reduced word of the longest element of the symmetric group on
    strands {k..l}, via the recursion w0[k,l+1] = w0[k,l] s_[l down-to k]."""
    if l <= k:
        return ()
    return longest_word(k, l - 1) + tuple(range(l - 1, k - 1, -1))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def exact(c):
    """A rational coefficient as an int when it is integral, else as a
    Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Poly:
    """A sparse polynomial in x_1..x_n with rational coefficients, stored
    as int when integral; `Fraction` comes in only from a non-integral
    input (in the KLR layer, a non-integral unit or Q-term coefficient)."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for e, c in terms.items():
                c = exact(c)
                if c:
                    e = tuple(int(x) for x in e)
                    if len(e) != n or any(x < 0 for x in e):
                        raise ValueError(f"bad exponent vector {e} for n={n}")
                    clean[e] = c
        self.terms = clean

    @staticmethod
    def zero(n):
        return Poly(n)

    @staticmethod
    def one(n):
        return Poly(n, {(0,) * n: 1})

    @staticmethod
    def x(k, n, power=1):
        e = [0] * n
        e[k - 1] = power
        return Poly(n, {tuple(e): 1})

    @staticmethod
    def constant(c, n):
        return Poly(n, {(0,) * n: c})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other, self.n)
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other, self.n)
        if self.n != other.n:
            raise ValueError("variable-count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = Poly.__new__(Poly)
        res.n, res.terms = self.n, out
        return res

    def __neg__(self):
        res = Poly.__new__(Poly)
        res.n = self.n
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.constant(other, self.n)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly(self.n)
            res = Poly.__new__(Poly)
            res.n = self.n
            res.terms = {e: c * other for e, c in self.terms.items()}
            return res
        if self.n != other.n:
            raise ValueError("variable-count mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = Poly.__new__(Poly)
        res.n, res.terms = self.n, out
        return res

    __rmul__ = __mul__

    def degree(self):
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def subst_vars(self, mapping, n=None):
        """Rename variable k to mapping[k] (a 1-indexed injective map)."""
        if n is None:
            n = self.n
        out = {}
        for e, c in self.terms.items():
            ee = [0] * n
            for a, x in enumerate(e):
                if x:
                    ee[mapping[a + 1] - 1] = x
            out[tuple(ee)] = c
        return Poly(n, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            vs = "*".join(f"x{k+1}" + (f"^{p}" if p > 1 else "")
                          for k, p in enumerate(e) if p)
            if not vs:
                parts.append(str(c))
            elif c == 1:
                parts.append(vs)
            else:
                parts.append(f"{c}*{vs}")
        return " + ".join(parts)


def act(g, p):
    """Permute variables: (g.f)(x_1..x_n) = f(x_{g^-1(1)}, ...), i.e. x_k -> x_{g(k)}."""
    if isinstance(g, Perm):
        if g.n != p.n:
            raise ValueError("size mismatch")
        images = g.images
    else:
        raise TypeError("act expects a Perm")
    out = {}
    for e, c in p.terms.items():
        ee = [0] * p.n
        for a, x in enumerate(e):
            ee[images[a] - 1] = x
        out[tuple(ee)] = c
    res = Poly.__new__(Poly)
    res.n, res.terms = p.n, out
    return res


def demazure_monomial(k, l, e):
    """The divided difference of the monomial x^e, as a sign (+1 or -1)
    and the exponent vectors of its terms, all with that coefficient
    (no terms when e_k = e_l)."""
    a, b = e[k - 1], e[l - 1]
    # (x_k^a x_l^b - x_k^b x_l^a)/(x_l - x_k) over the common factor
    lo, hi = (a, b) if a < b else (b, a)
    out = []
    ee = list(e)
    for t in range(hi - lo):
        ee[k - 1] = lo + t
        ee[l - 1] = hi - 1 - t
        out.append(tuple(ee))
    return (1 if b > a else -1), out


def demazure(k, l, p):
    """The divided difference (f - s_{k,l} f)/(x_l - x_k), always exact."""
    if k == l:
        raise ValueError("demazure needs two distinct variables")
    out = {}
    for e, c in p.terms.items():
        sign, monos = demazure_monomial(k, l, e)
        c *= sign
        for ee in monos:
            s = out.get(ee, 0) + c
            if s:
                out[ee] = s
            else:
                del out[ee]
    res = Poly.__new__(Poly)
    res.n, res.terms = p.n, out
    return res


def demazure_seq(word, p):
    """Left-to-right composition of simple Demazure operators along a word."""
    out = p
    for k in word:
        out = demazure(k, k + 1, out)
    return out


def all_perms(n):
    """All permutations of S_n."""
    return [Perm(im) for im in itertools.permutations(range(1, n + 1))]
