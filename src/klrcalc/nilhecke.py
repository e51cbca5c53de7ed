"""The faithful polynomial action of the affine nil Hecke algebra H_n^0,
the oracle for products of one-colour KLR elements.

On strands of one colour the quiver Hecke algebra is the nil Hecke
algebra, and it acts faithfully on Pol_n = Q[x_1..x_n]: x_k by
multiplication and tau_k by the Demazure operator del_k (Khovanov-Lauda,
arXiv:0803.4121, section 2.3).  The action reads the PBW keys of an
element only, and never the rewriting code that made them.
"""

from __future__ import annotations

from .polycalc import Poly, demazure_seq


def nh_act(u, p):
    """The action of a one-colour KLR element u on the polynomial p: each
    term c x^a tau_word 1_nu, keyed (nu, word, a), sends p to
    c x^a del_word(p), the rightmost letter of the word acting first.

    A colour word of more than one colour, or p in a number of variables
    other than the strand count u.n, raises ValueError."""
    if p.n != u.n:
        raise ValueError(f"a polynomial in {p.n} variables on {u.n} strands")
    out = Poly.zero(p.n)
    for (nu, word, a), c in u.terms.items():
        if len(set(nu)) > 1:
            raise ValueError(f"colour word {nu} has more than one colour")
        img = demazure_seq(word[::-1], p)
        out = out + Poly(p.n, {a: c}) * img
    return out
