"""Cartan datum, the positive root lattice, and color-word bookkeeping.

Index labels are strings; dense indices follow datum order.  Only the
pairing <i^, beta> is ever needed, so no ambient weight lattices are
materialized.
"""

from __future__ import annotations

import itertools


class CartanValidationError(ValueError):
    """Raised when a matrix fails one of the Cartan datum conditions."""


class CartanDatum:
    """An index set with a symmetric integer form i.j satisfying the
    Cartan conditions: i.i a positive even integer, i.j <= 0 for i != j.
    The form is a list of lists of ints (bool refused)."""

    def __init__(self, index_set, dot):
        self.index_set = list(index_set)
        n = len(self.index_set)
        if len(set(self.index_set)) != n:
            raise CartanValidationError("duplicate index labels")
        if not (isinstance(dot, list) and all(
                isinstance(row, list) and all(type(x) is int for x in row)
                for row in dot)):
            raise CartanValidationError("dot matrix is no list of lists of ints")
        if len(dot) != n or any(len(row) != n for row in dot):
            raise CartanValidationError("dot matrix shape does not match index set")
        self.dot_matrix = [list(row) for row in dot]
        self._pos = {lab: a for a, lab in enumerate(self.index_set)}
        for a in range(n):
            for b in range(n):
                if self.dot_matrix[a][b] != self.dot_matrix[b][a]:
                    raise CartanValidationError(
                        f"dot matrix not symmetric at ({self.index_set[a]},{self.index_set[b]})")
            if self.dot_matrix[a][a] <= 0 or self.dot_matrix[a][a] % 2:
                raise CartanValidationError(
                    f"diagonal entry for {self.index_set[a]} must be a positive even integer")
        for a in range(n):
            for b in range(n):
                if a != b and self.dot_matrix[a][b] > 0:
                    raise CartanValidationError(
                        f"off-diagonal entry ({self.index_set[a]},{self.index_set[b]}) must be <= 0")
        for a in range(n):
            for b in range(n):
                if a != b and (2 * self.dot_matrix[a][b]) % self.dot_matrix[a][a]:
                    raise CartanValidationError(
                        f"2({self.index_set[a]}.{self.index_set[b]}) not divisible by "
                        f"{self.index_set[a]}.{self.index_set[a]}")

    def dot(self, i, j):
        return self.dot_matrix[self._pos[i]][self._pos[j]]

    def d(self, i):
        """d_i = (i.i)/2."""
        return self.dot(i, i) // 2

    def cartan(self, i, j):
        """c_ij = 2(i.j)/(i.i)."""
        return 2 * self.dot(i, j) // self.dot(i, i)

    def __repr__(self):
        return f"CartanDatum({self.index_set}, {self.dot_matrix})"


class RootVector:
    """An element of Q+ : a map index label -> nonnegative coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for lab, c in coeffs.items():
                _check_int(c, f"the RootVector coefficient of {lab!r}", 0)
                if c:
                    clean[lab] = c
        self.coeffs = clean

    @staticmethod
    def from_word(word):
        """Weight of a color word (a tuple of index labels)."""
        out = {}
        for i in word:
            out[i] = out.get(i, 0) + 1
        return RootVector(out)

    @staticmethod
    def simple(i, mult=1):
        return RootVector({i: mult})

    def __eq__(self, other):
        return isinstance(other, RootVector) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for lab, c in other.coeffs.items():
            out[lab] = out.get(lab, 0) + c
        return RootVector(out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{lab}" if c != 1 else str(lab)
                          for lab, c in sorted(self.coeffs.items()))


def height(beta):
    """|beta| = sum of simple-root coefficients."""
    return sum(beta.coeffs.values())


def pairing(cartan, i, beta):
    """<i^, beta> = sum_j c_ij beta_j; an unknown colour raises ValueError."""
    _check_labels(cartan, (i,), beta.coeffs)
    return sum(cartan.cartan(i, j) * c for j, c in beta.coeffs.items())


def reflect(cartan, i, beta):
    """s_i(beta) = beta - <i^,beta> i, as (coeff map, in_Qplus flag)."""
    out = dict(beta.coeffs)
    out[i] = out.get(i, 0) - pairing(cartan, i, beta)
    out = {lab: c for lab, c in out.items() if c}
    in_qplus = all(c > 0 for c in out.values())
    return out, in_qplus


def sequences(beta):
    """All color words of weight beta, as tuples in position order.

    Position 1 is the rightmost strand: the tuple (nu[0], ..., nu[n-1])
    lists nu_1, ..., nu_n, i.e. the written word read right to left.
    """
    letters = []
    for lab in sorted(beta.coeffs):
        letters.extend([lab] * beta.coeffs[lab])
    return sorted(set(itertools.permutations(letters)))


# ---------------------------------------------------------------------------
# input checks shared by the layers above
# ---------------------------------------------------------------------------

def _check_labels(cartan, *words):
    """Raise ValueError naming the first letter of words that is no label
    of the Cartan datum (the root data would raise a bare KeyError deep
    inside the computation).  Callers pass a single colour i as (i,)."""
    labels = cartan._pos
    for word in words:
        for c in word:
            if c not in labels:
                raise ValueError(f"colour {c!r} is not a label of the "
                                 f"Cartan datum (labels {cartan.index_set})")


_INT_KINDS = {None: "an int", 0: "a nonnegative int", 1: "a positive int"}


def _check_int(x, what, least=None):
    """Return x, raising ValueError naming it unless it is an int (bool
    refused) and, for least 0 or 1, at least least: _check_int(-1, "the
    adjoint power", 0) raises "the adjoint power -1 is not a nonnegative
    int"."""
    if (not isinstance(x, int) or isinstance(x, bool)
            or least is not None and x < least):
        raise ValueError(f"{what} {x!r} is not {_INT_KINDS[least]}")
    return x
