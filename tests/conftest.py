"""Shared Cartan data and algebra contexts for the test suite."""

from fractions import Fraction

import pytest

from klrcalc import CartanDatum, KLRContext, Poly

# Rank-two symmetrizable Cartan data, given by the symmetric dot form.
A2_DOT = [[2, -1], [-1, 2]]
B2_DOT = [[2, -2], [-2, 4]]      # i is the short root
B2R_DOT = [[4, -2], [-2, 2]]     # i is the long root
G2_DOT = [[2, -3], [-3, 6]]

# Units t_(i,j) = 1/2 and t_(j,i) = -3 of the crossing polynomials, so
# that normal forms carry Fraction coefficients.
HALF_UNITS = {("i", "j"): {"t": Fraction(1, 2)}, ("j", "i"): {"t": -3}}


def make_cartan(dot):
    return CartanDatum(["i", "j"], dot)


def q_multi(i, nu, ctx):
    """Q_{i,nu}(u, v_1..v_n) = product over positions k with nu_k != i of
    Q_{i,nu_k}(u, v_k), as a polynomial in n+1 variables with v_k = x_k
    and u = x_{n+1}: the oracle side of the crossing identities."""
    n = len(nu)
    out = Poly.one(n + 1)
    for k, col in enumerate(nu, start=1):
        if col == i:
            continue
        qp = ctx.q_poly(i, col)  # in vars (u, v)
        out = out * qp.subst_vars({1: n + 1, 2: k}, n + 1)
    return out


@pytest.fixture(scope="session")
def cartan_a2():
    return make_cartan(A2_DOT)


@pytest.fixture(scope="session")
def cartan_b2():
    return make_cartan(B2_DOT)


@pytest.fixture(scope="session")
def cartan_b2r():
    return make_cartan(B2R_DOT)


@pytest.fixture(scope="session")
def cartan_g2():
    return make_cartan(G2_DOT)


@pytest.fixture(scope="session")
def ctx_a2(cartan_a2):
    return KLRContext(cartan_a2)


@pytest.fixture(scope="session")
def ctx_b2(cartan_b2):
    return KLRContext(cartan_b2)


@pytest.fixture(scope="session")
def ctx_b2r(cartan_b2r):
    return KLRContext(cartan_b2r)


@pytest.fixture(scope="session")
def ctx_g2(cartan_g2):
    return KLRContext(cartan_g2)
