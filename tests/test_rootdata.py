"""Cartan data validation, symmetrized forms, and color-word bookkeeping."""

import math

import pytest

from klrcalc import (
    CartanDatum,
    CartanValidationError,
    RootVector,
    height,
    pairing,
    reflect,
    sequences,
)


def test_cartan_values_a2(cartan_a2):
    c = cartan_a2
    assert c.d("i") == 1 and c.d("j") == 1
    assert c.cartan("i", "j") == -1
    assert c.cartan("i", "i") == 2
    assert c.dot("i", "j") == -1


def test_cartan_values_b2(cartan_b2, cartan_b2r):
    assert cartan_b2.d("i") == 1 and cartan_b2.d("j") == 2
    assert cartan_b2.cartan("i", "j") == -2
    assert cartan_b2.cartan("j", "i") == -1
    assert cartan_b2r.d("i") == 2 and cartan_b2r.d("j") == 1
    assert cartan_b2r.cartan("i", "j") == -1
    assert cartan_b2r.cartan("j", "i") == -2


def test_cartan_values_g2(cartan_g2):
    assert cartan_g2.d("i") == 1 and cartan_g2.d("j") == 3
    assert cartan_g2.cartan("i", "j") == -3
    assert cartan_g2.cartan("j", "i") == -1


def test_cartan_validation_errors():
    with pytest.raises(CartanValidationError):
        CartanDatum(["i", "j"], [[2, -1], [-2, 2]])       # not symmetric
    with pytest.raises(CartanValidationError):
        CartanDatum(["i", "j"], [[3, -1], [-1, 2]])       # odd diagonal
    with pytest.raises(CartanValidationError):
        CartanDatum(["i", "j"], [[2, 1], [1, 2]])         # positive off-diag
    with pytest.raises(CartanValidationError):
        CartanDatum(["i", "j"], [[2, -3], [-3, 4]])       # 2(i.j)/(i.i) not in Z
    with pytest.raises(CartanValidationError):
        CartanDatum(["i", "j"], [[0, -1], [-1, 2]])       # non-positive diag
    with pytest.raises(CartanValidationError):
        CartanDatum(["i"], [[2, -1], [-1, 2]])            # shape mismatch


@pytest.mark.parametrize("dot", [
    [[2.9, -1], [-1, 2]],           # was truncated to A2
    [[2, -1.5], [-1.5, 2]],         # was truncated to A2
    [[2, -1], [-1, 2.0]],
    [[True, -1], [-1, 2]],
    [["a", "b"], ["c", "d"]],
    5,
    ((2, -1), (-1, 2)),
    [[2, -1], (-1, 2)],
], ids=["diag2.9", "off-1.5", "float2.0", "bool", "str", "int", "tuples",
        "tuple-row"])
def test_cartan_datum_refuses_entries_that_are_no_int(dot):
    """A form entry that is no int, or a form that is no list of lists,
    is refused rather than truncated by int()."""
    with pytest.raises(CartanValidationError):
        CartanDatum(["i", "j"], dot)


def test_root_vectors():
    b = RootVector.from_word(("i", "j", "i"))
    assert b == RootVector({"i": 2, "j": 1})
    assert height(b) == 3
    assert b.coeffs == {"i": 2, "j": 1}
    assert b + RootVector.simple("j") == RootVector({"i": 2, "j": 2})
    assert RootVector() == RootVector({})
    assert height(RootVector()) == 0
    with pytest.raises(ValueError):
        RootVector({"i": -1})
    for c in (1.7, 1.0, True, "1"):
        with pytest.raises(ValueError, match="is not a nonnegative int"):
            RootVector({"i": c})


def test_sequences_counts():
    for a in range(4):
        for b in range(4):
            beta = RootVector({"i": a, "j": b})
            seqs = list(sequences(beta))
            assert len(seqs) == math.comb(a + b, a)
            assert len(set(seqs)) == len(seqs)
            for s in seqs:
                assert RootVector.from_word(s) == beta


def test_pairing_and_reflection(cartan_b2):
    c = cartan_b2
    beta = RootVector({"i": 2, "j": 1})
    # (alpha_i, beta) in Cartan-number units: 2(i.beta)/(i.i)
    assert pairing(c, "i", beta) == (2 * 2 + 1 * (-2)) // c.d("i")
    assert pairing(c, "j", beta) == (2 * (-2) + 1 * 4) // 2
    # s_i(2i + j) = (2 - 2)i + j in this orientation
    coeffs, in_qplus = reflect(c, "i", beta)
    assert coeffs == {"j": 1} and in_qplus


def test_reflect_simple_root(cartan_a2):
    # s_i(alpha_j) = alpha_j - c_{ij} alpha_i = alpha_j + alpha_i in type A2
    coeffs, in_qplus = reflect(cartan_a2, "i", RootVector.simple("j"))
    assert coeffs == {"i": 1, "j": 1} and in_qplus
    # reflecting a simple root through itself leaves the positive cone
    coeffs, in_qplus = reflect(cartan_a2, "i", RootVector.simple("i"))
    assert coeffs == {"i": -1} and not in_qplus


def test_unknown_labels_raise_value_error(cartan_a2):
    """An unknown colour in the weight pairing and the reflection, on
    either side, is a ValueError naming it, not a bare KeyError."""
    for call in (lambda: pairing(cartan_a2, "k", RootVector({"i": 1})),
                 lambda: pairing(cartan_a2, "i", RootVector({"k": 1})),
                 lambda: reflect(cartan_a2, "k", RootVector({"i": 1})),
                 lambda: reflect(cartan_a2, "i", RootVector({"k": 2}))):
        with pytest.raises(ValueError, match="colour 'k' is not a label"):
            call()
