"""The normal form of a LinComb: nonzero coefficients, integral ones as int.

The builders and operators impose it; dict's own constructor copies its
argument as given.
"""

from fractions import Fraction

from rblie.algebras import StructureAlgebra
from rblie.lincomb import LinComb


def test_a_float_table_value_is_stored_as_a_fraction():
    algebra = StructureAlgebra(("e",), "pre", dot={("e", "e"): {"e": 0.5}})
    (value,) = algebra.dot[("e", "e")].values()
    assert type(value) is Fraction and value == Fraction(1, 2)


def test_single_drops_a_zero_coefficient():
    assert LinComb.single("x", 0) == {}


def test_single_stores_an_integral_fraction_as_int():
    value = LinComb.single("x", Fraction(4, 2))["x"]
    assert type(value) is int and value == 2


def test_operators_keep_the_normal_form():
    half = LinComb.single("x", Fraction(1, 2))
    assert type((half + half)["x"]) is int
    assert half - half == {}
    assert type(half.scaled(2)["x"]) is int
    assert half.scaled(0) == {}
    assert type(half + half) is type(half - half) is type(-half) is LinComb


def test_scaled_keeps_a_float_factor_exact():
    # the factor becomes a Fraction first: 3 * Fraction(0.1), not Fraction(3 * 0.1)
    assert LinComb.single("x", 3).scaled(0.1) == {"x": 3 * Fraction(0.1)}
    assert 3 * Fraction(0.1) != Fraction(3 * 0.1)


def test_scaled_stores_an_integral_product_as_int():
    value = LinComb.single("x", 3).scaled(Fraction(2, 3))["x"]
    assert type(value) is int and value == 2


def test_the_constructor_copies_pairs_as_given():
    # dict's own: a repeated key keeps its last value, nothing is summed
    assert LinComb([("x", 1), ("x", 2)]) == {"x": 2}
