"""Parsing and printing of words and linear combinations."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rblie.expr import ExprError, format_lincomb, parse_expr, parse_word
from rblie.lincomb import LinComb
from rblie.terms import Alphabet, Br, RApp


@pytest.fixture
def al():
    return Alphabet(("a", "b", "c"))


class TestParseWord:
    def test_letter(self, al):
        assert parse_word("a", al) == al.gen("a")

    def test_operator(self, al):
        assert parse_word("R(b)", al) == RApp(al.gen("b"))

    def test_bracket_and_whitespace(self, al):
        w = parse_word(" [ a , R( [b, c] ) ] ", al)
        assert w == Br(al.gen("a"), RApp(Br(al.gen("b"), al.gen("c"))))

    def test_unknown_generator(self, al):
        with pytest.raises(ExprError) as err:
            parse_word("[a,z]", al)
        assert err.value.offset == 3

    def test_truncated_bracket(self, al):
        with pytest.raises(ExprError) as err:
            parse_word("[a,", al)
        assert err.value.offset == 3

    def test_missing_comma(self, al):
        with pytest.raises(ExprError):
            parse_word("[a b]", al)

    def test_trailing_garbage(self, al):
        with pytest.raises(ExprError):
            parse_word("a]", al)

    def test_r_needs_parentheses(self, al):
        with pytest.raises(ExprError):
            parse_word("R a", al)


class TestParseExpr:
    def test_zero(self, al):
        assert parse_expr("0", al) == LinComb()

    def test_signs_and_coefficients(self, al):
        got = parse_expr("3/2*R([a,b]) - a", al)
        want = LinComb(
            {
                RApp(Br(al.gen("a"), al.gen("b"))): Fraction(3, 2),
                al.gen("a"): Fraction(-1),
            }
        )
        assert got == want

    def test_leading_minus(self, al):
        got = parse_expr("-2*a + b", al)
        assert got[al.gen("a")] == -2
        assert got[al.gen("b")] == 1

    def test_integral_coefficients_are_int(self, al):
        got = parse_expr("2*a + 1/2*b + 4/2*b", al)
        assert type(got[al.gen("a")]) is int
        assert got[al.gen("b")] == Fraction(5, 2)

    def test_like_terms_merge(self, al):
        got = parse_expr("a + a - 2*a", al)
        assert got == LinComb()

    def test_zero_denominator(self, al):
        with pytest.raises(ExprError):
            parse_expr("1/0*a", al)

    def test_coefficient_needs_star(self, al):
        with pytest.raises(ExprError):
            parse_expr("2 a", al)

    @pytest.mark.parametrize("text,offset", [("\u00b2*a", 0), ("1\u00b2*a", 1)],
                             ids=["superscript", "after-a-digit"])
    def test_non_decimal_digit_is_refused_with_its_offset(self, al, text, offset):
        # str.isdigit accepts '²', int() does not
        with pytest.raises(ExprError, match="unexpected character '\u00b2' at offset %d"
                           % offset):
            parse_expr(text, al)


class TestFormat:
    def test_word_roundtrip_examples(self, al):
        for text in ("a", "R(a)", "[a,b]", "[R([a,b]),R(R(c))]", "[[a,b],[a,c]]"):
            assert str(parse_word(text, al)) == text

    def test_lincomb_canonical_order(self, al):
        lc = LinComb(
            {
                al.gen("a"): Fraction(1),
                RApp(al.gen("a")): Fraction(-3, 2),
                al.gen("b"): Fraction(2),
            }
        )
        # descending: R(a) above the generators, a above b
        assert format_lincomb(lc) == "-3/2*R(a) + a + 2*b"

    def test_empty_is_zero(self):
        assert format_lincomb(LinComb()) == "0"


def words(al):
    leaf = st.sampled_from([al.gen(n) for n in al.names])
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            inner.map(RApp),
            st.tuples(inner, inner).map(lambda p: Br(p[0], p[1])),
        ),
        max_leaves=8,
    )


@given(data=st.data())
def test_word_print_parse_roundtrip(data):
    al = Alphabet(("a", "b", "c"))
    w = data.draw(words(al))
    assert parse_word(str(w), al) == w


@given(data=st.data())
def test_expr_print_parse_roundtrip(data):
    al = Alphabet(("a", "b", "c"))
    terms = data.draw(
        st.lists(
            st.tuples(
                words(al),
                st.fractions(
                    min_value=-9, max_value=9, max_denominator=7
                ).filter(bool),
            ),
            max_size=5,
        )
    )
    lc = LinComb()
    for w, c in terms:
        lc.iadd(w, c)
    assert parse_expr(format_lincomb(lc), al) == lc


def test_lincomb_is_unhashable():
    # a mutable dict subclass; dict's own __hash__ = None keeps it out of sets
    with pytest.raises(TypeError):
        hash(LinComb())
