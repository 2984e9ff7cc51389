"""Lyndon-Shirshov words and the free Lie algebra.

The bracketing routine is validated against exhaustive search: for every
letter sequence up to degree six, every bracketing is generated and the
hierarchical checker applied; an associative LS word must admit exactly
one admissible bracketing, and it must be the computed one.  Products
are validated against expansion in the tensor envelope, where the
bracket is uv - vu.
"""

import itertools
from collections import Counter

import pytest

from oracles import all_bracketings, expand, expand_comb, necklace_count
from rblie.expr import parse_word
from rblie.lincomb import LinComb
from rblie.lyndon import is_assoc_ls, ls_shape_ok, standard_bracketing
from rblie.pcls import LSContext
from rblie.straighten import enumerate_basis
from rblie.terms import Alphabet, Br, atoms


@pytest.fixture
def ctx(ab):
    return LSContext(ab)


def seq(text, alphabet):
    return tuple(alphabet.gen(ch) for ch in text)


class TestAssocLS:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("a", True),
            ("b", True),
            ("ab", True),
            ("ba", False),
            ("aa", False),
            ("aab", True),
            ("aba", False),
            ("abb", True),
            ("aabb", True),
            ("aabac", True),
            ("abab", False),
        ],
    )
    def test_examples(self, text, want):
        al = Alphabet(("a", "b", "c"))
        assert is_assoc_ls(seq(text, al)) is want

    def test_first_letter_is_the_greatest(self, ab):
        # rank 0 is the top of the alphabet, so greatest = least rank
        for n in range(1, 7):
            for letters in itertools.product(ab.gens(), repeat=n):
                if is_assoc_ls(letters):
                    assert letters[0].rank == min(x.rank for x in letters)


class TestStandardBracketing:
    def test_frozen_shapes(self, ab):
        a, b = ab.gens()
        assert standard_bracketing(seq("aab", ab)) == Br(a, Br(a, b))
        assert standard_bracketing(seq("abb", ab)) == Br(Br(a, b), b)
        assert standard_bracketing(seq("aabb", ab)) == Br(a, Br(Br(a, b), b))

    def test_rejects_non_ls(self, ab):
        with pytest.raises(ValueError):
            standard_bracketing(seq("ba", ab))
        with pytest.raises(ValueError):
            standard_bracketing(seq("aa", ab))

    def test_exhaustive_against_all_bracketings(self, ab):
        # the load-bearing oracle: every sequence up to degree 6, every
        # bracketing; LS sequences get exactly one admissible bracketing
        for n in range(1, 7):
            for letters in itertools.product(ab.gens(), repeat=n):
                admissible = [w for w in all_bracketings(letters) if ls_shape_ok(w)]
                if is_assoc_ls(letters):
                    assert admissible == [standard_bracketing(letters)]
                else:
                    assert admissible == []

    def test_exhaustive_three_letters(self, abc):
        for n in range(1, 6):
            for letters in itertools.product(abc.gens(), repeat=n):
                admissible = [w for w in all_bracketings(letters) if ls_shape_ok(w)]
                if is_assoc_ls(letters):
                    assert admissible == [standard_bracketing(letters)]
                else:
                    assert admissible == []

    def test_flatten_then_bracket_is_identity(self, ab):
        for w in enumerate_basis(LSContext(ab), 6):
            assert standard_bracketing(atoms(w)) == w


class TestIsLS:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("a", True),
            ("[a,b]", True),
            ("[b,a]", False),
            ("[a,[a,b]]", True),
            ("[[a,b],b]", True),
            ("[[a,b],a]", False),
            ("[a,[b,b]]", False),
            ("[[a,b],[a,b]]", False),
            ("[[a,[a,b]],[a,b]]", True),
        ],
    )
    def test_examples(self, ctx, ab, text, want):
        assert ls_shape_ok(parse_word(text, ab)) is want
        assert ctx.is_basis_word(parse_word(text, ab)) is want

    def test_operator_letters_are_not_plain_ls(self, ctx, ab):
        assert not ctx.is_basis_word(parse_word("R(a)", ab))
        assert not ctx.is_basis_word(parse_word("[R(a),a]", ab))


class TestEnumeration:
    def test_counts_match_necklace_formula_two_letters(self, ab):
        by_deg = Counter(w.deg for w in enumerate_basis(LSContext(ab), 6))
        assert [by_deg[n] for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
        for n in range(1, 7):
            assert by_deg[n] == necklace_count(2, n)

    def test_counts_match_necklace_formula_three_letters(self, abc):
        by_deg = Counter(w.deg for w in enumerate_basis(LSContext(abc), 6))
        assert [by_deg[n] for n in range(1, 7)] == [3, 3, 8, 18, 48, 116]
        for n in range(1, 7):
            assert by_deg[n] == necklace_count(3, n)

    def test_enumeration_equals_filtering(self, ab):
        got = set(enumerate_basis(LSContext(ab), 6))
        brute = set()
        for n in range(1, 7):
            for letters in itertools.product(ab.gens(), repeat=n):
                for w in all_bracketings(letters):
                    if ls_shape_ok(w):
                        brute.add(w)
        assert got == brute

    def test_output_sorted_descending(self, ab):
        words = enumerate_basis(LSContext(ab), 5)
        from rblie.terms import total_cmp

        for x, y in zip(words, words[1:]):
            assert total_cmp(x, y) > 0

    def test_degree_three_list(self, ab):
        assert [str(w) for w in enumerate_basis(LSContext(ab), 3)] == [
            "a",
            "[a,[a,b]]",
            "[a,b]",
            "[[a,b],b]",
            "b",
        ]


class TestProduct:
    def test_frozen_example(self, ctx, ab):
        u = parse_word("[a,[a,b]]", ab)
        v = ab.gen("b")
        got = ctx.mult_comb(u, v)
        assert got == LinComb.single(parse_word("[a,[[a,b],b]]", ab))

    def test_matches_tensor_envelope(self, ctx, ab):
        # the absolute check: straightened products expand to uv - vu
        words = enumerate_basis(LSContext(ab), 5)
        for u, v in itertools.product(words, repeat=2):
            if u.deg + v.deg > 6:
                continue
            got = expand_comb(ctx.mult_comb(u, v))
            pu, pv = expand(u), expand(v)
            assert got == pu * pv - pv * pu, (u, v)

    def test_anticommutativity(self, ctx, ab):
        words = enumerate_basis(LSContext(ab), 5)
        for u, v in itertools.product(words, repeat=2):
            if u.deg + v.deg > 6:
                continue
            total = ctx.mult_comb(u, v) + ctx.mult_comb(v, u)
            assert total.is_zero, (u, v)

    def test_self_product_is_zero(self, ctx, ab):
        for w in enumerate_basis(LSContext(ab), 5):
            assert ctx.mult_comb(w, w).is_zero

    def test_jacobi(self, ctx, ab):
        words = enumerate_basis(LSContext(ab), 6)
        for u, v, w in itertools.product(words, repeat=3):
            if u.deg + v.deg + w.deg > 8:
                continue
            total = ctx.mult_comb(ctx.mult_comb(u, v), w)
            total += ctx.mult_comb(ctx.mult_comb(v, w), u)
            total += ctx.mult_comb(ctx.mult_comb(w, u), v)
            assert total.is_zero, (u, v, w)

    def test_outputs_stay_in_basis_and_are_homogeneous(self, ctx, ab):
        words = enumerate_basis(LSContext(ab), 5)
        for u, v in itertools.product(words, repeat=2):
            if u.deg + v.deg > 6:
                continue
            letters = Counter(atoms(u)) + Counter(atoms(v))
            for w in ctx.mult_comb(u, v):
                assert ctx.is_basis_word(w)
                assert w.deg == u.deg + v.deg
                assert Counter(atoms(w)) == letters
