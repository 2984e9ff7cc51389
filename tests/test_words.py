"""Order, degrees, and alphabet handling for the term types."""

import copy
import hashlib
import pickle
import sys
from fractions import Fraction

import pytest

from rblie.expr import parse_word
from rblie.rng import XorShift64
from rblie.terms import (
    Alphabet,
    Br,
    Gen,
    RApp,
    atoms,
    compare_words,
    sort_words_descending,
    total_cmp,
)
from rblie.verify import all_operator_words


@pytest.fixture
def a(ab):
    return ab.gen("a")


@pytest.fixture
def b(ab):
    return ab.gen("b")


class TestAlphabet:
    def test_declared_order_is_decreasing(self, ab):
        # first name is the greatest letter
        assert ab.gen("a").rank == 0
        assert ab.gen("b").rank == 1
        assert compare_words(ab.gen("a"), ab.gen("b")) > 0

    def test_from_spec(self):
        al = Alphabet.from_spec("x, y,z")
        assert [g.name for g in al.gens()] == ["x", "y", "z"]

    @pytest.mark.parametrize("spec", ["a,,b", "a,b,", ",a", "a, ,b"])
    def test_from_spec_refuses_empty_names(self, spec):
        with pytest.raises(ValueError, match="bad generator name ''"):
            Alphabet.from_spec(spec)

    def test_r_is_reserved(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "R"))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "b c"))

    def test_membership(self, ab):
        assert ab.gen("a") in ab
        assert Gen("z", 0) not in ab


class TestDegrees:
    def test_single_letter(self, a):
        assert a.deg == 1
        assert a.degr == 0
        assert a.xdeg == 1

    def test_r_application_is_one_letter(self, a):
        w = RApp(RApp(a))
        assert w.deg == 1
        assert w.degr == 2
        assert w.xdeg == 1

    def test_nested_operator_word(self, ab):
        # [[R(R(a)),b],[R(c),d]] has two R letters on the left,
        # one on the right: four letters, three operator symbols
        al = Alphabet(("a", "b", "c", "d"))
        a, b, c, d = al.gens()
        w = Br(Br(RApp(RApp(a)), b), Br(RApp(c), d))
        assert w.deg == 4
        assert w.degr == 3
        assert w.xdeg == 4

    def test_xdeg_counts_letters_inside_arguments(self, a, b):
        w = RApp(Br(a, Br(a, b)))
        assert w.deg == 1
        assert w.xdeg == 3

    def test_sizes_match_counts_of_the_text(self, ab):
        # counted without the size code: names and "R(" in the text, and
        # the letters of the flattening
        for w in all_operator_words(ab, 5, 2):
            text = str(w)
            assert w.xdeg == text.count("a") + text.count("b"), text
            assert w.degr == text.count("R("), text
            assert w.deg == len(atoms(w)), text

    def test_deep_words_keep_their_sizes(self, a, b):
        # far past the recursion limit, in either direction of nesting
        w = a
        for _ in range(5000):
            w = RApp(w)
        assert (w.deg, w.degr, w.xdeg) == (1, 5000, 1)
        w = a
        for _ in range(2999):
            w = Br(w, b)
        assert (w.deg, w.degr, w.xdeg) == (3000, 0, 3000)

    def test_footprint_is_the_parts(self, a, b):
        # a bracket stores its halves and its flattening, an R-node its
        # argument; the sizes are not stored
        class ThreeSlots(float):
            __slots__ = ("x", "y", "z")

        class OneSlot(float):
            __slots__ = ("x",)

        assert sys.getsizeof(Br(a, b)) == sys.getsizeof(ThreeSlots())
        assert sys.getsizeof(RApp(a)) == sys.getsizeof(OneSlot())


class TestCompare:
    def test_equal_words(self, a):
        w = Br(a, RApp(a))
        assert compare_words(w, w) == 0

    def test_generator_below_operator_letter(self, b):
        assert compare_words(b, RApp(b)) < 0

    def test_operator_letters_by_argument(self, a, b):
        assert compare_words(RApp(a), RApp(b)) > 0
        assert compare_words(RApp(RApp(a)), RApp(a)) > 0

    def test_letterwise(self, ab):
        a, b = ab.gens()
        aab = Br(a, Br(a, b))
        aba = Br(Br(a, b), a)
        # flattenings aab vs aba: decided at the second letter
        assert compare_words(aab, aba) > 0

    def test_proper_prefix_is_greater(self, ab):
        a, b = ab.gens()
        assert compare_words(a, Br(a, b)) > 0
        assert compare_words(Br(a, b), Br(a, Br(b, b))) > 0

    def test_total_cmp_refines_by_structure(self, ab):
        a, b = ab.gens()
        left = Br(Br(a, a), b)
        right = Br(a, Br(a, b))
        assert compare_words(left, right) == 0
        assert total_cmp(left, right) != 0
        assert total_cmp(left, left) == 0

    def test_total_cmp_is_zero_exactly_on_equal_words(self, ab):
        # the copies are built apart, so no shortcut on identity can answer
        words = all_operator_words(ab, 3, 1)
        copies = [parse_word(str(w), ab) for w in words]
        for u in words:
            for v, cv in zip(words, copies):
                c = total_cmp(u, cv)
                assert (c == 0) == (u == cv), (u, v)
                assert c == -total_cmp(cv, u), (u, v)

    def test_deep_brackets_flatten_and_compare(self, a, b):
        # far past the recursion limit: left-normed a b...b, right-normed a...a b
        left, right = a, b
        for _ in range(2999):
            left, right = Br(left, b), Br(a, right)
        for w in (left, right):
            assert len(atoms(w)) == 3000 and w.deg == len(atoms(w))
            assert compare_words(w, w) == 0
        assert compare_words(left, right) == -1

    def test_sort_descending(self, ab):
        a, b = ab.gens()
        words = [b, RApp(a), a, Br(a, b)]
        assert sort_words_descending(words) == [RApp(a), a, Br(a, b), b]


def _word_pool(alphabet):
    # atoms have deg <= xdeg, so this pool stays within deg 5
    return all_operator_words(alphabet, max_deg=5, max_rdeg=1)


def test_order_axioms_on_seeded_triples(ab):
    pool = _word_pool(ab)
    assert len(pool) > 200
    rng = XorShift64(17)
    for _ in range(1000):
        u = rng.choice(pool)
        v = rng.choice(pool)
        w = rng.choice(pool)
        cuv = total_cmp(u, v)
        # antisymmetry
        assert cuv == -total_cmp(v, u)
        if cuv == 0:
            assert u == v
        # transitivity
        if cuv > 0 and total_cmp(v, w) > 0:
            assert total_cmp(u, w) > 0
        if cuv < 0 and total_cmp(v, w) < 0:
            assert total_cmp(u, w) < 0


def test_compare_consistent_with_flattening_on_letters(ab):
    # compare_words only sees the letter sequence
    a, b = ab.gens()
    u = Br(Br(a, b), Br(a, b))
    v = Br(a, Br(Br(b, a), b))
    assert compare_words(u, v) == 0


def test_hashable_and_usable_in_dicts(ab):
    a, b = ab.gens()
    d = {Br(a, b): 1, RApp(a): 2}
    assert d[Br(a, b)] == 1
    assert d[RApp(a)] == 2
    assert Br(a, b) == Br(a, b)
    assert Br(a, b) != Br(b, a)


def _built_apart():
    """Pairs of equal words built from separate objects down to the letters."""
    def build():
        a, b = Gen("a", 0), Gen("b", 1)
        return [a, RApp(Br(a, b)), Br(RApp(a), Br(a, RApp(b)))]

    return list(zip(build(), build()))


class TestWordContract:
    """A word is a float only so that it hashes in C; nothing else of
    float shows."""

    def test_equal_words_built_apart_are_equal_and_hash_equal(self):
        for u, v in _built_apart():
            assert u is not v
            assert u == v and not u != v
            assert hash(u) == hash(v)
            assert {u: 1}[v] == 1

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_no_order(self, ab, op):
        a, b = ab.gens()
        for left, right in ((a, b), (a, 1.0), (1.0, a), (a, 1)):
            with pytest.raises(TypeError):
                eval("left %s right" % op, {"left": left, "right": right})
        with pytest.raises(TypeError):
            sorted([Br(a, b), a, b])

    def test_no_arithmetic(self, ab):
        w = Br(*ab.gens())
        for call in (lambda: 2 * w, lambda: w + 1, lambda: 2.0 * w, lambda: 1.0 - w,
                     lambda: w / 2, lambda: -w, lambda: abs(w), lambda: Fraction(w)):
            with pytest.raises(TypeError):
                call()

    def test_always_true(self, ab):
        a, b = ab.gens()
        assert all(bool(w) for w in (a, RApp(a), Br(a, b)))

    def test_true_even_at_float_value_zero(self):
        # float's own truth test would read a hash of 0 as False
        assert bool(float.__new__(Gen, 0.0))

    @pytest.mark.parametrize("clone", [copy.deepcopy, copy.copy,
                                       lambda w: pickle.loads(pickle.dumps(w))],
                             ids=["deepcopy", "copy", "pickle"])
    def test_copies_round_trip(self, ab, clone):
        a, b = ab.gens()
        for w in (a, RApp(Br(a, b)), Br(RApp(a), Br(a, RApp(b)))):
            got = clone(w)
            assert type(got) is type(w) and got == w and hash(got) == hash(w)
            assert str(got) == str(w)
            assert (got.deg, got.degr, got.xdeg) == (w.deg, w.degr, w.xdeg)

    def test_never_equal_to_a_number(self, ab):
        a, b = ab.gens()
        for w in (a, RApp(a), Br(a, b)):
            for number in (hash(w), float(hash(w)), 0, 0.0):
                assert w != number and number != w
                assert not (w == number) and not (number == w)
            assert w != Fraction(hash(w))

    def test_hash_is_floats_own_slot(self):
        # a Python-level __hash__ costs a call on every dict lookup
        assert Gen.__hash__ is float.__hash__
        assert RApp.__hash__ is float.__hash__
        assert Br.__hash__ is float.__hash__


# Every operator word over a > b up to bidegree (3, 1), in the order
# all_operator_words builds them: bidegrees (generator degree, operator
# degree) in turn, each listing generators, then R of the words one
# operator degree down, then brackets by left factor's bidegree.
_AB_3_1 = (
    # bidegree (1, 0)
    "a b "
    # bidegree (1, 1)
    "R(a) R(b) "
    # bidegree (2, 0)
    "[a,a] [a,b] [b,a] [b,b] "
    # bidegree (2, 1)
    "R([a,a]) R([a,b]) R([b,a]) R([b,b]) [a,R(a)] [a,R(b)] [b,R(a)] [b,R(b)] [R(a),a] "
    "[R(a),b] [R(b),a] [R(b),b] "
    # bidegree (3, 0)
    "[a,[a,a]] [a,[a,b]] [a,[b,a]] [a,[b,b]] [b,[a,a]] [b,[a,b]] [b,[b,a]] [b,[b,b]] "
    "[[a,a],a] [[a,a],b] [[a,b],a] [[a,b],b] [[b,a],a] [[b,a],b] [[b,b],a] [[b,b],b] "
    # bidegree (3, 1)
    "R([a,[a,a]]) R([a,[a,b]]) R([a,[b,a]]) R([a,[b,b]]) R([b,[a,a]]) R([b,[a,b]]) "
    "R([b,[b,a]]) R([b,[b,b]]) R([[a,a],a]) R([[a,a],b]) R([[a,b],a]) R([[a,b],b]) "
    "R([[b,a],a]) R([[b,a],b]) R([[b,b],a]) R([[b,b],b]) [a,R([a,a])] [a,R([a,b])] "
    "[a,R([b,a])] [a,R([b,b])] [a,[a,R(a)]] [a,[a,R(b)]] [a,[b,R(a)]] [a,[b,R(b)]] "
    "[a,[R(a),a]] [a,[R(a),b]] [a,[R(b),a]] [a,[R(b),b]] [b,R([a,a])] [b,R([a,b])] "
    "[b,R([b,a])] [b,R([b,b])] [b,[a,R(a)]] [b,[a,R(b)]] [b,[b,R(a)]] [b,[b,R(b)]] "
    "[b,[R(a),a]] [b,[R(a),b]] [b,[R(b),a]] [b,[R(b),b]] [R(a),[a,a]] [R(a),[a,b]] "
    "[R(a),[b,a]] [R(a),[b,b]] [R(b),[a,a]] [R(b),[a,b]] [R(b),[b,a]] [R(b),[b,b]] "
    "[[a,a],R(a)] [[a,a],R(b)] [[a,b],R(a)] [[a,b],R(b)] [[b,a],R(a)] [[b,a],R(b)] "
    "[[b,b],R(a)] [[b,b],R(b)] [R([a,a]),a] [R([a,a]),b] [R([a,b]),a] [R([a,b]),b] "
    "[R([b,a]),a] [R([b,a]),b] [R([b,b]),a] [R([b,b]),b] [[a,R(a)],a] [[a,R(a)],b] "
    "[[a,R(b)],a] [[a,R(b)],b] [[b,R(a)],a] [[b,R(a)],b] [[b,R(b)],a] [[b,R(b)],b] "
    "[[R(a),a],a] [[R(a),a],b] [[R(a),b],a] [[R(a),b],b] [[R(b),a],a] [[R(b),a],b] "
    "[[R(b),b],a] [[R(b),b],b] "
).split()

# sha256 of the words up to bidegree (4, 2), one per line, in build order.
_AB_4_2_SHA256 = "a44f45eb562159bf30fab743922fbac60ecf51536c13bb44168bcbd334958f24"


def test_all_operator_words_build_order(ab):
    # seeded draws index into this list (the order-axiom test above, the
    # benchmark's query pools), so the order is pinned, not just the set
    assert [str(w) for w in all_operator_words(ab, max_deg=3, max_rdeg=1)] == _AB_3_1
    words = all_operator_words(ab, max_deg=4, max_rdeg=2)
    assert len(words) == 3262
    digest = hashlib.sha256("\n".join(map(str, words)).encode()).hexdigest()
    assert digest == _AB_4_2_SHA256
