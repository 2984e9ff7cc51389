"""The free Lie algebra with a Rota-Baxter operator, weight 0 and 1.

No associative envelope is available here, so the identity suites are
the authority: anticommutativity, the Jacobi identity, the operator
composition law, and the derived pre-Lie / post-Lie laws, exhaustively
on a small box and on seeded samples beyond it.
"""

import itertools
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

from rblie.expr import format_lincomb, parse_word
from rblie.free_rb import FreeRBContext
from rblie.lincomb import LinComb
from rblie.pcls import LSContext
from rblie.straighten import FuelError, enumerate_basis
from rblie.terms import Alphabet, Br, Gen, RApp, total_cmp
from rblie.verify import check_derived, check_jacobi, sample_basis


@pytest.fixture
def ctx0(ab):
    return FreeRBContext(ab, weight=0)


@pytest.fixture
def ctx1(ab):
    return FreeRBContext(ab, weight=1)


def gen_counts(w):
    out = Counter()
    stack = [w]
    while stack:
        node = stack.pop()
        if isinstance(node, Gen):
            out[node.name] += 1
        elif isinstance(node, RApp):
            stack.append(node.arg)
        else:
            stack.append(node.left)
            stack.append(node.right)
    return out


class TestMembership:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("a", True),
            ("R(a)", True),
            ("R(R(a))", True),
            ("[R(a),a]", True),
            ("[R(a),[R(a),a]]", True),
            ("[R(a),R(b)]", False),
            ("[R(b),a]", True),
            ("[a,R(a)]", False),
            ("R([b,a])", False),
            ("R([a,b])", True),
            ("[R([a,b]),R(a)]", False),
            ("[R([a,b]),a]", True),
        ],
    )
    def test_two_letters(self, ab, text, want):
        assert FreeRBContext(ab).is_basis_word(parse_word(text, ab)) is want

    def test_four_letter_nested_example(self):
        al = Alphabet(("a", "b", "c", "d"))
        w = parse_word("[[R(R(a)),b],[R(c),d]]", al)
        assert FreeRBContext(al).is_basis_word(w)

    def test_argument_must_be_basis(self, ab):
        w = parse_word("R([R(a),R(b)])", ab)
        assert not FreeRBContext(ab).is_basis_word(w)

    def test_weight_does_not_change_membership(self, ctx0, ctx1, ab):
        pool = enumerate_basis(FreeRBContext(ab), 3, 2)
        for w in pool:
            assert ctx0.is_basis_word(w) and ctx1.is_basis_word(w)


class TestEnumeration:
    def test_no_operator_budget_gives_plain_ls(self, ab):
        got = {str(w) for w in enumerate_basis(FreeRBContext(ab), 2, 0)}
        assert got == {"a", "b", "[a,b]"}

    def test_operator_tower_single_letter(self):
        al = Alphabet(("a",))
        got = {str(w) for w in enumerate_basis(FreeRBContext(al), 1, 2)}
        assert got == {"a", "R(a)", "R(R(a))"}

    def test_mixed_box_single_letter(self):
        al = Alphabet(("a",))
        got = {str(w) for w in enumerate_basis(FreeRBContext(al), 2, 1)}
        assert got == {"a", "R(a)", "[R(a),a]"}

    def test_repeated_operator_letter_is_admissible(self, ab):
        got = enumerate_basis(FreeRBContext(ab), 3, 2)
        assert parse_word("[R(a),[R(a),a]]", ab) in got

    def test_sorted_descending(self, ab):
        words = enumerate_basis(FreeRBContext(ab), 3, 2)
        for x, y in zip(words, words[1:]):
            assert total_cmp(x, y) > 0

    def test_weight_independence_is_bit_exact(self, ab):
        w0 = enumerate_basis(FreeRBContext(ab, weight=0), 3, 2)
        w1 = enumerate_basis(FreeRBContext(ab, weight=1), 3, 2)
        assert w0 == w1

    def test_matches_filtering_all_operator_words(self, ab):
        from rblie.verify import all_operator_words

        ctx = FreeRBContext(ab)
        brute = {w for w in all_operator_words(ab, 3, 2) if ctx.is_basis_word(w)}
        assert brute == set(enumerate_basis(FreeRBContext(ab), 3, 2))


class TestOperator:
    def test_apply_r_keeps_basis(self, ctx0, ab):
        for w in enumerate_basis(FreeRBContext(ab), 2, 1):
            image = ctx0.apply_r(w)
            assert list(image) == [RApp(w)]
            assert ctx0.is_basis_word(RApp(w))

    def test_composition_weight_zero(self, ctx0, ab):
        a, b = ab.gens()
        got = ctx0.mult_comb(RApp(a), RApp(b))
        assert format_lincomb(got) == "R([R(a),b]) - R([R(b),a])"

    def test_composition_weight_one(self, ctx1, ab):
        a, b = ab.gens()
        got = ctx1.mult_comb(RApp(a), RApp(b))
        assert format_lincomb(got) == "R([R(a),b]) - R([R(b),a]) + R([a,b])"

    def test_same_argument_collapses(self, ctx0, ctx1, ab):
        a = ab.gen("a")
        assert not ctx0.mult_comb(RApp(a), RApp(a))
        assert not ctx1.mult_comb(RApp(a), RApp(a))


class TestCoefficients:
    def test_integer_coefficients_stay_int(self, ab):
        # every coefficient of a free product is an integer; none should
        # be stored as a Fraction, rule 2's negation included
        ctx = FreeRBContext(ab, weight=1)
        words = enumerate_basis(ctx, 3, 1)
        for u, v in itertools.product(words, repeat=2):
            assert all(type(c) is int for c in ctx.mult(u, v).values()), (u, v)
        assert all(type(c) is int for out in ctx._memo.values() for c in out.values())

    def test_scaling_keeps_exact_types(self):
        comb = LinComb.single("x", 3)
        assert type((-comb)["x"]) is int
        assert comb.scaled(Fraction(1, 2)) == {"x": Fraction(3, 2)}
        assert comb.scaled(0.5) == {"x": Fraction(3, 2)}
        assert type(comb.scaled(0.5)["x"]) is Fraction
        assert comb.scaled(0) == {}

    def test_integral_fractions_are_stored_as_int(self):
        halves = LinComb.single("x", Fraction(1, 2)).iadd("x", Fraction(1, 2))
        assert halves == {"x": 1} and type(halves["x"]) is int
        doubled = LinComb.single("x", 3).scaled(Fraction(2))
        assert doubled == {"x": 6} and type(doubled["x"]) is int


class TestIdentitiesExhaustive:
    # the small box is checked in full; larger boxes are sampled below

    def words(self, ab):
        return enumerate_basis(FreeRBContext(ab), 2, 1)

    @pytest.mark.parametrize("weight", [0, 1])
    def test_anticommutativity(self, ab, weight):
        ctx = FreeRBContext(ab, weight=weight)
        words = self.words(ab)
        for u, v in itertools.product(words, repeat=2):
            assert not (ctx.mult(u, v) + ctx.mult(v, u)), (u, v)

    @pytest.mark.parametrize("weight", [0, 1])
    def test_jacobi(self, ab, weight):
        ctx = FreeRBContext(ab, weight=weight)
        words = self.words(ab)
        for u, v, w in itertools.product(words, repeat=3):
            total = ctx.mult_comb(ctx.mult(u, v), w)
            total += ctx.mult_comb(ctx.mult(v, w), u)
            total += ctx.mult_comb(ctx.mult(w, u), v)
            assert not total, (u, v, w)

    @pytest.mark.parametrize("weight", [0, 1])
    def test_operator_law(self, ab, weight):
        ctx = FreeRBContext(ab, weight=weight)
        m = ctx.mult_comb
        for u, v in itertools.product(self.words(ab), repeat=2):
            x, y = LinComb.single(u), LinComb.single(v)
            rx, ry = ctx.apply_r(x), ctx.apply_r(y)
            inner = m(rx, y) + m(x, ry)
            if weight:
                inner += m(x, y)
            assert m(rx, ry) == ctx.apply_r(inner), (u, v)


class TestIdentitiesSampled:
    @pytest.mark.parametrize("weight", [0, 1])
    def test_jacobi_on_seeded_triples(self, ab, weight):
        ctx = FreeRBContext(ab, weight=weight)
        for u, v, w in sample_basis(ctx, 3, 2, seed=5, count=500, arity=3):
            total = ctx.mult_comb(ctx.mult(u, v), w)
            total += ctx.mult_comb(ctx.mult(v, w), u)
            total += ctx.mult_comb(ctx.mult(w, u), v)
            assert not total, (u, v, w)

    @pytest.mark.parametrize("weight", [0, 1])
    def test_operator_law_on_seeded_pairs(self, ab, weight):
        ctx = FreeRBContext(ab, weight=weight)
        m = ctx.mult_comb
        for u, v in sample_basis(ctx, 3, 2, seed=7, count=500, arity=2):
            x, y = LinComb.single(u), LinComb.single(v)
            rx, ry = ctx.apply_r(x), ctx.apply_r(y)
            inner = m(rx, y) + m(x, ry)
            if weight:
                inner += m(x, y)
            assert m(rx, ry) == ctx.apply_r(inner), (u, v)


class TestDerivedLaws:
    """[R(x),R(y)] expanded two ways ties the operator law to the Jacobi
    identity: with dot(x,y) = R(x)*y,

        (x.y).z - x.(y.z) - (y.x).z + y.(x.z) + weight*([x,y].z) = 0
    """

    @pytest.mark.parametrize("weight", [0, 1])
    def test_associator_bridge(self, ab, weight):
        ctx = FreeRBContext(ab, weight=weight)
        m = ctx.mult_comb

        def dot(p, q):
            return m(ctx.apply_r(p), q)

        words = enumerate_basis(FreeRBContext(ab), 2, 1)
        for u, v, w in itertools.product(words, repeat=3):
            x, y, z = (LinComb.single(t) for t in (u, v, w))
            total = dot(dot(x, y), z) - dot(x, dot(y, z))
            total -= dot(dot(y, x), z) - dot(y, dot(x, z))
            if weight:
                total += dot(m(x, y), z)
            assert not total, (u, v, w)


class TestOwnCopies:
    """A context hands out one copy of each word it builds: rule 4's
    brackets and the operator's R-letters are registered in its basis
    cache, which `evaluate` answers from."""

    @pytest.mark.parametrize("left,right", [("R(a)", "[R(b),a]"), ("R([a,b])", "R(b)")])
    def test_product_words_are_what_evaluate_returns(self, ctx1, ab, left, right):
        got = ctx1.mult(parse_word(left, ab), parse_word(right, ab))
        assert len(got) >= 3
        for w in got:
            ((value, coeff),) = ctx1.evaluate(parse_word(str(w), ab)).items()
            assert value is w and coeff == 1, w

    def test_apply_r_returns_the_same_letters(self, ctx1, ab):
        x = LinComb(((w, 1) for w in enumerate_basis(ctx1, 2, 1)))
        first, second = ctx1.apply_r(x), ctx1.apply_r(LinComb(x))
        assert first == second
        assert {id(r) for r in first} == {id(r) for r in second}

    @pytest.mark.parametrize("weight,entries", [(0, 8552), (1, 15689)])
    def test_derived_law_makes_the_same_products(self, ab, weight, entries):
        # the memo sizes measured before words had own copies: those change
        # which objects the memo holds, not which products it makes
        ctx = FreeRBContext(ab, weight=weight)
        triples = list(itertools.product(enumerate_basis(ctx, 2, 1), repeat=3))
        assert check_derived(ctx, triples).passed
        assert len(ctx._memo) == entries


class TestGradedShape:
    def test_products_respect_bidegree_and_letters(self, ctx0, ab):
        words = enumerate_basis(FreeRBContext(ab), 3, 1)
        for u, v in itertools.product(words, repeat=2):
            expected = gen_counts(u) + gen_counts(v)
            for w in ctx0.mult(u, v):
                assert ctx0.is_basis_word(w)
                assert w.deg <= u.deg + v.deg
                assert w.degr <= u.degr + v.degr
                assert w.xdeg == u.xdeg + v.xdeg
                assert gen_counts(w) == expected

    def test_weight_zero_preserves_operator_degree(self, ctx0, ab):
        words = enumerate_basis(FreeRBContext(ab), 2, 2)
        for u, v in itertools.product(words, repeat=2):
            for w in ctx0.mult(u, v):
                assert w.degr == u.degr + v.degr


class TestFuel:
    def test_exhaustion_raises(self, ab):
        ctx = FreeRBContext(ab)
        ctx.fuel_limit = 2
        a, b = ab.gens()
        with pytest.raises(FuelError, match="fuel"):
            ctx.mult(RApp(a), RApp(b))

    def test_default_budget_is_ample(self, ctx0, ab):
        # the left word is not a basis word (R(R(a)) and R(a) are adjacent
        # R-letters), so it is evaluated onto the basis before the product
        u = ctx0.evaluate(parse_word("[R(R(a)),[R(a),b]]", ab))
        v = parse_word("[R(b),b]", ab)
        assert ctx0.mult_comb(u, v) is not None

    def test_one_budget_per_call_and_memo_hits_are_free(self, ab):
        x = LinComb.single(parse_word("R(a)", ab)) + LinComb.single(parse_word("R(b)", ab))
        y = parse_word("[R(a),b]", ab)
        single = max(_least_budget(ab, lambda ctx, w=w: ctx.mult(w, y)) for w in x)
        assert _least_budget(ab, lambda ctx: ctx.mult_comb(x, y)) > single
        warm = FreeRBContext(ab)
        warm.fuel_limit = single
        for w in x:
            warm.mult(w, y)
        assert warm.mult_comb(x, y) == FreeRBContext(ab).mult_comb(x, y)

    def test_a_product_that_needs_itself_raises_cyclic(self, ab):
        # a letter rule that asks for the product it resolves never closes
        class Cycling(LSContext):
            def letter_rule(self, u, v, fuel):
                return self._mult(u, v, fuel)

        ctx = Cycling(ab)
        a, b = ab.gens()
        for _ in range(2):
            with pytest.raises(FuelError) as raised:
                ctx.mult(a, b)
            assert raised.value.cyclic
            assert str(raised.value) == "straightening cycled while multiplying a by b"
            assert ctx._memo == {}


def _least_budget(ab, call):
    """The smallest fuel_limit under which call(fresh context) succeeds."""
    for limit in range(1, 10 ** 4):
        ctx = FreeRBContext(ab)
        ctx.fuel_limit = limit
        try:
            call(ctx)
        except FuelError:
            continue
        return limit
    raise AssertionError("no budget below 10**4 suffices")


class TestConcurrency:
    def test_threads_sharing_a_context_see_no_false_cycle(self, ab):
        # the cycle guard must tell a call's own unfinished products
        # from those another thread is computing in the same memo
        ctx = FreeRBContext(ab, weight=1)
        triples = sample_basis(ctx, 3, 2, 7, 40, 3)
        reports, errors = [], []

        def work():
            try:
                reports.append(check_jacobi(ctx, triples))
            except FuelError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(reports) == 4 and all(r.passed for r in reports)
