"""The one basis rule against the hierarchical reference checker.

`BasisContext.is_basis_word` checks a bracket of two basis words at its
root only, and `enumerate_basis` builds words from smaller basis words
with the same root check.  Here both are compared, on every operator
word within small bounds, with `lyndon.ls_shape_ok` driven by the
letter, node and adjacency predicates that each context kind used to
pass it: a rotation test and a full re-check at every node.
"""

import glob
import os
import re
from functools import cmp_to_key

import pytest

from rblie.algebras import abelianize, load_algebra
from rblie.enveloping import EnvContext
from rblie.expr import format_lincomb, parse_word
from rblie.free_rb import FreeRBContext
from rblie.lincomb import LinComb
from rblie.lyndon import ls_shape_ok
from rblie.pcls import CommGraph, LSContext, PCLSContext
from rblie.straighten import enumerate_basis
from rblie.terms import Alphabet, Br, Gen, RApp, compare_words
from rblie.verify import all_operator_words

ABC = Alphabet(("a", "b", "c"))
AB = Alphabet(("a", "b"))
TABLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos", "algebras")
# (max_deg, max_rdeg) by the size of a table's basis: a few thousand words each
ENV_BOUNDS = {1: (4, 3), 2: (4, 2), 3: (3, 2)}


def _pcls_reference(alphabet, edges):
    edges = {frozenset(e) for e in edges}

    def adjacent(x, y):
        return isinstance(x, Gen) and isinstance(y, Gen) and frozenset((x.name, y.name)) in edges

    def letter_ok(a):
        return isinstance(a, Gen) and a.name in alphabet

    return lambda w: ls_shape_ok(w, adjacent, letter_ok)


def _operator_reference(alphabet, env_weight=None):
    """Free-rb membership, or enveloping membership when env_weight is set."""

    def adjacent(x, y):
        return isinstance(x, RApp) and isinstance(y, RApp) and x != y

    def letter_ok(a):
        if isinstance(a, Gen):
            return a.name in alphabet
        if env_weight is not None and isinstance(a.arg, Gen):
            return False
        return member(a.arg)

    node_ok = (lambda node: node.degr > 0) if env_weight == 1 else None

    def member(w):
        if isinstance(w, Gen):
            return w.name in alphabet
        if isinstance(w, RApp):
            return member(w.arg)
        return ls_shape_ok(w, adjacent, letter_ok, node_ok)

    return member


def _cases():
    path = [("a", "b"), ("b", "c")]
    edge = [("a", "b")]
    complete = [("a", "b"), ("a", "c"), ("b", "c")]
    cases = [
        ("ls", lambda: LSContext(ABC), _pcls_reference(ABC, []), 6, 0),
        ("pcls-path", lambda: PCLSContext(ABC, CommGraph(ABC.names, path)),
         _pcls_reference(ABC, path), 6, 0),
        ("pcls-edge", lambda: PCLSContext(ABC, CommGraph(ABC.names, edge)),
         _pcls_reference(ABC, edge), 6, 0),
        ("pcls-complete", lambda: PCLSContext(ABC, CommGraph(ABC.names, complete)),
         _pcls_reference(ABC, complete), 6, 0),
    ]
    for weight in (0, 1):
        cases.append(("free-rb-w%d" % weight, lambda w=weight: FreeRBContext(AB, weight=w),
                      _operator_reference(AB), 4, 3))
    for file in sorted(glob.glob(os.path.join(TABLES, "*.alg"))):
        table = load_algebra(file)
        weight = 0 if table.kind == "pre" else 1
        name = os.path.basename(file)
        for label, algebra in ((name, table), (name + "-abelian", abelianize(table))):
            al = algebra.alphabet
            max_deg, max_rdeg = ENV_BOUNDS[len(al)]
            cases.append((label, lambda a=algebra: EnvContext(a),
                          _operator_reference(al, env_weight=weight), max_deg, max_rdeg))
    return cases


CASES = _cases()


@pytest.mark.parametrize("label,make,reference,max_deg,max_rdeg", CASES,
                         ids=[c[0] for c in CASES])
def test_membership_and_enumeration_match_the_reference(label, make, reference,
                                                        max_deg, max_rdeg):
    ctx = make()
    words = all_operator_words(ctx.alphabet, max_deg, max_rdeg)
    expected = {w for w in words if reference(w)}
    assert expected
    for w in words:
        assert ctx.is_basis_word(w) == (w in expected), w
    assert set(enumerate_basis(make(), max_deg, max_rdeg)) == expected


@pytest.mark.parametrize("table", ["so3_post.alg", "pre_as_post.alg"])
def test_weight_one_root_test_is_the_r_count(table):
    # EnvContext's weight-1 rule reads "[p,q] holds an R" as "p and q are
    # not both generators", which holds for basis words p, q; it must
    # agree with counting the R symbols
    ctx = EnvContext(load_algebra(os.path.join(TABLES, table)))
    assert ctx.weight == 1
    words = enumerate_basis(ctx, 3, 2)
    for p in words:
        for q in words:
            by_count = (p.degr + q.degr > 0
                        and not any(isinstance(w, RApp) and isinstance(w.arg, Gen) for w in (p, q))
                        and FreeRBContext.bracket_ok(ctx, p, q))
            assert ctx.bracket_ok(p, q) == by_count, (p, q)


def _tie_cases():
    edge = CommGraph(ABC.names, [("a", "b")])
    cases = [("ls", lambda: LSContext(ABC), 6, 0),
             ("pcls-edge", lambda: PCLSContext(ABC, edge), 5, 0)]
    for weight in (0, 1):
        cases.append(("free-rb-w%d" % weight, lambda w=weight: FreeRBContext(AB, weight=w), 4, 3))
    for file in sorted(glob.glob(os.path.join(TABLES, "*.alg"))):
        cases.append((os.path.basename(file), lambda f=file: EnvContext(load_algebra(f)), 4, 3))
    return cases


TIE_CASES = _tie_cases()


@pytest.mark.parametrize("label,make,max_deg,max_rdeg", TIE_CASES, ids=[c[0] for c in TIE_CASES])
def test_distinct_basis_words_never_tie_by_flattening(label, make, max_deg, max_rdeg):
    # the engine's rules 1 and 2 order basis words by compare_words alone,
    # which is right only if a basis word is fixed by its flattening
    words = sorted(enumerate_basis(make(), max_deg, max_rdeg), key=cmp_to_key(compare_words))
    assert len(set(words)) == len(words) > 1
    for u, v in zip(words, words[1:]):
        assert compare_words(u, v) != 0, (u, v)


class TestOperandsAreChecked:
    """Rule 4 checks only the root of a product, so `mult` and `mult_comb`
    refuse an operand that is not a basis word instead of answering with
    a non-basis word; `evaluate` is the way in for arbitrary words."""

    @pytest.mark.parametrize("left,right,value", [("[b,a]", "a", "[a,[a,b]]"),
                                                  ("[[a,a],b]", "b", "0")],
                             ids=["swapped-halves", "repeated-letter"])
    def test_non_basis_operand_is_refused(self, left, right, value):
        ctx = LSContext(AB)
        u, v = parse_word(left, AB), parse_word(right, AB)
        for call in (lambda: ctx.mult(u, v), lambda: ctx.mult(v, u),
                     lambda: ctx.mult_comb(LinComb.single(u) + LinComb.single(v), v),
                     lambda: ctx.mult_comb(v, u)):
            with pytest.raises(ValueError, match=re.escape(left)):
                call()
        assert format_lincomb(ctx.evaluate(Br(u, v))) == value

    def test_apply_r_refuses_a_non_basis_word(self):
        # R of a word that is not a basis word is not one either
        ctx = FreeRBContext(AB)
        a, b = AB.gens()
        with pytest.raises(ValueError, match=re.escape("[b,a]")):
            ctx.apply_r(Br(b, a))
        with pytest.raises(ValueError, match=re.escape("[b,a]")):
            ctx.apply_r(LinComb.single(Br(a, b)) + LinComb.single(Br(b, a)))
        assert format_lincomb(ctx.evaluate(RApp(Br(b, a)))) == "-R([a,b])"

    def test_operator_word_is_refused_without_an_operator(self):
        ctx = LSContext(AB)
        a, b = AB.gens()
        with pytest.raises(ValueError, match=re.escape("R(a)")):
            ctx.mult(RApp(a), b)
        with pytest.raises(ValueError, match="^this basis has no operator$"):
            ctx.apply_r(a)


class TestOneEntryForProducts:
    """`mult` is `mult_comb`: one operand gate, and a result that the
    caller owns rather than the memo's own entry."""

    def test_editing_a_result_leaves_the_memo_alone(self):
        ctx = LSContext(AB)
        a, b = AB.gens()
        first = ctx.mult(Br(a, b), b)
        first.iadd(a, 5)
        assert format_lincomb(ctx.mult(Br(a, b), b)) == "[[a,b],b]"

    def test_mult_takes_the_operands_of_mult_comb(self):
        ctx = LSContext(AB)
        a, b = AB.gens()
        assert ctx.mult(a, LinComb.single(b)) == ctx.mult_comb(a, b) == {Br(a, b): 1}
        for bad in ((a, 5), (5, a)):
            with pytest.raises(TypeError, match="expected Word or LinComb, got 5"):
                ctx.mult(*bad)

    def test_a_combination_of_non_words_is_refused_with_type_error(self):
        # the gate checks a combination's keys too, not only its own type
        ctx = LSContext(AB)
        a, b = AB.gens()
        for bad in ((LinComb({"a": 1}), b), (a, LinComb({"a": 1}))):
            with pytest.raises(TypeError, match="got key 'a'"):
                ctx.mult(*bad)
        with pytest.raises(TypeError, match="got key 'a'"):
            FreeRBContext(AB).apply_r(LinComb({"a": 1}))


# `evaluate` returns a basis word as it is, without a product, which is
# right only if no letter rule resolves the product of a basis word's halves
SHORTCUT_CASES = [c[:2] for c in CASES
                  if c[0] in ("ls", "pcls-path", "free-rb-w0", "free-rb-w1")
                  or c[0].endswith(".alg")]


@pytest.mark.parametrize("label,make", SHORTCUT_CASES, ids=[c[0] for c in SHORTCUT_CASES])
class TestBasisWordsEvaluateToThemselves:

    def test_halves_multiply_back_to_the_word(self, label, make):
        brackets = [w for w in enumerate_basis(make(), 4, 2) if isinstance(w, Br)]
        assert brackets
        ctx = make()
        for w in brackets:
            assert ctx.mult(w.left, w.right) == {w: 1}, w

    def test_evaluate_returns_the_own_copy_without_fuel(self, label, make):
        ctx = make()
        words = enumerate_basis(ctx, 4, 2)
        assert all(ctx.is_basis_word(w) for w in words)
        ctx.fuel_limit = 1
        for w in words:
            ((value, coeff),) = ctx.evaluate(parse_word(str(w), ctx.alphabet)).items()
            assert value is w and coeff == 1, w
