"""Enveloping Rota-Baxter structures over finite-dimensional tables."""

import itertools

import pytest

from conftest import TEST_ALGEBRA_MAKERS, dual_numbers_pre, one_dim_pre, so3_post
from rblie.algebras import StructureAlgebra, abelianize
from rblie.enveloping import EnvContext, embed, pbw_table
from rblie.expr import format_lincomb, parse_word
from rblie.lincomb import LinComb
from rblie.straighten import enumerate_basis
from rblie.terms import Br, Gen, RApp
from rblie.verify import check_reduce_hom, check_spanning, sample_basis


@pytest.fixture
def env(test_algebra):
    return EnvContext(test_algebra)


@pytest.fixture
def env_one():
    return EnvContext(one_dim_pre())


@pytest.fixture
def env_pre2():
    return EnvContext(dual_numbers_pre())


@pytest.fixture
def env_so3():
    return EnvContext(so3_post())


class TestConstruction:
    def test_weight_follows_kind(self, env):
        assert env.weight == (0 if env.algebra.kind == "pre" else 1)

    def test_lie_kind_rejected(self):
        bad = StructureAlgebra(("a", "b"), "lie", bracket={})
        with pytest.raises(ValueError):
            EnvContext(bad)

    def test_invalid_table_refused(self):
        broken = StructureAlgebra(
            ("u", "t"), "pre",
            dot={("u", "u"): {"u": 1}, ("u", "t"): {"t": 1}, ("t", "u"): {"u": 1}},
        )
        with pytest.raises(ValueError, match="fails its law"):
            EnvContext(broken)


class TestMembership:
    def test_generators_and_operator_towers(self, env):
        for name in env.algebra.names:
            g = env.alphabet.gen(name)
            assert env.is_basis_word(g)
            assert env.is_basis_word(RApp(g))
            assert env.is_basis_word(RApp(RApp(g)))

    def test_bracket_of_generators_pre_only(self, env_pre2):
        assert env_pre2.is_basis_word(parse_word("[u,t]", env_pre2.alphabet))

    def test_bracket_of_generators_not_post(self, env_so3):
        assert not env_so3.is_basis_word(parse_word("[a,b]", env_so3.alphabet))

    def test_interior_generator_argument_rejected(self, env_pre2):
        al = env_pre2.alphabet
        # R(u) reduces against t through the table, so it is not a letter
        assert not env_pre2.is_basis_word(parse_word("[R(u),t]", al))
        assert env_pre2.is_basis_word(parse_word("[R(R(u)),t]", al))

    def test_interior_argument_must_be_basis(self, env_one):
        al = env_one.alphabet
        assert not env_one.is_basis_word(parse_word("[R([R(e),e]),e]", al))
        assert env_one.is_basis_word(parse_word("[R([R(R(e)),e]),e]", al))

    def test_r_letters_commute_pairwise(self, env_one):
        al = env_one.alphabet
        w = parse_word("[R(R(e)),R(R(R(e)))]", al)
        assert not env_one.is_basis_word(w)

    def test_post_nodes_need_an_operator(self, env_so3, env_pre2):
        al = env_so3.alphabet
        assert env_so3.is_basis_word(parse_word("[R(R(a)),b]", al))
        # an operator-free interior node is fine for pre, fatal for post
        assert not env_so3.is_basis_word(parse_word("[R(R(a)),[b,c]]", al))
        al2 = env_pre2.alphabet
        assert env_pre2.is_basis_word(parse_word("[R(R(u)),[u,t]]", al2))


class TestEnumeration:
    def test_one_dim_box(self, env_one):
        got = [str(w) for w in enumerate_basis(env_one, 2, 2)]
        assert got == ["R(R(e))", "[R(R(e)),e]", "R(e)", "e"]

    def test_post_without_operator_budget_keeps_letters(self):
        ctx = EnvContext(TEST_ALGEBRA_MAKERS["pre_as_post"]())
        got = enumerate_basis(ctx, 2, 0)
        assert got == list(ctx.alphabet.gens())

    def test_pre_without_operator_budget_gives_ls_words(self, env_pre2):
        got = [str(w) for w in enumerate_basis(env_pre2, 2, 0)]
        assert got == ["u", "[u,t]", "t"]

    def test_counts_are_structure_free(self, env):
        flat = EnvContext(abelianize(env.algebra))
        assert enumerate_basis(env, 4, 2) == enumerate_basis(flat, 4, 2)

    def test_every_enumerated_word_passes_membership(self, env):
        for w in enumerate_basis(env, 3, 2):
            assert env.is_basis_word(w)


class TestCaseIdentities:
    def test_operator_against_generator_is_the_table(self, env):
        # [R(x), y] collapses to the stored x.y for generators x, y
        alg = env.algebra
        for x, y in itertools.product(alg.names, repeat=2):
            raw = Br(RApp(env.alphabet.gen(x)), env.alphabet.gen(y))
            want = embed(env, alg.dot.get((x, y), {}))
            assert env.evaluate(raw) == want, (x, y)

    def test_generator_bracket_is_the_stored_bracket(self, env):
        alg = env.algebra
        for x, y in itertools.product(alg.names, repeat=2):
            raw = Br(env.alphabet.gen(x), env.alphabet.gen(y))
            got = env.evaluate(raw)
            if env.algebra.kind == "post":
                assert got == embed(env, alg.bracket.get((x, y), {})), (x, y)
            elif x != y:
                # pre keeps the free bracket as a basis word
                assert sum(abs(c) for c in got.values()) == 1, (x, y)

    def test_frozen_one_dim_products(self, env_one):
        al = env_one.alphabet
        assert format_lincomb(env_one.evaluate(parse_word("[R(e),e]", al))) == "e"
        assert format_lincomb(env_one.evaluate(parse_word("R([R(e),e])", al))) == "R(e)"
        got = env_one.mult(parse_word("R(R(e))", al), al.gen("e"))
        assert format_lincomb(got) == "[R(R(e)),e]"

    def test_operator_letter_against_bracket_shape(self, env_one):
        # R(x) * [R(u), y] = [R(R(x)*u + x*R(u)), y] + [R(u), x.y]
        al = env_one.alphabet
        e = al.gen("e")
        u = parse_word("[R(R(e)),e]", al)
        lhs = env_one.mult(RApp(e), Br(RApp(u), e))
        inner = env_one.mult_comb(RApp(e), u) + env_one.mult_comb(e, RApp(u))
        rhs = LinComb()
        for w, c in env_one.apply_r(inner).items():
            rhs.iadd_comb(env_one.evaluate(Br(w, e)), c)
        for t, c in env_one.mult(RApp(e), e).items():
            rhs.iadd_comb(env_one.evaluate(Br(RApp(u), t)), c)
        assert lhs == rhs


class TestDerivation:
    def test_operator_letters_act_by_leibniz(self, env):
        # when [rl, z] is itself a basis word the product short-circuits,
        # so equality with the two-piece expansion is a real statement;
        # when rl < z the engine recurses on the other operand instead
        words = enumerate_basis(env, 3, 2)
        rletters = [w for w in words if isinstance(w, RApp)]
        targets = [w for w in words if isinstance(w, Br)]
        for rl in rletters[:4]:
            for z in targets:
                got = env.mult(rl, z)
                want = env.mult_comb(env.mult(rl, z.left), LinComb.single(z.right))
                want += env.mult_comb(LinComb.single(z.left), env.mult(rl, z.right))
                assert got == want, (rl, z)


class TestReduction:
    def test_everything_reduces_into_the_basis(self, env):
        bound = 3 if env.algebra.dim <= 2 else 2
        report = check_spanning(env, bound, 2)
        assert report.passed, report.line()

    def test_reduction_is_a_homomorphism(self, env):
        report = check_reduce_hom(env, 3, 2, seed=11, count=300)
        assert report.passed, report.line()

    def test_reduce_fixes_basis_words(self, env):
        for w in enumerate_basis(env, 3, 2):
            assert env.evaluate(w) == LinComb.single(w)


class TestEmbed:
    def test_by_name(self, env_pre2):
        assert embed(env_pre2, "t") == LinComb.single(env_pre2.alphabet.gen("t"))

    def test_unknown_name_refused(self, env_pre2):
        with pytest.raises(ValueError):
            embed(env_pre2, "z")
        with pytest.raises(ValueError):
            embed(env_pre2, LinComb({"z": 1}))

    def test_by_combination(self, env_pre2):
        x = LinComb({"u": 2, "t": -1})
        got = embed(env_pre2, x)
        al = env_pre2.alphabet
        assert got == LinComb({al.gen("u"): 2, al.gen("t"): -1})

    def test_multiplicative_on_the_table(self, env):
        alg = env.algebra
        for x, y in itertools.product(alg.names, repeat=2):
            lhs = env.mult_comb(env.apply_r(embed(env, x)), embed(env, y))
            assert lhs == embed(env, alg.dot.get((x, y), {}))


class TestPBWCounts:
    def test_matches_abelianized_counts(self, env):
        ours = pbw_table(env, 3, 2)
        flat = pbw_table(EnvContext(abelianize(env.algebra)), 3, 2)
        assert ours == flat

    def test_frozen_so3_table(self, env_so3):
        got = pbw_table(env_so3, 3, 2)
        assert dict(got) == {
            (1, 0): 3, (1, 1): 3, (1, 2): 3,
            (2, 2): 9, (3, 2): 18,
        }

    def test_one_dim_weight_zero_table(self, env_one):
        got = pbw_table(env_one, 3, 2)
        # towers R^k(e) at (1, k); brackets need two R-free slots
        assert got[(1, 0)] == 1 and got[(1, 1)] == 1 and got[(1, 2)] == 1
        assert got[(2, 2)] > 0
