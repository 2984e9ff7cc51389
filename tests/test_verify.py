"""The property-check harness and its deterministic sampler."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TEST_ALGEBRA_MAKERS, one_dim_pre, so3_post
from rblie.algebras import load_algebra
from rblie.enveloping import EnvContext
from rblie.free_rb import FreeRBContext
from rblie.lincomb import LinComb
from rblie.pcls import LSContext
from rblie.rng import XorShift64
from rblie.straighten import BasisContext
from rblie.terms import Alphabet, Br, Gen
from rblie.verify import (
    PROPERTIES,
    check_enum_oracles,
    check_graded_shape,
    check_pbw,
    check_spanning,
    run_property,
    sample_basis,
    witt_count,
)


class TestXorShift:
    def test_update_rule(self):
        # one hand-computed step of the 13/7/17 xorshift
        rng = XorShift64(1)
        x = 1
        x ^= (x << 13) & ((1 << 64) - 1)
        x ^= x >> 7
        x ^= (x << 17) & ((1 << 64) - 1)
        assert rng.next64() == x

    def test_zero_seed_is_replaced(self):
        rng = XorShift64(0)
        assert rng.state == 0x9E3779B97F4A7C15

    def test_determinism(self):
        a = XorShift64(42)
        b = XorShift64(42)
        assert [a.next64() for _ in range(20)] == [b.next64() for _ in range(20)]

    def test_seed_masked_to_64_bits(self):
        assert XorShift64(1 << 64).state == 0x9E3779B97F4A7C15
        assert XorShift64((1 << 64) + 5).state == 5

    def test_randrange_bounds(self):
        rng = XorShift64(3)
        draws = [rng.randrange(7) for _ in range(200)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) > 1
        with pytest.raises(ValueError):
            rng.randrange(0)

    def test_choice_empty(self):
        with pytest.raises(ValueError):
            XorShift64(1).choice([])


class TestSampler:
    def test_replay(self, ab):
        ctx = FreeRBContext(ab)
        one = sample_basis(ctx, 3, 1, seed=9, count=50, arity=3)
        two = sample_basis(ctx, 3, 1, seed=9, count=50, arity=3)
        assert one == two
        assert len(one) == 50 and all(len(t) == 3 for t in one)

    def test_different_seeds_differ(self, ab):
        ctx = FreeRBContext(ab)
        one = sample_basis(ctx, 3, 1, seed=1, count=50, arity=2)
        two = sample_basis(ctx, 3, 1, seed=2, count=50, arity=2)
        assert one != two

    def test_empty_pool_is_an_error(self):
        ctx = EnvContext(so3_post())
        with pytest.raises(ValueError):
            # weight 1 words of positive operator degree need deg >= 1;
            # a zero-degree box holds nothing
            sample_basis(ctx, 0, 0, seed=1, count=1, arity=2)


class TestWittCount:
    @pytest.mark.parametrize(
        "k,n,want",
        [(2, 1, 2), (2, 2, 1), (2, 3, 2), (2, 4, 3), (2, 5, 6), (2, 6, 9),
         (3, 1, 3), (3, 2, 3), (3, 3, 8), (3, 4, 18), (3, 5, 48), (3, 6, 116)],
    )
    def test_table(self, k, n, want):
        assert witt_count(k, n) == want


class TestRunProperty:
    def test_unknown_property(self, ab):
        with pytest.raises(ValueError):
            run_property("curvature", FreeRBContext(ab))

    def test_operator_properties_reject_plain_contexts(self, ab):
        for prop in ("rb", "derived-pre", "reduce-hom"):
            with pytest.raises(ValueError):
                run_property(prop, LSContext(ab))

    def test_weight_gating(self, ab):
        with pytest.raises(ValueError):
            run_property("derived-post", FreeRBContext(ab, weight=0))
        with pytest.raises(ValueError):
            run_property("derived-pre", FreeRBContext(ab, weight=1))

    def test_env_only_properties(self, ab):
        for prop in ("pbw", "reduce-hom"):
            with pytest.raises(ValueError):
                run_property(prop, FreeRBContext(ab))

    def test_a_property_other_than_enum_oracles_needs_a_context(self):
        with pytest.raises(ValueError, match="^property 'jacobi' needs a context$"):
            run_property("jacobi", None)

    @pytest.mark.parametrize("prop", PROPERTIES)
    def test_each_property_runs_its_own_check(self, ab, prop):
        ctx = {"derived-post": FreeRBContext(ab, weight=1), "pbw": EnvContext(so3_post()),
               "reduce-hom": EnvContext(so3_post())}.get(prop, FreeRBContext(ab))
        report = run_property(prop, ctx, count=3, max_deg=2, max_rdeg=1)
        assert report.name.split()[0] == prop and report.checked and report.passed

    def test_enum_oracles_pass(self):
        report = check_enum_oracles()
        assert report.passed
        assert report.checked == 8

    def test_enum_oracles_witness_is_the_same_in_every_process(self):
        # a filter that drops every degree-3 word disagrees with the builder
        # on several words; the witness must not follow set iteration order,
        # which string hashing changes from one process to the next
        script = (
            "from rblie import straighten, verify\n"
            "rule = straighten.BasisContext.is_basis_word\n"
            "straighten.BasisContext.is_basis_word = "
            "lambda self, w: w.deg != 3 and rule(self, w)\n"
            "print(verify.check_enum_oracles().violations)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = {
            subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                           text=True, timeout=60,
                           env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
            for seed in ("1", "2", "3", "4")
        }
        assert outs == {
            "['free Lie basis, degree <= 6: filter and builder disagree on [a,[a,b]]', "
            "'commuting-pair basis, degree <= 4: filter and builder disagree on [a,[a,c]]']\n"
        }

    @pytest.mark.parametrize("prop", ["anticomm", "jacobi", "rb", "assump"])
    def test_free_contexts_pass(self, ab, prop):
        for weight in (0, 1):
            ctx = FreeRBContext(ab, weight=weight)
            report = run_property(prop, ctx, seed=1, count=60, max_deg=3, max_rdeg=1)
            assert report.passed, report.line()

    def test_derived_laws_pass(self, ab):
        r0 = run_property("derived-pre", FreeRBContext(ab, weight=0),
                          seed=1, count=40, max_deg=2, max_rdeg=1)
        r1 = run_property("derived-post", FreeRBContext(ab, weight=1),
                          seed=1, count=40, max_deg=2, max_rdeg=1)
        assert r0.passed and r1.passed

    @pytest.mark.parametrize("name", sorted(TEST_ALGEBRA_MAKERS))
    def test_env_contexts_pass_everything(self, name):
        ctx = EnvContext(TEST_ALGEBRA_MAKERS[name]())
        derived = "derived-post" if ctx.weight else "derived-pre"
        for prop in ("anticomm", "jacobi", "rb", derived, "assump", "pbw", "reduce-hom"):
            report = run_property(prop, ctx, seed=1, count=60, max_deg=3, max_rdeg=2)
            assert report.passed, "%s: %s" % (prop, report.line())

    def test_corrupted_rewrite_fails_jacobi_with_witness(self):
        ctx = EnvContext(one_dim_pre())
        ctx.corrupt_sign = True
        report = run_property("jacobi", ctx, seed=1, count=40, max_deg=3, max_rdeg=2)
        assert not report.passed
        line = report.line()
        assert line.startswith("FAIL jacobi")
        assert "witness=(" in line

    def test_report_line_shape(self, ab):
        report = run_property("anticomm", FreeRBContext(ab), count=25, max_deg=2, max_rdeg=1)
        assert report.line() == "PASS anticomm checked=25"


# The first four witnesses of the corrupted rewrite on free weight 0 and 1
# contexts, seed 1, six samples of bidegree at most (3, 1).
_CORRUPT_TRIPLES = [
    "([R([a,b]),a] | [a,b] | [R(b),[a,b]])",
    "([[R(b),a],a] | [R(a),b] | [R(a),a])",
    "([[R(b),a],a] | a | R(b))",
    "([R(a),[a,b]] | [[R(a),b],a] | [R([a,b]),a])",
]


def _golden(report):
    return report.line(), report.checked, report.violations


class TestGoldenReports:
    """The exact line, count and witness list of each check, in order."""

    @pytest.mark.parametrize("weight", [0, 1])
    def test_corrupt_jacobi(self, ab, weight):
        ctx = FreeRBContext(ab, weight=weight)
        ctx.corrupt_sign = True
        report = run_property("jacobi", ctx, seed=1, count=6, max_deg=3, max_rdeg=1)
        assert _golden(report) == (
            "FAIL jacobi checked=6 witness=" + _CORRUPT_TRIPLES[0], 6, _CORRUPT_TRIPLES)

    @pytest.mark.parametrize("weight,prop", [(0, "derived-pre"), (1, "derived-post")])
    def test_corrupt_derived(self, ab, weight, prop):
        ctx = FreeRBContext(ab, weight=weight)
        ctx.corrupt_sign = True
        report = run_property(prop, ctx, seed=1, count=6, max_deg=3, max_rdeg=1)
        first = "([R([a,b]),a] | [[R(b),b],a] | [R([a,b]),a])"
        # at weight 0 the third corrupted Jacobi triple still obeys the pre-Lie law
        rest = _CORRUPT_TRIPLES if weight else [_CORRUPT_TRIPLES[i] for i in (0, 1, 3)]
        assert _golden(report) == (
            "FAIL %s checked=6 witness=%s" % (prop, first), 6, [first] + rest)

    @pytest.mark.parametrize("weight", [0, 1])
    def test_passing_free_checks(self, ab, weight):
        ctx = FreeRBContext(ab, weight=weight)
        for prop, name in (("anticomm", "anticomm"), ("rb", "rb weight %d" % weight),
                           ("assump", "assump")):
            report = run_property(prop, ctx, seed=1, count=6, max_deg=3, max_rdeg=1)
            assert _golden(report) == ("PASS %s checked=6" % name, 6, [])
        assert _golden(check_spanning(ctx, 3, 1)) == (
            "PASS spanning deg<=3 rdeg<=1 checked=116", 116, [])

    @pytest.mark.parametrize("name,spanned", [("two_dim", 116), ("so3_post", 366)])
    def test_passing_env_checks(self, name, spanned):
        ctx = EnvContext(load_algebra("demos/algebras/%s.alg" % name))
        report = run_property("reduce-hom", ctx, seed=1, count=6, max_deg=3, max_rdeg=1)
        assert _golden(report) == ("PASS reduce-hom checked=6", 6, [])
        assert _golden(check_spanning(ctx, 3, 1)) == (
            "PASS spanning deg<=3 rdeg<=1 checked=%d" % spanned, spanned, [])

    def test_corrupt_reduce_hom(self):
        ctx = EnvContext(load_algebra("demos/algebras/two_dim.alg"))
        ctx.corrupt_sign = True
        report = run_property("reduce-hom", ctx, seed=3, count=30, max_deg=3, max_rdeg=1)
        assert _golden(report) == (
            "FAIL reduce-hom checked=30 witness=([[R(t),u],u] | [u,t])", 30,
            ["([[R(t),u],u] | [u,t])", "([[u,t],t] | [[R(u),t],u])"])


class TestNegativeControls:
    """Each check below fails, with its exact report line, on a context
    that breaks the rule the check guards."""

    def test_graded_shape_reports_an_overflowing_product(self, ab):
        class Overflow(LSContext):
            def letter_rule(self, u, v, fuel):
                return LinComb.single(Br(Br(u, v), Br(u, v)))

        a, b = ab.gens()
        assert check_graded_shape(Overflow(ab), [(a, b)]).line() == (
            "FAIL assump checked=1 witness=(a | b) overflow [[a,b],[a,b]]")

    def test_graded_shape_reports_a_product_with_other_letters(self, ab):
        class Repeat(LSContext):
            def letter_rule(self, u, v, fuel):
                return LinComb.single(Br(u, u))

        a, b = ab.gens()
        assert check_graded_shape(Repeat(ab), [(a, b)]).line() == (
            "FAIL assump checked=1 witness=(a | b) letters [a,a]")

    def test_graded_shape_reports_a_product_of_the_wrong_shape(self, ab):
        # [a,[b,b]] has the letters of [a,b] and b, but its right factor
        # [b,b] is below b, the smaller operand
        a, b = ab.gens()
        u = Br(a, b)

        class Misshapen(LSContext):
            def mult(self, x, y):
                if (x, y) == (u, b):
                    return LinComb.single(Br(a, Br(b, b)))
                return super().mult(x, y)

        assert check_graded_shape(Misshapen(ab), [(u, b)]).line() == (
            "FAIL assump checked=1 witness=([a,b] | b) leading shape [a,[b,b]]")

    def test_pbw_reports_a_structure_dependent_count(self):
        class Thin(EnvContext):
            def bracket_ok(self, p, q):
                if self.algebra.bracket and p.xdeg + q.xdeg == 3:
                    return False
                return super().bracket_ok(p, q)

        assert check_pbw(Thin(so3_post()), 3, 2).line() == (
            "FAIL pbw deg<=3 rdeg<=2 checked=18 "
            "witness=bidegree (3, 2): 0 here, 18 abelianized")

    def test_enum_oracles_report_a_count_off_the_closed_form(self, monkeypatch):
        # [b,a] becomes a basis word beside [a,b] in every graph context
        rule = BasisContext.bracket_ok

        def also_b_a(self, p, q):
            return rule(self, p, q) or (
                isinstance(p, Gen) and isinstance(q, Gen) and (p.name, q.name) == ("b", "a"))

        monkeypatch.setattr(BasisContext, "bracket_ok", also_b_a)
        assert check_enum_oracles().line() == (
            "FAIL enum-oracles checked=8 "
            "witness=free Lie on 2 letters, degree 2: 2 words, closed form 1")
