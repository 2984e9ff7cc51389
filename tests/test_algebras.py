"""Structure-constant tables, their laws, and the text format."""

import itertools

import pytest

from conftest import dual_numbers_pre, one_dim_pre, pre_as_post, so3_post
from rblie.algebras import (
    StructureAlgebra,
    abelianize,
    derivation_prelie_example,
    format_algebra,
    load_algebra,
    parse_algebra_text,
    rb_residue,
)
from rblie.free_rb import FreeRBContext
from rblie.lincomb import LinComb
from rblie.straighten import enumerate_basis
from rblie.verify import check_derived


class TestConstruction:
    def test_unknown_table_name_rejected(self):
        with pytest.raises(ValueError):
            StructureAlgebra(("e",), "pre", dot={("e", "f"): {"e": 1}})
        with pytest.raises(ValueError):
            StructureAlgebra(("e",), "pre", dot={("e", "e"): {"f": 1}})

    def test_kind_constrains_tables(self):
        with pytest.raises(ValueError):
            StructureAlgebra(("e",), "pre", bracket={("e", "e"): {"e": 1}})
        with pytest.raises(ValueError):
            StructureAlgebra(("e",), "lie", dot={("e", "e"): {"e": 1}})

    def test_zero_entries_dropped(self):
        alg = StructureAlgebra(("e",), "pre", dot={("e", "e"): {"e": 0}})
        assert alg.dot == {}

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            StructureAlgebra(("e",), "prelie")


class TestValidators:
    def test_all_fixtures_pass(self, test_algebra):
        report = test_algebra.validate()
        assert report.passed, report.line()
        assert report.line().startswith("PASS ")
        assert "checked=" in report.line()

    def test_corrupt_constant_is_caught(self):
        alg = dual_numbers_pre()
        broken = dict(alg.dot)
        broken[("t", "u")] = {"u": 1}
        bad = StructureAlgebra(alg.names, "pre", dot=broken)
        report = bad.validate()
        assert not report.passed
        line = report.line()
        assert line.startswith("FAIL ")
        assert "witness=" in line and "residue=" in line

    def test_zero_dot_needs_a_lie_bracket(self):
        # a bracket violating the Jacobi identity must fail even with
        # the product identically zero
        bad = StructureAlgebra(
            ("a", "b", "c"),
            "post",
            dot={},
            bracket={
                ("a", "b"): {"c": 1},
                ("b", "a"): {"c": -1},
                ("b", "c"): {"b": 1},
                ("c", "b"): {"b": -1},
                ("c", "a"): {"b": 1},
                ("a", "c"): {"b": -1},
            },
        )
        report = bad.validate()
        # J(a,b,c) = [c,c] + [b,a] + [b,b] = -c
        assert not report.passed
        assert "jacobi" in report.line() or "triple" in report.line()

    def test_asymmetric_bracket_is_caught(self):
        bad = StructureAlgebra(("a", "b"), "lie", bracket={("a", "b"): {"a": 1}})
        report = bad.validate()
        assert not report.passed
        assert "pair=" in report.line()

    def test_pre_table_works_as_post_with_zero_bracket(self):
        assert pre_as_post().validate().passed

    # Golden reports: the exact line, count and witness list, in order.

    def test_golden_pre_report(self):
        alg = load_algebra("demos/algebras/two_dim.alg")
        dot = dict(alg.dot)
        dot[("t", "u")] = {"u": 1}
        report = StructureAlgebra(alg.names, "pre", dot=dot).validate()
        assert report.line() == "FAIL pre-lie(u,t) checked=8 witness=triple=(u,t,t) residue=-t"
        assert report.checked == 8
        assert report.violations == ["triple=(u,t,t) residue=-t", "triple=(t,u,t) residue=t"]

    def test_golden_lie_report(self):
        report = StructureAlgebra(("a", "b"), "lie", bracket={("a", "b"): {"a": 1}}).validate()
        assert report.line() == "FAIL lie(a,b) checked=12 witness=pair=(a,b) residue=a"
        assert report.checked == 12
        assert report.violations == [
            "pair=(a,b) residue=a", "pair=(b,a) residue=a",
            "triple=(a,b,b) residue=a", "triple=(b,a,b) residue=a", "triple=(b,b,a) residue=a",
        ]

    def test_golden_post_report(self):
        alg = load_algebra("demos/algebras/so3_post.alg")
        dot = dict(alg.dot)
        dot[("a", "a")] = {"a": 1}
        report = StructureAlgebra(alg.names, "post", dot=dot, bracket=alg.bracket).validate()
        assert report.line() == (
            "FAIL post-lie(a,b,c) checked=63 witness=bracket-law triple=(a,a,b) residue=-c")
        assert report.checked == 63
        assert report.violations == [
            "bracket-law triple=(a,a,b) residue=-c", "bracket-law triple=(a,a,c) residue=b",
            "bracket-law triple=(a,b,a) residue=c", "bracket-law triple=(a,b,c) residue=a",
            "bracket-law triple=(a,c,a) residue=-b", "bracket-law triple=(a,c,b) residue=-a",
            "product-law triple=(b,c,a) residue=a", "product-law triple=(c,b,a) residue=-a",
        ]

    def test_golden_passing_report(self):
        report = load_algebra("demos/algebras/so3_post.alg").validate()
        assert (report.line(), report.checked, report.violations) == (
            "PASS post-lie(a,b,c) checked=63", 63, [])


class TestAbelianize:
    def test_tables_cleared(self, test_algebra):
        flat = abelianize(test_algebra)
        assert flat.dot == {} and flat.bracket == {}
        assert flat.names == test_algebra.names
        assert flat.kind == test_algebra.kind
        assert flat.validate().passed

    def test_idempotent(self):
        flat = abelianize(so3_post())
        assert abelianize(flat) == flat


class TestDerivationExample:
    def test_one_variable_order_one(self):
        alg = derivation_prelie_example(1, 1)
        assert alg.names == ("x1d1",)
        assert alg.dot[("x1d1", "x1d1")] == LinComb.single("x1d1")

    def test_one_variable_order_two(self):
        alg = derivation_prelie_example(1, 2)
        assert alg.names == ("x1d1", "x2d1")
        # x^2 d . x^2 d lands in degree 3 and is truncated away
        assert ("x2d1", "x2d1") not in alg.dot
        assert alg.dot[("x1d1", "x2d1")] == LinComb.single("x2d1", 2)
        assert alg.dot[("x2d1", "x1d1")] == LinComb.single("x2d1")

    def test_two_variables_order_one(self):
        alg = derivation_prelie_example(2, 1)
        assert set(alg.names) == {"x01d1", "x01d2", "x10d1", "x10d2"}
        assert alg.dot[("x10d2", "x01d1")] == LinComb.single("x10d1")
        assert ("x10d2", "x10d1") not in alg.dot

    def test_validates_its_own_law(self):
        for n, m in ((1, 3), (2, 2), (3, 1)):
            assert derivation_prelie_example(n, m).validate().passed

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            derivation_prelie_example(0, 1)
        with pytest.raises(ValueError):
            derivation_prelie_example(1, 0)


def _element_pairs(ab):
    words = enumerate_basis(FreeRBContext(ab), 2, 1)
    singles = [LinComb.single(w) for w in words]
    mixed = singles[0] + singles[-1].scaled(2)
    return [(x, y) for x, y in itertools.product(singles + [mixed], repeat=2)]


def _rb_residues(ctx, operator, pairs):
    return [rb_residue(ctx.mult_comb, operator, ctx.weight, x, y) for x, y in pairs]


class TestRBView:
    @pytest.mark.parametrize("weight", [0, 1])
    def test_operator_law_holds(self, ab, weight):
        ctx = FreeRBContext(ab, weight=weight)
        assert not any(_rb_residues(ctx, ctx.apply_r, _element_pairs(ab)))

    def test_additive_corruption_fails(self, ab):
        # R + id breaks the weight-0 law (2R would not: the law is
        # quadratic on the left and linear inside, but scaling by 2
        # also doubles the inner term, so it cancels)
        ctx = FreeRBContext(ab, weight=0)
        assert any(_rb_residues(ctx, lambda x: ctx.apply_r(x) + x, _element_pairs(ab)))

    def test_scaling_is_not_a_control(self, ab):
        ctx = FreeRBContext(ab, weight=0)
        assert not any(_rb_residues(ctx, lambda x: ctx.apply_r(x).scaled(2), _element_pairs(ab)))


def _basis_triples(ctx):
    return list(itertools.product(enumerate_basis(ctx, 2, 1), repeat=3))


class TestDerivedStructure:
    def test_weight_zero_gives_pre_lie(self, ab):
        ctx = FreeRBContext(ab, weight=0)
        report = check_derived(ctx, _basis_triples(ctx))
        assert report.name == "derived-pre" and report.passed, report.line()

    def test_weight_one_gives_post_lie(self, ab):
        ctx = FreeRBContext(ab, weight=1)
        report = check_derived(ctx, _basis_triples(ctx))
        assert report.name == "derived-post" and report.passed, report.line()


class TestTextFormat:
    def test_parse_minimal(self):
        alg = parse_algebra_text("basis e\ndot e e = e\n")
        assert alg.kind == "pre"
        assert alg == one_dim_pre()

    def test_kind_inference(self):
        assert parse_algebra_text("basis e\nbracket e e = 0\n").kind == "lie"
        both = "basis a b\ndot a b = b\nbracket a b = -b\nbracket b a = b\n"
        assert parse_algebra_text(both).kind == "post"

    def test_explicit_kind_wins(self):
        alg = parse_algebra_text("kind post\nbasis u t\ndot u t = t\n")
        assert alg.kind == "post"

    def test_comments_and_blank_lines(self):
        text = "# title\n\nkind pre\nbasis e\n# the only entry\ndot e e = e\n"
        assert parse_algebra_text(text) == one_dim_pre()

    def test_roundtrip_is_bit_exact(self, test_algebra):
        text = format_algebra(test_algebra)
        again = parse_algebra_text(text)
        assert again == test_algebra
        assert format_algebra(again) == text

    def test_fractional_coefficients_survive(self):
        text = "kind pre\nbasis u t\ndot u u = 1/2*u - 3/2*t\n"
        alg = parse_algebra_text(text)
        assert format_algebra(alg) == "kind pre\nbasis u t\ndot u u = 1/2*u - 3/2*t\n"

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("dot e e = e\n", "missing basis"),
            ("basis e\nbasis e\n", "line 2"),
            ("kind pre\nkind pre\nbasis e\n", "line 2"),
            ("kind banana\nbasis e\n", "line 1"),
            ("basis e\ndot e = e\n", "line 2"),
            ("basis e\ndot e f = e\n", "line 2"),
            ("basis e\ndot e e = f\n", "line 2"),
            ("basis e\ndot e e = e\ndot e e = 0\n", "line 3"),
            ("basis e\nproduct e e = e\n", "line 2"),
            ("basis e\ndot e e = [e,e]\n", "line 2"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_algebra_text(text)

    def test_demo_files_match_fixtures(self):
        from rblie.algebras import load_algebra

        for path, make in (
            ("demos/algebras/one_dim.alg", one_dim_pre),
            ("demos/algebras/two_dim.alg", dual_numbers_pre),
            ("demos/algebras/so3_post.alg", so3_post),
            ("demos/algebras/pre_as_post.alg", pre_as_post),
        ):
            assert load_algebra(path) == make()
