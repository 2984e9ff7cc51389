"""The acceptance gate: every shipped guarantee, checked at its stated
bounds.  Each test covers one numbered criterion and records a summary
line; the terminal summary prints the full scoreboard.
"""

import itertools

import pytest

from conftest import TEST_ALGEBRA_MAKERS
from rblie.algebras import StructureAlgebra, abelianize
from rblie.enveloping import EnvContext, embed, pbw_table
from rblie.free_rb import FreeRBContext
from rblie.lincomb import LinComb
from rblie.pcls import CommGraph, LSContext, PCLSContext
from rblie.straighten import enumerate_basis
from rblie.terms import Alphabet, Br, Gen, RApp
from rblie.verify import (
    all_operator_words,
    check_anticomm,
    check_derived,
    check_enum_oracles,
    check_graded_shape,
    check_jacobi,
    check_rb_property,
    check_reduce_hom,
    check_spanning,
    run_property,
    sample_basis,
    witt_count,
)

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def envs():
    return {name: EnvContext(make()) for name, make in TEST_ALGEBRA_MAKERS.items()}


def exhaustive(ctx, max_deg, max_rdeg, arity):
    words = enumerate_basis(ctx, max_deg, max_rdeg)
    return list(itertools.product(words, repeat=arity))


def test_criterion_1_word_enumeration(criterion):
    failures = []
    counts = [len([w for w in enumerate_basis(LSContext(AB), 6) if w.deg == n]) for n in range(1, 7)]
    if counts != [2, 1, 2, 3, 6, 9]:
        failures.append("two-letter degree counts %s" % counts)
    for n in range(1, 7):
        if counts[n - 1] != witt_count(2, n):
            failures.append("degree %d disagrees with the closed form" % n)
    report = check_enum_oracles()
    if not report.passed:
        failures.extend(report.violations)
    criterion(1, "basis enumeration matches closed form and filtering", failures)


def test_criterion_2_partial_commutation(criterion):
    failures = []
    if enumerate_basis(PCLSContext(ABC, CommGraph.empty(ABC)), 5) != enumerate_basis(LSContext(ABC), 5):
        failures.append("empty graph differs from the free basis")
    if enumerate_basis(PCLSContext(ABC, CommGraph.complete(ABC)), 5) != list(ABC.gens()):
        failures.append("complete graph kept a bracket word")
    path = CommGraph(ABC.names, [("a", "b"), ("b", "c")])
    ctx = PCLSContext(ABC, path)
    for x, y in (("a", "b"), ("b", "c")):
        if not ctx.mult_comb(ABC.gen(x), ABC.gen(y)).is_zero:
            failures.append("adjacent pair (%s,%s) did not vanish" % (x, y))
    criterion(2, "commutation graphs prune the basis and kill edge brackets", failures)


def test_criterion_3_free_operator_identities(criterion):
    failures = []
    for weight in (0, 1):
        ctx = FreeRBContext(AB, weight=weight)
        pairs = exhaustive(ctx, 2, 1, 2)
        triples = exhaustive(ctx, 2, 1, 3)
        for report in (
            check_anticomm(ctx, pairs),
            check_jacobi(ctx, triples),
            check_rb_property(ctx, pairs),
            check_anticomm(ctx, sample_basis(ctx, 3, 2, seed=21, count=500, arity=2)),
            check_jacobi(ctx, sample_basis(ctx, 3, 2, seed=22, count=500, arity=3)),
            check_rb_property(ctx, sample_basis(ctx, 3, 2, seed=23, count=500, arity=2)),
        ):
            if not report.passed:
                failures.append("weight %d: %s" % (weight, report.line()))
    w0 = enumerate_basis(FreeRBContext(AB, weight=0), 3, 2)
    w1 = enumerate_basis(FreeRBContext(AB, weight=1), 3, 2)
    if w0 != w1:
        failures.append("basis words depend on the weight")
    criterion(3, "free operator algebra identities, both weights", failures)


def test_criterion_4_derived_laws(criterion):
    failures = []
    for weight in (0, 1):
        ctx = FreeRBContext(AB, weight=weight)
        for report in (
            check_derived(ctx, exhaustive(ctx, 2, 1, 3)),
            check_derived(ctx, sample_basis(ctx, 3, 2, seed=31, count=500, arity=3)),
        ):
            if not report.passed:
                failures.append("weight %d: %s" % (weight, report.line()))
    criterion(4, "derived pre-Lie and post-Lie laws", failures)


def test_criterion_5_enveloping_identities(criterion):
    failures = []
    for name, ctx in envs().items():
        pairs = exhaustive(ctx, 2, 1, 2)
        triples = exhaustive(ctx, 2, 1, 3)
        reports = [
            check_anticomm(ctx, pairs),
            check_jacobi(ctx, triples),
            check_rb_property(ctx, pairs),
            check_derived(ctx, triples),
            check_anticomm(ctx, sample_basis(ctx, 3, 2, seed=41, count=500, arity=2)),
            check_jacobi(ctx, sample_basis(ctx, 3, 2, seed=42, count=500, arity=3)),
            check_rb_property(ctx, sample_basis(ctx, 3, 2, seed=43, count=500, arity=2)),
            check_derived(ctx, sample_basis(ctx, 3, 2, seed=44, count=500, arity=3)),
        ]
        for report in reports:
            if not report.passed:
                failures.append("%s: %s" % (name, report.line()))
        failures.extend(_case_identity_failures(name, ctx))
        failures.extend(_derivation_failures(name, ctx))
    criterion(5, "enveloping contexts satisfy every operator identity", failures)


def _case_identity_failures(name, ctx):
    out = []
    alg = ctx.algebra
    for x, y in itertools.product(alg.names, repeat=2):
        raw = Br(RApp(ctx.alphabet.gen(x)), ctx.alphabet.gen(y))
        if ctx.evaluate(raw) != embed(ctx, alg.dot.get((x, y), {})):
            out.append("%s: [R(%s),%s] missed the table" % (name, x, y))
        if ctx.algebra.kind == "post":
            raw = Br(ctx.alphabet.gen(x), ctx.alphabet.gen(y))
            if ctx.evaluate(raw) != embed(ctx, alg.bracket.get((x, y), {})):
                out.append("%s: [%s,%s] missed the bracket" % (name, x, y))
    return out


def _derivation_failures(name, ctx):
    out = []
    words = enumerate_basis(ctx, 3, 2)
    rletters = [w for w in words if isinstance(w, RApp)][:3]
    targets = [w for w in words if isinstance(w, Br)]
    for rl in rletters:
        for z in targets:
            want = ctx.mult_comb(ctx.mult(rl, z.left), LinComb.single(z.right))
            want += ctx.mult_comb(LinComb.single(z.left), ctx.mult(rl, z.right))
            if ctx.mult(rl, z) != want:
                out.append("%s: R-letter %s fails Leibniz on %s"
                           % (name, rl, z))
    return out


def test_criterion_6_reduction(criterion):
    failures = []
    for name, ctx in envs().items():
        bound = 3 if ctx.algebra.dim <= 2 else 2
        spanning = check_spanning(ctx, bound, 2)
        if not spanning.passed:
            failures.append("%s: %s" % (name, spanning.line()))
        hom = check_reduce_hom(ctx, 3, 2, seed=51, count=300)
        if not hom.passed:
            failures.append("%s: %s" % (name, hom.line()))
    criterion(6, "reduction lands in the basis and is a homomorphism", failures)


def test_criterion_7_pbw_counts(criterion):
    failures = []
    for name, ctx in envs().items():
        ours = pbw_table(ctx, 4, 2)
        flat = pbw_table(EnvContext(abelianize(ctx.algebra)), 4, 2)
        if ours != flat:
            failures.append("%s: counts moved under abelianization" % name)
        shape = check_graded_shape(ctx, sample_basis(ctx, 3, 2, seed=61, count=300, arity=2))
        if not shape.passed:
            failures.append("%s: %s" % (name, shape.line()))
    criterion(7, "basis counts are structure-blind and products keep their shape",
              failures)


def test_criterion_8_negative_controls(criterion):
    failures = []
    broken = StructureAlgebra(
        ("u", "t"), "pre",
        dot={("u", "u"): {"u": 1}, ("u", "t"): {"t": 1}, ("t", "u"): {"u": 1}},
    )
    try:
        EnvContext(broken)
        failures.append("a failing table was accepted")
    except ValueError:
        pass
    if broken.validate().passed:
        failures.append("the corrupt table validated")

    ctx = EnvContext(TEST_ALGEBRA_MAKERS["one_dim"]())
    ctx.corrupt_sign = True
    report = run_property("jacobi", ctx, seed=1, count=60, max_deg=3, max_rdeg=2)
    if report.passed:
        failures.append("the corrupted rewrite rule slipped past the Jacobi check")
    elif "witness=" not in report.line():
        failures.append("the Jacobi failure carried no witness")
    criterion(8, "corrupted tables and rules are caught", failures)
