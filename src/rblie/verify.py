"""Randomized and exhaustive property checks over straightening contexts.

Every check returns a Report whose line() reads PASS/FAIL with a counted
sample size and, on failure, the first witness.  Sampling uses the
in-house xorshift generator so a reported seed replays exactly.

Properties by name (the CLI exposes the same names):

  anticomm      u*v + v*u vanishes on sampled basis pairs
  jacobi        the cyclic triple sum vanishes on sampled basis triples
  rb            the operator obeys its weight-lambda composition law
  derived-pre   x.y = R(x)*y is left pre-Lie (weight 0 contexts)
  derived-post  the same product plus the ambient bracket is post-Lie
                (weight 1 contexts)
  assump        products stay inside the expected bidegree box and the
                top-degree part uses exactly the combined letters
  pbw           enveloping basis counts per bidegree match the counts
                over the abelianized table
  reduce-hom    reduction to the enveloping basis is a homomorphism from
                the free operator algebra, landing inside the basis
  enum-oracles  enumeration counts match closed-form and brute-force
                oracles
"""

from __future__ import annotations

from collections import Counter

from .algebras import (
    Report, abelianize, jacobi_residue, post_lie_residues, pre_lie_residue, rb_residue,
)
from .free_rb import FreeRBContext
from .rng import XorShift64
from .straighten import bidegree_words, enumerate_basis
from .terms import Br, atoms, compare_words, sort_words_descending

__all__ = [
    "PROPERTIES", "run_property", "sample_basis",
    "check_anticomm", "check_jacobi", "check_rb_property", "check_derived",
    "check_graded_shape", "check_pbw", "check_reduce_hom", "check_spanning",
    "check_enum_oracles", "all_operator_words", "witt_count",
]

PROPERTIES = (
    "anticomm", "jacobi", "rb", "derived-pre", "derived-post",
    "assump", "pbw", "reduce-hom", "enum-oracles",
)


def sample_basis(ctx, max_deg, max_rdeg, seed, count, arity):
    """`count` tuples of basis words, drawn with replacement."""
    words = enumerate_basis(ctx, max_deg, max_rdeg)
    if not words:
        raise ValueError("no basis words within the given bounds")
    rng = XorShift64(seed)
    return [tuple(rng.choice(words) for _ in range(arity)) for _ in range(count)]


def _wit(words):
    return "(%s)" % " | ".join(str(w) for w in words)


def _law(name, cases, residue):
    """Report `name` over `cases`, one `_wit` witness per nonzero residue."""
    return Report.over(name, cases, lambda *case: [_wit(case)] if residue(*case) else [])


def check_anticomm(ctx, pairs):
    return _law("anticomm", pairs, lambda u, v: ctx.mult(u, v) + ctx.mult(v, u))


def check_jacobi(ctx, triples):
    return _law("jacobi", triples, lambda u, v, w: jacobi_residue(ctx.mult_comb, u, v, w))


def check_rb_property(ctx, pairs):
    return _law("rb weight %d" % ctx.weight, pairs,
                lambda u, v: rb_residue(ctx.mult_comb, ctx.apply_r, ctx.weight, u, v))


def check_derived(ctx, triples):
    """The pre-Lie or post-Lie law for x.y = R(x)*y, per the context weight."""
    m = ctx.mult_comb

    def dot(a, b):
        return m(ctx.apply_r(a), b)

    if ctx.weight:
        return _law("derived-post", triples,
                    lambda u, v, w: any(post_lie_residues(dot, m, u, v, w)))
    return _law("derived-pre", triples, lambda u, v, w: pre_lie_residue(dot, u, v, w))


def check_graded_shape(ctx, pairs):
    """Outputs of u*v stay within (deg u + deg v, rdeg u + rdeg v); the part
    at full letter degree permutes exactly the letters of u and v, and each
    such word is a bracket whose right factor is >= the smaller operand."""
    def violations(u, v):
        dtop = u.deg + v.deg
        rtop = u.degr + v.degr
        expected = Counter(atoms(u)) + Counter(atoms(v))
        smaller = u if compare_words(u, v) < 0 else v
        for w in ctx.mult(u, v):
            if w.deg > dtop or w.degr > rtop:
                fault = "overflow"
            elif w.deg == dtop and Counter(atoms(w)) != expected:
                fault = "letters"
            elif w.deg == dtop and (not isinstance(w, Br) or compare_words(w.right, smaller) < 0):
                fault = "leading shape"
            else:
                continue
            return ["%s %s %s" % (_wit((u, v)), fault, w)]
        return []

    return Report.over("assump", pairs, violations)


def check_pbw(ctx, max_deg, max_rdeg):
    """Basis counts per (letter degree, operator degree) are blind to the
    structure constants: the abelianized table yields identical counts.
    The report's rows are the counts over this context's table."""
    from .enveloping import EnvContext, pbw_table

    report = Report("pbw deg<=%d rdeg<=%d" % (max_deg, max_rdeg))
    flat = EnvContext(abelianize(ctx.algebra))
    ours = report.rows = pbw_table(ctx, max_deg, max_rdeg)
    theirs = pbw_table(flat, max_deg, max_rdeg)
    report.checked = sum(ours.values())
    for key in sorted(set(ours) | set(theirs)):
        if ours.get(key, 0) != theirs.get(key, 0):
            report.violations.append(
                "bidegree %s: %d here, %d abelianized"
                % (key, ours.get(key, 0), theirs.get(key, 0)))
    return report


def check_reduce_hom(ctx, max_deg, max_rdeg, seed, count):
    """evaluate(u*v) == evaluate(u) * evaluate(v) across the free-to-
    enveloping reduction, with every output inside the enveloping basis.
    Each free product gets the same step budget as the enveloping ones."""
    free = FreeRBContext(ctx.alphabet, weight=ctx.weight)
    free.fuel_limit = ctx.fuel_limit

    def violations(u, v):
        lhs = ctx.evaluate(free.mult(u, v))
        if lhs - ctx.mult_comb(ctx.evaluate(u), ctx.evaluate(v)):
            return [_wit((u, v))]
        return ["%s escapes basis via %s" % (_wit((u, v)), w)
                for w in _strays(ctx, lhs)[:1]]

    return Report.over("reduce-hom", sample_basis(free, max_deg, max_rdeg, seed, count, 2),
                       violations)


def _strays(ctx, comb):
    return [w for w in comb if not ctx.is_basis_word(w)]


def all_operator_words(alphabet, max_deg, max_rdeg):
    """Every bracketing over generators and R within the bidegree bounds,
    basis-shaped or not, in build order.  Grows fast; keep the bounds small."""
    return bidegree_words(alphabet, max_deg, max_rdeg, lambda p, q: True)


def check_spanning(ctx, max_deg, max_rdeg):
    """Every operator word reduces to a combination of basis words."""
    return Report.over(
        "spanning deg<=%d rdeg<=%d" % (max_deg, max_rdeg),
        ((w,) for w in all_operator_words(ctx.alphabet, max_deg, max_rdeg)),
        lambda w: ["%s reduces onto non-basis %s" % (w, t)
                   for t in _strays(ctx, ctx.evaluate(w))[:1]])


def _mobius(n):
    result = 1
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def witt_count(k, n):
    """Dimension of the degree-n slice of the free Lie algebra on k letters."""
    total = sum(_mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def check_enum_oracles():
    from .pcls import LSContext, PCLSContext, CommGraph
    from .terms import Alphabet

    report = Report("enum-oracles")
    ls = LSContext(Alphabet(("a", "b")))
    listed_ls = enumerate_basis(ls, 6)
    per_deg = Counter(w.deg for w in listed_ls)
    for n in range(1, 7):
        want = witt_count(2, n)
        report.checked += 1
        if per_deg.get(n, 0) != want:
            report.violations.append(
                "free Lie on 2 letters, degree %d: %d words, closed form %d"
                % (n, per_deg.get(n, 0), want))
    pcls = PCLSContext(Alphabet(("a", "b", "c")), CommGraph(("a", "b", "c"), (("a", "b"),)))
    for label, ctx, deg, listed in (("free Lie basis", ls, 6, listed_ls),
                                    ("commuting-pair basis", pcls, 4, enumerate_basis(pcls, 4))):
        brute = {w for w in all_operator_words(ctx.alphabet, deg, 0) if ctx.is_basis_word(w)}
        report.checked += 1
        diff = brute ^ set(listed)
        if diff:
            report.violations.append(
                "%s, degree <= %d: filter and builder disagree on %s"
                % (label, deg, min(sort_words_descending(diff), key=lambda w: w.deg)))
    return report


def run_property(prop, ctx, seed=1, count=200, max_deg=3, max_rdeg=2):
    """Dispatch a named property against a context; Report out."""
    if prop not in PROPERTIES:
        raise ValueError("unknown property %r" % (prop,))
    if prop == "enum-oracles":
        return check_enum_oracles()
    if ctx is None:
        raise ValueError("property %r needs a context" % (prop,))
    needs_operator = prop in ("rb", "derived-pre", "derived-post", "pbw", "reduce-hom")
    if needs_operator and not ctx.supports_operator:
        raise ValueError("property %r needs an operator context" % (prop,))
    if prop == "derived-pre" and ctx.weight != 0:
        raise ValueError("derived-pre applies to weight 0 contexts")
    if prop == "derived-post" and ctx.weight != 1:
        raise ValueError("derived-post applies to weight 1 contexts")
    if prop in ("pbw", "reduce-hom") and not hasattr(ctx, "algebra"):
        raise ValueError("property %r needs an enveloping context" % (prop,))

    if prop == "anticomm":
        return check_anticomm(ctx, sample_basis(ctx, max_deg, max_rdeg, seed, count, 2))
    if prop == "jacobi":
        return check_jacobi(ctx, sample_basis(ctx, max_deg, max_rdeg, seed, count, 3))
    if prop == "rb":
        return check_rb_property(ctx, sample_basis(ctx, max_deg, max_rdeg, seed, count, 2))
    if prop in ("derived-pre", "derived-post"):
        return check_derived(ctx, sample_basis(ctx, max_deg, max_rdeg, seed, count, 3))
    if prop == "assump":
        return check_graded_shape(ctx, sample_basis(ctx, max_deg, max_rdeg, seed, count, 2))
    if prop == "pbw":
        return check_pbw(ctx, max_deg, max_rdeg)
    return check_reduce_hom(ctx, max_deg, max_rdeg, seed, count)
