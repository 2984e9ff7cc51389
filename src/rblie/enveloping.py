"""Enveloping operator Lie algebras of pre-Lie and post-Lie structures.

Given a finite-dimensional pre-Lie algebra (weight 0) or post-Lie algebra
(weight 1) with basis X, the construction is spanned by a set E of
words built from X and the operator letter R.  A word lies in E when

  * it is a generator, or
  * it is R(w) for some w in E, or
  * it is a bracket word whose letters are generators and R-letters
    R(w) with w in E but not a generator, shaped like a partially
    commutative basis word for the graph that joins every pair of
    R-letters; for weight 1 every bracket node must contain at least
    one R symbol.

Products of E-words straighten back into E through the generic engine plus
three letter rules: R-against-R is the Rota-Baxter composition, [R(x), y]
for generators x, y is the stored product x.y, and for weight 1 [x, y] on
generators is the stored bracket.  Bracket words excluded from E are
exactly the ones those rules rewrite, so reduction terminates in E and
`EnvContext.evaluate` takes any expression to coordinates.
"""

from __future__ import annotations

from collections import Counter

from .free_rb import FreeRBContext
from .lincomb import LinComb
from .straighten import enumerate_basis
from .terms import Gen, RApp

__all__ = ["EnvContext", "embed", "pbw_table"]


class EnvContext(FreeRBContext):
    """Straightening context for the enveloping algebra of a structure table.

    The table is validated on construction: a table violating its own
    law would poison every downstream identity, so this fails closed.
    """

    def __init__(self, algebra):
        if algebra.kind not in ("pre", "post"):
            raise ValueError("enveloping construction needs a pre or post table, got %r"
                             % (algebra.kind,))
        report = algebra.validate()
        if not report.passed:
            raise ValueError("refusing a table that fails its law: %s" % report.line())
        super().__init__(algebra.alphabet, weight=0 if algebra.kind == "pre" else 1)
        self.algebra = algebra

    def _lift(self, entry):
        out = LinComb()
        if entry:
            for name, coeff in entry.items():
                out.iadd(self.alphabet.gen(name), coeff)
        return out

    def letter_rule(self, u, v, fuel):
        if isinstance(v, RApp):
            return super().letter_rule(u, v, fuel)
        if isinstance(u, RApp):
            if isinstance(u.arg, Gen):
                return self._lift(self.algebra.dot.get((u.arg.name, v.name)))
            return None
        if self.weight:
            return self._lift(self.algebra.bracket.get((u.name, v.name)))
        return None

    def bracket_ok(self, p, q):
        # R-letters of bracket words wrap non-generators, and for weight 1
        # every bracket node holds an R (see the module docstring); as p and
        # q are basis words, [p,q] holds one unless both are generators
        if _r_of_gen(p) or _r_of_gen(q):
            return False
        if self.weight and isinstance(p, Gen) and isinstance(q, Gen):
            return False
        return super().bracket_ok(p, q)


def _r_of_gen(w):
    return isinstance(w, RApp) and isinstance(w.arg, Gen)


def embed(ctx, x):
    """The generator-level copy of an element of the underlying algebra,
    given as a basis name or a LinComb over names."""
    return ctx._lift({x: 1} if isinstance(x, str) else x)


def pbw_table(ctx, max_deg, max_rdeg):
    """Counter mapping (generator-degree, operator-degree) to the number of
    basis words of that bidegree."""
    return Counter((w.xdeg, w.degr) for w in enumerate_basis(ctx, max_deg, max_rdeg))
