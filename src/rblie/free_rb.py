"""The free Lie algebra with a Rota-Baxter operator of weight 0 or 1.

The operator R satisfies

    [R(x), R(y)] = R([R(x), y] + [x, R(y)] + weight * [x, y]).

Basis words are built in layers: Lyndon-Shirshov words over the
generators, then admissible words over the alphabet enlarged by letters
R(z) for every basis word z, where any two R-letters are declared to
commute... except they do not commute to zero: a bracket of two
R-letters is instead resolved by the identity above, which is why the
admissibility filter treats the R-letters as a mutually "adjacent"
clique.  The resulting basis does not depend on the weight.

Generators are smaller than all R-letters; R-letters compare by their
arguments (see `terms`).
"""

from __future__ import annotations

from .lincomb import LinComb
from .straighten import BasisContext, enumerate_basis
from .terms import RApp

__all__ = ["FreeRBContext", "enum_free_basis"]


class FreeRBContext(BasisContext):

    supports_operator = True

    def __init__(self, alphabet, weight=0):
        if weight not in (0, 1):
            raise ValueError("weight must be 0 or 1, got %r" % (weight,))
        super().__init__(alphabet)
        self.weight = weight

    def adjacent(self, a, b):
        # distinct R-letters only: a clique has no loops, and a letter
        # repeated next to itself ([R(a),[R(a),a]]) stays a basis word
        return isinstance(a, RApp) and isinstance(b, RApp) and a != b

    def letter_rule(self, u, v, fuel):
        if isinstance(u, RApp) and isinstance(v, RApp):
            inner = self._mult(u, v.arg, fuel) + self._mult(u.arg, v, fuel)
            if self.weight:
                inner.iadd_comb(self._mult(u.arg, v.arg, fuel))
            return self.apply_r(inner)
        return None


def enum_free_basis(alphabet, max_deg, max_rdeg):
    """Basis words with at most max_deg generator occurrences and max_rdeg
    R symbols, greatest first.  Independent of the weight."""
    return enumerate_basis(FreeRBContext(alphabet), max_deg, max_rdeg)
