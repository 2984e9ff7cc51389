"""The free Lie algebra with a Rota-Baxter operator of weight 0 or 1.

The operator R satisfies

    [R(x), R(y)] = R([R(x), y] + [x, R(y)] + weight * [x, y]).

Basis words follow the one root rule of `straighten`: R(z) is a letter
for every basis word z, and a bracket [p,q] of basis words is one when
it passes the Lyndon-Shirshov root check with the R-letters declared a
clique of `adjacent` letters.  So [p,q] is refused when q starts with an
R-letter and every letter of p is a different R-letter.  Unlike a
commuting pair in `pcls`, two R-letters do not bracket to zero: the
letter rule resolves [R(x), R(y)] by the identity above.  The basis
does not depend on the weight; only products do.

Generators are smaller than all R-letters; R-letters compare by their
arguments (see `terms`).
"""

from __future__ import annotations

from .lincomb import LinComb
from .straighten import BasisContext
from .terms import RApp

__all__ = ["FreeRBContext"]


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
            inner = LinComb().iadd_comb(*self._mult_as_comb(u, v.arg, fuel))
            inner.iadd_comb(*self._mult_as_comb(u.arg, v, fuel))
            if self.weight:
                inner.iadd_comb(*self._mult_as_comb(u.arg, v.arg, fuel))
            return self._apply_r(inner)
        return None
