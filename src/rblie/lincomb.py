"""Sparse linear combinations with exact rational coefficients.

LinComb is a dict mapping hashable keys (Words, or basis names of a
finite-dimensional algebra) to nonzero ints or Fractions.  Its builders
`single`, `iadd`, `iadd_comb` and `scaled` and its operators keep this
normal form: a key whose coefficient becomes zero is removed, so equality
of combinations is plain dict equality, and an integral coefficient is
stored as an int, never as a Fraction with denominator 1, so integral work
stays in int arithmetic.

`LinComb(mapping or pairs)` is dict's own constructor: it copies its
argument as given, keeping the last value of a repeated key, and neither
sums nor normalizes.  Build from raw coefficients with `single`/`iadd`.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["LinComb"]


class LinComb(dict):

    __slots__ = ()

    @classmethod
    def single(cls, key, coeff=1):
        out = cls()
        out.iadd(key, coeff)
        return out

    def iadd(self, key, coeff):
        """In-place key += coeff; internal builder, do not mutate shared values."""
        old = self.get(key)
        if type(coeff) is int:
            # a stored value is an int or a Fraction that is not integral,
            # and adding an int to either leaves it so
            c = coeff if old is None else old + coeff
        else:
            if not isinstance(coeff, Fraction):
                coeff = Fraction(coeff)
            c = coeff if old is None else old + coeff
            if c.denominator == 1:
                c = c.numerator
        if c:
            self[key] = c
        elif old is not None:
            del self[key]
        return self

    def iadd_comb(self, other, factor=1):
        if factor == 1:
            for key, coeff in other.items():
                self.iadd(key, coeff)
        elif factor:
            for key, coeff in other.items():
                self.iadd(key, coeff * factor)
        return self

    def __add__(self, other):
        return LinComb(self).iadd_comb(other)

    def __sub__(self, other):
        return LinComb(self).iadd_comb(other, -1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, factor):
        if not isinstance(factor, (int, Fraction)):
            factor = Fraction(factor)
        return LinComb().iadd_comb(self, factor)
