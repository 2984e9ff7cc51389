"""
Lyndon-Shirshov word bases for free Lie algebras
================================================

Enumerate the standard monomial basis of a free Lie algebra on a
ranked alphabet, check the count against the classical necklace
formula, and multiply two basis elements.
"""

from rblie.expr import format_lincomb
from rblie.pcls import LSContext
from rblie.straighten import enumerate_basis
from rblie.terms import Alphabet
from rblie.verify import witt_count

# Alphabet order is decreasing: the first name is the greatest letter.
al = Alphabet(("a", "b"))
ctx = LSContext(al)

# All basis words with at most 4 letters, greatest first.
for w in enumerate_basis(ctx, 4):
    print(w)

# Per-degree counts match the necklace formula.
print()
for n in range(1, 7):
    got = sum(1 for w in enumerate_basis(ctx, n) if w.deg == n)
    print("degree %d: %d basis words (formula says %d)" % (n, got, witt_count(2, n)))

# Products of basis words straighten back into the basis.
words = enumerate_basis(ctx, 3)
u = words[1]  # [a,[a,b]]
v = words[-1]  # b
print()
print("%s * %s = %s" % (u, v, format_lincomb(ctx.mult_comb(u, v))))
