"""
Free Lie algebras with a Rota-Baxter operator
=============================================

Basis words may now contain R(...) nodes.  The operator identity
R(x)R(y) = R(R(x)y + xR(y) + weight*xy) holds by construction, with
the weight taken from the context.
"""

from rblie.expr import format_lincomb, parse_word
from rblie.free_rb import FreeRBContext
from rblie.straighten import enumerate_basis
from rblie.terms import Alphabet

al = Alphabet(("a", "b"))

# The basis itself does not depend on the weight.
for w in enumerate_basis(FreeRBContext(al), 2, 1):
    print(w)

# Products do.  Same pair of words, both weights:
u = parse_word("R(a)", al)
v = parse_word("R(b)", al)
for weight in (0, 1):
    ctx = FreeRBContext(al, weight=weight)
    print("weight %d: R(a) * R(b) = %s" % (weight, format_lincomb(ctx.mult_comb(u, v))))

# Applying the operator to a straightened product stays inside the span.
ctx = FreeRBContext(al, weight=1)
prod = ctx.mult_comb(u, v)
print("R(R(a) * R(b)) =", format_lincomb(ctx.apply_r(prod)))

# A word the straightener has to work for: the two R letters inside the
# bracket are reordered and the nested argument is rebuilt.
w = parse_word("[R(b),R([a,b])]", al)
print("[R(b),R([a,b])] evaluates to", format_lincomb(ctx.evaluate(w)))
