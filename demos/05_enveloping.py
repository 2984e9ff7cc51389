"""
Enveloping operator algebras of pre-Lie and post-Lie structures
===============================================================

A finite-dimensional algebra becomes the generator set of an operator
Lie algebra whose bracket [R(x),y] reproduces the original product.
Raw words reduce to a canonical combination of basis words.
"""

from rblie.algebras import load_algebra
from rblie.enveloping import EnvContext
from rblie.expr import format_lincomb, parse_word
from rblie.straighten import enumerate_basis
from rblie.terms import Br, RApp

# The pre case embeds with operator weight 0, the post case with weight 1.
pre = EnvContext(load_algebra("demos/algebras/two_dim.alg"))
post = EnvContext(load_algebra("demos/algebras/so3_post.alg"))
print("pre context weight %d, post context weight %d" % (pre.weight, post.weight))

# The defining collapse: [R(u),t] is not a basis word, it reduces to
# the stored product u*t of the input algebra.
u = pre.alphabet.gen("u")
t = pre.alphabet.gen("t")
print("[R(u),t] reduces to", format_lincomb(pre.evaluate(Br(RApp(u), t))))

# For the post case the generator bracket is also stored data: [a,b] = c.
w = parse_word("[a,b]", post.alphabet)
print("[a,b] reduces to", format_lincomb(post.evaluate(w)))

# Basis words of the enveloping algebra mix generators and towers of R.
for bw in enumerate_basis(pre, 2, 2):
    print(bw)

# Products straighten like in the free case, but land in this basis.
# Here the input product is commutative, so the bracket of the two
# operator images vanishes outright.
x = parse_word("R(u)", pre.alphabet)
y = parse_word("R(t)", pre.alphabet)
print("R(u) * R(t) =", format_lincomb(pre.mult(x, y)))

# In the post case the weight term survives even though the circle
# product is zero: R(a)*R(b) collapses to R of the stored bracket.
x = parse_word("R(a)", post.alphabet)
y = parse_word("R(b)", post.alphabet)
print("R(a) * R(b) =", format_lincomb(post.mult(x, y)))
