"""
Partially commutative Lie algebras
==================================

A commutation graph declares which pairs of generators commute.  The
basis keeps only the Lyndon-Shirshov words that survive the relations,
and the bracket of two commuting generators collapses to zero.
"""

from rblie.expr import format_lincomb, parse_word
from rblie.pcls import CommGraph, PCLSContext, load_graph
from rblie.straighten import enumerate_basis
from rblie.terms import Alphabet

al = Alphabet(("a", "b", "c"))

# No relations: the free Lie algebra basis.
free = CommGraph.empty(al)
# One relation, read from a file: a commutes with b.
edge = load_graph("demos/graphs/path.graph", al)
# Every pair commutes: only the letters themselves remain.
full = CommGraph.complete(al)

for name, g in (("free", free), ("one edge", edge), ("complete", full)):
    words = enumerate_basis(PCLSContext(al, g), 3)
    print("%-9s %2d basis words up to degree 3" % (name, len(words)))

# With a and b commuting the bracket [a,b] dies, [a,c] survives, and
# [[a,c],b] is still a basis word because c does not commute with b.
ctx = PCLSContext(al, edge)
for text in ("[a,b]", "[a,c]", "[[a,c],b]"):
    w = parse_word(text, al)
    print("%-9s evaluates to %s" % (text, format_lincomb(ctx.evaluate(w))))
print([str(w) for w in enumerate_basis(PCLSContext(al, edge), 3)])

# The product respects the relations: multiplying a by b gives zero.
a = parse_word("a", al)
b = parse_word("b", al)
print("a * b =", format_lincomb(ctx.mult_comb(a, b)))
