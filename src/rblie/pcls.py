"""Free and partially commutative Lie algebra bases.

A commutation graph on the generators declares which pairs of letters
are required to commute (bracket to zero).  The admissible words are the
Lyndon-Shirshov words in which, at every bracket node, the first letter
of the right half fails to commute with at least one letter of the left
half; they form a linear basis of the Lie algebra with relations
[x,y] = 0 for each edge (x,y).  The empty graph gives back the classical
Lyndon-Shirshov basis of the free Lie algebra.

Products are computed by the straightening engine with one extra letter
rule: the bracket of two adjacent generators is zero.  `LSContext`, the
free Lie algebra, is the engine's defaults themselves: no letter commutes
and no letter rule applies.
"""

from __future__ import annotations

from .expr import numbered_line
from .lincomb import LinComb
from .straighten import BasisContext
from .terms import Gen

__all__ = [
    "CommGraph", "PCLSContext", "LSContext", "parse_graph_text", "load_graph", "format_graph",
]


class CommGraph:
    """A loop-free undirected graph on generator names, stored as a set of edges."""

    def __init__(self, vertices, edges=()):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex")
        self.edges = frozenset(self._edge(a, b) for a, b in edges)

    def _edge(self, a, b):
        """The edge {a, b}, refused unless a and b are distinct vertices."""
        for v in (a, b):
            if v not in self.vertices:
                raise ValueError("unknown vertex %r in edge" % (v,))
        if a == b:
            raise ValueError("loop edge at %r" % (a,))
        return frozenset((a, b))

    @classmethod
    def empty(cls, alphabet):
        return cls(alphabet.names)

    @classmethod
    def complete(cls, alphabet):
        names = alphabet.names
        return cls(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1:]])

    def adjacent(self, a, b):
        if a not in self.vertices or b not in self.vertices:
            raise ValueError("letter not in vertex set: %r" % (a if a not in self.vertices else b,))
        return frozenset((a, b)) in self.edges


def parse_graph_text(text, alphabet):
    """Read a graph over the alphabet: one "edge <name> <name>" per line.

    Blank lines and lines starting with "#" are skipped.  A malformed line,
    or an edge CommGraph refuses, is an error that names its line.
    """
    graph = CommGraph(alphabet.names)
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        with numbered_line(lineno):
            if len(parts) != 3 or parts[0] != "edge":
                raise ValueError("expected 'edge <name> <name>'")
            edges.append(graph._edge(parts[1], parts[2]))
    graph.edges = frozenset(edges)
    return graph


def load_graph(path, alphabet):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read(), alphabet)


def format_graph(graph):
    lines = []
    index = {n: i for i, n in enumerate(graph.vertices)}
    for pair in sorted(graph.edges, key=lambda p: sorted(index[x] for x in p)):
        a, b = sorted(pair, key=index.get)
        lines.append("edge %s %s" % (a, b))
    return "\n".join(lines) + ("\n" if lines else "")


class PCLSContext(BasisContext):
    """Basis of the Lie algebra over an alphabet with a commutation graph."""

    def __init__(self, alphabet, graph=None):
        super().__init__(alphabet)
        self.graph = graph if graph is not None else CommGraph.empty(alphabet)
        for v in self.graph.vertices:
            if v not in alphabet:
                raise ValueError("graph vertex %r not in alphabet" % (v,))
        for name in alphabet.names:
            if name not in self.graph.vertices:
                raise ValueError("letter %r not in the graph's vertex set" % (name,))

    def adjacent(self, a, b):
        return (
            isinstance(a, Gen)
            and isinstance(b, Gen)
            and frozenset((a.name, b.name)) in self.graph.edges
        )

    def letter_rule(self, u, v, fuel):
        if self.adjacent(u, v):
            return LinComb()
        return None


class LSContext(BasisContext):
    """The free Lie algebra: the engine's defaults, with no commuting letters."""
