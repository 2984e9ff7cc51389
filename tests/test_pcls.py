"""Partially commutative Lyndon-Shirshov bases.

A commutation graph kills the bracket of each edge pair.  The oracle is
expansion in the trace algebra: monomials are normalized to the least
trace-equivalent sequence, and the partially commutative Lie algebra
embeds there, so equality of normalized expansions is equality.
"""

import itertools

import pytest

from oracles import expand, expand_comb
from rblie.expr import parse_word
from rblie.lincomb import LinComb
from rblie.pcls import (
    CommGraph,
    LSContext,
    PCLSContext,
    format_graph,
    load_graph,
    parse_graph_text,
)
from rblie.straighten import enumerate_basis
from rblie.terms import Alphabet


@pytest.fixture
def path_abc(abc):
    # a - b - c
    return CommGraph(abc.names, [("a", "b"), ("b", "c")])


@pytest.fixture
def edge_ab(abc):
    return CommGraph(abc.names, [("a", "b")])


class TestCommGraph:
    def test_edges_are_unordered(self, abc):
        g = CommGraph(abc.names, [("b", "a")])
        assert g.adjacent("a", "b")
        assert g.adjacent("b", "a")
        assert not g.adjacent("a", "c")

    def test_adjacency_of_a_letter_outside_the_vertices_is_refused(self, abc):
        g = CommGraph(abc.names, [("a", "b")])
        for pair in (("a", "z"), ("z", "a")):
            with pytest.raises(ValueError, match="^letter not in vertex set: 'z'$"):
                g.adjacent(*pair)

    def test_loop_rejected(self, abc):
        with pytest.raises(ValueError):
            CommGraph(abc.names, [("a", "a")])

    def test_unknown_vertex_rejected(self, abc):
        with pytest.raises(ValueError):
            CommGraph(abc.names, [("a", "z")])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError, match="^duplicate vertex$"):
            CommGraph(("a", "a"))

    def test_complete(self, abc):
        g = CommGraph.complete(abc)
        assert len(g.edges) == 3

    def test_empty(self, abc):
        assert CommGraph.empty(abc).edges == frozenset()


class TestGraphFiles:
    def test_parse_and_format_roundtrip(self, abc):
        text = "# three vertices, one path\nedge b c\n\nedge a b\n"
        g = parse_graph_text(text, abc)
        assert g.edges == CommGraph(abc.names, [("a", "b"), ("b", "c")]).edges
        canonical = format_graph(g)
        assert canonical == "edge a b\nedge b c\n"
        again = parse_graph_text(canonical, abc)
        assert again.edges == g.edges
        assert format_graph(again) == canonical

    def test_malformed_line_reports_number(self, abc):
        with pytest.raises(ValueError, match="line 2"):
            parse_graph_text("edge a b\nedge a\n", abc)

    def test_unknown_name_reports_number(self, abc):
        with pytest.raises(ValueError, match="line 1"):
            parse_graph_text("edge a z\n", abc)

    def test_loop_edge_reports_number(self, abc):
        with pytest.raises(ValueError, match="^line 2: loop edge at 'c'$"):
            parse_graph_text("edge a b\nedge c c\n", abc)

    def test_unknown_name_is_the_graph_error(self, abc):
        with pytest.raises(ValueError, match="^line 2: unknown vertex 'z' in edge$"):
            parse_graph_text("edge a b\nedge z a\n", abc)

    def test_load_demo_graph(self, abc):
        g = load_graph("demos/graphs/path.graph", abc)
        assert g.adjacent("a", "b")
        assert not g.adjacent("b", "c")

    def test_empty_file_is_empty_graph(self, abc):
        assert parse_graph_text("", abc).edges == frozenset()


class TestMembership:
    def test_edge_bracket_not_admissible(self, abc, edge_ab):
        ctx = PCLSContext(abc, edge_ab)
        assert not ctx.is_basis_word(parse_word("[a,b]", abc))
        assert ctx.is_basis_word(parse_word("[a,c]", abc))
        assert ctx.is_basis_word(parse_word("[b,c]", abc))

    def test_one_nonadjacent_left_letter_saves_a_node(self, abc, edge_ab):
        ctx = PCLSContext(abc, edge_ab)
        # [[a,c],b]: the head of the right half is b; a commutes with it
        # but c does not, and one witness letter is enough
        assert ctx.is_basis_word(parse_word("[[a,c],b]", abc))
        # [a,[b,c]]: the only left letter commutes with the head b
        assert not ctx.is_basis_word(parse_word("[a,[b,c]]", abc))

    def test_still_requires_ls_shape(self, abc, edge_ab):
        ctx = PCLSContext(abc, edge_ab)
        assert not ctx.is_basis_word(parse_word("[b,a]", abc))
        assert not ctx.is_basis_word(parse_word("[c,[a,b]]", abc))

    def test_graph_missing_a_letter_is_refused(self, abc):
        # refused when the context is made, not at the first test of c
        with pytest.raises(ValueError, match="'c' not in the graph's vertex set"):
            PCLSContext(abc, CommGraph(("a", "b")))

    def test_graph_vertex_outside_the_alphabet_is_refused(self, abc):
        with pytest.raises(ValueError, match="^graph vertex 'd' not in alphabet$"):
            PCLSContext(abc, CommGraph(("a", "b", "c", "d")))


    def test_the_free_lie_context_takes_no_graph(self, abc, edge_ab):
        with pytest.raises(TypeError):
            LSContext(abc, edge_ab)

    def test_generator_of_another_alphabet_is_not_a_member(self):
        # same name, other rank: the letter of Alphabet("ba") is not this "a"
        ctx = LSContext(Alphabet("ab"))
        foreign = Alphabet("ba").gen("a")
        assert not ctx.is_basis_word(foreign)
        with pytest.raises(ValueError):
            ctx.evaluate(foreign)


class TestEnumeration:
    def test_single_edge_degree_two(self, abc, edge_ab):
        got = [str(w) for w in enumerate_basis(PCLSContext(abc, edge_ab), 2)]
        assert got == ["a", "[a,c]", "b", "[b,c]", "c"]

    def test_complete_graph_keeps_letters_only(self, abc):
        got = enumerate_basis(PCLSContext(abc, CommGraph.complete(abc)), 5)
        assert got == list(abc.gens())

    def test_empty_graph_matches_free_basis(self, abc):
        assert enumerate_basis(PCLSContext(abc, CommGraph.empty(abc)), 5) == enumerate_basis(LSContext(abc), 5)

    def test_admissible_words_shrink_with_edges(self, abc, path_abc):
        free = set(enumerate_basis(LSContext(abc), 4))
        constrained = set(enumerate_basis(PCLSContext(abc, path_abc), 4))
        assert constrained < free


class TestProduct:
    def test_adjacent_letters_bracket_to_zero(self, abc, path_abc):
        ctx = PCLSContext(abc, path_abc)
        a, b, c = abc.gens()
        assert ctx.mult_comb(a, b) == LinComb()
        assert ctx.mult_comb(c, b) == LinComb()
        assert ctx.mult_comb(a, c) == LinComb.single(parse_word("[a,c]", abc))

    def test_frozen_zero_product(self, abc, path_abc):
        # [[a,c],b] = [[a,b],c] + [a,[c,b]] and both pieces die
        ctx = PCLSContext(abc, path_abc)
        u = parse_word("[a,c]", abc)
        assert ctx.mult_comb(u, abc.gen("b")) == LinComb()

    def test_empty_graph_agrees_with_free_product(self, abc):
        pctx = PCLSContext(abc, CommGraph.empty(abc))
        lctx = LSContext(abc)
        words = enumerate_basis(LSContext(abc), 4)
        for u, v in itertools.product(words, repeat=2):
            if u.deg + v.deg > 6:
                continue
            assert pctx.mult_comb(u, v) == lctx.mult_comb(u, v)


def _graphs(abc):
    return {
        "empty": CommGraph.empty(abc),
        "path": CommGraph(abc.names, [("a", "b"), ("b", "c")]),
        "complete": CommGraph.complete(abc),
    }


@pytest.fixture(params=["empty", "path", "complete"])
def graph_ctx(request, abc):
    return PCLSContext(abc, _graphs(abc)[request.param])


class TestIdentities:
    def test_matches_trace_algebra(self, abc, graph_ctx):
        graph = graph_ctx.graph

        def commutes(x, y):
            return graph.adjacent(x.name, y.name)

        words = enumerate_basis(graph_ctx, 5)
        for u, v in itertools.product(words, repeat=2):
            if u.deg + v.deg > 6:
                continue
            got = expand_comb(graph_ctx.mult_comb(u, v), commutes)
            pu = expand(u, commutes)
            pv = expand(v, commutes)
            assert got == (pu * pv - pv * pu).normalized(commutes), (u, v)

    def test_anticommutativity(self, abc, graph_ctx):
        words = enumerate_basis(graph_ctx, 6)
        for u, v in itertools.product(words, repeat=2):
            if u.deg + v.deg > 7:
                continue
            total = graph_ctx.mult_comb(u, v) + graph_ctx.mult_comb(v, u)
            assert not total, (u, v)

    def test_jacobi(self, abc, graph_ctx):
        words = enumerate_basis(graph_ctx, 5)
        for u, v, w in itertools.product(words, repeat=3):
            if u.deg + v.deg + w.deg > 7:
                continue
            total = graph_ctx.mult_comb(graph_ctx.mult_comb(u, v), w)
            total += graph_ctx.mult_comb(graph_ctx.mult_comb(v, w), u)
            total += graph_ctx.mult_comb(graph_ctx.mult_comb(w, u), v)
            assert not total, (u, v, w)

    def test_closure(self, abc, graph_ctx):
        words = enumerate_basis(graph_ctx, 4)
        for u, v in itertools.product(words, repeat=2):
            if u.deg + v.deg > 6:
                continue
            for w in graph_ctx.mult_comb(u, v):
                assert graph_ctx.is_basis_word(w)
                assert w.deg == u.deg + v.deg
