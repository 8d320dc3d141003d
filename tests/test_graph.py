import itertools
from pathlib import Path

from hypothesis import given, settings

import strategies as S
from hoterm.graph import (DependencyGraph, build_graph, depth_first,
                          postorder, recursion_components,
                          strongly_connected, to_dot)
from hoterm.hrs import load, parse
from hoterm.sdp import extract_sdps

FIXDIR = Path(__file__).parent.parent / "fixtures"


def sqsum_graph():
    pairs = extract_sdps(load(FIXDIR / "sqsum.hrs"))
    return pairs, build_graph(pairs)


def closure_sccs(n, arcs):
    """Oracle: i ~ j iff i reaches j and j reaches i, by transitive
    closure; the classes sorted, each sorted."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, j in arcs:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if reach[i][k] and reach[k][j]:
                    reach[i][j] = True
    classes = {}
    for i in range(n):
        key = frozenset(j for j in range(n) if reach[i][j] and reach[j][i])
        classes.setdefault(key, []).append(i)
    return sorted(tuple(v) for v in classes.values())


class TestBuildGraph:
    def test_sqsum_arcs(self):
        _, g = sqsum_graph()
        assert g.arcs == {(0, 0), (1, 0), (2, 1), (2, 2), (3, 3),
                          (4, 3), (5, 0), (6, 1), (6, 2)}

    def test_arc_means_head_of_rhs_matches_head_of_lhs(self):
        pairs, g = sqsum_graph()
        assert g.arcs == {(i, j) for i, p in enumerate(pairs)
                          for j, q in enumerate(pairs)
                          if p.rhs.head.name == q.lhs.head.name}

    def test_empty_graph(self):
        g = build_graph(())
        assert g.nodes == ()
        assert g.arcs == frozenset()
        assert recursion_components(g) == ()

    def test_two_pair_single_arc(self):
        src = ("basic a\n"
               "sig f : a -> a\n"
               "sig g : a -> a\n"
               "sig c : a -> a\n"
               "var X : a\n"
               "rule f-def: f(c(X)) -> g(X)\n"
               "rule g-def: g(c(X)) -> f(X)\n")
        pairs = extract_sdps(parse(src))
        g = build_graph(pairs)
        assert g.arcs == {(0, 1), (1, 0)}
        comps = recursion_components(g)
        assert len(comps) == 1
        assert comps[0].indices == (0, 1)


class TestRecursionComponents:
    def test_sqsum_components(self):
        _, g = sqsum_graph()
        comps = recursion_components(g)
        assert [c.indices for c in comps] == [(0,), (2,), (3,)]

    def test_components_carry_their_pairs(self):
        pairs, g = sqsum_graph()
        comps = recursion_components(g)
        assert comps[0].pairs == (pairs[0],)
        assert comps[1].pairs == (pairs[2],)
        assert comps[2].pairs == (pairs[3],)

    @settings(max_examples=200)
    @given(S.digraphs())
    def test_components_are_the_sccs_that_carry_an_arc(self, graph):
        n, arcs = graph
        expected = [c for c in closure_sccs(n, arcs)
                    if len(c) > 1 or (c[0], c[0]) in arcs]
        g = DependencyGraph(tuple(range(n)), arcs)
        comps = recursion_components(g)
        assert [c.indices for c in comps] == expected
        assert all(c.pairs == c.indices for c in comps)

    def test_singleton_without_self_arc_is_not_a_component(self):
        # one defined symbol calling another, no cycle at all
        src = ("basic a\n"
               "sig f : a -> a\n"
               "sig g : a -> a\n"
               "sig c : a -> a\n"
               "var X : a\n"
               "rule f-def: f(c(X)) -> g(X)\n"
               "rule g-def: g(c(X)) -> X\n")
        pairs = extract_sdps(parse(src))
        assert len(pairs) == 1
        assert recursion_components(build_graph(pairs)) == ()


class TestStronglyConnected:
    def test_two_cycle_with_isolated_node(self):
        sccs = strongly_connected(3, frozenset({(0, 1), (1, 0)}))
        assert sorted(sccs) == [(0, 1), (2,)]

    def test_chain_is_all_singletons(self):
        sccs = strongly_connected(3, frozenset({(0, 1), (1, 2)}))
        assert sorted(sccs) == [(0,), (1,), (2,)]

    def test_every_node_in_exactly_one_scc(self):
        sccs = strongly_connected(5, frozenset({(0, 1), (1, 0), (2, 3),
                                                (3, 4), (4, 2)}))
        flat = sorted(i for scc in sccs for i in scc)
        assert flat == [0, 1, 2, 3, 4]

    @settings(max_examples=200)
    @given(S.digraphs())
    def test_matches_reachability_closure(self, graph):
        n, arcs = graph
        sccs = strongly_connected(n, arcs)
        assert sorted(tuple(sorted(s)) for s in sccs) == closure_sccs(n, arcs)

    def test_long_chain_needs_no_recursion(self):
        n = 100_000
        sccs = strongly_connected(n, frozenset((i, i + 1)
                                               for i in range(n - 1)))
        assert sccs == [(i,) for i in range(n)]

    def test_long_cycle_needs_no_recursion(self):
        n = 100_000
        sccs = strongly_connected(n, frozenset((i, (i + 1) % n)
                                               for i in range(n)))
        assert sccs == [tuple(range(n))]


class TestPostorder:
    def test_finish_order_on_a_dag(self):
        #   0 -> 1 -> 3, 0 -> 2 -> 3
        succ = {0: [1, 2], 1: [3], 2: [3], 3: []}
        assert list(postorder([0], succ.__getitem__)) == [3, 1, 2, 0]

    def test_finish_order_on_a_cycle(self):
        succ = {0: [1], 1: [2], 2: [0]}
        assert list(postorder([0], succ.__getitem__)) == [2, 1, 0]
        assert list(postorder([1], succ.__getitem__)) == [0, 2, 1]

    def test_each_node_once_and_reached_roots_skipped(self):
        # 2 is reached from 0, so as a root it adds nothing; 4 is apart
        succ = {0: [1, 2], 1: [2, 0], 2: [1], 3: [2], 4: []}
        assert list(postorder([0, 2, 3, 4], succ.__getitem__)) == \
            [2, 1, 0, 3, 4]
        assert list(postorder([], succ.__getitem__)) == []

    def test_successors_called_once_per_node_and_consumed_lazily(self):
        calls = []
        pulled = []

        def successors(v):
            calls.append(v)
            for w in (v + 1, v + 2):
                if w < 6:
                    pulled.append((v, w))
                    yield w

        walk = postorder([0], successors)
        assert next(walk) == 5
        # only the first successor of each node on the path was pulled
        assert calls == [0, 1, 2, 3, 4, 5]
        assert pulled == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        assert list(walk) == [4, 3, 2, 1, 0]
        assert sorted(calls) == list(range(6))


class TestDepthFirst:
    def test_size_zero_yields_the_empty_sequence_once(self):
        asked = []

        def options(prefix):
            asked.append(tuple(prefix))
            return [0, 1]

        assert list(depth_first(0, options, lambda prefix: False)) == [()]
        assert asked == []

    def test_sequences_come_in_lexicographic_order(self):
        got = list(depth_first(3, lambda prefix: "bca"[:len(prefix) + 1],
                               lambda prefix: True))
        assert got == list(itertools.product("b", "bc", "bca"))

    def test_a_prefix_that_is_not_viable_drops_its_completions(self):
        asked = []

        def viable(prefix):
            asked.append(tuple(prefix))
            return prefix[:2] != [1, 0]

        got = list(depth_first(3, lambda prefix: range(2), viable))
        assert got == [s for s in itertools.product(range(2), repeat=3)
                       if s[:2] != (1, 0)]
        assert not any(p[:2] == (1, 0) and len(p) == 3 for p in asked)

    def test_viable_runs_depth_first_and_options_follow_it(self):
        events = []

        def options(prefix):
            events.append(("options", tuple(prefix)))
            return range(2)

        def viable(prefix):
            events.append(("viable", tuple(prefix)))
            return prefix != [1]

        assert list(depth_first(2, options, viable)) == [(0, 0), (0, 1)]
        assert events == [("options", ()), ("viable", (0,)),
                          ("options", (0,)), ("viable", (0, 0)),
                          ("viable", (0, 1)), ("viable", (1,))]


class TestDotOutput:
    def test_sqsum_dot_structure(self):
        _, g = sqsum_graph()
        dot = to_dot(g, recursion_components(g))
        assert dot.startswith("digraph sdg {")
        assert dot.rstrip().endswith("}")
        assert 'label="component 1"' in dot
        assert 'label="component 3"' in dot
        assert "n0 -> n0;" in dot
        assert "n6 -> n2;" in dot
        # every node present exactly once
        for i in range(7):
            assert dot.count(f"n{i} [label=") == 1

    def test_dot_escapes_backslashes(self):
        _, g = sqsum_graph()
        dot = to_dot(g, recursion_components(g))
        assert "\\\\x y. F(x, y)" in dot

    def test_nodes_outside_components_are_unclustered(self):
        _, g = sqsum_graph()
        dot = to_dot(g, recursion_components(g))
        # cluster members are indented one level deeper than loose nodes;
        # n4 (sqsum -> foldl) cycles with nothing, so it stays at top level
        assert "\n  n4 [label=" in dot
        assert "\n    n4 [label=" not in dot
        assert "\n    n0 [label=" in dot
