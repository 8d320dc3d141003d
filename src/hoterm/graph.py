"""Approximated static dependency graph and its recursion components.

An arc connects one pair to another when the head symbol of the first pair's
right side equals the head symbol of the second pair's left side.  Recursion
components are the strongly connected subgraphs that contain at least one arc;
a single node qualifies only through a self-arc.
"""

from __future__ import annotations

from typing import NamedTuple

from .sdp import DependencyPair


class DependencyGraph(NamedTuple):
    nodes: tuple[DependencyPair, ...]
    arcs: frozenset[tuple[int, int]]


class RecursionComponent(NamedTuple):
    """Node indices into the owning graph, sorted, with their pairs."""

    indices: tuple[int, ...]
    pairs: tuple[DependencyPair, ...]


def build_graph(pairs: tuple[DependencyPair, ...]) -> DependencyGraph:
    """Connect i to j whenever the rhs head of pair i names the same symbol
    as the lhs head of pair j."""
    rhs_heads = [p.rhs.head.name for p in pairs]
    lhs_heads = [p.lhs.head.name for p in pairs]
    arcs = frozenset((i, j)
                     for i, rh in enumerate(rhs_heads)
                     for j, lh in enumerate(lhs_heads)
                     if rh == lh)
    return DependencyGraph(tuple(pairs), arcs)


def strongly_connected(n: int, arcs: frozenset[tuple[int, int]]
                       ) -> list[tuple[int, ...]]:
    """Maximal strongly connected node sets of the graph on 0..n-1, each
    sorted ascending, listed in ascending order of their minimum node."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in sorted(arcs):
        adj[a].append(b)

    index_of: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[tuple[int, ...]] = []
    counter = 0

    def visit(root: int):
        nonlocal counter
        work = [(root, 0)]
        while work:
            v, ai = work.pop()
            if ai == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            for k in range(ai, len(adj[v])):
                w = adj[v][k]
                if w not in index_of:
                    work.append((v, k + 1))
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            if low[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    for v in range(n):
        if v not in index_of:
            visit(v)
    return sorted(sccs)


def recursion_components(g: DependencyGraph) -> tuple[RecursionComponent, ...]:
    """Strongly connected node sets that carry at least one internal arc."""
    out = []
    for comp in strongly_connected(len(g.nodes), g.arcs):
        members = set(comp)
        if any(a in members and b in members for a, b in g.arcs):
            out.append(RecursionComponent(comp,
                                          tuple(g.nodes[i] for i in comp)))
    return tuple(out)


def to_dot(g: DependencyGraph) -> str:
    """Render the graph for Graphviz, clustering each recursion component."""
    comps = recursion_components(g)
    lines = ["digraph sdg {", '  node [shape=box, fontname="monospace"];']
    clustered: set[int] = set()
    for c, comp in enumerate(comps):
        lines.append(f"  subgraph cluster_{c} {{")
        lines.append(f'    label="component {c + 1}";')
        for i in comp.indices:
            lines.append(f'    n{i} [label="{_label(g.nodes[i])}"];')
            clustered.add(i)
        lines.append("  }")
    for i in range(len(g.nodes)):
        if i not in clustered:
            lines.append(f'  n{i} [label="{_label(g.nodes[i])}"];')
    for a, b in sorted(g.arcs):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _label(p: DependencyPair) -> str:
    return str(p).replace("\\", "\\\\").replace('"', '\\"')
