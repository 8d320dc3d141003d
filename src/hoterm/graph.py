"""Approximated static dependency graph and its recursion components.

An arc connects one pair to another when the head symbol of the first pair's
right side equals the head symbol of the second pair's left side.  Recursion
components are the strongly connected subgraphs that contain at least one arc;
a single node qualifies only through a self-arc.  Two walks are shared with
the searches: ``postorder`` over a graph, and ``depth_first`` over sequences
of choices, the projections, precedences and loop seeds.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator
from typing import NamedTuple

from .sdp import DependencyPair


class DependencyGraph(NamedTuple):
    nodes: tuple[DependencyPair, ...]
    arcs: frozenset[tuple[int, int]]


class RecursionComponent(NamedTuple):
    """Node indices into the owning graph, sorted, with their pairs.  A
    component refined from another owns the graph built from the pairs
    its parent kept, and its indices point into that graph."""

    indices: tuple[int, ...]
    pairs: tuple[DependencyPair, ...]


def build_graph(pairs: tuple[DependencyPair, ...]) -> DependencyGraph:
    """Connect i to j whenever the rhs head of pair i names the same symbol
    as the lhs head of pair j.  The left heads are indexed by name, so the
    build takes time linear in the pairs and the arcs."""
    lhs_of: dict[str, list[int]] = {}
    for j, p in enumerate(pairs):
        lhs_of.setdefault(p.lhs.head.name, []).append(j)
    arcs = frozenset((i, j) for i, p in enumerate(pairs)
                     for j in lhs_of.get(p.rhs.head.name, ()))
    return DependencyGraph(tuple(pairs), arcs)


def postorder(roots: Iterable[Hashable],
              successors: Callable[[Hashable], Iterable[Hashable]]
              ) -> Iterator[Hashable]:
    """Every node reachable from ``roots``, once, in the order a depth-first
    walk finishes it.  The walk visits the roots in turn and each node's
    successors in order, and keeps its own stack, so long chains fit."""
    entered: set[Hashable] = set()
    for root in roots:
        if root in entered:
            continue
        entered.add(root)
        stack = [(root, iter(successors(root)))]
        while stack:
            node, todo = stack[-1]
            for nxt in todo:
                if nxt not in entered:
                    entered.add(nxt)
                    stack.append((nxt, iter(successors(nxt))))
                    break
            else:
                stack.pop()
                yield node


def depth_first(size: int, options: Callable[[list], Iterable],
                viable: Callable[[list], bool]) -> Iterator[tuple]:
    """Yield, in the lexicographic order of ``options``, every sequence of
    ``size`` choices all of whose non-empty prefixes are ``viable``; for
    ``size`` 0 that is ``()``, once.

    ``options(prefix)`` lists the choices that may follow ``prefix``, once
    ``viable`` has passed it; ``viable`` is asked of prefixes in depth-first
    order.  The walk keeps its own stack, so ``size`` is not bounded by
    Python's recursion limit.
    """
    if size == 0:
        yield ()
        return
    prefix: list = []
    stack = [iter(options(prefix))]
    while stack:
        for choice in stack[-1]:
            prefix.append(choice)
            if not viable(prefix):
                prefix.pop()
            elif len(prefix) == size:
                yield tuple(prefix)
                prefix.pop()
            else:
                stack.append(iter(options(prefix)))
                break
        else:
            stack.pop()
            if prefix:
                prefix.pop()


def strongly_connected(n: int, arcs: frozenset[tuple[int, int]]
                       ) -> list[tuple[int, ...]]:
    """Maximal strongly connected node sets of the graph on 0..n-1, each
    sorted ascending, listed in ascending order of their minimum node.
    Last finished first by one depth-first walk, each node not yet placed
    gathers the unplaced nodes that reach it."""
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for a, b in sorted(arcs):
        succ[a].append(b)
        pred[b].append(a)
    placed: set[int] = set()
    sccs: list[tuple[int, ...]] = []
    for v in reversed(list(postorder(range(n), succ.__getitem__))):
        if v not in placed:
            sccs.append(tuple(sorted(postorder(
                (v,), lambda u: [w for w in pred[u] if w not in placed]))))
            placed.update(sccs[-1])
    return sorted(sccs)


def recursion_components(g: DependencyGraph) -> tuple[RecursionComponent, ...]:
    """Strongly connected node sets that carry at least one internal arc."""
    return tuple(RecursionComponent(comp, tuple(g.nodes[i] for i in comp))
                 for comp in strongly_connected(len(g.nodes), g.arcs)
                 if len(comp) > 1 or (comp[0], comp[0]) in g.arcs)


def to_dot(g: DependencyGraph, comps: tuple[RecursionComponent, ...]) -> str:
    """Render the graph for Graphviz, clustering each of its ``comps``."""
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
