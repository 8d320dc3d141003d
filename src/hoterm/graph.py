"""Approximated static dependency graph and its recursion components.

An arc connects one pair to another when the head symbol of the first pair's
right side equals the head symbol of the second pair's left side.  Recursion
components are the strongly connected subgraphs that contain at least one arc;
a single node qualifies only through a self-arc.  They are found on the
symbol graph, one arc per pair from its left head to its right head: pair i
reaches pair j exactly when i's right head reaches j's left head there.  The
arcs themselves are listed only for printing.  Two walks are shared with
the searches: ``postorder`` over a graph, and ``depth_first`` over sequences
of choices, the projections, precedences and loop seeds.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator
from typing import NamedTuple

from .sdp import DependencyPair


class RecursionComponent(NamedTuple):
    """Indices, sorted, into the pairs the component was found among, with
    those pairs.  A component refined from another is found among the
    pairs its parent kept, and its indices point into those."""

    indices: tuple[int, ...]
    pairs: tuple[DependencyPair, ...]


def build_graph(pairs: tuple[DependencyPair, ...]) -> list[tuple[int, int]]:
    """The arcs, ascending: i to j whenever the rhs head of pair i names the
    same symbol as the lhs head of pair j.  The left heads are indexed by
    name, so the build takes time linear in the pairs and the arcs."""
    lhs_of: dict[str, list[int]] = {}
    for j, p in enumerate(pairs):
        lhs_of.setdefault(p.lhs.head.name, []).append(j)
    return [(i, j) for i, p in enumerate(pairs)
            for j in lhs_of.get(p.rhs.head.name, ())]


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


def recursion_components(pairs: tuple[DependencyPair, ...]
                         ) -> tuple[RecursionComponent, ...]:
    """The pairs that lie on a cycle, grouped by strongly connected set,
    in ascending order of their least pair.  A pair lies on a cycle when
    both its heads fall in one strongly connected set of symbols.  Last
    finished first by one depth-first walk over the symbols, each symbol
    not yet placed gathers the unplaced symbols that reach it."""
    succ: dict[str, list[str]] = {}
    pred: dict[str, list[str]] = {}
    for p in pairs:
        succ.setdefault(p.lhs.head.name, []).append(p.rhs.head.name)
        pred.setdefault(p.rhs.head.name, []).append(p.lhs.head.name)
    scc: dict[str, str] = {}
    for f in reversed(list(postorder(succ, lambda f: succ.get(f, ())))):
        if f not in scc:
            scc.update((g, f) for g in postorder(
                (f,), lambda u: [e for e in pred.get(u, ()) if e not in scc]))
    found: dict[str, list[int]] = {}
    for i, p in enumerate(pairs):
        root = scc[p.lhs.head.name]
        if root == scc[p.rhs.head.name]:
            found.setdefault(root, []).append(i)
    return tuple(RecursionComponent(tuple(c), tuple(pairs[i] for i in c))
                 for c in found.values())


def to_dot(pairs: tuple[DependencyPair, ...],
           comps: tuple[RecursionComponent, ...]) -> str:
    """Render the graph of ``pairs`` for Graphviz, clustering each of its
    ``comps``."""
    lines = ["digraph sdg {", '  node [shape=box, fontname="monospace"];']
    clustered: set[int] = set()
    for c, comp in enumerate(comps):
        lines.append(f"  subgraph cluster_{c} {{")
        lines.append(f'    label="component {c + 1}";')
        for i in comp.indices:
            lines.append(f'    n{i} [label="{_label(pairs[i])}"];')
            clustered.add(i)
        lines.append("  }")
    for i in range(len(pairs)):
        if i not in clustered:
            lines.append(f'  n{i} [label="{_label(pairs[i])}"];')
    for a, b in build_graph(pairs):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _label(p: DependencyPair) -> str:
    return str(p).replace("\\", "\\\\").replace('"', '\\"')
