"""The rewriting layer as it once worked, kept as oracles for the faster
code that replaced it.

``hoterm.rewriting`` finds the rewrites of each distinct subterm once and
keeps them in a memo per search.  ``walk_rewrite_step`` finds them the way
the prover once did: walk the term, opening each binder with a name fresh
for the whole term and the binders above, try the rules indexed under the
head at every subterm, and put each contractum back in place with
``replace_at``, which the prover no longer needs and so is kept here.

``eager_loop_seeds`` builds each pool of closed terms in full before the
first seed: the seeds of the loop search must not change now that its pools
are drawn only as far as the seeds taken need.

``eager_bounded_search`` is the loop search as it once ran: it tests every
frontier term with ``reducible`` as it is popped, and walks the expanded
terms for a cycle after every search, though no answer reads the frontier
tests past the first reducible term, and no cycle closes without a step
back to a term met at the same or a lesser distance.
"""

from __future__ import annotations

import itertools
from collections import deque

from hoterm.hrs import Hrs
from hoterm.normalize import apply_subst
from hoterm.rewriting import (DepthExhausted, LoopFound, NonPatternError,
                              NormalForm, RewriteStep, SearchOutcome,
                              _first_cycle, _tree_path,
                              enumerate_closed_terms, match, reducible,
                              rewrite_step)
from hoterm.terms import (Abs, App, Position, PositionError, Term,
                          TermTypeError, free_names)
from strategies import close_over, open_abs


def replace_at(t: Term, p: Position, new: Term) -> Term:
    """Replace the subterm at ``p``, re-binding variables freed on the way down."""

    def go(cur: Term, rest: Position, avoid: set[str]) -> Term:
        if not rest:
            if new.ty != cur.ty:
                raise TermTypeError("replacement changes the type at the position",
                                    subject=new, expected=cur.ty, actual=new.ty)
            return new
        i = rest[0]
        if isinstance(cur, Abs):
            if i != 1:
                raise PositionError(p, i, "binder has only position 1")
            name, body = open_abs(cur, avoid)
            body = go(body, rest[1:], avoid | {name})
            return Abs(cur.hint, cur.param_type, close_over(body, name))
        if not 1 <= i <= len(cur.args):
            raise PositionError(p, i,
                                f"index {i} out of range: node has "
                                f"{len(cur.args)} arguments")
        new_args = list(cur.args)
        new_args[i - 1] = go(cur.args[i - 1], rest[1:], avoid)
        return App(cur.head, tuple(new_args))

    return go(t, p, set(free_names(t)))


def walk_rewrite_step(h: Hrs, t: Term) -> tuple[RewriteStep, ...]:
    """All one-step rewrites of ``t``, ordered by rule name then position."""
    for rule in h.rules:
        if not rule.is_pattern:
            raise NonPatternError(
                f"rule {rule.name!r}: matching is undecidable for "
                "non-pattern left-hand sides")
    by_head = h.rules_by_head
    hits: list[tuple[str, Position, Term]] = []

    def walk(u: Term, pos: Position, avoid: set[str]):
        if isinstance(u, Abs):
            name, body = open_abs(u, avoid)
            walk(body, pos + (1,), avoid | {name})
            return
        for rule in by_head.get(u.head, ()):
            theta = match(rule.lhs, u)
            if theta is not None:
                hits.append((rule.name, pos, apply_subst(rule.rhs, theta)))
        for i, a in enumerate(u.args, start=1):
            walk(a, pos + (i,), avoid)

    walk(t, (), set(free_names(t)))
    hits.sort(key=lambda hit: (hit[0], hit[1]))
    return tuple(RewriteStep(rule, pos, replace_at(t, pos, res))
                 for rule, pos, res in hits)


def eager_loop_seeds(h: Hrs, max_term_size: int = 4, cap: int = 200):
    """``loop_seeds`` with every pool of a rule built before its first seed."""
    seen: set[Term] = set()
    emitted = 0
    pools = {}      # the instances, by type
    for rule in h.rules:
        names = sorted(free_names(rule.lhs))
        types = [h.variables[name] for name in names]
        for ty in types:
            if ty not in pools:
                pools[ty] = list(itertools.islice(
                    enumerate_closed_terms(h, ty, max_term_size), 25))
        for combo in itertools.product(*(pools[ty] for ty in types)):
            seed = apply_subst(rule.lhs, dict(zip(names, combo)))
            if seed in seen:
                continue
            seen.add(seed)
            yield seed
            emitted += 1
            if emitted >= cap:
                return


def eager_bounded_search(h: Hrs, t: Term, max_steps: int = 1000,
                         max_nodes: int = 100_000, memo: dict | None = None
                         ) -> SearchOutcome:
    """``bounded_search`` with each frontier term tested as it is popped
    and the cycle walk run whenever no tree-path loop was found."""
    if memo is None:
        memo = {}
    parent: dict[Term, tuple[Term, RewriteStep] | None] = {t: None}
    depth = {t: 0}
    expanded: dict[Term, tuple[RewriteStep, ...]] = {}
    queue = deque([t])
    first_nf: Term | None = None
    truncated = False
    while queue:
        current = queue.popleft()
        d = depth[current]
        if d >= max_steps:
            out = reducible(h, current, memo)
        else:
            out = rewrite_step(h, current, memo)
        if not out:
            if first_nf is None:
                first_nf = current
            continue
        if d >= max_steps:
            truncated = True
            continue
        if len(expanded) >= max_nodes:
            truncated = True
            break
        expanded[current] = out
        for step in out:
            result = step.result
            if result not in depth:
                parent[result] = (current, step)
                depth[result] = d + 1
                queue.append(result)
            elif depth[result] <= d:
                ancestor = current
                for _ in range(d - depth[result]):
                    ancestor = parent[ancestor][0]
                if ancestor == result:
                    return LoopFound(t, _tree_path(parent, current) + (step,))
    cycle = _first_cycle(t, expanded)
    if cycle is not None:
        entry, around = cycle
        return LoopFound(t, _tree_path(parent, entry) + around)
    if truncated:
        return DepthExhausted(max_steps)
    assert first_nf is not None
    return NormalForm(first_nf)
