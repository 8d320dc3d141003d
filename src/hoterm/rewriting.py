"""Pattern matching and rewriting on the nameless terms.

Matching is decidable because rule left-hand sides are restricted to patterns:
free variables applied only to pairwise distinct bound variables (Miller,
1991).  A match is unique when it exists.  Matching and rewriting read the de
Bruijn terms as they are, under binders too, and name no binder.  Rewriting
replaces the matched subterm in place, so a rewrite step is identified by
(rule, position, result).
"""

from __future__ import annotations

import itertools
from collections import deque
from copy import copy
from operator import itemgetter
from typing import Iterator, NamedTuple

from .graph import depth_first
from .hrs import Hrs, bound_args
from .normalize import apply_subst
from .terms import (Abs, App, Arrow, Bound, Const, Free, Position,
                    SimpleType, Term, eta_hint, free_names, reach)


class NonPatternError(ValueError):
    """Matching was attempted against a non-pattern left-hand side."""


def match(pattern: Term, subject: Term) -> dict[str, Term] | None:
    """The unique substitution theta with pattern[theta] == subject, or None.

    The subject may reach binders above it; so may the terms of theta.
    Raises NonPatternError when a pattern variable is applied to anything
    other than pairwise distinct bound variables.
    """
    if pattern.ty is not subject.ty:
        return None
    theta: dict[str, Term] = {}
    if not _match(pattern, subject, [], free_names(pattern), theta):
        return None
    assert apply_subst(pattern, theta) == subject, \
        "internal error: match result does not reproduce the subject"
    return theta


def _match(p: Term, s: Term, hints: list[str], pvars: frozenset[str],
           theta: dict[str, Term]) -> bool:
    """Extend ``theta`` so that ``p`` matches ``s``, both under the pattern
    binders hinted ``hints``, innermost last."""
    while isinstance(p, Abs):
        if not isinstance(s, Abs) or p.param_type is not s.param_type:
            return False
        hints = hints + [p.hint]
        p, s = p.body, s.body
    if isinstance(s, Abs):
        return False
    ph = p.head
    if isinstance(ph, Free) and ph.name in pvars:
        candidate = s           # as it stands: no pattern binder to move
        if hints or p.args:
            bound = bound_args(p.args)
            if bound is None:
                raise NonPatternError(
                    "pattern variable applied to arguments that are not "
                    "pairwise distinct bound variables")
            candidate = _capture(s, len(hints), bound, 0)
            if candidate is None:
                return False
            for i, a in zip(reversed(bound), reversed(p.args)):
                candidate = Abs(hints[-1 - i], a.ty, candidate)
        previous = theta.get(ph.name)
        if previous is not None:
            return previous == candidate
        theta[ph.name] = candidate
        return True
    if ph is not s.head:
        return False
    for pa, sa in zip(p.args, s.args):
        if not _match(pa, sa, hints, pvars, theta):
            return False
    return True


def _capture(s: Term, k: int, bound: list[int], depth: int) -> Term | None:
    """``s``, under ``depth`` binders of its own below ``k`` pattern binders,
    moved under new binders, the last innermost, that stand for the pattern
    binders ``bound``; indices past the pattern binders are lifted.  None
    when ``s`` refers to another pattern binder."""
    if reach(s) <= depth:
        return s
    if isinstance(s, Abs):
        body = _capture(s.body, k, bound, depth + 1)
        return None if body is None else Abs(s.hint, s.param_type, body)
    head = s.head
    if isinstance(head, Bound) and head.index >= depth:
        i = head.index - depth
        if i >= k:
            head = Bound(head.index - k + len(bound), head.ty)
        elif i in bound:
            head = Bound(depth + len(bound) - 1 - bound.index(i), head.ty)
        else:
            return None
    args = []
    for a in s.args:
        a = _capture(a, k, bound, depth)
        if a is None:
            return None
        args.append(a)
    return App(head, tuple(args))


# ---------------------------------------------------------------------------
# single steps


class RewriteStep(NamedTuple):
    rule: str
    position: Position
    result: Term


def rewrite_step(h: Hrs, t: Term, memo: dict | None = None
                 ) -> tuple[RewriteStep, ...]:
    """All one-step rewrites of ``t``, ordered by rule name then position.

    ``memo`` maps each subterm met to (the subterm, its one-step
    rewrites); a call without it makes a fresh one.
    Calls that share one memo, as the seeds of ``find_loop`` do, match a
    subterm shared by many terms once.  A subterm's rewrites are its own
    contracta, for the rules indexed under its head, and each argument's
    rewrites rebuilt under the head, or, under a binder, the body's put
    back under it; each entry is stored in the final order, so a hit needs
    no sort.  A body keeps its loose indices, so its rewrites do not depend
    on where it stands.  Equality ignores binder hints and the results
    carry them, so an entry is reused only for the node it was made for:
    nodes are hash-consed with their hints, so that is every subterm with
    the same hints.
    """
    _check_patterns(h)
    return _rewrites({} if memo is None else memo, h.rules_by_head, t)


def _check_patterns(h: Hrs) -> None:
    rule = h.non_pattern
    if rule is not None:
        raise NonPatternError(
            f"rule {rule.name!r}: matching is undecidable for "
            "non-pattern left-hand sides")


# subterms kept in a search's memo at most; a full memo is emptied
TABLE_BOUND = 100_000


def _remember(memo: dict, u: Term,
              rewrites: tuple[RewriteStep, ...]) -> None:
    if len(memo) >= TABLE_BOUND:
        memo.clear()
    memo[u] = (u, rewrites)


def _rewrites(memo: dict, by_head: dict, u: Term) -> tuple[RewriteStep, ...]:
    known = memo.get(u)
    if known is not None and known[0] is u:
        return known[1]
    if isinstance(u, Abs):
        hits = tuple(RewriteStep(rule, (1,) + pos,
                                 Abs(u.hint, u.param_type, res))
                     for rule, pos, res in _rewrites(memo, by_head, u.body))
    else:
        out = []
        for rule in by_head.get(u.head, ()):
            theta = match(rule.lhs, u)
            if theta is not None:
                out.append(RewriteStep(rule.name, (),
                                       apply_subst(rule.rhs, theta)))
        args = u.args
        for i, a in enumerate(args):
            for rule, pos, res in _rewrites(memo, by_head, a):
                out.append(RewriteStep(rule, (i + 1,) + pos, App(
                    u.head, args[:i] + (res,) + args[i + 1:])))
        out.sort(key=itemgetter(0, 1))
        hits = tuple(out)
    _remember(memo, u, hits)
    return hits


# ---------------------------------------------------------------------------
# bounded search


class LoopFound(NamedTuple):
    """A rewrite path whose last term alpha-equals an earlier one."""

    start: Term
    trace: tuple[RewriteStep, ...]


def bounded_search(h: Hrs, t: Term, max_steps: int = 1000,
                   max_nodes: int = 100_000, memo: dict | None = None
                   ) -> LoopFound | None:
    """A loop among the distinct terms reachable from ``t``, explored
    breadth first, or None when none is found within the budgets.

    Each term met below distance ``max_steps`` from ``t`` is rewritten
    once and, unless it is a normal form, expanded (its results queued); at
    most ``max_nodes`` terms are expanded, and a term at distance
    ``max_steps`` is never rewritten.  A step back to a term on the
    breadth-first tree path of the term being expanded (``t`` included)
    returns LoopFound at once: the tree path plus that step.  A cycle that
    closes through other steps is found by one depth-first walk over the
    expanded terms when the search ends: the tree path to the cycle's
    first term plus the cycle.  Either trace may be longer than
    ``max_steps``.  A cycle needs a step to a term met at the same or a
    lesser distance, so the walk runs only when some step went back.

    ``memo`` is the memo of ``rewrite_step``; pass one to several searches
    of the same system to share it.  A system with a non-pattern rule
    raises NonPatternError before the first step, whatever the budgets.
    """
    _check_patterns(h)
    if memo is None:
        memo = {}
    parent: dict[Term, tuple[Term, RewriteStep] | None] = {t: None}
    depth = {t: 0}
    expanded: dict[Term, tuple[RewriteStep, ...]] = {}
    queue = deque([t])
    back = False
    while queue:
        current = queue.popleft()
        d = depth[current]
        if d >= max_steps:
            break                   # the rest of the queue is as far out
        out = rewrite_step(h, current, memo)
        if not out:
            continue
        if len(expanded) >= max_nodes:
            break
        expanded[current] = out
        for step in out:
            result = step.result
            if result not in depth:
                parent[result] = (current, step)
                depth[result] = d + 1
                queue.append(result)
            elif depth[result] <= d:
                back = True
                ancestor = current
                for _ in range(d - depth[result]):
                    ancestor = parent[ancestor][0]
                if ancestor == result:
                    return LoopFound(t, _tree_path(parent, current) + (step,))
    cycle = _first_cycle(t, expanded) if back else None
    if cycle is None:
        return None
    entry, around = cycle
    return LoopFound(t, _tree_path(parent, entry) + around)


def _tree_path(parent: dict[Term, tuple[Term, RewriteStep] | None],
               u: Term) -> tuple[RewriteStep, ...]:
    """The steps from the root of the search tree down to ``u``."""
    path: list[RewriteStep] = []
    while (link := parent[u]) is not None:
        u, step = link
        path.append(step)
    return tuple(reversed(path))


def _first_cycle(root: Term, expanded: dict[Term, tuple[RewriteStep, ...]]
                 ) -> tuple[Term, tuple[RewriteStep, ...]] | None:
    """The first cycle a depth-first walk from ``root`` meets among the
    expanded terms, as (its first term, its steps), or None."""
    on_walk = {root: 0}             # term -> its index in ``stack``
    finished: set[Term] = set()
    stack = [(root, iter(expanded.get(root, ())))]
    trail: list[RewriteStep] = []   # trail[i]: stack[i] -> stack[i + 1]
    while stack:
        term, pending = stack[-1]
        for step in pending:
            result = step.result
            if result in on_walk:
                return result, tuple(trail[on_walk[result]:]) + (step,)
            if result in expanded and result not in finished:
                on_walk[result] = len(stack)
                stack.append((result, iter(expanded[result])))
                trail.append(step)
                break
        else:
            stack.pop()
            del on_walk[term]
            finished.add(term)
            if trail:
                trail.pop()
    return None


# ---------------------------------------------------------------------------
# loop hunting for disproofs


def enumerate_closed_terms(h: Hrs, ty: SimpleType,
                           max_size: int) -> Iterator[Term]:
    """Closed eta-long terms of the given type over the signature, smallest
    first; used to instantiate rule variables when hunting for loops.

    Terms of one size come in generation order: heads in order, then
    arguments in this order, the first first.  Each size is read off the
    list of every term up to that size, in generation order beside their
    sizes, which is built only when the size is reached.
    """
    lists = _TermLists()
    lists.consts = [Const(n, sty) for n, sty in sorted(h.signature.items())]
    for size in range(1, max_size + 1):
        yield from (term for n, term in lists[_terms, ty, size, ()]
                    if n == size)


class _TermLists(dict):
    """The lists of one enumeration over the symbols ``consts``, by builder
    and arguments: a list is built, once, when it is first asked for."""

    def __missing__(self, key: tuple) -> list:
        build, *args = key
        value = self[key] = build(self, *args)
        return value


def _terms(lists: _TermLists, want: SimpleType, budget: int,
           env: tuple[SimpleType, ...]) -> list[tuple[int, Term]]:
    """Every closed term of ``want`` under binders of types ``env`` with at
    most ``budget`` nodes, beside its size, in generation order."""
    if budget <= 0:
        return []
    if isinstance(want, Arrow):
        return [(n + 1, Abs(eta_hint(len(env)), want.dom, body))
                for n, body in lists[_terms, want.cod, budget - 1,
                                     env + (want.dom,)]]
    heads = [Bound(i, bty) for i, bty in enumerate(reversed(env))]
    return [(n + 1, App(head, args))
            for head in heads + lists.consts if head.ty.result is want
            for n, args in lists[_arg_tuples, head.ty.domains, budget - 1,
                                 env]]


def _arg_tuples(lists: _TermLists, doms: tuple[SimpleType, ...],
                budget: int, env: tuple[SimpleType, ...]
                ) -> list[tuple[int, tuple[Term, ...]]]:
    """Argument tuples of at most ``budget`` nodes in all, beside their
    size, in generation order; each later argument keeps a node."""
    if not doms:
        return [(0, ())]
    return [(n + m, (first,) + rest)
            for n, first in lists[_terms, doms[0],
                                  budget - (len(doms) - 1), env]
            for m, rest in lists[_arg_tuples, doms[1:], budget - n, env]]


def loop_seeds(h: Hrs, max_term_size: int = 4,
               cap: int = 200) -> Iterator[Term]:
    """Left-hand sides instantiated with small closed terms, each seed once,
    at most ``cap`` of them.

    A rule's variables, sorted by name, take every combination of the first
    25 closed terms of their types (``enumerate_closed_terms``), in the
    order of ``depth_first``: the last variable varies fastest.  The
    variables of one type share one pool of terms, which is drawn from the
    enumeration only as far as the walk has reached: a search that stops
    at an early seed builds no more.
    """
    if cap < 1:
        return
    seen: set[Term] = set()
    # each pool is a tee that is never advanced: a copy of it starts at
    # the pool's first term, and all copies share what has been drawn
    pools: dict[SimpleType, Iterator[Term]] = {}
    for rule in h.rules:
        names = sorted(free_names(rule.lhs))
        types = [h.variables[name] for name in names]
        for ty in types:
            if ty not in pools:
                pools[ty], = itertools.tee(itertools.islice(
                    enumerate_closed_terms(h, ty, max_term_size), 25), 1)
        for combo in depth_first(
                len(names), lambda prefix: copy(pools[types[len(prefix)]]),
                lambda prefix: True):
            seed = apply_subst(rule.lhs, dict(zip(names, combo)))
            if seed not in seen:
                seen.add(seed)
                yield seed
                if len(seen) >= cap:
                    return


def find_loop(h: Hrs, max_steps: int = 1000, max_term_size: int = 4,
              cap: int = 200, max_nodes: int = 20_000) -> LoopFound | None:
    """Search for a looping reduction from small instances of the rules:
    ``bounded_search`` from each of the seeds of ``loop_seeds`` in turn,
    each seed built only when the search before it found no loop.

    The seeds share one memo of rewrites (``rewrite_step``), made for the
    call and dropped with it; ``TABLE_BOUND`` bounds it.
    """
    memo: dict = {}
    for seed in loop_seeds(h, max_term_size, cap):
        found = bounded_search(h, seed, max_steps, max_nodes, memo)
        if found is not None:
            return found
    return None
