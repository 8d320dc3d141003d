"""Extraction of static dependency pairs.

A candidate of a right-hand side is any argument subterm with the enclosing
binder prefix carried along, built nameless: the argument wrapped in that
prefix.  A candidate headed by a defined symbol whose applied prefixes all
stay outside the safe set of the left-hand side yields a pair: the marked
left-hand side rewrites to the marked candidate body, with the stripped
binders, opened only for a pair, turning into extra free variables.
"""

from __future__ import annotations

from typing import NamedTuple

from .hrs import Hrs
from .normalize import apply_subst, eta_expand
from .terms import (Abs, App, Const, Free, Term, binder_names, free_names,
                    print_term, strip_binders, under_binders)

MARK = "#"


def mark(t: Term) -> Term:
    """Mark the head symbol of a basic application: f(...) becomes f#(...)."""
    assert isinstance(t, App) and isinstance(t.head, Const)
    head = t.head
    return App(Const(head.name + MARK, head.ty), t.args)


def unmark_name(name: str) -> str:
    return name[:-len(MARK)] if name.endswith(MARK) else name


class DependencyPair(NamedTuple):
    """lhs and rhs are basic applications whose heads carry the mark."""

    lhs: Term
    rhs: Term
    origin_rule: str
    extra_vars: tuple[str, ...]

    def __str__(self) -> str:
        return f"{print_term(self.lhs)} -> {print_term(self.rhs)}"


def candidates(t: Term) -> tuple[Term, ...]:
    """All argument subterms of ``t`` with the binder prefix carried down,
    in traversal order and without duplicates.  The binders keep the names
    ``strip_binders`` opens them with (``binder_names``) as hints."""
    out: list[Term] = []
    seen: set[Term] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        out.append(u)
        binders = binder_names(u)
        wrapped = []
        for arg in under_binders(u).args:
            for name, ty in reversed(binders):
                arg = Abs(name, ty, arg)
            wrapped.append(arg)
        stack.extend(reversed(wrapped))
    return tuple(out)


def _canonical_extras(rhs: Term, extras: tuple[Free, ...]) -> Term:
    if not extras:
        return rhs
    theta = {atom.name: eta_expand(Free(f"${i}", atom.ty))
             for i, atom in enumerate(extras)}
    return apply_subst(rhs, theta)


def extract_sdps(h: Hrs) -> tuple[DependencyPair, ...]:
    """The static dependency pairs of the system, in rule order, deduplicated
    up to alpha-equality and renaming of the extra variables."""
    pairs: list[DependencyPair] = []
    keys: set[tuple[Term, Term]] = set()
    for safe in h.safe_sets:
        rule = safe.rule
        lhs_names = free_names(rule.lhs)
        lhs_marked = mark(rule.lhs)
        for cand in candidates(rule.rhs):
            body = under_binders(cand)
            head = body.head
            if not isinstance(head, Const) or head.name not in h.defined:
                continue
            if safe.has_prefix(body):
                continue
            rhs_marked = App(Const(head.name + MARK, head.ty),
                             strip_binders(cand)[1].args)
            extras = _occurring_extras(rhs_marked, lhs_names)
            key = (lhs_marked, _canonical_extras(rhs_marked, extras))
            if key in keys:
                continue
            keys.add(key)
            pairs.append(DependencyPair(lhs_marked, rhs_marked, rule.name,
                                        tuple(a.name for a in extras)))
    return tuple(pairs)


def _occurring_extras(rhs_marked: Term, lhs_names: frozenset[str]
                      ) -> tuple[Free, ...]:
    """Variables free in the pair's right side but not its left, in order of
    first occurrence; these are exactly the stripped binders that remain."""
    order: list[Free] = []
    stack = [rhs_marked]
    while stack:
        u = under_binders(stack.pop())
        head = u.head
        if isinstance(head, Free) and head.name not in lhs_names \
                and head not in order:
            order.append(head)
        stack.extend(reversed(u.args))
    return tuple(order)
