"""Extraction of static dependency pairs.

The binder walk ``terms.bodies`` yields each application of a right-hand
side, left nameless, with the abstractions above it.  One headed by a
defined symbol whose applied prefixes all stay outside the safe set of the
left-hand side yields a pair: the marked left-hand side rewrites to the
marked body, opened once by ``terms.open_under``, so that the binders above
it, named apart from the left side's free names, turn into extra free
variables.
"""

from __future__ import annotations

from typing import NamedTuple

from .hrs import Hrs
from .normalize import apply_subst, eta_expand
from .terms import (App, Const, Free, Term, bodies, free_names, open_under,
                    print_term)

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
        lhs_marked = None
        for above, body in bodies(rule.rhs):
            head = body.head
            if not isinstance(head, Const) or head.name not in h.defined:
                continue
            if safe.has_prefix(body):
                continue
            rhs_marked = mark(open_under(above, body, lhs_names)[1]
                              if above else body)
            extras = _occurring_extras(rhs_marked, lhs_names)
            if lhs_marked is None:      # at the rule's first pair
                lhs_marked = mark(rule.lhs)
            key = (lhs_marked, _canonical_extras(rhs_marked, extras))
            if key in keys:
                continue
            keys.add(key)
            pairs.append(DependencyPair(key[0], rhs_marked, rule.name,
                                        tuple(a.name for a in extras)))
    return tuple(pairs)


def _occurring_extras(rhs_marked: Term, lhs_names: frozenset[str]
                      ) -> tuple[Free, ...]:
    """Variables free in the pair's right side but not its left, in order of
    first occurrence; these are exactly the stripped binders that remain."""
    if free_names(rhs_marked) <= lhs_names:
        return ()
    return tuple(dict.fromkeys(
        u.head for _, u in bodies(rhs_marked)
        if isinstance(u.head, Free) and u.head.name not in lhs_names))
