"""Extraction of static dependency pairs.

The binder walk ``terms.bodies`` yields each application of a right-hand
side, left nameless, with the abstractions above it.  One headed by a
defined symbol whose applied prefixes all stay outside the safe set of the
left-hand side yields a pair ``l# -> a#``: the rule's left-hand side to the
body, opened once by ``terms.open_under`` when binders stand above it, so
that those binders, named apart from the left side's free names, turn into
extra free variables.

The mark on the root symbol of each side says only where that symbol
stands, which the pair already tells: the path order ranks a marked symbol
with its unmarked form, the graph joins heads by name and the projections
are chosen per symbol.  So a pair keeps its rule's own terms, no marked
symbol is built, and ``print_side`` writes the mark when a pair is shown.
"""

from __future__ import annotations

from typing import NamedTuple

from .hrs import Hrs
from .normalize import apply_subst, eta_expand
from .terms import (App, Const, Free, Term, bodies, free_names, open_under,
                    print_term)

MARK = "#"


def print_side(t: App) -> str:
    """A pair side as the pair shows it: the mark after its root symbol."""
    name = t.head.name
    return name + MARK + print_term(t)[len(name):]


class DependencyPair(NamedTuple):
    """lhs is the rule's left-hand side and rhs the body it calls; both are
    basic applications headed by defined symbols."""

    lhs: Term
    rhs: Term
    origin_rule: str
    extra_vars: tuple[str, ...]

    def __str__(self) -> str:
        return f"{print_side(self.lhs)} -> {print_side(self.rhs)}"


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
        for above, body in bodies(rule.rhs):
            head = body.head
            if not isinstance(head, Const) or head.name not in h.defined:
                continue
            if safe.has_prefix(body):
                continue
            rhs = open_under(above, body, lhs_names)[1] if above else body
            extras = _occurring_extras(rhs, lhs_names)
            key = (rule.lhs, _canonical_extras(rhs, extras))
            if key in keys:
                continue
            keys.add(key)
            pairs.append(DependencyPair(rule.lhs, rhs, rule.name,
                                        tuple(a.name for a in extras)))
    return tuple(pairs)


def _occurring_extras(rhs: Term, lhs_names: frozenset[str]
                      ) -> tuple[Free, ...]:
    """Variables free in the pair's right side but not its left, in order of
    first occurrence; these are exactly the stripped binders that remain."""
    if free_names(rhs) <= lhs_names:
        return ()
    return tuple(dict.fromkeys(
        u.head for _, u in bodies(rhs)
        if isinstance(u.head, Free) and u.head.name not in lhs_names))
