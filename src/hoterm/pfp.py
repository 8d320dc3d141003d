"""Safe-argument analysis and the plain function-passing check.

A rule passes functions plainly when every applied occurrence of one of its
higher-order variables on the right has an applied prefix, possibly
renormalized, that is a safe subterm of the left.  Systems in which every
rule has this shape admit the recursion-pair analysis of the other modules.

Both questions are decided on the nameless terms as they are stored.  A safe
subterm is a body that reaches none of the binders stripped above it, so a
prefix that takes an argument reaching a binder is never safe: the prefix
test stops there.  The whole application is looked up as it stands; a proper
prefix is normalized only when its head and type match a safe subterm's.
The right side is read by the binder walk ``terms.bodies``, as ``sdp`` reads
it; a binder is opened, by ``terms.open_under``, only to show a violation.
"""

from __future__ import annotations

from typing import NamedTuple

from .hrs import Hrs, Rule
from .normalize import normalize
from .terms import (App, Free, Term, bodies, free_names, open_under,
                    print_term, reach, under_binders)


class SafeSet:
    def __init__(self, rule: Rule, safe: tuple[Term, ...]):
        self.rule = rule
        self.safe = safe
        self.members = frozenset(safe)
        # (head under the binders, type) of each safe subterm: an applied
        # prefix can equal a safe subterm only when it has one of these
        self.shapes = frozenset((under_binders(u).head, u.ty) for u in safe)

    def has_prefix(self, t: App) -> bool:
        """True when some applied prefix of ``t`` is safe; an argument of
        ``t`` that reaches a binder above it ends the prefixes that can be."""
        head, ty = t.head, t.head.ty
        for k, arg in enumerate(t.args):
            if (head, ty) in self.shapes \
                    and normalize(head, t.args[:k]) in self.members:
                return True
            if reach(arg):
                return False
            ty = ty.cod
        return (head, ty) in self.shapes and t in self.members


class PfpViolation(NamedTuple):
    rule: str
    subterm: Term
    reason: str


class PfpReport(NamedTuple):
    is_pfp: bool
    violations: tuple[PfpViolation, ...]


def safe_subterms(rule: Rule) -> SafeSet:
    """The safe subterms of a rule: the arguments of the left-hand side plus
    every basic body under them that reaches none of the binders stripped
    above it.  The walk goes through the arguments of each body, but not
    of one headed by a rule variable."""
    out: list[Term] = list(rule.lhs.args)
    seen = set(out)
    stack = out[::-1]
    while stack:
        t = under_binders(stack.pop())
        if not reach(t) and t not in seen:
            seen.add(t)
            out.append(t)
        if not isinstance(t.head, Free):
            stack.extend(reversed(t.args))
    return SafeSet(rule, tuple(out))


def is_pfp(h: Hrs) -> PfpReport:
    """Check every rule; violations name the offending right-hand subterm,
    with the binders above it opened apart from the right side's free
    names, each distinct one once."""
    violations: list[PfpViolation] = []
    for safe in h.safe_sets:
        rule = safe.rule
        shown: set[Term] = set()
        for above, t in bodies(rule.rhs):
            if isinstance(t.head, Free) and not safe.has_prefix(t):
                s = open_under(above, t, free_names(rule.rhs))[1]
                if s not in shown:
                    shown.add(s)
                    violations.append(PfpViolation(
                        rule.name, s,
                        f"no applied prefix of {print_term(s)} normalizes "
                        f"to a safe subterm of the left-hand side"))
    return PfpReport(not violations, tuple(violations))
