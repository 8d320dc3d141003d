"""Safe-argument analysis and the plain function-passing check.

A rule passes functions plainly when every applied occurrence of one of its
higher-order variables on the right can be traced back, possibly after
dropping trailing arguments and renormalizing, to a safe subterm of the left.
Systems in which every rule has this shape admit the recursion-pair analysis
of the other modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .hrs import Hrs, Rule
from .normalize import PAtom, normalize, papp
from .terms import (App, Arrow, Atom, Free, SimpleType, Term, args,
                    free_names, print_term, strip_binders, subterms, top)


@dataclass(frozen=True)
class SafeSet:
    rule: Rule
    safe: tuple[Term, ...]

    @cached_property
    def shapes(self) -> frozenset[tuple[Atom, SimpleType]]:
        """(head under the binders, type) of each safe subterm: an applied
        prefix can equal a safe subterm only when it has one of these."""
        return frozenset((top(u), u.ty) for u in self.safe)

    def has_prefix(self, head: Atom, arguments: tuple[Term, ...]) -> bool:
        """True when some applied prefix of head(arguments) is safe."""
        return any(p in self.safe
                   for p in applied_prefixes(head, arguments, self.shapes))


@dataclass(frozen=True)
class PfpViolation:
    rule: str
    subterm: Term
    reason: str


@dataclass(frozen=True)
class PfpReport:
    is_pfp: bool
    violations: tuple[PfpViolation, ...]


def safe_basic(t: Term, var_names: frozenset[str]) -> tuple[Term, ...]:
    """Basic-typed bodies reachable by stripping binders and descending into
    arguments, stopping at applications headed by one of ``var_names``."""
    _, body = strip_binders(t)
    head = body.head
    if isinstance(head, Free) and head.name in var_names:
        return (body,)
    out: list[Term] = [body]
    seen = {body}
    for arg in body.args:
        for u in safe_basic(arg, var_names):
            if u not in seen:
                seen.add(u)
                out.append(u)
    return tuple(out)


def safe_subterms(rule: Rule) -> SafeSet:
    """The safe subterms of a rule: the arguments of the left-hand side plus
    every basic body under them whose free variables all occur in the left."""
    lhs_args = args(rule.lhs)
    lhs_names = free_names(rule.lhs)
    out: list[Term] = list(lhs_args)
    seen = set(out)
    for arg in lhs_args:
        for u in safe_basic(arg, lhs_names):
            if u in seen or not free_names(u) <= lhs_names:
                continue
            seen.add(u)
            out.append(u)
    return SafeSet(rule, tuple(out))


def applied_prefixes(head: Atom, arguments: tuple[Term, ...],
                     shapes: frozenset[tuple[Atom, SimpleType]]
                     ) -> list[Term]:
    """Normal forms of head(a1..ak), shortest first, for each k at which
    (head, the prefix's type) is one of ``shapes``; dropping trailing
    arguments leaves an under-applied head that eta-expands."""
    out = []
    ty = head.ty
    for k in range(len(arguments) + 1):
        if (head, ty) in shapes:
            out.append(normalize(papp(PAtom(head), *arguments[:k])))
        if isinstance(ty, Arrow):
            ty = ty.cod
    return out


def is_pfp(h: Hrs) -> PfpReport:
    """Check every rule; violations name the offending right-hand subterm."""
    violations: list[PfpViolation] = []
    for safe in h.safe_sets:
        rule = safe.rule
        rhs_names = free_names(rule.rhs)
        for s in subterms(rule.rhs):
            if not isinstance(s, App):
                continue
            head = s.head
            if not isinstance(head, Free) or head.name not in rhs_names:
                continue
            if safe.has_prefix(head, s.args):
                continue
            violations.append(PfpViolation(
                rule.name, s,
                f"no applied prefix of {print_term(s)} normalizes to a safe "
                f"subterm of the left-hand side"))
    return PfpReport(not violations, tuple(violations))
