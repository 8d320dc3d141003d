"""The function-passing check and pair extraction on opened terms, kept as
the oracle for ``hoterm.pfp`` and ``hoterm.sdp``.

The prover decides safety on the nameless terms as they are stored, and
opens a binder only for a pair or a violation it prints.  This module
decides it the way the prover once did: open every binder into a named
free variable (``strip_binders``), keep the bodies whose free names all
occur in the left-hand side, normalize every applied prefix by evaluation
(``nbe_oracle``) and look it up, rebind each candidate's binders with
``lam``, and walk the right-hand side's ``subterms``.

The prover keeps a pair's sides as its rule's own terms and prints the mark
after their root symbols; ``mark`` builds the marked copies that it once
kept, for the tests that check its printing against them.
"""

from __future__ import annotations

from hoterm.hrs import Hrs, Rule
from hoterm.pfp import PfpReport, PfpViolation
from hoterm.sdp import (MARK, DependencyPair, _canonical_extras,
                        _occurring_extras)
from hoterm.terms import (App, Atom, Const, Free, Term, free_names,
                          print_term, subterms)
from nbe_oracle import PAtom, nbe_normalize, papp
from strategies import lam, strip_binders


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


def safe_subterms(rule: Rule) -> tuple[Term, ...]:
    """The arguments of the left-hand side plus every opened basic body
    under them whose free names all occur in the left."""
    lhs_args = rule.lhs.args
    lhs_names = free_names(rule.lhs)
    out: list[Term] = list(lhs_args)
    seen = set(out)
    for arg in lhs_args:
        for u in safe_basic(arg, lhs_names):
            if u in seen or not free_names(u) <= lhs_names:
                continue
            seen.add(u)
            out.append(u)
    return tuple(out)


def has_prefix(safe: tuple[Term, ...], head: Atom,
               arguments: tuple[Term, ...]) -> bool:
    """True when the normal form of some head(a1..ak), k = 0..n, is safe."""
    return any(nbe_normalize(papp(PAtom(head), *arguments[:k])) in safe
               for k in range(len(arguments) + 1))


def is_pfp(h: Hrs) -> PfpReport:
    violations: list[PfpViolation] = []
    for rule in h.rules:
        safe = safe_subterms(rule)
        rhs_names = free_names(rule.rhs)
        for s in subterms(rule.rhs):
            if not isinstance(s, App):
                continue
            head = s.head
            if not isinstance(head, Free) or head.name not in rhs_names:
                continue
            if has_prefix(safe, head, s.args):
                continue
            violations.append(PfpViolation(
                rule.name, s,
                f"no applied prefix of {print_term(s)} normalizes to a safe "
                f"subterm of the left-hand side"))
    return PfpReport(not violations, tuple(violations))


def candidates(t: Term) -> tuple[Term, ...]:
    """All argument subterms of ``t``, each opened and rebound under the
    binder prefix above it, in traversal order and without duplicates."""
    out: list[Term] = []
    seen: set[Term] = set()

    def walk(u: Term):
        if u not in seen:
            seen.add(u)
            out.append(u)
        binders, body = strip_binders(u)
        for arg in body.args:
            wrapped = arg
            for name, ty in reversed(binders):
                wrapped = lam(name, ty, wrapped)
            walk(wrapped)

    walk(t)
    return tuple(out)


def mark(t: App) -> App:
    """The marked copy of a pair side: f(...) becomes f#(...)."""
    return App(Const(t.head.name + MARK, t.head.ty), t.args)


def extract_sdps(h: Hrs) -> tuple[DependencyPair, ...]:
    pairs: list[DependencyPair] = []
    keys: set[tuple[Term, Term]] = set()
    for rule in h.rules:
        safe = safe_subterms(rule)
        lhs_names = free_names(rule.lhs)
        for cand in candidates(rule.rhs):
            binders, body = strip_binders(cand)
            head = body.head
            if not isinstance(head, Const) or head.name not in h.defined:
                continue
            if has_prefix(safe, head, body.args):
                continue
            extras = _occurring_extras(body, lhs_names)
            key = (rule.lhs, _canonical_extras(body, extras))
            if key in keys:
                continue
            keys.add(key)
            pairs.append(DependencyPair(rule.lhs, body, rule.name,
                                        tuple(a.name for a in extras)))
    return tuple(pairs)
