"""Canonical forms by hereditary substitution.

Every term is kept in eta-long beta-normal form.  ``apply_subst``
substitutes free variables and rebuilds the result in one pass: a
substituted variable's arguments are passed to its replacement, whose
abstractions take them by substituting into the body, hereditarily: an
argument that lands in head position is applied in turn, by recursion on
the type.  Bound variables are nameless, so nothing is captured, and a
replacement's loose indices, which reach binders above the term it is
substituted into, are lifted past the binders it lands under.
``normalize`` builds a head applied to fewer arguments than it takes,
eta-expanded where it stands.  An abstraction keeps its binder hint, and a
binder made by eta-expansion is hinted by its depth from the root
(``eta_hint``), as normalization by evaluation reads them back.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping, Sequence

from .terms import (Abs, App, Atom, Bound, Free, Term, TermTypeError,
                    eta_hint, free_names, reach)

# ---------------------------------------------------------------------------
# the builder
#
# An environment maps the de Bruijn index of a bound variable of the term
# being read to an int, the level (depth from the root) of a binder of the
# result, or to a closure (term, environment), the argument an abstraction
# took there: it is built where it is used, at any depth below where it was
# made.  The term read stands under the same outer binders as the result, so
# an index past the environment reaches one of them, at a negative level.


@cache
def _levels(depth: int) -> tuple[int, ...]:
    """Each bound variable standing for itself; one tuple, ``is``-tested."""
    return tuple(range(depth - 1, -1, -1))


def _build(t: Term, env: tuple, depth: int, stack: list) -> Term:
    """The canonical form, under ``depth`` binders, of ``t`` read in
    ``env`` and applied to the closures on ``stack`` (first argument last)."""
    while True:
        if not stack and (not env and not reach(t) or env is _levels(depth)):
            return t
        if isinstance(t, Abs):
            if not stack:
                return Abs(t.hint, t.param_type,
                           _build(t.body, (depth,) + env, depth + 1, []))
            env = (stack.pop(),) + env
            t = t.body
            continue
        stack.extend((a, env) for a in reversed(t.args))
        atom = t.head
        entry = None
        if isinstance(atom, Bound):
            i = atom.index
            entry = env[i] if i < len(env) else len(env) - 1 - i
        if not isinstance(entry, tuple):
            return _neutral(atom, entry, stack, depth)
        t, env = entry


def _neutral(atom: Atom, level: int | None, stack: list, depth: int) -> Term:
    """``atom`` applied to the closures on ``stack``, eta-expanded over the
    arguments it still lacks; ``level`` places a bound ``atom`` (a negative
    level is above the root)."""
    missing = atom.ty.domains[len(stack):]
    inner = depth + len(missing)
    if level is not None:
        atom = Bound(inner - 1 - level, atom.ty)
    args = [_build(q, env, inner, []) for q, env in reversed(stack)]
    args.extend(_neutral(Bound(0, dom), depth + k, [], inner)
                for k, dom in enumerate(missing))
    term: Term = App(atom, tuple(args))
    for k in reversed(range(len(missing))):
        term = Abs(eta_hint(depth + k), missing[k], term)
    return term


def _replace(t: Term, theta: Mapping[str, Term], depth: int) -> Term:
    """Substitute ``theta`` for free variables of ``t``, each replacement
    checked against the type of the variable it replaces; a substituted
    variable's arguments are passed to its replacement."""
    if free_names(t).isdisjoint(theta):
        return t
    if isinstance(t, Abs):
        return Abs(t.hint, t.param_type, _replace(t.body, theta, depth + 1))
    head = t.head
    r = None
    if isinstance(head, Free) and head.name in theta:
        r = theta[head.name]
        if r.ty is not head.ty:
            raise TermTypeError(
                f"substitution for {head.name} has the wrong type",
                subject=r, expected=head.ty, actual=r.ty)
        if not t.args:          # what _build returns with nothing to pass
            return _build(r, (), depth, []) if depth and reach(r) else r
    args = []
    for a in t.args:
        args.append(_replace(a, theta, depth))
    if r is None:
        return App(head, tuple(args))
    env = _levels(depth)
    return _build(r, (), depth, [(a, env) for a in reversed(args)])


# ---------------------------------------------------------------------------
# entry points

def eta_expand(atom: Atom) -> Term:
    """The eta-long term standing for a bare atom, e.g. \\x y. F(x, y); a
    bound atom's index counts from where the term stands."""
    if isinstance(atom, Bound):
        return _neutral(atom, 0, [], atom.index + 1)
    return _neutral(atom, None, [], 0)


def normalize(head: Atom, args: Sequence[Term]) -> Term:
    """The canonical form of a symbol or free variable applied to the closed
    ``args``, which may be fewer than it takes."""
    return _neutral(head, None, [(a, ()) for a in reversed(args)], 0)


def apply_subst(t: Term, theta: Mapping[str, Term]) -> Term:
    """Substitute free variables and renormalize.

    Entries of ``theta`` whose name is not free in ``t`` are ignored; the
    substituted terms must match the variables' types.  A loose index of a
    substituted term reaches a binder above ``t``, and is lifted past the
    binders of ``t`` above the variable it replaces.
    """
    return _replace(t, theta, 0)
