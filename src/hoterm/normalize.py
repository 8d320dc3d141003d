"""Canonical forms by hereditary substitution.

Preterms are raw lambda trees: they may contain under-applied heads and
beta-redexes (pfp's prefixes have none).  ``normalize`` builds the eta-long
beta-normal Term of a preterm in one pass: it eta-expands an under-applied
head where it stands, and contracts a redex by substituting the argument
into the body, hereditarily: an argument that lands in head position is
applied in turn, by recursion on the type.  ``apply_subst`` substitutes
free variables the same way; bound variables are nameless, so nothing is
captured.  An abstraction keeps its binder hint, and a binder made by
eta-expansion is hinted by its depth from the root (``eta_hint``), as
normalization by evaluation reads them back.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping, NamedTuple, Union

from .terms import (Abs, App, Arrow, Atom, Bound, Free, SimpleType, Term,
                    TermTypeError, domains, eta_hint, free_names, free_vars)

# ---------------------------------------------------------------------------
# preterms


class PLam(NamedTuple):
    hint: str
    param_type: SimpleType
    body: "Preterm"


class PApp(NamedTuple):
    fn: "Preterm"
    arg: "Preterm"


class PAtom(NamedTuple):
    atom: Atom


Preterm = Union[PLam, PApp, PAtom, Term]


def papp(fn: Preterm, *pre_args: Preterm) -> Preterm:
    for a in pre_args:
        fn = PApp(fn, a)
    return fn


def preterm_type(p: Preterm, env: tuple[SimpleType, ...] = ()) -> SimpleType:
    """Type of a preterm, raising TermTypeError on ill-typed input."""
    if isinstance(p, Term):
        return p.ty
    if isinstance(p, PLam):
        return Arrow(p.param_type, preterm_type(p.body, (p.param_type,) + env))
    if isinstance(p, PApp):
        fn_ty = preterm_type(p.fn, env)
        if not isinstance(fn_ty, Arrow):
            raise TermTypeError("application of a non-function",
                                subject=p.fn, actual=fn_ty)
        arg_ty = preterm_type(p.arg, env)
        if arg_ty != fn_ty.dom:
            raise TermTypeError("argument type mismatch", subject=p.arg,
                                expected=fn_ty.dom, actual=arg_ty)
        return fn_ty.cod
    atom = p.atom
    if isinstance(atom, Bound):
        if atom.index >= len(env):
            raise TermTypeError(f"dangling bound index {atom.index}", subject=p)
        if env[atom.index] != atom.ty:
            raise TermTypeError("bound variable type mismatch", subject=p,
                                expected=env[atom.index], actual=atom.ty)
    return atom.ty


# ---------------------------------------------------------------------------
# the builder
#
# An environment maps the de Bruijn index of a bound variable of the preterm
# being read to an int, the level (depth from the root) of a binder of the
# result, or to a closure (preterm, environment), the argument a redex bound
# there: it is built where it is used, at any depth below where it was made.


@cache
def _levels(depth: int) -> tuple[int, ...]:
    """Each bound variable standing for itself; one tuple, ``is``-tested."""
    return tuple(range(depth - 1, -1, -1))


def _build(p: Preterm, env: tuple, depth: int, stack: list) -> Term:
    """The canonical form, under ``depth`` binders, of ``p`` read in
    ``env`` and applied to the closures on ``stack`` (first argument last)."""
    while True:
        if not stack and isinstance(p, Term) \
                and (not env or env is _levels(depth)):
            return p
        if isinstance(p, PApp):
            stack.append((p.arg, env))
            p = p.fn
        elif isinstance(p, (PLam, Abs)):
            if not stack:
                return Abs(p.hint, p.param_type,
                           _build(p.body, (depth,) + env, depth + 1, []))
            env = (stack.pop(),) + env
            p = p.body
        else:
            if isinstance(p, App):
                stack.extend((a, env) for a in reversed(p.args))
                atom = p.head
            else:
                atom = p.atom
            entry = env[atom.index] if isinstance(atom, Bound) else None
            if not isinstance(entry, tuple):
                return _neutral(atom, entry, stack, depth)
            p, env = entry


def _neutral(atom: Atom, level: int | None, stack: list, depth: int) -> Term:
    """``atom`` applied to the closures on ``stack``, eta-expanded over the
    arguments it still lacks; ``level`` places a bound ``atom``."""
    missing = domains(atom.ty)[len(stack):]
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
    """Substitute ``theta`` for free variables of ``t``; a substituted
    variable's arguments are passed to its replacement."""
    if free_names(t).isdisjoint(theta):
        return t
    if isinstance(t, Abs):
        return Abs(t.hint, t.param_type, _replace(t.body, theta, depth + 1))
    head = t.head
    if not t.args and isinstance(head, Free):
        return theta[head.name]     # what _build returns with nothing to pass
    args = []
    for a in t.args:
        args.append(_replace(a, theta, depth))
    if isinstance(head, Free) and head.name in theta:
        env = _levels(depth)
        return _build(theta[head.name], (), depth,
                      [(a, env) for a in reversed(args)])
    return App(head, tuple(args))


# ---------------------------------------------------------------------------
# entry points

def eta_expand(atom: Atom) -> Term:
    """The eta-long term standing for a bare atom, e.g. \\x y. F(x, y); a
    bound atom's index counts from where the term stands."""
    if isinstance(atom, Bound):
        return _neutral(atom, 0, [], atom.index + 1)
    return _neutral(atom, None, [], 0)


def normalize(p: Preterm) -> Term:
    """Eta-long beta-normal form of a preterm (idempotent on Terms)."""
    preterm_type(p)
    return _build(p, (), 0, [])


def apply_subst(t: Term, theta: Mapping[str, Term]) -> Term:
    """Substitute free variables and renormalize.

    Entries of ``theta`` whose name is not free in ``t`` are ignored; the
    substituted terms must match the variables' types and be closed.
    """
    for atom in free_vars(t):
        replacement = theta.get(atom.name)
        if replacement is not None and replacement.ty != atom.ty:
            raise TermTypeError(
                f"substitution for {atom.name} has the wrong type",
                subject=replacement, expected=atom.ty, actual=replacement.ty)
    return _replace(t, theta, 0)
