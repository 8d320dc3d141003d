"""Normalization by evaluation.

Preterms are raw lambda trees: they may contain beta-redexes and under-applied
heads.  ``normalize`` evaluates a preterm into a semantic domain and reads the
value back as an eta-long beta-normal Term.  ``apply_subst`` substitutes free
variables of a Term and renormalizes in one pass; capture is impossible because
bound variables are nameless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Union

from .terms import (Abs, App, Arrow, Atom, Base, Bound, Free, SimpleType,
                    Term, TermTypeError, domains, eta_hint, free_vars)

# ---------------------------------------------------------------------------
# preterms


@dataclass(frozen=True)
class PLam:
    hint: str
    param_type: SimpleType
    body: "Preterm"


@dataclass(frozen=True)
class PApp:
    fn: "Preterm"
    arg: "Preterm"


@dataclass(frozen=True)
class PAtom:
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
# semantic domain


@dataclass(frozen=True)
class Level:
    """Placeholder for a binder introduced during readback."""

    depth: int
    ty: SimpleType


@dataclass
class VLam:
    hint: str
    param_type: SimpleType
    run: Callable[["Value"], "Value"]


@dataclass
class VNe:
    head: Union[Atom, Level]
    spine: tuple["Value", ...]
    rem: SimpleType


Value = Union[VLam, VNe]


def vapply(fn: Value, arg: Value) -> Value:
    if isinstance(fn, VLam):
        return fn.run(arg)
    assert isinstance(fn.rem, Arrow)
    return VNe(fn.head, fn.spine + (arg,), fn.rem.cod)


def eval_term(t: Term, env: tuple[Value, ...],
              frees: Mapping[str, Value]) -> Value:
    if isinstance(t, Abs):
        return VLam(t.hint, t.param_type,
                    lambda v: eval_term(t.body, (v,) + env, frees))
    head = t.head
    if isinstance(head, Bound):
        value: Value = env[head.index]
    elif isinstance(head, Free) and head.name in frees:
        value = frees[head.name]
    else:
        value = VNe(head, (), head.ty)
    for a in t.args:
        value = vapply(value, eval_term(a, env, frees))
    return value


def eval_preterm(p: Preterm, env: tuple[Value, ...],
                 frees: Mapping[str, Value]) -> Value:
    if isinstance(p, Term):
        return eval_term(p, env, frees)
    if isinstance(p, PLam):
        return VLam(p.hint, p.param_type,
                    lambda v: eval_preterm(p.body, (v,) + env, frees))
    if isinstance(p, PApp):
        return vapply(eval_preterm(p.fn, env, frees),
                      eval_preterm(p.arg, env, frees))
    atom = p.atom
    if isinstance(atom, Bound):
        return env[atom.index]
    if isinstance(atom, Free) and atom.name in frees:
        return frees[atom.name]
    return VNe(atom, (), atom.ty)


def reify(v: Value, ty: SimpleType, depth: int) -> Term:
    """Read a value back as an eta-long beta-normal term of type ``ty``."""
    if isinstance(ty, Arrow):
        fresh = VNe(Level(depth, ty.dom), (), ty.dom)
        body = reify(vapply(v, fresh), ty.cod, depth + 1)
        hint = v.hint if isinstance(v, VLam) else eta_hint(depth)
        return Abs(hint, ty.dom, body)
    assert isinstance(v, VNe), "value of basic type must be neutral"
    head = v.head
    head_ty = head.ty
    doms = domains(head_ty)
    assert len(doms) == len(v.spine)
    args = tuple(reify(a, doms[i], depth) for i, a in enumerate(v.spine))
    if isinstance(head, Level):
        atom: Atom = Bound(depth - 1 - head.depth, head.ty)
    else:
        atom = head
    return App(atom, args)


# ---------------------------------------------------------------------------
# entry points

Subst = Mapping[str, Term]


def normalize(p: Preterm) -> Term:
    """Eta-long beta-normal form of a preterm (idempotent on Terms)."""
    ty = preterm_type(p)
    return reify(eval_preterm(p, (), {}), ty, 0)


def apply_subst(t: Term, theta: Subst) -> Term:
    """Substitute free variables and renormalize.

    Entries of ``theta`` whose name is not free in ``t`` are ignored; the
    substituted terms must match the variables' types.  When every
    variable substituted is base-typed it occurs unapplied (the term is
    eta-long), no beta step can happen, and the replacement is structural.
    """
    relevant: dict[str, Term] = {}
    for atom in free_vars(t):
        if atom.name in theta:
            replacement = theta[atom.name]
            if replacement.ty != atom.ty:
                raise TermTypeError(
                    f"substitution for {atom.name} has the wrong type",
                    subject=replacement, expected=atom.ty, actual=replacement.ty)
            relevant[atom.name] = replacement
    if not relevant:
        return t
    if all(isinstance(u.ty, Base) for u in relevant.values()):
        return _replace_frees(t, relevant)
    frees = {name: eval_term(u, (), {}) for name, u in relevant.items()}
    return reify(eval_term(t, (), frees), t.ty, 0)


def _replace_frees(t: Term, replacement: Mapping[str, Term]) -> Term:
    """Replace base-typed free variables; bound variables are nameless and
    the replacements have no loose ones, so nothing is captured or
    shifted."""
    if isinstance(t, Abs):
        return Abs(t.hint, t.param_type, _replace_frees(t.body, replacement))
    head = t.head
    if isinstance(head, Free) and head.name in replacement:
        return replacement[head.name]
    return App(head, tuple(_replace_frees(a, replacement) for a in t.args))
