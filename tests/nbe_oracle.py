"""Normalization by evaluation, kept as the oracle for hereditary substitution.

``hoterm.normalize`` builds canonical forms directly.  This module computes
them the way the prover once did: evaluate into a semantic domain of
closures and neutral values, then read the value back as an eta-long
beta-normal term.  The property tests compare the two on terms, binder
hints and printed text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Union

from hoterm.normalize import PApp, PLam, Preterm, preterm_type
from hoterm.terms import (Abs, App, Arrow, Atom, Bound, Free, SimpleType,
                          Term, domains, eta_hint, free_vars)


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
    doms = domains(head.ty)
    assert len(doms) == len(v.spine)
    args = tuple(reify(a, doms[i], depth) for i, a in enumerate(v.spine))
    if isinstance(head, Level):
        atom: Atom = Bound(depth - 1 - head.depth, head.ty)
    else:
        atom = head
    return App(atom, args)


def nbe_normalize(p: Preterm) -> Term:
    """``normalize`` by evaluation and read-back."""
    return reify(eval_preterm(p, (), {}), preterm_type(p), 0)


def nbe_apply_subst(t: Term, theta: Mapping[str, Term]) -> Term:
    """``apply_subst`` by evaluation and read-back, whatever the types."""
    relevant = {a.name: theta[a.name] for a in free_vars(t)
                if a.name in theta}
    if not relevant:
        return t
    frees = {name: eval_term(u, (), {}) for name, u in relevant.items()}
    return reify(eval_term(t, (), frees), t.ty, 0)


def hints(t: Term) -> list[str]:
    """Every binder hint of ``t`` in preorder."""
    if isinstance(t, Abs):
        return [t.hint] + hints(t.body)
    return [h for a in t.args for h in hints(a)]
