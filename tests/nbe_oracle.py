"""Normalization by evaluation, kept as the oracle for hereditary
substitution and for the reader.

``hoterm.normalize`` builds canonical forms directly, and so does
``hoterm.hrs.parse``.  This module computes them the way the prover once
did: evaluate into a semantic domain of closures and neutral values, then
read the value back as an eta-long beta-normal term.  Its input is a
preterm, a raw lambda tree that may hold under-applied heads and
beta-redexes; the prover itself has only terms.  ``reference_rules`` reads
a system's rules by the old route: surface syntax, then a preterm, then
evaluation and read-back, then ``uniquify_hints``.  The property tests
compare both builders with it on terms, binder hints and printed text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Union

from hoterm.hrs import parse
from hoterm.terms import (Abs, App, Arrow, Atom, Bound, Const, Free,
                          SimpleType, Term, TermTypeError, eta_hint,
                          free_names, liberation_name)

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
# evaluation and read-back


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
    doms = head.ty.domains
    assert len(doms) == len(v.spine)
    args = tuple(reify(a, doms[i], depth) for i, a in enumerate(v.spine))
    if isinstance(head, Level):
        atom: Atom = Bound(depth - 1 - head.depth, head.ty)
    else:
        atom = head
    return App(atom, args)


def nbe_normalize(p: Preterm) -> Term:
    """The canonical form of a preterm, by evaluation and read-back."""
    return reify(eval_preterm(p, (), {}), preterm_type(p), 0)


def nbe_apply_subst(t: Term, theta: Mapping[str, Term]) -> Term:
    """``apply_subst`` by evaluation and read-back, whatever the types."""
    relevant = {name: theta[name] for name in free_names(t) if name in theta}
    if not relevant:
        return t
    frees = {name: eval_term(u, (), {}) for name, u in relevant.items()}
    return reify(eval_term(t, (), frees), t.ty, 0)


def hints(t: Term) -> list[str]:
    """Every binder hint of ``t`` in preorder."""
    if isinstance(t, Abs):
        return [t.hint] + hints(t.body)
    return [h for a in t.args for h in hints(a)]


# ---------------------------------------------------------------------------
# the reference elaborator


def uniquify_hints(t: Term, avoid: frozenset[str]) -> Term:
    """Rename binder hints in preorder so they are pairwise distinct and
    avoid the given names."""
    used = set(avoid)

    def go(u: Term) -> Term:
        if isinstance(u, Abs):
            want = liberation_name(u.hint, used)
            used.add(want)
            return Abs(want, u.param_type, go(u.body))
        return App(u.head, tuple(map(go, u.args)))

    return go(t)


_TOKEN = re.compile(r"->|[A-Za-z0-9_][A-Za-z0-9_']*|[\\().,]")


def _surface(toks: list[str]):
    """One surface term off the front of ``toks``: ("lam", names, body) or
    ("app", head, args).  The input is known to parse."""
    tok = toks.pop(0)
    if tok == "\\":
        names = []
        while toks[0] != ".":
            names.append(toks.pop(0))
        toks.pop(0)
        return ("lam", names, _surface(toks))
    if tok == "(":
        inner = _surface(toks)
        toks.pop(0)
        return inner
    args = []
    if toks and toks[0] == "(":
        toks.pop(0)
        args.append(_surface(toks))
        while toks.pop(0) == ",":
            args.append(_surface(toks))
    return ("app", tok, args)


def _preterm(s, expected: SimpleType | None, scope: dict[str, Atom],
             binders: list[tuple[str, SimpleType]]) -> Preterm:
    """The surface term as a preterm: binder types from ``expected``,
    bound variables as indices into ``binders``."""
    if s[0] == "lam":
        doms, ty = [], expected
        for _ in s[1]:
            doms.append(ty.dom)
            ty = ty.cod
        binders.extend(zip(s[1], doms))
        pre = _preterm(s[2], ty, scope, binders)
        del binders[-len(doms):]
        for name, dom in zip(reversed(s[1]), reversed(doms)):
            pre = PLam(name, dom, pre)
        return pre
    _, head, args = s
    for depth, (name, ty) in enumerate(reversed(binders)):
        if name == head:
            atom: Atom = Bound(depth, ty)
            break
    else:
        atom = scope[head]
    ty = atom.ty
    pre_args = []
    for a in args:
        pre_args.append(_preterm(a, ty.dom, scope, binders))
        ty = ty.cod
    return papp(PAtom(atom), *pre_args)


def reference_rules(text: str) -> list[tuple[Term, Term]]:
    """The sides of each rule of a system that ``parse`` accepts, elaborated
    by evaluation; each rule's hints avoid the names declared above it."""
    h = parse(text)
    scope: dict[str, Atom] = {}
    out = []
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if words and words[0] in ("sig", "var"):
            name = words[1]
            scope[name] = (Const(name, h.signature[name]) if words[0] == "sig"
                           else Free(name, h.variables[name]))
        elif words and words[0] == "rule":
            toks = _TOKEN.findall(raw.split("#", 1)[0].split(":", 1)[1])
            lhs_s = _surface(toks)
            toks.pop(0)
            rhs_s = _surface(toks)
            lhs = nbe_normalize(_preterm(lhs_s, None, scope, []))
            rhs = nbe_normalize(_preterm(rhs_s, lhs.ty, scope, []))
            avoid = frozenset(scope)
            out.append((uniquify_hints(lhs, avoid),
                        uniquify_hints(rhs, avoid)))
    return out
