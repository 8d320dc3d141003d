"""Reading and writing rewrite systems in the line-oriented .hrs format.

A file declares basic types, a signature, rule variables, and named rules::

    basic nat natlist
    sig foldl : (nat -> nat -> nat) -> nat -> natlist -> nat
    sig nil : natlist
    var F : nat -> nat -> nat
    rule foldl-nil: foldl(\\x y. F(x, y), X, nil) -> X

Comments start with ``#``.  Terms are written ``f(t1, ..., tn)`` with
``\\x y. t`` for abstraction; binder types are inferred from the expected
argument type, and under-applied heads are eta-expanded while reading.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Union

from .normalize import PAtom, PLam, Preterm, eta_expand, normalize, papp
from .terms import (Abs, App, Arrow, Atom, Base, Bound, Const, Free,
                    SimpleType, Term, TermTypeError, free_names,
                    liberation_name, print_term, top)

if TYPE_CHECKING:
    from .pfp import SafeSet


class HrsError(ValueError):
    """Syntax, typing, or validation problem in a rewrite-system file."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}: " if col is None else f"line {line}, col {col}: "
        super().__init__(where + message)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# rules and systems


@dataclass(frozen=True)
class Rule:
    name: str
    lhs: Term
    rhs: Term
    is_pattern: bool = field(compare=False, default=True)

    def __str__(self) -> str:
        return f"{self.name}: {print_term(self.lhs)} -> {print_term(self.rhs)}"


@dataclass(eq=False)
class Hrs:
    basics: tuple[str, ...]
    signature: dict[str, SimpleType]
    variables: dict[str, SimpleType]
    rules: tuple[Rule, ...]
    defined: frozenset[str] = field(init=False)
    constructors: frozenset[str] = field(init=False)

    def __post_init__(self):
        defined = frozenset(top(r.lhs).name for r in self.rules)
        self.defined = defined
        self.constructors = frozenset(self.signature) - defined

    @cached_property
    def rules_by_head(self) -> dict[Atom, tuple[Rule, ...]]:
        """Head of a left-hand side -> its rules, in order: what
        ``rewrite_step`` tries at a subterm with that head."""
        index: dict[Atom, list[Rule]] = {}
        for r in self.rules:
            if isinstance(r.lhs, App):
                index.setdefault(r.lhs.head, []).append(r)
        return {head: tuple(rs) for head, rs in index.items()}

    @cached_property
    def safe_sets(self) -> tuple[SafeSet, ...]:
        """``pfp.safe_subterms`` of each rule, in rule order."""
        from .pfp import safe_subterms  # pfp builds on this module
        return tuple(safe_subterms(r) for r in self.rules)


# ---------------------------------------------------------------------------
# lexer

_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_']*")
_RULE_NAME_RE = re.compile(r"[A-Za-z0-9_'-]+")
_TOKEN_RE = re.compile(r"\s+|->|[A-Za-z0-9_][A-Za-z0-9_']*|[\\().,:]")


@dataclass(frozen=True)
class _Token:
    text: str
    col: int


def _tokenize(line: str, lineno: int) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise HrsError(f"unexpected character {line[pos]!r}",
                           lineno, pos + 1)
        if not m.group().isspace():
            out.append(_Token(m.group(), pos + 1))
        pos = m.end()
    return out


# ---------------------------------------------------------------------------
# surface syntax (types not yet known)


@dataclass(frozen=True)
class _SLam:
    binders: tuple[str, ...]
    body: "_STerm"
    col: int


@dataclass(frozen=True)
class _SApp:
    head: str
    args: tuple["_STerm", ...]
    col: int


_STerm = Union[_SLam, _SApp]


class _Cursor:
    def __init__(self, tokens: list[_Token], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.i = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, expected: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            raise HrsError(f"unexpected end of line"
                           + (f", expected {expected!r}" if expected else ""),
                           self.lineno)
        if expected is not None and tok.text != expected:
            raise HrsError(f"expected {expected!r}, found {tok.text!r}",
                           self.lineno, tok.col)
        self.i += 1
        return tok

    def next_name(self, what: str) -> _Token:
        tok = self.next(None)
        if not _NAME_RE.fullmatch(tok.text):
            raise HrsError(f"expected {what}, found {tok.text!r}",
                           self.lineno, tok.col)
        return tok

    def done(self):
        tok = self.peek()
        if tok is not None:
            raise HrsError(f"trailing input {tok.text!r}", self.lineno, tok.col)


def _parse_type(cur: _Cursor, basics: set[str]) -> SimpleType:
    left = _parse_type_atom(cur, basics)
    tok = cur.peek()
    if tok is not None and tok.text == "->":
        cur.next()
        return Arrow(left, _parse_type(cur, basics))
    return left


def _parse_type_atom(cur: _Cursor, basics: set[str]) -> SimpleType:
    tok = cur.peek()
    if tok is None:
        raise HrsError("unexpected end of line in type", cur.lineno)
    if tok.text == "(":
        cur.next()
        ty = _parse_type(cur, basics)
        cur.next(")")
        return ty
    name = cur.next_name("a type name")
    if name.text not in basics:
        raise HrsError(f"unknown basic type {name.text!r}",
                       cur.lineno, name.col)
    return Base(name.text)


def _parse_sterm(cur: _Cursor) -> _STerm:
    tok = cur.peek()
    if tok is None:
        raise HrsError("unexpected end of line in term", cur.lineno)
    if tok.text == "\\":
        cur.next()
        binders = [cur.next_name("a binder name")]
        while cur.peek() is not None and cur.peek().text != ".":
            binders.append(cur.next_name("a binder name"))
        cur.next(".")
        body = _parse_sterm(cur)
        return _SLam(tuple(t.text for t in binders), body, tok.col)
    if tok.text == "(":
        cur.next()
        inner = _parse_sterm(cur)
        cur.next(")")
        return inner
    head = cur.next_name("a term")
    args: list[_STerm] = []
    nxt = cur.peek()
    if nxt is not None and nxt.text == "(":
        cur.next()
        args.append(_parse_sterm(cur))
        while cur.peek() is not None and cur.peek().text == ",":
            cur.next()
            args.append(_parse_sterm(cur))
        cur.next(")")
    return _SApp(head.text, tuple(args), tok.col)


# ---------------------------------------------------------------------------
# scope resolution and type checking of surface terms


class _Scope:
    """Declared symbols and variables plus the lexical binder stack."""

    def __init__(self, signature: dict[str, SimpleType],
                 variables: dict[str, SimpleType], lineno: int):
        self.signature = signature
        self.variables = variables
        self.lineno = lineno
        self.binders: list[tuple[str, SimpleType]] = []

    def head_atom(self, name: str, col: int):
        for depth, (bname, bty) in enumerate(reversed(self.binders)):
            if bname == name:
                return Bound(depth, bty)
        if name in self.variables:
            return Free(name, self.variables[name])
        if name in self.signature:
            return Const(name, self.signature[name])
        raise HrsError(f"unknown symbol {name!r}", self.lineno, col)

    def push(self, name: str, ty: SimpleType, col: int):
        if (name in self.signature or name in self.variables
                or any(b == name for b, _ in self.binders)):
            raise HrsError(f"binder {name!r} shadows a declared name",
                           self.lineno, col)
        self.binders.append((name, ty))

    def pop(self, n: int):
        del self.binders[len(self.binders) - n:]


def _check_sterm(s: _STerm, expected: SimpleType | None,
                 scope: _Scope) -> tuple[Preterm, SimpleType]:
    """Elaborate a surface term; with ``expected=None`` the type is inferred,
    which requires the term to start with a declared head."""
    if isinstance(s, _SLam):
        if expected is None:
            raise HrsError("a rule left-hand side must start with a function "
                           "symbol, not an abstraction", scope.lineno, s.col)
        doms = []
        ty = expected
        for name in s.binders:
            if not isinstance(ty, Arrow):
                raise HrsError(
                    f"abstraction has more binders than the expected type "
                    f"{expected} provides", scope.lineno, s.col)
            doms.append(ty.dom)
            ty = ty.cod
        for name, dom in zip(s.binders, doms):
            scope.push(name, dom, s.col)
        body, _ = _check_sterm(s.body, ty, scope)
        scope.pop(len(s.binders))
        pre: Preterm = body
        for name, dom in zip(reversed(s.binders), reversed(doms)):
            pre = PLam(name, dom, pre)
        return pre, expected
    atom = scope.head_atom(s.head, s.col)
    ty = atom.ty
    pre_args: list[Preterm] = []
    for arg in s.args:
        if not isinstance(ty, Arrow):
            raise HrsError(f"{s.head!r} is applied to too many arguments "
                           f"(its type is {atom.ty})", scope.lineno, s.col)
        arg_pre, _ = _check_sterm(arg, ty.dom, scope)
        pre_args.append(arg_pre)
        ty = ty.cod
    if expected is not None and ty != expected:
        raise HrsError(f"term headed by {s.head!r} has type {ty}, "
                       f"expected {expected}", scope.lineno, s.col)
    return papp(PAtom(atom), *pre_args), ty


# ---------------------------------------------------------------------------
# rule post-processing


def uniquify_hints(t: Term, avoid: frozenset[str]) -> Term:
    """Rename binder hints so they are pairwise distinct and avoid the given
    names; purely cosmetic for equality, but it keeps the names that appear
    when binders are opened predictable."""
    used = set(avoid)

    def go(u: Term) -> Term:
        """``u`` renamed; the node itself where no hint under it changes."""
        if isinstance(u, Abs):
            want = liberation_name(u.hint, used)
            used.add(want)
            body = go(u.body)
            same = want == u.hint and body is u.body
            return u if same else Abs(want, u.param_type, body)
        args = tuple(map(go, u.args))
        same = all(a is b for a, b in zip(args, u.args))
        return u if same else App(u.head, args)

    return go(t)


def is_miller_pattern(t: Term, pattern_vars: frozenset[str]) -> bool:
    """True when every pattern variable is applied only to sequences of
    pairwise distinct bound variables."""

    def walk(u: Term) -> bool:
        while isinstance(u, Abs):
            u = u.body
        head = u.head
        if not isinstance(head, Free) or head.name not in pattern_vars:
            return all(walk(a) for a in u.args)
        seen: set[int] = set()
        for a in u.args:
            body, m = a, 0
            while isinstance(body, Abs):
                body, m = body.body, m + 1
            h = body.head       # must be bound outside ``a``, at index i
            i = h.index - m if isinstance(h, Bound) else -1
            if i < 0 or i in seen or a != eta_expand(Bound(i, a.ty)):
                return False
            seen.add(i)
        return True

    return walk(t)


def _build_rule(name: str, lhs: Term, rhs: Term, scope_names: frozenset[str],
                lineno: int, require_patterns: bool) -> Rule:
    head = top(lhs)
    if not isinstance(head, Const):
        raise HrsError(f"left-hand side of rule {name!r} must be headed by a "
                       f"function symbol, found variable {head.name!r}", lineno)
    if not isinstance(lhs.ty, Base):
        raise HrsError(f"rule {name!r} is not basic-typed: its sides have type "
                       f"{lhs.ty}", lineno)
    lhs = uniquify_hints(lhs, scope_names)
    rhs = uniquify_hints(rhs, scope_names)
    fresh = free_names(rhs) - free_names(lhs)
    if fresh:
        names = ", ".join(sorted(fresh))
        raise HrsError(f"right-hand side of rule {name!r} has fresh free "
                       f"variable(s) {names}", lineno)
    pattern = is_miller_pattern(lhs, free_names(lhs))
    if require_patterns and not pattern:
        raise HrsError(f"left-hand side of rule {name!r} is not a pattern: "
                       "some variable is applied to non-variable arguments",
                       lineno)
    return Rule(name, lhs, rhs, pattern)


# ---------------------------------------------------------------------------
# file-level parsing


def parse(text: str, require_patterns: bool = False) -> Hrs:
    """Parse a rewrite system.  Non-pattern left-hand sides are accepted by
    default and only flagged on the rule; pass ``require_patterns=True`` to
    reject them outright."""
    basics: list[str] = []
    signature: dict[str, SimpleType] = {}
    variables: dict[str, SimpleType] = {}
    rules: list[Rule] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.lstrip()
        keyword = stripped.split(None, 1)[0]
        if keyword == "basic":
            cur = _Cursor(_tokenize(line, lineno), lineno)
            cur.next("basic")
            while cur.peek() is not None:
                tok = cur.next_name("a basic type name")
                if tok.text in basics:
                    raise HrsError(f"basic type {tok.text!r} declared twice",
                                   lineno, tok.col)
                basics.append(tok.text)
        elif keyword in ("sig", "var"):
            cur = _Cursor(_tokenize(line, lineno), lineno)
            cur.next(keyword)
            tok = cur.next_name("a name")
            cur.next(":")
            ty = _parse_type(cur, set(basics))
            cur.done()
            if tok.text in signature or tok.text in variables:
                raise HrsError(f"name {tok.text!r} declared twice",
                               lineno, tok.col)
            (signature if keyword == "sig" else variables)[tok.text] = ty
        elif keyword == "rule":
            rest = stripped[len("rule"):].lstrip()
            if ":" not in rest:
                raise HrsError("expected 'rule <name>: <term> -> <term>'",
                               lineno)
            rule_name, body = rest.split(":", 1)
            rule_name = rule_name.strip()
            if not _RULE_NAME_RE.fullmatch(rule_name):
                raise HrsError(f"invalid rule name {rule_name!r}", lineno)
            if any(r.name == rule_name for r in rules):
                raise HrsError(f"rule name {rule_name!r} used twice", lineno)
            cur = _Cursor(_tokenize(body, lineno), lineno)
            lhs_s = _parse_sterm(cur)
            cur.next("->")
            rhs_s = _parse_sterm(cur)
            cur.done()
            scope = _Scope(signature, variables, lineno)
            try:
                lhs_pre, lhs_ty = _check_sterm(lhs_s, None, scope)
                if not isinstance(lhs_ty, Base):
                    raise HrsError(f"rule {rule_name!r} is not basic-typed: "
                                   f"its sides have type {lhs_ty}", lineno)
                rhs_pre, _ = _check_sterm(rhs_s, lhs_ty, scope)
                lhs = normalize(lhs_pre)
                rhs = normalize(rhs_pre)
            except TermTypeError as exc:
                raise HrsError(f"type error in rule {rule_name!r}: {exc}",
                               lineno) from exc
            scope_names = frozenset(signature) | frozenset(variables)
            rules.append(_build_rule(rule_name, lhs, rhs, scope_names,
                                     lineno, require_patterns))
        else:
            raise HrsError(f"unknown directive {keyword!r} (expected basic, "
                           "sig, var, or rule)", lineno)

    return Hrs(tuple(basics), signature, variables, tuple(rules))


def read_source(path: str | Path) -> str:
    """The text of a .hrs file, which must be UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HrsError(f"{path}: not UTF-8 text: byte {exc.start} cannot "
                       "be decoded") from None


def load(path: str | Path, require_patterns: bool = False) -> Hrs:
    return parse(read_source(path), require_patterns=require_patterns)


# ---------------------------------------------------------------------------
# printing


def print_hrs(h: Hrs) -> str:
    """Render a system in the same format ``parse`` reads; parsing the result
    yields alpha-equal rules in the same order."""
    lines: list[str] = []
    if h.basics:
        lines.append("basic " + " ".join(h.basics))
    for name, ty in h.signature.items():
        lines.append(f"sig {name} : {ty}")
    for name, ty in h.variables.items():
        lines.append(f"var {name} : {ty}")
    if h.rules:
        if lines:
            lines.append("")
        avoid = set(h.signature) | set(h.variables)
        for r in h.rules:
            lines.append(f"rule {r.name}: {print_term(r.lhs, avoid)} -> "
                         f"{print_term(r.rhs, avoid)}")
    return "\n".join(lines) + ("\n" if lines else "")
