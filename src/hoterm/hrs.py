"""Reading and writing rewrite systems in the line-oriented .hrs format.

A file declares basic types, a signature, rule variables, and named rules::

    basic nat natlist
    sig foldl : (nat -> nat -> nat) -> nat -> natlist -> nat
    sig nil : natlist
    var F : nat -> nat -> nat
    rule foldl-nil: foldl(\\x y. F(x, y), X, nil) -> X

Comments start with ``#``.  Terms are written ``f(t1, ..., tn)`` with
``\\x y. t`` for abstraction; binder types are inferred from the expected
argument type.  Each line is read in one pass: one regular expression
splits it into tokens, and each side of a rule is built straight into its
eta-long form, with every check on the way.  A line that fails is read
again for syntax alone, so that a syntax error is reported first."""

from __future__ import annotations

import re
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .normalize import eta_expand
from .terms import (Abs, App, Arrow, Atom, Base, Bound, Const, Free,
                    SimpleType, Term, domains, eta_hint,
                    free_names, print_term, top)

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


class Rule(NamedTuple):
    name: str
    lhs: Term
    rhs: Term
    is_pattern: bool = True     # the reader derives it from lhs alone

    def __str__(self) -> str:
        return f"{self.name}: {print_term(self.lhs)} -> {print_term(self.rhs)}"


class Hrs:
    def __init__(self, basics: tuple[str, ...],
                 signature: dict[str, SimpleType],
                 variables: dict[str, SimpleType], rules: tuple[Rule, ...]):
        self.basics = basics
        self.signature = signature
        self.variables = variables
        self.rules = rules
        self.defined = frozenset(top(r.lhs).name for r in rules)
        self.constructors = frozenset(signature) - self.defined

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
    def non_pattern(self) -> Rule | None:
        """The first rule whose left-hand side is not a pattern, if any:
        matching, and so rewriting, is undecidable for it."""
        return next((r for r in self.rules if not r.is_pattern), None)

    @cached_property
    def subterm_steps(self) -> dict[Term, tuple | bool]:
        """``rewriting``'s memo: a subterm met -> (the subterm, its
        one-step rewrites), or only whether it has one."""
        return {}

    @cached_property
    def safe_sets(self) -> tuple[SafeSet, ...]:
        """``pfp.safe_subterms`` of each rule, in rule order."""
        from .pfp import safe_subterms  # pfp builds on this module
        return tuple(safe_subterms(r) for r in self.rules)


# ---------------------------------------------------------------------------
# reader

_RULE_NAME_RE = re.compile(r"[A-Za-z0-9_'-]+")
# a name, '->' or a punctuation mark; any other character is an error,
# which the one group leaves empty
_TOKEN_RE = re.compile(
    r"\s*(?:(->|[A-Za-z0-9_][A-Za-z0-9_']*|[\\().,:])|\S)")
_PUNCT = frozenset(("->", "\\", "(", ")", ".", ",", ":"))


class _Reader:
    """A cursor over the tokens of one line; reads a rule's sides into
    canonical terms.  ``depth`` counts the binders above the term being
    read, eta binders included; a ``\\x.`` binder is kept with its level
    (the depth it stands at), from which each use computes its index.
    Hints are given in preorder, each avoiding the declared names and the
    hints given before it on the same side."""

    def __init__(self, text: str, lineno: int, offset: int = 0,
                 scope: dict[str, Atom] | None = None):
        self.text, self.offset, self.lineno = text, offset, lineno
        self.toks = _TOKEN_RE.findall(text)
        if "" in self.toks:
            col = self.col(self.toks.index(""))
            raise HrsError(f"unexpected character {text[col - 1 - offset]!r}",
                           lineno, col)
        # the position of each "(" -> the terms it holds: one more than
        # its top-level commas, so a head's arguments are counted unread
        self.width: dict[int, int] = {}
        opened = []
        for i, tok in enumerate(self.toks):
            if tok == "(":
                opened.append(i)
                self.width[i] = 1
            elif tok == ")" and opened:
                opened.pop()
            elif tok == "," and opened:
                self.width[opened[-1]] += 1
        self.toks.append("")    # the end of the line
        self.pos = 0
        self.scope = scope
        # a \x. binder in scope: its type, as a Bound, and its level
        self.bound: dict[str, tuple[Bound, int]] = {}
        self.taken: frozenset[str] = frozenset()

    def col(self, i: int) -> int:
        """The column where token ``i`` starts, found again by scanning the
        line: only an error message needs it."""
        m = next(islice(_TOKEN_RE.finditer(self.text), i, None))
        return self.offset + m.end() - len(m.group().lstrip()) + 1

    def error(self, message: str, i: int) -> HrsError:
        return HrsError(message, self.lineno, self.col(i))

    def expect(self, text: str) -> None:
        tok = self.toks[self.pos]
        if tok != text:
            if not tok:
                raise HrsError(f"unexpected end of line, expected {text!r}",
                               self.lineno)
            raise self.error(f"expected {text!r}, found {tok!r}", self.pos)
        self.pos += 1

    def name(self, what: str) -> str:
        tok = self.toks[self.pos]
        if tok in _PUNCT:
            raise self.error(f"expected {what}, found {tok!r}", self.pos)
        if not tok:
            raise HrsError("unexpected end of line", self.lineno)
        self.pos += 1
        return tok

    def done(self) -> None:
        tok = self.toks[self.pos]
        if tok:
            raise self.error(f"trailing input {tok!r}", self.pos)

    def type(self, basics: dict[str, None]) -> SimpleType:
        at = self.pos
        tok = self.toks[at]
        if tok == "(":
            self.pos += 1
            left = self.type(basics)
            self.expect(")")
        elif not tok:
            raise HrsError("unexpected end of line in type", self.lineno)
        else:
            self.name("a type name")
            if tok not in basics:
                raise self.error(f"unknown basic type {tok!r}", at)
            left = Base(tok)
        if self.toks[self.pos] == "->":
            self.pos += 1
            return Arrow(left, self.type(basics))
        return left

    def rule(self, name: str, require_patterns: bool) -> Rule:
        """The rule on this line; if reading it fails, a syntax error
        anywhere on the line is reported first."""
        try:
            lhs = self.term(None, 0)
            if not isinstance(lhs.ty, Base):
                raise HrsError(f"rule {name!r} is not basic-typed: its sides "
                               f"have type {lhs.ty}", self.lineno)
            self.expect("->")
            self.taken = frozenset()
            rhs = self.term(lhs.ty, 0)
            self.done()
        except HrsError:
            self.pos = 0
            self.skip_term()
            self.expect("->")
            self.skip_term()
            self.done()
            raise
        if not isinstance(lhs.head, Const):
            raise HrsError(f"left-hand side of rule {name!r} must be headed "
                           f"by a function symbol, found variable "
                           f"{lhs.head.name!r}", self.lineno)
        fresh = free_names(rhs) - free_names(lhs)
        if fresh:
            raise HrsError(f"right-hand side of rule {name!r} has fresh free "
                           f"variable(s) {', '.join(sorted(fresh))}",
                           self.lineno)
        pattern = is_miller_pattern(lhs, free_names(lhs))
        if require_patterns and not pattern:
            raise HrsError(f"left-hand side of rule {name!r} is not a "
                           "pattern: some variable is applied to "
                           "non-variable arguments", self.lineno)
        return Rule(name, lhs, rhs, pattern)

    def hint(self, name: str) -> str:
        while name in self.scope or name in self.taken:
            name += "'"
        self.taken |= {name}
        return name

    def term(self, expected: SimpleType | None, depth: int) -> Term:
        """The term at the cursor, of type ``expected`` (inferred when
        None), under ``depth`` binders."""
        at = self.pos
        tok = self.toks[at]
        if tok == "\\":
            return self.abstraction(expected, depth, at)
        if tok == "(":
            self.pos += 1
            t = self.term(expected, depth)
            self.expect(")")
            return t
        if not tok:
            raise HrsError("unexpected end of line in term", self.lineno)
        self.name("a term")
        atom, level = self.bound.get(tok) or (self.scope.get(tok), None)
        if atom is None:
            raise self.error(f"unknown symbol {tok!r}", at)
        n = self.width[self.pos] if self.toks[self.pos] == "(" else 0
        missing = domains(atom.ty)[n:]
        if missing:     # under-applied: its arguments go beneath eta binders
            t = self.spine(atom, level, missing, depth,
                           (tok, at) if n else None)
            rest = t.ty
        elif n:
            rest, args = self.arguments(tok, at, atom.ty, depth)
        else:
            rest, args = atom.ty, []
        if expected is not None and rest is not expected:
            raise self.error(f"term headed by {tok!r} has type {rest}, "
                             f"expected {expected}", at)
        if missing:
            return t
        if level is not None:
            atom = Bound(depth - 1 - level, atom.ty)
        return App(atom, tuple(args))

    def arguments(self, head: str, at: int, ty: SimpleType, depth: int
                  ) -> tuple[SimpleType, list[Term]]:
        """``(t1, ..., tn)`` passed to ``head``, the token at ``at``, of
        type ``ty``: the type left and the terms."""
        args, rest = [], ty
        while not args or self.toks[self.pos] == ",":
            self.pos += 1       # past the "(" or ","
            if not isinstance(rest, Arrow):
                raise self.error(f"{head!r} is applied to too many "
                                 f"arguments (its type is {ty})", at)
            args.append(self.term(rest.dom, depth))
            rest = rest.cod
        self.expect(")")
        return rest, args

    def spine(self, atom: Atom, level: int | None,
              missing: tuple[SimpleType, ...], depth: int,
              head: tuple[str, int] | None = None) -> Term:
        """``atom`` eta-expanded over the ``missing`` argument types: the
        eta binders take their hints, then the arguments at the cursor, if
        ``head`` is given, are read beneath them.  ``level`` places a
        bound ``atom``."""
        hints = [self.hint(eta_hint(depth + k)) for k in range(len(missing))]
        inner = depth + len(missing)
        args = self.arguments(*head, atom.ty, inner)[1] if head else []
        args.extend(self.spine(Bound(0, dom), depth + k, domains(dom), inner)
                    for k, dom in enumerate(missing))
        if level is not None:
            atom = Bound(inner - 1 - level, atom.ty)
        t: Term = App(atom, tuple(args))
        for hint, dom in zip(reversed(hints), reversed(missing)):
            t = Abs(hint, dom, t)
        return t

    def abstraction(self, expected: SimpleType | None, depth: int,
                    at: int) -> Term:
        names = self.binder_names()
        if expected is None:
            raise self.error("a rule left-hand side must start with a "
                             "function symbol, not an abstraction", at)
        doms, ty = [], expected
        for _ in names:
            if not isinstance(ty, Arrow):
                raise self.error(f"abstraction has more binders than the "
                                 f"expected type {expected} provides", at)
            doms.append(ty.dom)
            ty = ty.cod
        for k, name in enumerate(names):
            if name in self.scope or name in self.bound:
                raise self.error(f"binder {name!r} shadows a declared name",
                                 at)
            self.bound[name] = (Bound(0, doms[k]), depth + k)
        hints = [self.hint(name) for name in names]
        body = self.term(ty, depth + len(names))
        for name in names:
            del self.bound[name]
        for hint, dom in zip(reversed(hints), reversed(doms)):
            body = Abs(hint, dom, body)
        return body

    def binder_names(self) -> list[str]:
        self.pos += 1
        names = [self.name("a binder name")]
        while self.toks[self.pos] not in ("", "."):
            names.append(self.name("a binder name"))
        self.expect(".")
        return names

    def skip_term(self) -> None:
        """Read the term at the cursor for its syntax alone."""
        tok = self.toks[self.pos]
        if tok == "\\":
            self.binder_names()
            self.skip_term()
        elif tok == "(":
            self.pos += 1
            self.skip_term()
            self.expect(")")
        elif not tok:
            raise HrsError("unexpected end of line in term", self.lineno)
        else:
            self.name("a term")
            sep = "("           # then "," between the arguments
            while self.toks[self.pos] == sep:
                self.pos, sep = self.pos + 1, ","
                self.skip_term()
            if sep == ",":
                self.expect(")")


# ---------------------------------------------------------------------------
# rule checks


def is_miller_pattern(t: Term, pattern_vars: frozenset[str]) -> bool:
    """True when every pattern variable is applied only to sequences of
    pairwise distinct bound variables."""
    while isinstance(t, Abs):
        t = t.body
    if not isinstance(t.head, Free) or t.head.name not in pattern_vars:
        return all(is_miller_pattern(a, pattern_vars) for a in t.args)
    seen: set[int] = set()
    for a in t.args:
        body, m = a, 0
        while isinstance(body, Abs):
            body, m = body.body, m + 1
        h = body.head       # must be bound outside ``a``, at index i
        i = h.index - m if isinstance(h, Bound) else -1
        if i < 0 or i in seen or a != eta_expand(Bound(i, a.ty)):
            return False
        seen.add(i)
    return True


# ---------------------------------------------------------------------------
# file-level parsing


def parse(text: str, require_patterns: bool = False) -> Hrs:
    """Parse a rewrite system.  Non-pattern left-hand sides are accepted by
    default and only flagged on the rule; pass ``require_patterns=True`` to
    reject them outright."""
    basics: dict[str, None] = {}        # in order
    signature: dict[str, SimpleType] = {}
    variables: dict[str, SimpleType] = {}
    scope: dict[str, Atom] = {}         # the names declared so far
    rules: dict[str, Rule] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        words = line.split(None, 1)
        if not words:
            continue
        keyword = words[0]
        if keyword in ("basic", "sig", "var"):
            cur = _Reader(line, lineno)
            cur.expect(keyword)
        if keyword == "basic":
            while cur.toks[cur.pos]:
                name = cur.name("a basic type name")
                if name in basics:
                    raise cur.error(f"basic type {name!r} declared twice",
                                    cur.pos - 1)
                basics[name] = None
        elif keyword in ("sig", "var"):
            name = cur.name("a name")
            cur.expect(":")
            ty = cur.type(basics)
            cur.done()
            if name in scope:
                # the name is token 1, after the keyword
                raise cur.error(f"name {name!r} declared twice", 1)
            table, kind = ((signature, Const) if keyword == "sig"
                           else (variables, Free))
            table[name] = ty
            scope[name] = kind(name, ty)
        elif keyword == "rule":
            rest = words[1] if len(words) > 1 else ""
            if ":" not in rest:
                raise HrsError("expected 'rule <name>: <term> -> <term>'",
                               lineno)
            rule_name = rest.split(":", 1)[0].strip()
            if not _RULE_NAME_RE.fullmatch(rule_name):
                raise HrsError(f"invalid rule name {rule_name!r}", lineno)
            if rule_name in rules:
                raise HrsError(f"rule name {rule_name!r} used twice", lineno)
            body = line.index(":") + 1
            rules[rule_name] = _Reader(line[body:], lineno, body, scope).rule(
                rule_name, require_patterns)
        else:
            raise HrsError(f"unknown directive {keyword!r} (expected basic, "
                           "sig, var, or rule)", lineno)

    return Hrs(tuple(basics), signature, variables, tuple(rules.values()))


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
