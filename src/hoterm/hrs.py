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
from typing import TYPE_CHECKING, AbstractSet, NamedTuple

from .normalize import eta_expand
from .terms import (Abs, App, Arrow, Atom, Base, Bound, Const, Free,
                    SimpleType, Term, eta_hint, print_term, under_binders)

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
        self.defined = frozenset(r.lhs.head.name for r in rules)
        self.constructors = frozenset(signature) - self.defined
        # head of a left-hand side -> its rules, in order: what
        # ``rewrite_step`` tries at a subterm with that head
        index: dict[Atom, tuple[Rule, ...]] = {}
        for r in rules:
            if isinstance(r.lhs, App):
                index[r.lhs.head] = index.get(r.lhs.head, ()) + (r,)
        self.rules_by_head = index
        # the first rule whose left-hand side is not a pattern, if any:
        # matching, and so rewriting, is undecidable for it
        self.non_pattern = next((r for r in rules if not r.is_pattern), None)

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
    r"\s*(?:([A-Za-z0-9_][A-Za-z0-9_']*|[\\().,:]|->)|\S)")
_PUNCT = frozenset(("->", "\\", "(", ")", ".", ",", ":"))


class _Reader:
    """A cursor over the tokens of one line; reads a rule's sides into
    canonical terms.  ``depth`` counts the binders above the term being
    read, eta binders included; a ``\\x.`` binder is kept with its level
    (the depth it stands at), from which each use computes its index.
    Hints are given in preorder, each avoiding the declared names and the
    hints given before it on the same side."""

    def __init__(self, text: str, lineno: int, offset: int = 0):
        self.text, self.offset, self.lineno = text, offset, lineno
        self.toks = _TOKEN_RE.findall(text)
        if "" in self.toks:
            col = self.col(self.toks.index(""))
            raise HrsError(f"unexpected character {text[col - 1 - offset]!r}",
                           lineno, col)
        self.toks.append("")    # the end of the line
        self.pos = 0

    def col(self, i: int) -> int:
        """Where token ``i`` starts, found again: only errors need it."""
        m = next(islice(_TOKEN_RE.finditer(self.text), i, None))
        return self.offset + m.end() - len(m.group().lstrip()) + 1

    def error(self, message: str, i: int) -> HrsError:
        return HrsError(message, self.lineno, self.col(i))

    def expect(self, text: str) -> None:
        """Step past ``text``; "" is the end of the line."""
        tok = self.toks[self.pos]
        if tok != text:
            if not tok:
                raise HrsError(f"unexpected end of line, expected {text!r}",
                               self.lineno)
            raise self.error(f"expected {text!r}, found {tok!r}" if text
                             else f"trailing input {tok!r}", self.pos)
        self.pos += 1

    def name(self, what: str) -> str:
        tok = self.toks[self.pos]
        if tok in _PUNCT:
            raise self.error(f"expected {what}, found {tok!r}", self.pos)
        if not tok:
            raise HrsError("unexpected end of line", self.lineno)
        self.pos += 1
        return tok

    def type(self, basics: dict[str, Base]) -> SimpleType:
        tok = self.toks[self.pos]
        self.pos += 1
        if tok in basics:
            left = basics[tok]
        elif tok == "(":
            left = self.type(basics)
            self.expect(")")
        elif not tok:
            raise HrsError("unexpected end of line in type", self.lineno)
        else:
            raise self.error(f"expected a type name, found {tok!r}"
                             if tok in _PUNCT else
                             f"unknown basic type {tok!r}", self.pos - 1)
        if self.toks[self.pos] != "->":
            return left
        self.pos += 1
        return Arrow(left, self.type(basics))

    def rule(self, name: str, scope: dict[str, Atom],
             variables: dict[str, SimpleType]) -> Rule:
        """The rule on this line over ``scope`` (its ``variables``); a syntax
        error on it is reported first."""
        self.scope = scope
        # a \x. binder in scope -> its type, as a Bound, and its level;
        # the hints given on the side being read
        self.bound, self.taken = {}, set()
        # the "(" at i holds width[i] terms, one more than its top-level
        # commas (one on a line without): arguments are counted unread
        self.width: dict[int, int] = {}
        opened: list[int] = []
        for i, tok in enumerate(self.toks if "," in self.text else ()):
            if tok == "(":
                opened.append(i)
                self.width[i] = 1
            elif tok == ")" and opened:
                opened.pop()
            elif tok == "," and opened:
                self.width[opened[-1]] += 1
        try:
            lhs = self.term(None, 0)
            if not isinstance(lhs.ty, Base):
                raise HrsError(f"rule {name!r} is not basic-typed: its sides "
                               f"have type {lhs.ty}", self.lineno)
            arrow = self.pos
            self.expect("->")
            self.taken.clear()
            rhs = self.term(lhs.ty, 0)
            self.expect("")
        except HrsError:
            self.pos = 0
            self.skip_term()
            self.expect("->")
            self.skip_term()
            self.expect("")
            raise
        if not isinstance(lhs.head, Const):
            raise HrsError(f"left-hand side of rule {name!r} must be headed "
                           f"by a function symbol, found variable "
                           f"{lhs.head.name!r}", self.lineno)
        # the variables a side names are the free ones of its term
        lhs_names = variables.keys() & self.toks[:arrow]
        fresh = (variables.keys() & self.toks[arrow:]) - lhs_names
        if fresh:
            raise HrsError(f"right-hand side of rule {name!r} has fresh free "
                           f"variable(s) {', '.join(sorted(fresh))}",
                           self.lineno)
        return Rule(name, lhs, rhs, is_miller_pattern(lhs, lhs_names))

    def hint(self, name: str) -> str:
        while name in self.scope or name in self.taken:
            name += "'"
        self.taken.add(name)
        return name

    def term(self, expected: SimpleType | None, depth: int) -> Term:
        """The term at the cursor, of type ``expected`` (None: any), under
        ``depth`` binders; a head short of arguments is eta-expanded, its
        binders hinted before its arguments are read beneath them."""
        toks, at = self.toks, self.pos
        tok = toks[at]
        atom, level = self.scope.get(tok), None
        if atom is None:
            if tok == "\\":
                return self.abstraction(expected, depth, at)
            if tok == "(":
                self.pos += 1
                t = self.term(expected, depth)
                self.expect(")")
                return t
            if not tok:
                raise HrsError("unexpected end of line in term", self.lineno)
            if tok not in self.bound:
                raise self.error(f"expected a term, found {tok!r}" if tok in
                                 _PUNCT else f"unknown symbol {tok!r}", at)
            atom, level = self.bound[tok]
        ty = atom.ty
        doms = missing = ty.domains
        self.pos = at + 1
        if toks[at + 1] == "(":
            missing = doms[self.width.get(at + 1, 1):]
        if missing:     # under-applied: its arguments go beneath eta binders
            hints = [self.hint(eta_hint(depth + k))
                     for k in range(len(missing))]
        inner = depth + len(missing)
        args = []
        if toks[at + 1] == "(":
            for dom in doms:
                self.pos += 1       # past the "(" or ","
                args.append(self.term(dom, inner))
                if toks[self.pos] != ",":
                    break
            else:
                raise self.error(f"{tok!r} is applied to too many "
                                 f"arguments (its type is {ty})", at)
            if toks[self.pos] != ")":
                self.expect(")")
            self.pos += 1
        if level is not None:
            atom = Bound(inner - 1 - level, ty)
        t = (self.expand(atom, args, hints, missing, depth) if missing
             else App(atom, tuple(args)))
        if expected is not None and t.ty is not expected:
            raise self.error(f"term headed by {tok!r} has type {t.ty}, "
                             f"expected {expected}", at)
        return t

    def expand(self, atom: Atom, args: list[Term], hints: list[str],
               missing: tuple[SimpleType, ...], depth: int) -> Term:
        """``atom`` applied to ``args``, under binders of the ``missing``
        types hinted ``hints``; each variable they bind is expanded too."""
        inner = depth + len(missing)
        for k, dom in enumerate(missing):
            more = dom.domains
            args.append(self.expand(
                Bound(inner + len(more) - 1 - (depth + k), dom), [],
                [self.hint(eta_hint(inner + j)) for j in range(len(more))],
                more, inner))
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
        doms, ty = expected.domains[:len(names)], expected
        if len(doms) < len(names):
            raise self.error(f"abstraction has more binders than the "
                             f"expected type {expected} provides", at)
        for k, name in enumerate(names):
            if name in self.scope or name in self.bound:
                raise self.error(f"binder {name!r} shadows a declared name",
                                 at)
            self.bound[name] = (Bound(0, doms[k]), depth + k)
            ty = ty.cod
        hints = [self.hint(name) for name in names]
        body = self.term(ty, depth + len(names))
        for name in names:
            del self.bound[name]
        for hint, dom in zip(reversed(hints), reversed(doms)):
            body = Abs(hint, dom, body)
        return body

    def binder_names(self) -> list[str]:
        self.pos += 1
        names = []
        while not names or self.toks[self.pos] not in ("", "."):
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


def is_miller_pattern(t: Term, pattern_vars: AbstractSet[str]) -> bool:
    """True when every pattern variable is applied only to sequences of
    pairwise distinct bound variables."""
    stack = [t]
    while stack:
        t = under_binders(stack.pop())
        if not isinstance(t.head, Free) or t.head.name not in pattern_vars:
            stack.extend(t.args)
        elif bound_args(t.args) is None:
            return False
    return True


def bound_args(args: tuple[Term, ...]) -> list[int] | None:
    """The indices of the pairwise distinct bound variables that ``args``
    eta-expand, in order, or None when they are not such variables."""
    seen: list[int] = []
    for a in args:
        body, m = a, 0
        while isinstance(body, Abs):
            body, m = body.body, m + 1
        h = body.head       # must be bound outside ``a``, at index i
        i = h.index - m if isinstance(h, Bound) else -1
        if i < 0 or i in seen or a != eta_expand(Bound(i, a.ty)):
            return None
        seen.append(i)
    return seen


# ---------------------------------------------------------------------------
# file-level parsing


def parse(text: str) -> Hrs:
    """Parse a rewrite system.  Non-pattern left-hand sides are accepted and
    only flagged on the rule (``Rule.is_pattern``)."""
    basics: dict[str, Base] = {}        # by name, in order
    signature: dict[str, SimpleType] = {}
    variables: dict[str, SimpleType] = {}
    scope: dict[str, Atom] = {}         # the names declared so far
    rules: dict[str, Rule] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip()
        if not line:
            continue
        keyword = line.split(None, 1)[0]
        if keyword in ("basic", "sig", "var"):
            cur = _Reader(line, lineno)
            cur.pos = 1         # past the keyword, which is token 0
        if keyword == "basic":
            while cur.toks[cur.pos]:
                name = cur.name("a basic type name")
                if name in basics:
                    raise cur.error(f"basic type {name!r} declared twice",
                                    cur.pos - 1)
                basics[name] = Base(name)
        elif keyword in ("sig", "var"):
            name = cur.name("a name")
            cur.expect(":")
            ty = cur.type(basics)
            cur.expect("")
            if name in scope:   # the name is token 1, after the keyword
                raise cur.error(f"name {name!r} declared twice", 1)
            (signature if keyword == "sig" else variables)[name] = ty
            scope[name] = (Const if keyword == "sig" else Free)(name, ty)
        elif keyword == "rule":
            body = line.find(":") + 1
            if not body:
                raise HrsError("expected 'rule <name>: <term> -> <term>'",
                               lineno)
            rule_name = line[:body - 1].strip()[len("rule"):].strip()
            if not _RULE_NAME_RE.fullmatch(rule_name):
                raise HrsError(f"invalid rule name {rule_name!r}", lineno)
            if rule_name in rules:
                raise HrsError(f"rule name {rule_name!r} used twice", lineno)
            rules[rule_name] = _Reader(line[body:], lineno, body).rule(
                rule_name, scope, variables)
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


def load(path: str | Path) -> Hrs:
    return parse(read_source(path))


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
