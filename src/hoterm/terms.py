"""Simply typed lambda terms kept in eta-long beta-normal form.

Every term has the shape ``\\x1 ... xm. a(t1, ..., tn)`` where the head ``a``
is a function symbol, a free variable, or a bound variable, applied to exactly
as many arguments as its type demands; application nodes therefore always have
a basic type.  Bound variables are stored as nameless indices (the binder name
is kept only as a printing hint), so alpha-equality coincides with structural
equality and terms can be used directly as set members and dict keys.

Types, atoms and term nodes are slotted, frozen classes with explicit
constructors: each instance gets its type and its hash once, when it is
built, and no method is generated when the module is imported.

All of them are hash-consed: a constructor returns the object already alive
for the same parts, so equal terms with the same binder hints are one
object and compare by identity.  Types and atoms are few and are kept for
good in one table.  Term nodes are kept in another by weak reference, keyed
by the ids of their parts (a live node holds its parts, so their ids are not
reused while it lives); a node nothing else holds dies as usual, and the
table drops its dead entries whenever it has grown to twice the number it
held alive at its last sweep.  Binder hints are part of a node's key, so
alpha-equal terms with different hints are distinct objects, but they hash
alike and share one skeleton, the node with every hint None: equality is
one identity test, and comparing two terms never walks them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union
from weakref import ref


class _Frozen:
    """Base of the immutable classes below.  A constructor fills the slots
    without ``__setattr__``; ``_fields`` are the arguments that build an
    equal instance."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__hash__ = _Frozen.__hash__     # which an __eq__ would unset

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, attr, *value):
        # imported here, as dataclasses costs a start-up some 10 ms
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {attr!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # rebuilt, a copy hashes as this process does, not as the pickler's
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# simple types


class SimpleType(_Frozen):
    """A basic type or a function type built from basic types.

    Types are interned: equal parts give the same object, so equality is
    identity, and the hash, taken from the parts, is computed once.  So are
    ``domains``, the argument types in order, and ``result``, the basic type
    left when all of them are given.
    """

    __slots__ = ("_hash", "domains", "result")


# types by name or by the ids of an Arrow's parts, atoms by class, name or
# index, and the id of their type; a system has few of them
_INTERNED: dict[object, _Frozen] = {}


def _intern(cls: type, key: object, *parts) -> _Frozen:
    self = object.__new__(cls)
    for slot, part in zip(cls._fields, parts):
        object.__setattr__(self, slot, part)
    object.__setattr__(self, "_hash", hash(parts))
    _INTERNED[key] = self
    return self


def _shape(ty: SimpleType, domains: tuple[SimpleType, ...],
           result: Base) -> SimpleType:
    object.__setattr__(ty, "domains", domains)
    object.__setattr__(ty, "result", result)
    return ty


class Base(SimpleType):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str) -> Base:
        self = _INTERNED.get(name)
        if self is None:
            self = _intern(cls, name, name)
            _shape(self, (), self)
        return self

    def __str__(self) -> str:
        return self.name


class Arrow(SimpleType):
    __slots__ = _fields = ("dom", "cod")

    def __new__(cls, dom: SimpleType, cod: SimpleType) -> Arrow:
        key = (id(dom), id(cod))
        return _INTERNED.get(key) or _shape(_intern(cls, key, dom, cod),
                                            (dom,) + cod.domains, cod.result)

    def __str__(self) -> str:
        dom = f"({self.dom})" if isinstance(self.dom, Arrow) else str(self.dom)
        return f"{dom} -> {self.cod}"


def arrow(*types: SimpleType) -> SimpleType:
    """Right-associated function type: arrow(a, b, c) is a -> (b -> c)."""
    if not types:
        raise ValueError("arrow() needs at least one type")
    result = types[-1]
    for dom in reversed(types[:-1]):
        result = Arrow(dom, result)
    return result


# ---------------------------------------------------------------------------
# atoms: the possible heads of an application


class _Atom(_Frozen):
    """A possible head, interned: equal atoms are the same object, so they
    compare by identity; the hash is taken from the parts."""

    __slots__ = ()

    def __new__(cls, label: str | int, ty: SimpleType):
        key = (cls, label, id(ty))
        return _INTERNED.get(key) or _intern(cls, key, label, ty)


class _Named(_Atom):
    __slots__ = ("name", "ty", "_hash")
    _fields = ("name", "ty")


class Const(_Named):
    """A function symbol from the signature."""

    __slots__ = ()


class Free(_Named):
    """A free variable."""

    __slots__ = ()


class Bound(_Atom):
    """A bound variable as a de Bruijn index (0 is the innermost binder)."""

    __slots__ = ("index", "ty", "_hash")
    _fields = ("index", "ty")


Atom = Union[Const, Free, Bound]


class TermTypeError(TypeError):
    """A term violates the typing discipline."""

    def __init__(self, message: str, subject: object = None,
                 expected: SimpleType | None = None,
                 actual: SimpleType | None = None):
        detail = message
        if subject is not None:
            detail += f" in {subject!r}"
        if expected is not None or actual is not None:
            detail += f" (expected {expected}, got {actual})"
        super().__init__(detail)
        self.subject = subject
        self.expected = expected
        self.actual = actual


# ---------------------------------------------------------------------------
# terms


class Term(_Frozen):
    """Base class of eta-long beta-normal terms.  Besides its type and hash,
    a node keeps its free names and the reach, None until first used, and
    its skeleton, built from its children's; a node that is its own holds
    None, not a reference cycle through itself."""

    __slots__ = ("ty", "_hash", "_free_names", "_reach", "_skel",
                 "__weakref__")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return (self._skel or self) is (other._skel or other)

    def __repr__(self) -> str:
        return print_term(self)


# the nodes by weak reference, keyed by the ids of their parts (and an Abs's
# hint); a dead entry reads None and is overwritten, and all are dropped at
# ``_sweep_at`` entries, twice as many as were live at the last sweep
_NODES: dict[tuple, ref] = {}
_sweep_at = 2


def _enter(key: tuple, node: Term) -> None:
    global _sweep_at
    _NODES[key] = ref(node)
    if len(_NODES) >= _sweep_at:
        for dead in [k for k, r in _NODES.items() if r() is None]:
            del _NODES[dead]
        _sweep_at = 2 * len(_NODES)


class Abs(Term):
    __slots__ = _fields = ("hint", "param_type", "body")

    def __new__(cls, hint: str, param_type: SimpleType, body: Term) -> Abs:
        key = (hint, id(param_type), id(body))
        known = _NODES.get(key)
        if known is not None and (self := known()) is not None:
            return self
        self = object.__new__(cls)
        _set_hint(self, hint)
        _set_param_type(self, param_type)
        _set_body(self, body)
        _set_ty(self, Arrow(param_type, body.ty))
        _set_hash(self, hash(("abs", param_type, body)))
        _set_free_names(self, None)
        _set_reach(self, None)
        _set_skel(self, None if hint is None and body._skel is None
                  else Abs(None, param_type, body._skel or body))
        _enter(key, self)
        return self


class App(Term):
    __slots__ = _fields = ("head", "args")

    def __new__(cls, head: Atom, args: tuple[Term, ...] = ()) -> App:
        if not isinstance(args, tuple):
            args = tuple(args)
        key = (id(head), *map(id, args))
        known = _NODES.get(key)
        if known is not None and (self := known()) is not None:
            return self
        ty = head.ty
        hinted = False
        for arg in args:
            if not isinstance(ty, Arrow):
                raise TermTypeError(
                    f"head {atom_name(head)} applied to too many arguments",
                    subject=atom_name(head), actual=head.ty)
            if arg.ty is not ty.dom:
                i = len(head.ty.domains) - len(ty.domains)
                raise TermTypeError(
                    f"argument {i + 1} of {atom_name(head)} has the wrong type",
                    subject=arg, expected=ty.dom, actual=arg.ty)
            hinted = hinted or arg._skel is not None
            ty = ty.cod
        if not isinstance(ty, Base):
            raise TermTypeError(
                f"under-applied head {atom_name(head)}: "
                "application nodes must have a basic type",
                subject=atom_name(head), actual=ty)
        self = object.__new__(cls)
        _set_head(self, head)
        _set_args(self, args)
        _set_ty(self, ty)
        _set_hash(self, hash(("app", head, args)))
        _set_free_names(self, None)
        _set_reach(self, None)
        _set_skel(self, App(head, tuple([a._skel or a for a in args]))
                  if hinted else None)
        _enter(key, self)
        return self


# the slots' own setters: a constructor fills a frozen node with them, at
# half the cost of object.__setattr__
_set_ty, _set_hash, _set_free_names, _set_reach, _set_skel = (
    getattr(Term, s).__set__ for s in Term.__slots__[:5])
_set_hint, _set_param_type, _set_body = (
    getattr(Abs, s).__set__ for s in Abs.__slots__)
_set_head, _set_args = (getattr(App, s).__set__ for s in App.__slots__)


def atom_name(atom: Atom) -> str:
    if isinstance(atom, Bound):
        return f"<bound {atom.index}>"
    return atom.name


# ---------------------------------------------------------------------------
# binder hints

_ETA_HINTS = "xyzwvu"


def eta_hint(depth: int) -> str:
    letter = _ETA_HINTS[depth % len(_ETA_HINTS)]
    suffix = depth // len(_ETA_HINTS)
    return letter if suffix == 0 else f"{letter}{suffix}"


_NO_FREES: frozenset = frozenset()


def free_names(t: Term) -> frozenset[str]:
    """The names of the free variables of ``t``, kept in the node after the
    first call, built from its children's: a child's set is shared when
    nothing else is free, and ground nodes share one empty set."""
    if t._free_names is None:
        names = _NO_FREES
        for child in (t.body,) if isinstance(t, Abs) else t.args:
            child_names = free_names(child)
            if child_names:
                names = names | child_names if names else child_names
        if isinstance(t, App) and isinstance(t.head, Free):
            names = names | {t.head.name}
        _set_free_names(t, names)
    return t._free_names


def reach(t: Term) -> int:
    """How many binders above ``t`` its bound variables reach: 0 when it
    refers to none of them.  Kept in the node after the first call."""
    if t._reach is None:
        if isinstance(t, Abs):
            n = max(reach(t.body) - 1, 0)
        else:
            n = t.head.index + 1 if isinstance(t.head, Bound) else 0
            for a in t.args:
                n = max(n, reach(a))
        _set_reach(t, n)
    return t._reach


# ---------------------------------------------------------------------------
# the binder walk and the opener

def bodies(t: Term) -> Iterator[tuple[tuple[Abs, ...], App]]:
    """Each application of ``t`` in preorder, left nameless, with the
    abstractions above it, outermost first."""
    stack: list[tuple[tuple[Abs, ...], Term]] = [((), t)]
    while stack:
        above, u = stack.pop()
        while isinstance(u, Abs):
            above += (u,)
            u = u.body
        yield above, u
        for a in reversed(u.args):
            stack.append((above, a))


def liberation_name(hint: str, avoid: set[str]) -> str:
    """Deterministic display name for a binder being opened: its hint,
    primed until it is not in ``avoid``."""
    name = hint or "x"
    while name in avoid:
        name += "'"
    return name


def open_under(above: Iterable[Abs], t: Term, avoid: Iterable[str]
               ) -> tuple[tuple[str, ...], Term]:
    """``t``, found under the abstractions ``above`` (outermost first), with
    their binders opened: each is named by ``liberation_name`` apart from
    ``avoid`` and the names before it, and all are opened in one pass.
    Returns the names and the opened term."""
    taken = set(avoid)
    names: list[str] = []
    for a in above:
        names.append(liberation_name(a.hint, taken))
        taken.add(names[-1])
    opened = tuple(names)
    return opened, _open(t, opened, 0)


def _open(t: Term, names: tuple[str, ...], depth: int) -> Term:
    """Replace each index of ``t`` that reaches past the ``depth`` binders
    above it by a free variable: the binders past them are named ``names``,
    innermost last.  A subterm that reaches no further is kept as it is."""
    if reach(t) <= depth:
        return t
    if isinstance(t, Abs):
        return Abs(t.hint, t.param_type, _open(t.body, names, depth + 1))
    head = t.head
    if isinstance(head, Bound) and head.index >= depth:
        head = Free(names[depth - head.index - 1], head.ty)
    return App(head, tuple([_open(a, names, depth) for a in t.args]))


def under_binders(t: Term) -> App:
    """The application under the binder prefix, left nameless."""
    while isinstance(t, Abs):
        t = t.body
    return t


# ---------------------------------------------------------------------------
# positions and subterms

Position = tuple[int, ...]


class PositionError(ValueError):
    """A position does not exist in the term it was applied to."""

    def __init__(self, position: Position, index: int, message: str):
        super().__init__(
            f"position {format_position(position)} invalid: {message}")
        self.position = position
        self.index = index


def format_position(p: Position) -> str:
    return ".".join(str(i) for i in p) if p else "e"


def descend(t: Term, p: Position) -> tuple[list[Term], Term]:
    """The nodes ``p`` crosses in ``t``, outermost first, and the subterm
    at ``p``, left nameless; PositionError when ``p`` is not in ``t``."""
    crossed: list[Term] = []
    for step, i in enumerate(p):
        crossed.append(t)
        if isinstance(t, Abs):
            if i != 1:
                raise PositionError(p, i,
                                    f"index {i} at step {step} descends into a "
                                    "binder, which has only position 1")
            t = t.body
        else:
            if not 1 <= i <= len(t.args):
                raise PositionError(p, i,
                                    f"index {i} at step {step} out of range: "
                                    f"node has {len(t.args)} arguments")
            t = t.args[i - 1]
    return crossed, t


def subterm_at(t: Term, p: Position, avoid: Iterable[str] = ()) -> Term:
    """The subterm at ``p``; binders crossed on the way become free variables,
    named apart from the free names of ``t`` and from ``avoid``."""
    crossed, u = descend(t, p)
    above = [n for n in crossed if isinstance(n, Abs)]
    return open_under(above, u, free_names(t).union(avoid))[1]


def subterms(t: Term) -> tuple[Term, ...]:
    """All distinct subterms in preorder; names freed under binders follow the
    same convention as subterm_at, so both views agree."""
    out: list[Term] = []
    seen: set[Term] = set()
    avoid = free_names(t)
    stack: list[tuple[tuple[Abs, ...], Term]] = [((), t)]
    while stack:
        above, u = stack.pop()
        s = open_under(above, u, avoid)[1]
        if s not in seen:
            seen.add(s)
            out.append(s)
        if isinstance(u, Abs):
            stack.append((above + (u,), u.body))
        else:
            stack.extend((above, a) for a in reversed(u.args))
    return tuple(out)


# ---------------------------------------------------------------------------
# printing

def print_term(t: Term, avoid: Iterable[str] = ()) -> str:
    """Concrete syntax: f(a, b), \\x y. body, bare names for atoms."""
    return _print(t, [], set(avoid) | set(free_names(t)))


def _print(u: Term, scope: list[str], taboo: set[str]) -> str:
    """``u`` printed under binders named ``scope``, innermost last; a
    binder's name avoids ``taboo`` and the names of the binders above."""
    names: list[str] = []
    while isinstance(u, Abs):
        name = u.hint or "x"
        while name in taboo or name in scope or name in names:
            name += "'"
        names.append(name)
        u = u.body
    if names:
        scope = scope + names
    head = u.head
    if not isinstance(head, Bound):
        text = head.name
    elif head.index < len(scope):
        text = scope[-1 - head.index]
    else:                       # loose, as in an error's subject
        text = atom_name(head)
    if u.args:
        # a loop, not a comprehension, so that a level costs one frame
        parts = []
        for a in u.args:
            parts.append(_print(a, scope, taboo))
        text += "(" + ", ".join(parts) + ")"
    return "\\" + " ".join(names) + ". " + text if names else text
