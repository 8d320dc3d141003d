"""Shared random generators, and the term helpers ``lam``, ``close_over``
and ``positions``, which only the tests use.

Name pools are kept disjoint on purpose: function symbols are f/g/h/c/d,
declared variables are upper-case, binders are x1..x9.  This keeps liberated
binder names from ever colliding with declared names, matching what the
parser enforces through hint uniquification.
"""

from __future__ import annotations

import hypothesis.strategies as st

from hoterm.hrs import Hrs, Rule, parse, print_hrs
from hoterm.normalize import eta_expand
from hoterm.terms import (Abs, App, Arrow, Base, Bound, Const, Free,
                          Position, SimpleType, Term, arrow, free_names)
from nbe_oracle import PApp, Preterm


def lam(name: str, param_type: SimpleType, body: Term) -> Abs:
    """Bind the free variable ``name`` of ``body`` under a new abstraction."""
    return Abs(name, param_type, close_over(body, name))


def close_over(t: Term, name: str, depth: int = 0) -> Term:
    """Turn free occurrences of ``name`` into references to a new outer
    binder, ``depth`` binders above ``t``."""
    if isinstance(t, Abs):
        return Abs(t.hint, t.param_type, close_over(t.body, name, depth + 1))
    head = t.head
    if isinstance(head, Free) and head.name == name:
        head = Bound(depth, head.ty)
    return App(head, tuple(close_over(a, name, depth) for a in t.args))


def positions(t: Term) -> list[Position]:
    """All positions of ``t``: the root, 1 under a binder, i into argument i."""
    out: list[Position] = [()]
    if isinstance(t, Abs):
        out.extend((1,) + p for p in positions(t.body))
    else:
        for i, a in enumerate(t.args, start=1):
            out.extend((i,) + p for p in positions(a))
    return out


BASES = (Base("a"), Base("b"))

_BINDERS = tuple(f"x{i}" for i in range(1, 10))


@st.composite
def simple_types(draw, max_depth: int = 2, bases=BASES) -> SimpleType:
    if max_depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(bases))
    n_args = draw(st.integers(1, 2))
    doms = [draw(simple_types(max_depth=max_depth - 1, bases=bases))
            for _ in range(n_args)]
    return arrow(*doms, draw(st.sampled_from(bases)))


@st.composite
def signatures(draw, bases=BASES) -> dict[str, SimpleType]:
    """3..6 symbols; every base type gets a constant so closed terms exist."""
    sig: dict[str, SimpleType] = {}
    for i, b in enumerate(bases):
        sig[f"c{i}"] = b
    dom = draw(st.sampled_from(bases))
    cod = draw(st.sampled_from(bases))
    sig["g0"] = arrow(dom, cod)
    extra = draw(st.integers(1, 4))
    for i in range(extra):
        sig[f"f{i}"] = draw(simple_types(bases=bases))
    return sig


def _atoms(consts: dict[str, SimpleType], frees: dict[str, SimpleType]):
    pool = [Const(n, t) for n, t in sorted(consts.items())]
    pool += [Free(n, t) for n, t in sorted(frees.items())]
    return pool


@st.composite
def eta_long_terms(draw, consts: dict[str, SimpleType],
                   frees: dict[str, SimpleType], ty: SimpleType,
                   fuel: int = 4, _depth: int = 0) -> Term:
    """A random well-typed term of ``ty`` in eta-long beta-normal form."""
    doms = ty.domains
    base = ty.result
    inner_frees = dict(frees)
    binders: list[tuple[str, SimpleType]] = []
    for k, d in enumerate(doms):
        name = f"{_BINDERS[(_depth + k) % len(_BINDERS)]}_{_depth + k}"
        binders.append((name, d))
        inner_frees[name] = d
    pool = [a for a in _atoms(consts, inner_frees)
            if a.ty.result == base]
    assert pool, f"no head can produce {base}"
    if fuel <= 0:
        cheapest = min(len(a.ty.domains) for a in pool)
        pool = [a for a in pool if len(a.ty.domains) == cheapest]
    head = draw(st.sampled_from(pool))
    head_doms = head.ty.domains
    args = tuple(
        draw(eta_long_terms(consts, inner_frees, d, fuel - 1,
                            _depth + len(binders) + 1))
        for d in head_doms)
    out: Term = App(head, args)
    for name, d in reversed(binders):
        out = lam(name, d, out)
    return out


@st.composite
def preterms(draw, consts: dict[str, SimpleType],
             frees: dict[str, SimpleType], ty: SimpleType,
             fuel: int = 3, _depth: int = 0) -> Preterm:
    """A random well-typed preterm of ``ty``: an eta-long term, possibly
    wrapped in beta-redexes that apply a generated abstraction."""
    if fuel > 0 and draw(st.booleans()):
        sigma = draw(st.sampled_from(BASES))
        fn = draw(eta_long_terms(consts, frees, Arrow(sigma, ty),
                                 fuel - 1, _depth + 7))
        argument = draw(preterms(consts, frees, sigma, fuel - 1, _depth + 1))
        return PApp(fn, argument)
    return draw(eta_long_terms(consts, frees, ty, fuel, _depth))


@st.composite
def rules(draw, sig: dict[str, SimpleType],
          variables: dict[str, SimpleType], name: str) -> Rule:
    """lhs is a symbol applied to random arguments; rhs reuses lhs frees."""
    heads = [n for n, t in sorted(sig.items()) if t.domains]
    head_name = draw(st.sampled_from(heads))
    head = Const(head_name, sig[head_name])
    args = tuple(draw(eta_long_terms(sig, variables, d, fuel=2))
                 for d in head.ty.domains)
    lhs = App(head, args)
    usable = {n: t for n, t in variables.items() if n in free_names(lhs)}
    rhs = draw(eta_long_terms(sig, usable, lhs.ty, fuel=2))
    return Rule(name, lhs, rhs)


@st.composite
def systems(draw, bases=BASES) -> Hrs:
    """A random system, round-tripped through the parser so all rule
    invariants (hint uniqueness, pattern flags) hold."""
    sig = draw(signatures(bases=bases))
    n_vars = draw(st.integers(1, 3))
    variables = {}
    for i in range(n_vars):
        variables[f"V{i}"] = draw(simple_types(max_depth=1, bases=bases))
    n_rules = draw(st.integers(1, 3))
    rule_list = [draw(rules(sig, variables, f"r{i}")) for i in range(n_rules)]
    raw = Hrs(tuple(b.name for b in bases), sig, variables, tuple(rule_list))
    return parse(print_hrs(raw))


def _loose(t: Term, depth: int = 0) -> set[int]:
    """Indices of the bound variables that ``t`` uses from outside it."""
    if isinstance(t, Abs):
        return _loose(t.body, depth + 1)
    out = {a for u in t.args for a in _loose(u, depth)}
    if isinstance(t.head, Bound) and t.head.index >= depth:
        out.add(t.head.index - depth)
    return out


@st.composite
def contracted_texts(draw, h: Hrs) -> str:
    """``print_hrs(h)`` with some eta-expansions written short: where
    ``\\x1 ... xk. a(t1, ..., tn, x1', ..., xj')`` ends in the eta-long forms
    of its last j binders and uses them nowhere else, the text may drop
    them from both ends, down to a bare ``a``.  Reading it back gives the
    same rules, up to binder hints."""
    taboo = set(h.signature) | set(h.variables)

    def show(u: Term, scope: list[str]) -> str:
        names: list[str] = []
        while isinstance(u, Abs):
            name = u.hint
            while name in taboo or name in scope or name in names:
                name += "'"
            names.append(name)
            u = u.body
        args, k = u.args, len(names)
        j = 0
        while (j < min(k, len(args))
               and args[-1 - j] == eta_expand(Bound(j, args[-1 - j].ty))):
            j += 1
        used = {i for a in args[:len(args) - j] for i in _loose(a)}
        if isinstance(u.head, Bound):
            used.add(u.head.index)
        j = draw(st.integers(0, min(used | {j})))
        inner = scope + names
        head = (inner[-1 - u.head.index] if isinstance(u.head, Bound)
                else u.head.name)
        shown = [show(a, inner) for a in args[:len(args) - j]]
        text = head + (f"({', '.join(shown)})" if shown else "")
        if k - j:
            text = "\\" + " ".join(names[:k - j]) + ". " + text
        return text

    lines = print_hrs(h).splitlines()
    rules_at = len(lines) - len(h.rules)
    for i, r in enumerate(h.rules):
        lines[rules_at + i] = (f"rule {r.name}: {show(r.lhs, [])} -> "
                               f"{show(r.rhs, [])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# first-order generators for the path-order laws

FO_NAT = Base("nat")
FO_SIG = {
    "0": FO_NAT,
    "s": arrow(FO_NAT, FO_NAT),
    "add": arrow(FO_NAT, FO_NAT, FO_NAT),
    "mul": arrow(FO_NAT, FO_NAT, FO_NAT),
    "pair": arrow(FO_NAT, FO_NAT, FO_NAT),
}
FO_VARS = {"X": FO_NAT, "Y": FO_NAT, "Z": FO_NAT}


@st.composite
def fo_terms(draw, max_size: int = 12, allow_vars: bool = True) -> Term:
    """A lambda-free term over the fixed first-order signature."""
    size = draw(st.integers(1, max_size))

    def go(budget: int) -> Term:
        leaves = [App(Const("0", FO_NAT), ())]
        if allow_vars:
            leaves += [App(Free(n, FO_NAT), ()) for n in sorted(FO_VARS)]
        if budget <= 1:
            return leaves[draw(st.integers(0, len(leaves) - 1))]
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return leaves[draw(st.integers(0, len(leaves) - 1))]
        if choice == 1:
            return App(Const("s", FO_SIG["s"]), (go(budget - 1),))
        name = ("add", "mul", "pair")[choice - 2]
        left = go((budget - 1) // 2 + 1)
        right = go((budget - 1) // 2 + 1)
        return App(Const(name, FO_SIG[name]), (left, right))

    return go(size)


@st.composite
def fo_substitutions(draw, max_size: int = 4):
    return {n: draw(fo_terms(max_size=max_size, allow_vars=False))
            for n in sorted(FO_VARS)}


@st.composite
def digraphs(draw, max_nodes: int = 8):
    n = draw(st.integers(1, max_nodes))
    arcs = draw(st.frozensets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=n * n))
    return n, arcs
