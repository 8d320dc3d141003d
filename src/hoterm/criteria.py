"""Discharging recursion components.

Two techniques are provided.  The subterm criterion projects every marked
symbol to one argument position sequence and asks the projections to shrink
under the subterm order.  It is decided on the nameless terms: binders a
projection crosses are fresh variables, distinct between the two sides of a
pair.  The reduction-pair route orients all rules weakly and the component's
pairs weakly or strictly with a lexicographic path order, which compiles
``s > t`` into memoised and/or constraints over atoms ``f > g`` and
evaluates them under its precedence.  The precedence search compiles what
the order must do for a component once, decides the call-graph guess on
those constraints, and walks only the prefixes they leave open, within a
budget of constraint assessments.  Both searches walk their choices, one
symbol at a time, with ``graph.depth_first``.
Components survive a successful step only through their non-strict pairs; the
refinement loop recomputes components of the remainder and recurses.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from .graph import (RecursionComponent, build_graph, depth_first,
                    postorder, recursion_components)
from .hrs import Hrs, Rule
from .sdp import DependencyPair, unmark_name
from .terms import (Abs, Base, Const, Free, Position, PositionError, Term,
                    bodies, descend, format_position, free_names,
                    print_term, reach, subterm_at, under_binders)

# ---------------------------------------------------------------------------
# subterm criterion


class PiAssignment:
    """One projection position per marked symbol, e.g. {"add#": (1,)}."""

    def __init__(self, projections: dict[str, Position]):
        for name, pos in projections.items():
            if not pos:
                raise ValueError(f"projection for {name} must be non-empty")
        self.projections = projections

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiAssignment):
            return NotImplemented
        return self.projections == other.projections

    def __repr__(self) -> str:
        return f"PiAssignment({self.projections!r})"

    def __str__(self) -> str:
        parts = [f"pi({unmark_name(s)}) = {format_position(p)}"
                 for s, p in sorted(self.projections.items())]
        return ", ".join(parts)


class CriterionVerdict(NamedTuple):
    strict: tuple[DependencyPair, ...]
    weak: tuple[DependencyPair, ...]
    witness: PiAssignment


class CriterionFailure(NamedTuple):
    pair: DependencyPair | None
    reason: str


def _occurs_below(s: Term, t: Term) -> bool:
    """``s`` is a proper subterm of ``t``, binders left nameless."""
    stack = [t.body] if isinstance(t, Abs) else list(t.args)
    while stack:
        u = stack.pop()
        if u == s:
            return True
        if isinstance(u, Abs):
            stack.append(u.body)
        else:
            stack.extend(u.args)
    return False


def _projection(pair: DependencyPair, p: Position, q: Position,
                defined: frozenset[str]) -> bool | tuple:
    """Classify one pair when its left side projects to ``p`` and its right
    side to ``q``: True if strictly smaller, False if equal, else what
    failed, a tuple that names the check and, for a head above a
    projection, how deep it stands and which it is.

    The pair passes when the projected left side contains the projected
    right side as a subterm, no free variable of the left side heads a
    subterm strictly above its projection, and below the right side's root
    neither a free variable nor a defined symbol heads a subterm strictly
    above its projection.  Binders a projection crosses become fresh
    variables, distinct between the two sides, so the test runs on the
    nameless terms: a projected right side that reaches a binder it crossed
    is a subterm of nothing.
    """
    try:
        left_path, left = descend(pair.lhs, p)
    except PositionError:
        return ("left position",)
    try:
        right_path, right = descend(pair.rhs, q)
    except PositionError:
        return ("right position",)
    for k, node in enumerate(left_path):
        if isinstance(under_binders(node).head, Free):
            return ("free above", k)
    for k, node in enumerate(right_path[1:], start=1):
        head = under_binders(node).head
        if isinstance(head, Free) \
                or isinstance(head, Const) and head.name in defined:
            return ("head above", k, head)
    if reach(right) > 0:
        return ("reaches",)
    if left == right:
        return False
    if _occurs_below(right, left):
        return True
    return ("not below",)


def project_pair(pair: DependencyPair, p: Position, q: Position,
                 defined: frozenset[str]) -> bool | CriterionFailure:
    """``_projection``'s answer, with a failure put in words: the terms
    are opened and printed only here."""
    found = _projection(pair, p, q, defined)
    if not isinstance(found, tuple):
        return found
    u, v = pair.lhs, pair.rhs
    check = found[0]
    if check == "left position":
        reason = f"position {format_position(p)} is not valid in " \
                 f"{print_term(u)}"
    elif check == "right position":
        reason = f"position {format_position(q)} is not valid in " \
                 f"{print_term(v)}"
    elif check == "free above":
        reason = f"a free variable heads {print_term(u)} at position " \
                 f"{format_position(p[:found[1]])}, above the projection"
    elif check == "head above":
        reason = f"{found[2].name} heads {print_term(v)} at position " \
                 f"{format_position(q[:found[1]])}, above the projection"
    elif check == "reaches":
        reason = f"{print_term(subterm_at(v, q))} refers to a binder " \
                 f"above position {format_position(q)}"
    else:
        apart = free_names(v)   # print the left side's binders apart
        reason = f"{print_term(subterm_at(v, q))} is not a subterm of " \
                 f"{print_term(subterm_at(u, p, apart), apart)}"
    return CriterionFailure(pair, reason)


def check_subterm_criterion(component: RecursionComponent, pi: PiAssignment,
                            defined: frozenset[str]
                            ) -> CriterionVerdict | CriterionFailure:
    """Classify every pair of the component under the projections with
    ``project_pair``.  The component passes when every pair does and at
    least one projection shrinks strictly.
    """
    strict: list[DependencyPair] = []
    weak: list[DependencyPair] = []
    for pair in component.pairs:
        try:
            p = pi.projections[pair.lhs.head.name]
            q = pi.projections[pair.rhs.head.name]
        except KeyError as missing:
            return CriterionFailure(pair, f"no projection for {missing}")
        shrinks = project_pair(pair, p, q, defined)
        if isinstance(shrinks, CriterionFailure):
            return shrinks
        (strict if shrinks else weak).append(pair)
    if not strict:
        return CriterionFailure(
            None, "no pair projects to a strictly smaller subterm")
    return CriterionVerdict(tuple(strict), tuple(weak), pi)


def _positions_within(t: Term, depth: int) -> list[Position]:
    """The positions of ``t`` below its root, at most ``depth`` long,
    shortest first and lexicographic within a length."""
    found: list[Position] = []
    level: list[tuple[Position, Term]] = [((), t)]
    for _ in range(depth):
        if not level:
            break
        level = [(here + (i,), child) for here, u in level
                 for i, child in enumerate(
                     (u.body,) if isinstance(u, Abs) else u.args, start=1)]
        found += [here for here, _ in level]
    return found


def search_pi(component: RecursionComponent, max_depth: int,
              defined: frozenset[str]) -> CriterionVerdict | None:
    """Return the first assignment, trying each symbol's positions shorter
    first and lexicographic within a length, that passes the criterion.

    Symbols are assigned in sorted order, each from the positions of the
    first side it heads.  Once both symbols of a pair are assigned, a pair
    that fails ``_projection``, as at a position missing from its sides,
    rules out every completion, so that branch is dropped; the answer is
    the one full enumeration would give first.  Each (pair, p, q) is
    projected once, and the verdict is built from those answers.
    """
    candidates: dict[str, list[Position]] = {}
    for pair in component.pairs:
        for side in (pair.lhs, pair.rhs):
            if side.head.name not in candidates:
                candidates[side.head.name] = _positions_within(side, max_depth)
    symbols = sorted(candidates)
    pools = [candidates[s] for s in symbols]
    if not symbols or any(not pool for pool in pools):
        return None
    index = {s: i for i, s in enumerate(symbols)}
    where = [(n, pair, index[pair.lhs.head.name], index[pair.rhs.head.name])
             for n, pair in enumerate(component.pairs)]
    # the pairs whose second symbol is assigned at each depth
    completed: list[list[tuple[int, DependencyPair, int, int]]] = \
        [[] for _ in symbols]
    for n, pair, i, j in where:
        completed[max(i, j)].append((n, pair, i, j))
    # _projection's answer for each (pair, p, q) asked so far; a failure
    # is never put in words
    results: dict[tuple[int, Position, Position], bool | tuple] = {}

    def viable(prefix: list) -> bool:
        for n, pair, i, j in completed[len(prefix) - 1]:
            key = (n, prefix[i], prefix[j])
            if key not in results:
                results[key] = _projection(pair, prefix[i], prefix[j],
                                           defined)
            if isinstance(results[key], tuple):
                return False
        return True

    for choice in depth_first(len(symbols),
                              lambda prefix: pools[len(prefix)], viable):
        shrinks = [results[n, choice[i], choice[j]] for n, _, i, j in where]
        if any(shrinks):
            return CriterionVerdict(
                tuple(p for p, s in zip(component.pairs, shrinks) if s),
                tuple(p for p, s in zip(component.pairs, shrinks) if not s),
                PiAssignment(dict(zip(symbols, choice))))
    return None


# ---------------------------------------------------------------------------
# reduction pairs


class Comparison(Enum):
    GREATER = "greater"
    GREATER_EQUAL = "greater-equal"
    UNKNOWN = "unknown"


def _first_order(t: Term) -> bool:
    """Binder-free with every free variable of basic type."""
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Abs):
            return False
        if isinstance(u.head, Free) and not isinstance(u.head.ty, Base):
            return False
        stack.extend(u.args)
    return True


def _comparable(s: Term, t: Term) -> bool:
    """Path orders answer only on first-order terms of one type."""
    return _first_order(s) and _first_order(t) and s.ty == t.ty


def _equiv(s: Term, t: Term) -> bool:
    """Equal up to the marks on symbols: the path order's equivalence, which
    no precedence changes, as it ranks distinct names apart.  Marks stand
    only at the root of a pair side, so only the heads may differ."""
    sh, th = s.head, t.head
    if isinstance(sh, Free) or isinstance(th, Free):
        return s == t
    return unmark_name(sh.name) == unmark_name(th.name) and s.args == t.args


# A precedence constraint is True, False, an atom ``(i, j, k)``: the symbol
# numbered i ranks above the one numbered j, and k numbers the atom in its
# order, or an _And or _Or of constraints that are not constants: ``_fold``
# folds those away.


class _And(tuple):
    """Every part holds."""


class _Or(tuple):
    """Some part holds."""


def _fold(kind: type, parts: Iterable) -> object:
    """The constraint ``kind(parts)``, with its constant parts folded."""
    decisive = kind is _Or          # True decides an _Or, False an _And
    kept = []
    for part in parts:
        if part is decisive:
            return part
        if type(part) is not bool:
            kept.append(part)
    if not kept:
        return not decisive
    return kept[0] if len(kept) == 1 else kind(kept)


def _assess(c, above: list[int], seen: dict) -> tuple[bool | None, int]:
    """The Kleene value of a constraint, None for open, when ``above[i]``
    has bit ``j`` set for each symbol ``j`` known to rank below ``i``; and,
    for an open one, the atoms every precedence satisfying it makes true,
    atom ``(i, j, k)`` as bit ``k``: an _And needs those of each open part,
    an _Or those that every open part needs.  ``seen`` keeps the answers
    for the parts shared within one order."""
    kind = type(c)
    if kind is tuple:
        i, j, k = c
        if above[i] >> j & 1:
            return True, 0
        if above[j] >> i & 1:
            return False, 0
        return None, 1 << k
    if kind is bool:
        return c, 0
    if id(c) in seen:
        return seen[id(c)]
    decisive = kind is _Or          # True decides an _Or, False an _And
    value: bool | None = not decisive
    needs = 0 if kind is _And else -1
    for part in c:
        v, part_needs = _assess(part, above, seen)
        if v is decisive:
            value, needs = v, 0
            break
        if v is None:
            value = None
            needs = needs | part_needs if kind is _And else needs & part_needs
    seen[id(c)] = value, needs if value is None else 0
    return seen[id(c)]


class LexPathOrder:
    """Lexicographic path order induced by a precedence on symbol names.

    A marked symbol ranks together with its unmarked form.  Comparisons are
    answered only on binder-free terms whose variables have basic types;
    anything else is unknown.  Symbols missing from the precedence rank below
    all listed ones, ordered by name.

    ``compare`` evaluates ``greater(s, t)``, ``s > t`` compiled once into a
    constraint over atoms ``f > g`` between unmarked names, numbered as they
    are met, the precedence's names first.  Under a total precedence it has
    exactly the order's answer: ``_equiv`` does not depend on the order, so
    it folds to a constant, and terms the order does not compare fold to
    False.  ``required`` is what ``check_reduction_pair`` asks of a
    precedence; ``closure(prefix)`` asks about every precedence that ranks
    ``prefix`` first, greatest first, and the other symbols below it, and
    counts the constraints it assesses in ``assessed``.
    """

    def __init__(self, precedence: tuple[str, ...]):
        self.precedence = tuple(precedence)
        self.symbols: dict[str, int] = {}
        for name in self.precedence:
            self._number(name)
        self._greater: dict[tuple[Term, Term], object] = {}
        self._atoms: dict[tuple[str, str], tuple[int, int, int]] = {}
        self.required: list = []        # every one must hold
        self.assessed = 0
        self._above: list[int] = []     # the order, as ``ranked`` gives it

    def describe(self) -> str:
        return "path order with precedence " + " > ".join(self.precedence)

    def _number(self, name: str) -> int:
        return self.symbols.setdefault(name, len(self.symbols))

    def _ranks(self) -> list[int]:
        """``ranked`` of the precedence, then the rest, greatest first."""
        if len(self._above) != len(self.symbols):
            unlisted = sorted(self.symbols.keys() - set(self.precedence),
                              reverse=True)
            self._above = self.ranked(self.precedence + tuple(unlisted))
        return self._above

    def compare(self, s: Term, t: Term) -> Comparison:
        if not _comparable(s, t):
            return Comparison.UNKNOWN
        if _assess(self.greater(s, t), self._ranks(), {})[0]:
            return Comparison.GREATER
        if _equiv(s, t):
            return Comparison.GREATER_EQUAL
        return Comparison.UNKNOWN

    def greater(self, s: Term, t: Term):
        """The path order's ``s > t`` as a constraint: an argument of ``s``
        is ``t`` up to marks or above it, or ``s`` is above every argument of
        ``t`` and its head ranks above ``t``'s, or ties and the arguments
        decrease lexicographically; a variable is below every other term
        that holds it."""
        key = (s, t)
        if key not in self._greater:
            self._greater[key] = self._compile(s, t)
        return self._greater[key]

    def _compile(self, s: Term, t: Term):
        th = t.head
        if isinstance(th, Free):
            return s != t and th.name in free_names(s)
        if isinstance(s.head, Free):
            return False
        above = _fold(_Or, (_equiv(a, t) or self.greater(a, t)
                                for a in s.args))
        if above is True:
            return True
        f, g = unmark_name(s.head.name), unmark_name(th.name)
        if f == g:
            first = False
            for a, b in zip(s.args, t.args):
                if not _equiv(a, b):
                    first = self.greater(a, b)
                    break
        else:
            first = self._atoms.setdefault(
                (f, g), (self._number(f), self._number(g), len(self._atoms)))
        if first is False:
            return above
        rest = _fold(_And, [first] + [self.greater(s, b) for b in t.args])
        return _fold(_Or, (above, rest))

    def orients(self, s: Term, t: Term, strict: bool = False):
        """``compare(s, t)`` is GREATER (``strict``) or not UNKNOWN."""
        if not _comparable(s, t):
            return False
        if strict:
            return self.greater(s, t)
        return _equiv(s, t) or self.greater(s, t)

    def ranked(self, prefix: tuple[str, ...]) -> list[int]:
        """The order ``prefix`` fixes: each of its symbols above every
        symbol after it and every symbol outside it."""
        above = [0] * len(self.symbols)
        below = (1 << len(self.symbols)) - 1
        for name in prefix:
            i = self.symbols[name]
            below &= ~(1 << i)
            above[i] = below
        return above

    def closure(self, prefix: tuple[str, ...]) -> list[int] | None:
        """The order ``prefix`` fixes with the atoms the open required
        constraints force added and closed transitively, as ``ranked``
        gives it: every precedence that starts with ``prefix`` and
        satisfies every required constraint extends it.  None when there
        is no such precedence: a constraint is False already, or the
        forced atoms rank some symbol above itself."""
        above = self.ranked(prefix)
        atoms = list(self._atoms.values())
        while True:
            forced, seen = 0, {}
            for c in self.required:
                self.assessed += 1
                value, needs = _assess(c, above, seen)
                if value is False:
                    return None
                forced |= needs
            if not forced:
                return above
            while forced:
                low = forced & -forced
                forced ^= low
                i, j, _ = atoms[low.bit_length() - 1]
                if above[j] >> i & 1:
                    return None
                # i and everything above it now rank above j and its lower set
                gain = 1 << j | above[j]
                for k, lower in enumerate(above):
                    if k == i or lower >> i & 1:
                        above[k] = lower | gain


class OrientationVerdict(NamedTuple):
    strict: tuple[DependencyPair, ...]
    weak: tuple[DependencyPair, ...]
    oracle_description: str


class OrientationFailure(NamedTuple):
    subject: str
    reason: str


def check_reduction_pair(h: Hrs, component: RecursionComponent,
                         oracle: LexPathOrder
                         ) -> OrientationVerdict | OrientationFailure:
    """Orient all rules weakly and the component's pairs at least weakly,
    at least one strictly."""
    if not component.pairs:
        raise ValueError("component must be nonempty")
    for rule in h.rules:
        c = oracle.compare(rule.lhs, rule.rhs)
        if c is Comparison.UNKNOWN:
            return OrientationFailure(
                f"rule {rule.name}",
                f"cannot orient {print_term(rule.lhs)} >= "
                f"{print_term(rule.rhs)}")
    strict: list[DependencyPair] = []
    weak: list[DependencyPair] = []
    for pair in component.pairs:
        c = oracle.compare(pair.lhs, pair.rhs)
        if c is Comparison.GREATER:
            strict.append(pair)
        elif c is Comparison.GREATER_EQUAL:
            weak.append(pair)
        else:
            return OrientationFailure(
                f"pair {pair}", "cannot orient the pair weakly or strictly")
    if not strict:
        return OrientationFailure(
            "component", "no pair is strictly oriented")
    return OrientationVerdict(tuple(strict), tuple(weak), oracle.describe())


# Deciding whether some precedence orients a system is NP-complete
# (Krishnamoorthy & Narendran, TCS 1985), so the walk is bounded by the
# required constraints it assesses.
PRECEDENCE_BUDGET = 100_000


class _Exhausted(Exception):
    """The precedence walk has spent its budget."""


def _symbols(t: Term) -> set[str]:
    """Unmarked names of the function symbols heading subterms of ``t``."""
    return {unmark_name(u.head.name) for _, u in bodies(t)
            if isinstance(u.head, Const)}


def _relevant_symbols(h: Hrs, component: RecursionComponent) -> list[str]:
    sides = [s for r in h.rules for s in (r.lhs, r.rhs)]
    sides += [s for p in component.pairs for s in (p.lhs, p.rhs)]
    return sorted(set().union(*(_symbols(s) for s in sides)))


def _call_graph_precedence(h: Hrs, symbols: list[str]) -> tuple[str, ...]:
    """Rank callers above their callees: start from the rule-mention graph,
    take the longest-path depth of each symbol, break ties by name.

    Depths are read off one depth-first walk, each as its symbol finishes.
    On a cycle a callee still on the walk counts 0, so the answer depends on
    the visit order: callees are visited by name, so it does not depend on
    set order.
    """
    mentions: dict[str, set[str]] = {s: set() for s in symbols}
    for rule in h.rules:
        caller = unmark_name(rule.lhs.head.name)
        if caller not in mentions:
            continue
        for callee in _symbols(rule.rhs):
            if callee in mentions and callee != caller:
                mentions[caller].add(callee)
    callees_of = {s: sorted(callees) for s, callees in mentions.items()}

    depth: dict[str, int] = {}
    for s in postorder(symbols, callees_of.__getitem__):
        depth[s] = 1 + max((depth.get(c, 0) for c in callees_of[s]),
                           default=0)
    return tuple(sorted(symbols, key=lambda s: (-depth[s], s)))


def _higher_order_rule(h: Hrs) -> Rule | None:
    """The first rule with a side that is not first-order, if any."""
    return next((rule for rule in h.rules
                 if not (_first_order(rule.lhs) and _first_order(rule.rhs))),
                None)


def search_precedence(h: Hrs, component: RecursionComponent
                      ) -> OrientationVerdict | str:
    """Try the call-graph precedence first, then every other precedence in
    ``permutations`` order; the first that orients wins.  Otherwise return
    why none was found: a rule side that is not first-order, which every
    path order leaves unknown, a spent budget, or that none orients.

    What the path order must do is compiled once into constraints over the
    precedence: every rule and pair oriented weakly, some pair strictly.
    Under a whole precedence they hold exactly when ``check_reduction_pair``
    passes, so they decide the guess.  Past it, precedences are built
    greatest symbol first.  A prefix whose ``closure`` is None is dropped
    with all its completions, and a symbol that an unplaced one is forced
    above in the prefix's closure is not offered next, since the prefix it
    makes would be dropped.  The walk stops once the assessments charged
    exceed ``PRECEDENCE_BUDGET``.  Only the winner is passed to
    ``check_reduction_pair``, on the same compiled order.
    """
    rule = _higher_order_rule(h)
    if rule is not None:
        return (f"rule {rule.name} is not first-order, so no path order "
                "was tried")
    symbols = _relevant_symbols(h, component)
    winner: tuple[str, ...] | None = _call_graph_precedence(h, symbols)
    order = _component_order(h, component, winner)
    if order.closure(winner) is None:
        closed = [order.closure(())]    # each walked prefix's closure

        def viable(prefix: list) -> bool:
            if order.assessed > PRECEDENCE_BUDGET:
                raise _Exhausted
            del closed[len(prefix):]
            closed.append(order.closure(tuple(prefix)))
            return closed[-1] is not None

        def on_top(prefix: list) -> list[str]:
            placed = set(prefix)
            left = [s for s in symbols if s not in placed]
            above = closed[len(prefix)]
            below_some = 0
            for s in left:
                below_some |= above[order.symbols[s]]
            return [s for s in left if not below_some >> order.symbols[s] & 1]

        winner = None
        if closed[0] is not None:
            try:
                winner = next(depth_first(len(symbols), on_top, viable), None)
            except _Exhausted:
                return ("precedence search budget exhausted after "
                        f"{order.assessed} assessments")
        if winner is None:
            return "no precedence orients every rule and the component"
    order.precedence = winner
    verdict = check_reduction_pair(h, component, order)
    assert isinstance(verdict, OrientationVerdict)
    return verdict


def _component_order(h: Hrs, component: RecursionComponent,
                     guess: tuple[str, ...]) -> LexPathOrder:
    """``check_reduction_pair``'s demands on a precedence, compiled into
    the order with precedence ``guess``, which names every symbol."""
    order = LexPathOrder(guess)
    order.required = [order.orients(r.lhs, r.rhs) for r in h.rules]
    order.required += [order.orients(p.lhs, p.rhs) for p in component.pairs]
    order.required.append(_fold(_Or, [
        order.orients(p.lhs, p.rhs, strict=True) for p in component.pairs]))
    return order


# ---------------------------------------------------------------------------
# refinement loop


TECHNIQUES = ("subterm", "redpair")


class AnalysisConfig(NamedTuple):
    techniques: tuple[str, ...] = TECHNIQUES
    max_pi_depth: int = 3
    precedence: tuple[str, ...] | None = None

    def check(self, h: Hrs) -> None:
        """Raise ConfigError on an empty technique list, an unknown technique,
        a projection depth below 1, or a precedence that repeats or misnames
        a symbol."""
        if not self.techniques:
            raise ConfigError("the technique list is empty")
        for name in self.techniques:
            if name not in TECHNIQUES:
                raise ConfigError(f"unknown technique {name!r}; choose from "
                                  f"{', '.join(TECHNIQUES)}")
        if self.max_pi_depth < 1:
            raise ConfigError(f"max_pi_depth is {self.max_pi_depth}, below 1")
        for i, name in enumerate(self.precedence or ()):
            if name in self.precedence[:i]:
                raise ConfigError(f"the precedence names {name} twice")
            if name not in h.signature:
                raise ConfigError(f"the precedence names {name}, which the "
                                  "system does not declare")


class ConfigError(ValueError):
    """An analysis setting does not fit the system it is applied to."""


class RefinementStep(NamedTuple):
    component: RecursionComponent
    technique: str
    witness: str
    removed: tuple[DependencyPair, ...]
    remaining: tuple[DependencyPair, ...]


class ComponentProof(NamedTuple):
    component: RecursionComponent
    steps: tuple[RefinementStep, ...]


class ComponentFailure(NamedTuple):
    component: RecursionComponent
    residual: RecursionComponent
    reasons: tuple[str, ...] = ()


def _discharge_once(h: Hrs, component: RecursionComponent,
                    config: AnalysisConfig
                    ) -> RefinementStep | ComponentFailure:
    reasons: list[str] = []
    for technique in config.techniques:
        if technique == "subterm":
            verdict = search_pi(component, config.max_pi_depth, h.defined)
            if verdict is not None:
                return RefinementStep(component, "subterm criterion",
                                      str(verdict.witness), verdict.strict,
                                      verdict.weak)
            reasons.append("no projection satisfies the subterm criterion "
                           f"up to depth {config.max_pi_depth}")
        elif technique == "redpair":
            if config.precedence is not None:
                result = check_reduction_pair(
                    h, component, LexPathOrder(config.precedence))
                if isinstance(result, OrientationFailure):
                    reasons.append(f"{result.subject}: {result.reason}")
                    result = None
            else:
                result = search_precedence(h, component)
                if isinstance(result, str):
                    reasons.append(result)
                    result = None
            if result is not None:
                return RefinementStep(component, "reduction pair",
                                      result.oracle_description, result.strict,
                                      result.weak)
        else:
            raise ValueError(f"unknown technique {technique!r}")
    return ComponentFailure(component, component, tuple(reasons))


def analyze_component(h: Hrs, component: RecursionComponent,
                      config: AnalysisConfig = AnalysisConfig()
                      ) -> ComponentProof | ComponentFailure:
    """Refine until no recursion structure remains: discharge, drop the
    strictly decreasing pairs, recompute components of the rest, recurse."""
    steps: list[RefinementStep] = []
    queue: list[RecursionComponent] = [component]
    while queue:
        current = queue.pop(0)
        result = _discharge_once(h, current, config)
        if isinstance(result, ComponentFailure):
            return ComponentFailure(component, result.residual,
                                    result.reasons)
        steps.append(result)
        if result.remaining:
            queue.extend(recursion_components(build_graph(result.remaining)))
    return ComponentProof(component, tuple(steps))
