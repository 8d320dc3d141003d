"""Discharging recursion components.

Two techniques are provided.  The subterm criterion projects every marked
symbol to one argument position sequence and asks the projections to shrink
under the subterm order.  The reduction-pair route orients all rules weakly
and the component's pairs weakly or strictly with a lexicographic path order.
Components survive a successful step only through their non-strict pairs; the
refinement loop recomputes components of the remainder and recurses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator

from .graph import RecursionComponent, build_graph, recursion_components
from .hrs import Hrs, Rule
from .sdp import DependencyPair, unmark_name
from .terms import (Abs, Base, Const, Free, Position, PositionError, Term,
                    format_position, free_names, positions, print_term,
                    subterm_at, subterms, top)

# ---------------------------------------------------------------------------
# subterm criterion


@dataclass(frozen=True)
class PiAssignment:
    """One projection position per marked symbol, e.g. {"add#": (1,)}."""

    projections: dict[str, Position]

    def __post_init__(self):
        for name, pos in self.projections.items():
            if not pos:
                raise ValueError(f"projection for {name} must be non-empty")

    def position_for(self, symbol: str) -> Position:
        return self.projections[symbol]

    def __str__(self) -> str:
        parts = [f"pi({unmark_name(s)}) = {format_position(p)}"
                 for s, p in sorted(self.projections.items())]
        return ", ".join(parts)


@dataclass(frozen=True)
class CriterionVerdict:
    strict: tuple[DependencyPair, ...]
    weak: tuple[DependencyPair, ...]
    witness: PiAssignment


@dataclass(frozen=True)
class CriterionFailure:
    pair: DependencyPair | None
    reason: str


def _proper_prefixes(p: Position) -> Iterable[Position]:
    for k in range(len(p)):
        yield p[:k]


def project_pair(pair: DependencyPair, p: Position, q: Position,
                 defined: frozenset[str]) -> bool | CriterionFailure:
    """Classify one pair when its left side projects to ``p`` and its right
    side to ``q``: True if strictly smaller, False if equal, else the failure.

    The pair passes when the projected left side contains the projected
    right side as a subterm, no free variable of the left side heads a
    subterm strictly above its projection, and below the right side's root
    neither a free variable nor a defined symbol heads a subterm strictly
    above its projection.
    """
    u, v = pair.lhs, pair.rhs
    try:
        left = subterm_at(u, p)
    except PositionError:
        return CriterionFailure(
            pair, f"position {format_position(p)} is not valid in "
                  f"{print_term(u)}")
    try:
        right = subterm_at(v, q)
    except PositionError:
        return CriterionFailure(
            pair, f"position {format_position(q)} is not valid in "
                  f"{print_term(v)}")
    fv_u = free_names(u)
    for pp in _proper_prefixes(p):
        if top(subterm_at(u, pp)).name in fv_u:
            return CriterionFailure(
                pair, f"a free variable heads {print_term(u)} at "
                      f"position {format_position(pp)}, above the "
                      "projection")
    for qq in _proper_prefixes(q):
        if qq == ():
            continue
        head = top(subterm_at(v, qq))
        if isinstance(head, Free) and head.name in free_names(v) \
                or isinstance(head, Const) and head.name in defined:
            return CriterionFailure(
                pair, f"{head.name} heads {print_term(v)} at position "
                      f"{format_position(qq)}, above the projection")
    if left == right:
        return False
    if right in subterms(left):
        return True
    return CriterionFailure(
        pair, f"{print_term(right)} is not a subterm of {print_term(left)}")


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
            p = pi.position_for(top(pair.lhs).name)
            q = pi.position_for(top(pair.rhs).name)
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


def _candidate_positions(component: RecursionComponent, max_depth: int
                         ) -> dict[str, list[Position]]:
    """For each marked symbol, the positions valid in every side it heads,
    shortest first."""
    shared: dict[str, set[Position]] = {}
    for pair in component.pairs:
        for side in (pair.lhs, pair.rhs):
            here = {p for p in positions(side) if p and len(p) <= max_depth}
            name = top(side).name
            shared[name] = shared[name] & here if name in shared else here
    return {name: sorted(pool, key=lambda p: (len(p), p))
            for name, pool in shared.items()}


def _depth_first(size: int, options: Callable[[list], Iterable],
                 viable: Callable[[list], bool]) -> Iterator[tuple]:
    """Yield, in the lexicographic order of ``options``, every sequence of
    ``size`` choices all of whose non-empty prefixes are ``viable``.

    ``options(prefix)`` lists the choices that may follow ``prefix``.  The
    walk keeps its own stack, so ``size`` is not bounded by Python's
    recursion limit.
    """
    prefix: list = []
    stack = [iter(options(prefix))]
    while stack:
        for choice in stack[-1]:
            prefix.append(choice)
            if not viable(prefix):
                prefix.pop()
            elif len(prefix) == size:
                yield tuple(prefix)
                prefix.pop()
            else:
                stack.append(iter(options(prefix)))
                break
        else:
            stack.pop()
            if prefix:
                prefix.pop()


def search_pi(component: RecursionComponent, max_depth: int = 3,
              defined: frozenset[str] = frozenset()
              ) -> CriterionVerdict | None:
    """Return the first assignment, trying each symbol's positions shorter
    first and lexicographic within a length, that passes the criterion.

    Symbols are assigned in sorted order.  Once both symbols of a pair are
    assigned, a pair that fails ``project_pair`` rules out every completion,
    so that branch is dropped; the answer is the one full enumeration would
    give first.
    """
    candidates = _candidate_positions(component, max_depth)
    symbols = sorted(candidates)
    pools = [candidates[s] for s in symbols]
    if not symbols or any(not pool for pool in pools):
        return None
    index = {s: i for i, s in enumerate(symbols)}
    # the pairs whose second symbol is assigned at each depth
    completed: list[list[tuple[int, DependencyPair, int, int]]] = \
        [[] for _ in symbols]
    for n, pair in enumerate(component.pairs):
        i, j = index[top(pair.lhs).name], index[top(pair.rhs).name]
        completed[max(i, j)].append((n, pair, i, j))
    passes: dict[tuple[int, Position, Position], bool] = {}

    def viable(prefix: list) -> bool:
        for n, pair, i, j in completed[len(prefix) - 1]:
            key = (n, prefix[i], prefix[j])
            if key not in passes:
                passes[key] = not isinstance(
                    project_pair(pair, prefix[i], prefix[j], defined),
                    CriterionFailure)
            if not passes[key]:
                return False
        return True

    for choice in _depth_first(len(symbols),
                               lambda prefix: pools[len(prefix)], viable):
        pi = PiAssignment(dict(zip(symbols, choice)))
        verdict = check_subterm_criterion(component, pi, defined)
        if isinstance(verdict, CriterionVerdict):
            return verdict
    return None


# ---------------------------------------------------------------------------
# reduction pairs


class Comparison(Enum):
    GREATER = "greater"
    GREATER_EQUAL = "greater-equal"
    UNKNOWN = "unknown"


def _first_order(t: Term) -> bool:
    """Binder-free with every free variable of basic type."""
    if isinstance(t, Abs):
        return False
    head = t.head
    if isinstance(head, Free) and not isinstance(head.ty, Base):
        return False
    return all(_first_order(a) for a in t.args)


def _comparable(s: Term, t: Term) -> bool:
    """Path orders answer only on first-order terms of one type."""
    return _first_order(s) and _first_order(t) and s.ty == t.ty


def _any3(values: Iterable[bool | None]) -> bool | None:
    """Kleene disjunction, evaluated left to right: None stands for unknown."""
    result: bool | None = False
    for v in values:
        if v:
            return True
        if v is None:
            result = None
    return result


def _all3(values: Iterable[bool | None]) -> bool | None:
    """Kleene conjunction, evaluated left to right: None stands for unknown."""
    result: bool | None = True
    for v in values:
        if v is False:
            return False
        if v is None:
            result = None
    return result


class LexPathOrder:
    """Lexicographic path order induced by a precedence on symbol names.

    A marked symbol ranks together with its unmarked form.  Comparisons are
    answered only on binder-free terms whose variables have basic types;
    anything else is unknown.  Symbols missing from the precedence rank below
    all listed ones, ordered by name.

    ``_greater`` is three-valued (None is unknown, combined in Kleene logic)
    so that a subclass may leave some symbol comparisons open; with a full
    precedence, as here, it always answers True or False.
    """

    def __init__(self, precedence: tuple[str, ...]):
        self.precedence = tuple(precedence)
        self._rank = {name: len(precedence) - i
                      for i, name in enumerate(precedence)}

    def describe(self) -> str:
        return "path order with precedence " + " > ".join(self.precedence)

    def _cmp_symbols(self, f: str, g: str) -> int | None:
        f, g = unmark_name(f), unmark_name(g)
        rf, rg = self._rank.get(f, 0), self._rank.get(g, 0)
        if rf != rg:
            return 1 if rf > rg else -1
        if f != g and rf == 0:
            return 1 if f > g else -1
        return 0

    def _equiv(self, s: Term, t: Term) -> bool:
        sh, th = s.head, t.head
        if isinstance(sh, Free) or isinstance(th, Free):
            return s == t
        assert isinstance(sh, Const) and isinstance(th, Const)
        return (self._cmp_symbols(sh.name, th.name) == 0
                and len(s.args) == len(t.args)
                and all(self._equiv(a, b) for a, b in zip(s.args, t.args)))

    def _greater(self, s: Term, t: Term) -> bool | None:
        th = t.head
        if isinstance(th, Free):
            return s != t and th.name in free_names(s)
        if isinstance(s.head, Free):
            return False
        above = _any3(self._equiv(a, t) or self._greater(a, t)
                      for a in s.args)
        if above:
            return True
        by_head = self._cmp_symbols(s.head.name, th.name)
        if by_head == 0:
            first: bool | None = False
            for a, b in zip(s.args, t.args):
                if not self._equiv(a, b):
                    first = self._greater(a, b)
                    break
        else:
            first = None if by_head is None else by_head > 0
        if first is False:
            return above
        rest = _all3(self._greater(s, b) for b in t.args)
        return _any3((above, _all3((first, rest))))

    def compare(self, s: Term, t: Term) -> Comparison:
        if not _comparable(s, t):
            return Comparison.UNKNOWN
        if self._greater(s, t):
            return Comparison.GREATER
        if self._equiv(s, t):
            return Comparison.GREATER_EQUAL
        return Comparison.UNKNOWN


class _PrecedencePrefix(LexPathOrder):
    """The path orders of every precedence that starts with ``prefix`` and
    ranks all other symbols below it.

    Two distinct symbols outside the prefix compare as unknown, so
    ``_greater`` answers True or False only where every such precedence
    agrees.  ``_equiv`` needs no change: distinct symbols are never
    equivalent under any precedence.
    """

    def _cmp_symbols(self, f: str, g: str) -> int | None:
        f, g = unmark_name(f), unmark_name(g)
        if f != g and f not in self._rank and g not in self._rank:
            return None
        return super()._cmp_symbols(f, g)

    def _never(self, s: Term, t: Term, strict: bool) -> bool:
        """No completion orients ``s > t`` (``strict``) or ``s >= t``."""
        return not _comparable(s, t) or (
            self._greater(s, t) is False
            and (strict or not self._equiv(s, t)))

    def rules_out(self, h: Hrs, component: RecursionComponent) -> bool:
        """No completion orients every rule and pair weakly and one pair
        strictly, so ``check_reduction_pair`` fails on every completion."""
        return (any(self._never(r.lhs, r.rhs, False) for r in h.rules)
                or any(self._never(p.lhs, p.rhs, False)
                       for p in component.pairs)
                or all(self._never(p.lhs, p.rhs, True)
                       for p in component.pairs))


@dataclass(frozen=True)
class OrientationVerdict:
    strict: tuple[DependencyPair, ...]
    weak: tuple[DependencyPair, ...]
    oracle_description: str


@dataclass(frozen=True)
class OrientationFailure:
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


MAX_PRECEDENCE_SYMBOLS = 8


def _symbols(t: Term) -> set[str]:
    """Unmarked names of the function symbols heading subterms of ``t``."""
    return {unmark_name(u.head.name) for u in subterms(t)
            if not isinstance(u, Abs) and isinstance(u.head, Const)}


def _relevant_symbols(h: Hrs, component: RecursionComponent) -> list[str]:
    sides = [s for r in h.rules for s in (r.lhs, r.rhs)]
    sides += [s for p in component.pairs for s in (p.lhs, p.rhs)]
    return sorted(set().union(*(_symbols(s) for s in sides)))


def _call_graph_precedence(h: Hrs, symbols: list[str]) -> tuple[str, ...]:
    """Rank callers above their callees: start from the rule-mention graph,
    take the longest-path depth of each symbol, break ties by name.

    On a cycle the depth is cut where the walk re-enters a symbol on its own
    trail, so the answer depends on the visit order: callees are visited by
    name, so it does not depend on set order.  The walk keeps its own
    stack, in the order of a recursive visit, so long call chains fit.
    """
    mentions: dict[str, set[str]] = {s: set() for s in symbols}
    for rule in h.rules:
        caller = unmark_name(top(rule.lhs).name)
        if caller not in mentions:
            continue
        for callee in _symbols(rule.rhs):
            if callee in mentions and callee != caller:
                mentions[caller].add(callee)
    callees_of = {s: sorted(callees) for s, callees in mentions.items()}

    depth: dict[str, int] = {}
    for root in symbols:
        if root in depth:
            continue
        # one frame per symbol on the trail: [symbol, trail, callees left,
        # deepest callee so far]
        stack = [[root, frozenset({root}), iter(callees_of[root]), 0]]
        while stack:
            frame = stack[-1]
            s, trail, callees = frame[:3]
            for c in callees:
                if c in depth:
                    frame[3] = max(frame[3], depth[c])
                elif c not in trail:
                    stack.append([c, trail | {c}, iter(callees_of[c]), 0])
                    break
            else:
                stack.pop()
                depth[s] = 1 + frame[3]
                if stack:
                    stack[-1][3] = max(stack[-1][3], depth[s])
    return tuple(sorted(symbols, key=lambda s: (-depth[s], s)))


def _higher_order_rule(h: Hrs) -> Rule | None:
    """The first rule with a side that is not first-order, if any."""
    return next((rule for rule in h.rules
                 if not (_first_order(rule.lhs) and _first_order(rule.rhs))),
                None)


def search_precedence(h: Hrs, component: RecursionComponent
                      ) -> OrientationVerdict | None:
    """Try the call-graph precedence first, then, when few enough symbols
    are involved, every other precedence in ``permutations`` order; the
    first that orients wins.  A rule side that is not first-order is
    unknown to every path order, so nothing is tried.

    Precedences are built greatest symbol first.  A prefix under which
    some rule or pair, or every pair strictly, is already unorientable is
    dropped with all its completions, so the answer is the one full
    enumeration would give first.
    """
    if _higher_order_rule(h) is not None:
        return None
    symbols = _relevant_symbols(h, component)
    guess = _call_graph_precedence(h, symbols)
    verdict = check_reduction_pair(h, component, LexPathOrder(guess))
    if isinstance(verdict, OrientationVerdict):
        return verdict
    if len(symbols) > MAX_PRECEDENCE_SYMBOLS:
        return None

    def viable(prefix: list) -> bool:
        return not _PrecedencePrefix(tuple(prefix)).rules_out(h, component)

    for perm in _depth_first(
            len(symbols),
            lambda prefix: [s for s in symbols if s not in prefix], viable):
        if perm == guess:
            continue
        verdict = check_reduction_pair(h, component, LexPathOrder(perm))
        if isinstance(verdict, OrientationVerdict):
            return verdict
    return None


def _precedence_give_up_reason(h: Hrs, component: RecursionComponent) -> str:
    """Why ``search_precedence`` found nothing: what it left untried."""
    rule = _higher_order_rule(h)
    if rule is not None:
        return (f"rule {rule.name} is not first-order, so no path order "
                "was tried")
    n = len(_relevant_symbols(h, component))
    if n > MAX_PRECEDENCE_SYMBOLS:
        return (f"the call-graph precedence does not orient every rule and "
                f"the component, and {n} symbols exceed the search limit of "
                f"{MAX_PRECEDENCE_SYMBOLS}")
    return "no precedence orients every rule and the component"


# ---------------------------------------------------------------------------
# refinement loop


@dataclass(frozen=True)
class AnalysisConfig:
    techniques: tuple[str, ...] = ("subterm", "redpair")
    max_pi_depth: int = 3
    precedence: tuple[str, ...] | None = None

    def check(self, h: Hrs) -> None:
        """Raise ConfigError if the precedence repeats or misnames a symbol."""
        for i, name in enumerate(self.precedence or ()):
            if name in self.precedence[:i]:
                raise ConfigError(f"the precedence names {name} twice")
            if name not in h.signature:
                raise ConfigError(f"the precedence names {name}, which the "
                                  "system does not declare")


class ConfigError(ValueError):
    """An analysis setting does not fit the system it is applied to."""


@dataclass(frozen=True)
class RefinementStep:
    component: RecursionComponent
    technique: str
    witness: str
    removed: tuple[DependencyPair, ...]
    remaining: tuple[DependencyPair, ...]


@dataclass(frozen=True)
class ComponentProof:
    component: RecursionComponent
    steps: tuple[RefinementStep, ...]


@dataclass(frozen=True)
class ComponentFailure:
    component: RecursionComponent
    residual: RecursionComponent
    reasons: tuple[str, ...] = field(default_factory=tuple)


def _without(component: RecursionComponent,
             strict: tuple[DependencyPair, ...]) -> tuple[DependencyPair, ...]:
    """The component's pairs not in ``strict``, in order."""
    removed = set(strict)
    return tuple(p for p in component.pairs if p not in removed)


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
                                      _without(component, verdict.strict))
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
                if result is None:
                    reasons.append(_precedence_give_up_reason(h, component))
            if result is not None:
                return RefinementStep(component, "reduction pair",
                                      result.oracle_description, result.strict,
                                      _without(component, result.strict))
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
