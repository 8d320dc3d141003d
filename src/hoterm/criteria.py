"""Discharging recursion components.

Two techniques are provided.  The subterm criterion projects every marked
symbol to one argument position sequence and asks the projections to shrink
under the subterm order.  The reduction-pair route orients all rules weakly
and the component's pairs weakly or strictly with a lexicographic path order.
Components survive a successful step only through their non-strict pairs; the
refinement loop recomputes components of the remainder and recurses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .graph import RecursionComponent, build_graph, recursion_components
from .hrs import Hrs
from .sdp import DependencyPair, unmark_name
from .terms import (Abs, Base, Const, Free, Position, Term, format_position,
                    free_names, positions, print_term, subterm_at, subterms,
                    top)

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


def check_subterm_criterion(component: RecursionComponent, pi: PiAssignment,
                            defined: frozenset[str]
                            ) -> CriterionVerdict | CriterionFailure:
    """Classify every pair of the component under the projections.

    A pair passes when the projected left side contains the projected right
    side as a subterm, no free variable of the left side heads a subterm
    strictly above its projection, and below the right side's root neither a
    free variable nor a defined symbol heads a subterm strictly above its
    projection.  The component passes when every pair does and at least one
    projection shrinks strictly.
    """
    strict: list[DependencyPair] = []
    weak: list[DependencyPair] = []
    for pair in component.pairs:
        u, v = pair.lhs, pair.rhs
        try:
            p = pi.position_for(top(u).name)
            q = pi.position_for(top(v).name)
        except KeyError as missing:
            return CriterionFailure(pair, f"no projection for {missing}")
        pos_u, pos_v = set(positions(u)), set(positions(v))
        if p not in pos_u:
            return CriterionFailure(
                pair, f"position {format_position(p)} is not valid in "
                      f"{print_term(u)}")
        if q not in pos_v:
            return CriterionFailure(
                pair, f"position {format_position(q)} is not valid in "
                      f"{print_term(v)}")
        fv_u, fv_v = free_names(u), free_names(v)
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
            if isinstance(head, Free) and head.name in fv_v \
                    or isinstance(head, Const) and head.name in defined:
                return CriterionFailure(
                    pair, f"{head.name} heads {print_term(v)} at position "
                          f"{format_position(qq)}, above the projection")
        left, right = subterm_at(u, p), subterm_at(v, q)
        if left == right:
            weak.append(pair)
        elif right in subterms(left):
            strict.append(pair)
        else:
            return CriterionFailure(
                pair, f"{print_term(right)} is not a subterm of "
                      f"{print_term(left)}")
    if not strict:
        return CriterionFailure(
            None, "no pair projects to a strictly smaller subterm")
    return CriterionVerdict(tuple(strict), tuple(weak), pi)


def _candidate_positions(component: RecursionComponent, symbol: str,
                         max_depth: int) -> list[Position]:
    """Positions valid in every side headed by ``symbol``, shortest first."""
    shared: set[Position] | None = None
    for pair in component.pairs:
        for side in (pair.lhs, pair.rhs):
            if top(side).name != symbol:
                continue
            here = {p for p in positions(side)
                    if p and len(p) <= max_depth}
            shared = here if shared is None else shared & here
    if not shared:
        return []
    return sorted(shared, key=lambda p: (len(p), p))


def search_pi(component: RecursionComponent, max_depth: int = 3,
              defined: frozenset[str] = frozenset()
              ) -> CriterionVerdict | None:
    """Try projection assignments in order (shorter positions first,
    lexicographic within a length) and return the first verdict that passes.
    """
    symbols = sorted({top(side).name
                      for pair in component.pairs
                      for side in (pair.lhs, pair.rhs)})
    pools = [_candidate_positions(component, s, max_depth) for s in symbols]
    if any(not pool for pool in pools):
        return None
    for choice in itertools.product(*pools):
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


class LexPathOrder:
    """Lexicographic path order induced by a precedence on symbol names.

    A marked symbol ranks together with its unmarked form.  Comparisons are
    answered only on binder-free terms whose variables have basic types;
    anything else is unknown.  Symbols missing from the precedence rank below
    all listed ones, ordered by name.
    """

    def __init__(self, precedence: tuple[str, ...]):
        self.precedence = tuple(precedence)
        self._rank = {name: len(precedence) - i
                      for i, name in enumerate(precedence)}

    def describe(self) -> str:
        return "path order with precedence " + " > ".join(self.precedence)

    def _cmp_symbols(self, f: str, g: str) -> int:
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

    def _greater(self, s: Term, t: Term) -> bool:
        th = t.head
        if isinstance(th, Free):
            return s != t and any(
                isinstance(u.head, Free) and u.head.name == th.name
                for u in subterms(s))
        if isinstance(s.head, Free):
            return False
        if any(self._greater(a, t) or self._equiv(a, t) for a in s.args):
            return True
        by_head = self._cmp_symbols(s.head.name, th.name)
        if by_head > 0:
            return all(self._greater(s, b) for b in t.args)
        if by_head < 0:
            return False
        for a, b in zip(s.args, t.args):
            if self._equiv(a, b):
                continue
            return (self._greater(a, b)
                    and all(self._greater(s, bb) for bb in t.args))
        return False

    def compare(self, s: Term, t: Term) -> Comparison:
        if not (_first_order(s) and _first_order(t)) or s.ty != t.ty:
            return Comparison.UNKNOWN
        if self._greater(s, t):
            return Comparison.GREATER
        if self._equiv(s, t):
            return Comparison.GREATER_EQUAL
        return Comparison.UNKNOWN


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
    take the longest-path depth of each symbol, break ties by name."""
    mentions: dict[str, set[str]] = {s: set() for s in symbols}
    for rule in h.rules:
        caller = unmark_name(top(rule.lhs).name)
        if caller not in mentions:
            continue
        for callee in _symbols(rule.rhs):
            if callee in mentions and callee != caller:
                mentions[caller].add(callee)

    depth: dict[str, int] = {}

    def visit(s: str, trail: frozenset[str]) -> int:
        if s in depth:
            return depth[s]
        if s in trail:
            return 0
        d = 1 + max((visit(c, trail | {s}) for c in mentions[s]), default=0)
        depth[s] = d
        return d

    for s in symbols:
        visit(s, frozenset())
    return tuple(sorted(symbols, key=lambda s: (-depth[s], s)))


def search_precedence(h: Hrs, component: RecursionComponent
                      ) -> OrientationVerdict | None:
    """Try the call-graph precedence first, then all permutations when few
    enough symbols are involved; first success wins.  A rule side that is
    not first-order is unknown to every path order, so nothing is tried."""
    if not all(_first_order(side) for rule in h.rules
               for side in (rule.lhs, rule.rhs)):
        return None
    symbols = _relevant_symbols(h, component)
    guess = _call_graph_precedence(h, symbols)
    verdict = check_reduction_pair(h, component, LexPathOrder(guess))
    if isinstance(verdict, OrientationVerdict):
        return verdict
    if len(symbols) > MAX_PRECEDENCE_SYMBOLS:
        return None
    for perm in itertools.permutations(symbols):
        if perm == guess:
            continue
        verdict = check_reduction_pair(h, component, LexPathOrder(perm))
        if isinstance(verdict, OrientationVerdict):
            return verdict
    return None


# ---------------------------------------------------------------------------
# refinement loop


@dataclass(frozen=True)
class AnalysisConfig:
    techniques: tuple[str, ...] = ("subterm", "redpair")
    max_pi_depth: int = 3
    precedence: tuple[str, ...] | None = None


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


def _discharge_once(h: Hrs, component: RecursionComponent,
                    config: AnalysisConfig
                    ) -> RefinementStep | ComponentFailure:
    reasons: list[str] = []
    for technique in config.techniques:
        if technique == "subterm":
            verdict = search_pi(component, config.max_pi_depth, h.defined)
            if verdict is not None:
                remaining = tuple(p for p in component.pairs
                                  if p not in verdict.strict)
                return RefinementStep(component, "subterm criterion",
                                      str(verdict.witness),
                                      verdict.strict, remaining)
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
                    reasons.append("no precedence orients every rule and "
                                   "the component")
            if result is not None:
                remaining = tuple(p for p in component.pairs
                                  if p not in result.strict)
                return RefinementStep(component, "reduction pair",
                                      result.oracle_description,
                                      result.strict, remaining)
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
