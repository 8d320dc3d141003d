"""The lexicographic path order decided directly, kept as the oracle for
``LexPathOrder`` and the precedence search.

``hoterm.criteria.LexPathOrder`` compiles ``s > t`` into memoised
constraints over the precedence and evaluates them.  This module decides it
the way the prover once did: by recursion on the two terms, comparing
symbols by their rank, with no memo.  ``check_reduction_pair`` accepts a
``DirectPathOrder`` wherever it accepts a ``LexPathOrder``.
"""

from __future__ import annotations

from hoterm.criteria import Comparison, _comparable
from hoterm.terms import Free, Term, free_names


class DirectPathOrder:
    """The path order of ``LexPathOrder(precedence)``: symbols missing from
    the precedence rank below all listed ones, ordered by name."""

    def __init__(self, precedence: tuple[str, ...]):
        self.precedence = tuple(precedence)
        self._rank = {name: len(precedence) - i
                      for i, name in enumerate(precedence)}

    def describe(self) -> str:
        return "path order with precedence " + " > ".join(self.precedence)

    def _cmp_symbols(self, f: str, g: str) -> int:
        rf, rg = self._rank.get(f, 0), self._rank.get(g, 0)
        if rf != rg:
            return 1 if rf > rg else -1
        if f != g and rf == 0:
            return 1 if f > g else -1
        return 0

    def _greater(self, s: Term, t: Term) -> bool:
        th = t.head
        if isinstance(th, Free):
            return s != t and th.name in free_names(s)
        if isinstance(s.head, Free):
            return False
        if any(a == t or self._greater(a, t) for a in s.args):
            return True
        by_head = self._cmp_symbols(s.head.name, th.name)
        if by_head == 0:
            first = False
            for a, b in zip(s.args, t.args):
                if a != b:
                    first = self._greater(a, b)
                    break
        else:
            first = by_head > 0
        return first and all(self._greater(s, b) for b in t.args)

    def compare(self, s: Term, t: Term) -> Comparison:
        if not _comparable(s, t):
            return Comparison.UNKNOWN
        if self._greater(s, t):
            return Comparison.GREATER
        if s == t:
            return Comparison.GREATER_EQUAL
        return Comparison.UNKNOWN
