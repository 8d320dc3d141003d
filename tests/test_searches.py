"""The projection and precedence searches against brute-force enumeration.

``search_pi`` and ``search_precedence`` prune branches that cannot succeed;
the oracles below try every candidate in the same order with no pruning, so
both must return the same first witness (or the same failure).  The
precedence oracle orients with ``lpo_oracle.DirectPathOrder``, the path
order decided directly, so it shares no constraint code with the search.
"""

import itertools
import re
import runpy
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import strategies as S
import hoterm.criteria as C
from conftest import FIXTURES
from lpo_oracle import DirectPathOrder
from hoterm.criteria import (PRECEDENCE_BUDGET, AnalysisConfig, Comparison,
                             CriterionVerdict, LexPathOrder,
                             OrientationVerdict, PiAssignment,
                             check_reduction_pair, check_subterm_criterion,
                             search_pi, search_precedence)
from hoterm.graph import RecursionComponent, build_graph, recursion_components
from hoterm.hrs import Hrs, Rule, load, parse
from hoterm.normalize import apply_subst
from hoterm.proof import MAYBE, TERMINATING, ProverConfig, prove_text
from hoterm.sdp import DependencyPair, extract_sdps
from hoterm.terms import App, Const, free_names

ROOT = Path(__file__).parent.parent
REDPAIR = ProverConfig(analysis=AnalysisConfig(techniques=("redpair",)))
NONE_ORIENTS = "no precedence orients every rule and the component"
BUDGET_SPENT = re.compile(
    r"precedence search budget exhausted after (\d+) assessments")


def candidate_positions(component, max_depth):
    """For each marked symbol, the positions valid in every side it heads,
    shortest first.  ``search_pi`` draws from the first side's positions
    alone, so comparing answers checks that the other sides' positions
    are dropped by the pairs that fail on them."""
    shared = {}
    for pair in component.pairs:
        for side in (pair.lhs, pair.rhs):
            here = C._positions_within(side, max_depth)
            name = side.head.name
            if name in shared:
                valid = set(here)
                here = [p for p in shared[name] if p in valid]
            shared[name] = here
    return shared


def oracle_pi(component, max_depth, defined):
    candidates = candidate_positions(component, max_depth)
    symbols = sorted(candidates)
    pools = [candidates[s] for s in symbols]
    if not symbols or any(not pool for pool in pools):
        return None
    for choice in itertools.product(*pools):
        verdict = check_subterm_criterion(
            component, PiAssignment(dict(zip(symbols, choice))), defined)
        if isinstance(verdict, CriterionVerdict):
            return verdict
    return None


def oracle_precedence(h, component):
    rule = C._higher_order_rule(h)
    if rule is not None:
        return (f"rule {rule.name} is not first-order, so no path order "
                "was tried")
    symbols = C._relevant_symbols(h, component)
    assert len(symbols) <= 8      # every precedence is tried
    guess = C._call_graph_precedence(h, symbols)
    for perm in itertools.chain([guess], itertools.permutations(symbols)):
        verdict = check_reduction_pair(h, component, DirectPathOrder(perm))
        if isinstance(verdict, OrientationVerdict):
            return verdict
    return NONE_ORIENTS


def components(h):
    return recursion_components(build_graph(extract_sdps(h)))


# ---------------------------------------------------------------------------
# generated families over Peano numerals


# The chain families and the system builder are those
# scripts/precedence_cost.py times:
# - precedence_deep(k): the chain g_0(s(X)) -> g_1(X) -> ... -> X beside
#   f(b) -> f(a), k symbols; b > a is needed, which the call-graph guess
#   gets wrong, so the search has to run;
# - precedence_unorientable(k): the chain beside f(X, s(Y)) -> f(s(X), Y),
#   k symbols, which no path order orients;
# - rotating_chain(n): f_i(s(X), Y) -> f_i+1(X, s(Y)), closed into a cycle
#   of n symbols; the projection to argument 1 works, and it is tried first.
_families = runpy.run_path(str(ROOT / "scripts" / "precedence_cost.py"))
_system = _families["_system"]
precedence_deep = _families["deep"]
precedence_unorientable = _families["unorientable"]
rotating_chain = _families["rotating"]


def swapped_chain(n):
    """f_i(Y, s(X)) -> f_i+1(s(Y), X), closed into a cycle of n symbols:
    only the projection to argument 2 works, and it is tried last."""
    sig = [(f"f{i:04d}", "nat -> nat -> nat") for i in range(n)]
    rules = [(f"r{i:04d}", f"f{i:04d}(Y, s(X))",
              f"f{(i + 1) % n:04d}(s(Y), X)") for i in range(n)]
    return _system(sig, ("X", "Y"), rules)


def precedence_unsorted(k):
    """``precedence_deep(k)`` with the chain's names unpadded: past g10
    they sort out of chain order (g10 < g100 < g11), so each prefix tries,
    and drops, every symbol that sorts before the next link."""
    return precedence_deep(k, digits=1)


def cycle_behind(m):
    """m rules u_i(s(X)) -> X, whose symbols sort first, beside the cycle
    x(s(X)) -> y(s(X)) -> z(s(X)) -> x(s(X)), which no path order orients."""
    lines = ["basic nat", "sig s : nat -> nat", "var X : nat"]
    lines += [f"sig {f} : nat -> nat"
              for f in [f"u{i}" for i in range(m)] + ["x", "y", "z"]]
    lines += [f"rule u{i}: u{i}(s(X)) -> X" for i in range(m)]
    lines += [f"rule {f}{g}: {f}(s(X)) -> {g}(s(X))"
              for f, g in ("xy", "yz", "zx")]
    return "\n".join(lines) + "\n"


def deep_sides(n):
    """f(s^n(X), s^n(Y)) -> g(s^(n-1)(Y), f(X, s^n(b))),
    g(s^n(X), Y) -> h(f(s^(n-1)(a), Y)) and h(b) -> a: comparing the sides
    by plain recursion, with no memo, takes time exponential in n."""
    def s(k, t):
        return "s(" * k + t + ")" * k

    sig = [("a", "nat"), ("b", "nat"), ("f", "nat -> nat -> nat"),
           ("g", "nat -> nat -> nat"), ("h", "nat -> nat")]
    rules = [("f", f"f({s(n, 'X')}, {s(n, 'Y')})",
              f"g({s(n - 1, 'Y')}, f(X, {s(n, 'b')}))"),
             ("g", f"g({s(n, 'X')}, Y)", f"h(f({s(n - 1, 'a')}, Y))"),
             ("h", "h(b)", "a")]
    return _system(sig, ("X", "Y"), rules)


FAMILIES = ([swapped_chain(n) for n in range(1, 7)]
            + [rotating_chain(n) for n in range(1, 7)]
            + [precedence_deep(k) for k in range(4, 7)]
            + [precedence_unorientable(k) for k in range(2, 7)])


# ---------------------------------------------------------------------------
# first-order systems for the precedence search


@st.composite
def fo_systems(draw):
    """1..3 rules over the first-order signature; right-hand sides use only
    variables of their left-hand side (the others are replaced by 0)."""
    zero = App(Const("0", S.FO_NAT), ())
    rules = []
    for i in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(("s", "add", "mul", "pair")))
        head = Const(name, S.FO_SIG[name])
        arity = 1 if name == "s" else 2
        lhs = App(head, tuple(draw(S.fo_terms(max_size=5))
                              for _ in range(arity)))
        rhs = draw(S.fo_terms(max_size=8))
        rhs = apply_subst(rhs, {v: zero for v in free_names(rhs)
                                if v not in free_names(lhs)})
        rules.append(Rule(f"r{i}", lhs, rhs))
    raw = Hrs(("nat",), dict(S.FO_SIG), dict(S.FO_VARS), tuple(rules))
    return parse(S.print_hrs(raw))


class TestSameFirstWitness:
    @pytest.mark.parametrize("text", FAMILIES)
    @pytest.mark.parametrize("max_depth", [1, 2, 3])
    def test_search_pi_on_families(self, text, max_depth):
        h = parse(text)
        for comp in components(h):
            assert search_pi(comp, max_depth, h.defined) == \
                oracle_pi(comp, max_depth, h.defined)

    @pytest.mark.parametrize("text", FAMILIES)
    def test_search_precedence_on_families(self, text):
        h = parse(text)
        for comp in components(h):
            assert search_precedence(h, comp) == oracle_precedence(h, comp)

    @settings(max_examples=150, deadline=None)
    @given(S.systems(), st.integers(1, 3))
    def test_search_pi_on_random_systems(self, h, max_depth):
        for comp in components(h):
            assert search_pi(comp, max_depth, h.defined) == \
                oracle_pi(comp, max_depth, h.defined)

    @settings(max_examples=150, deadline=None)
    @given(S.systems())
    def test_search_precedence_on_random_systems(self, h):
        for comp in components(h):
            assert search_precedence(h, comp) == oracle_precedence(h, comp)

    @settings(max_examples=150, deadline=None)
    @given(fo_systems())
    def test_search_precedence_on_first_order_systems(self, h):
        for comp in components(h):
            assert search_precedence(h, comp) == oracle_precedence(h, comp)


class TestPrecedenceConstraints:
    SYMBOLS = ("0", "add", "mul", "pair", "s")

    @settings(max_examples=300, deadline=None)
    @given(S.fo_terms(), S.fo_terms(),
           st.permutations(SYMBOLS), st.integers(0, len(SYMBOLS)))
    def test_definite_answers_hold_for_every_completion(self, s, t, order,
                                                        placed):
        constraints = LexPathOrder(self.SYMBOLS)
        prefix = tuple(order[:placed])
        answer, _ = C._assess(constraints.greater(s, t),
                              constraints.ranked(prefix), {})
        if placed == len(self.SYMBOLS):
            assert answer is not None
        if answer is None:
            return
        for rest in itertools.permutations(order[placed:]):
            assert DirectPathOrder(prefix + rest)._greater(s, t) is answer

    @settings(max_examples=200, deadline=None)
    @given(S.fo_terms(), S.fo_terms(), st.permutations(SYMBOLS))
    def test_full_precedence_never_answers_unknown(self, s, t, order):
        constraints = LexPathOrder(self.SYMBOLS)
        answer, _ = C._assess(constraints.greater(s, t),
                              constraints.ranked(tuple(order)), {})
        assert answer is DirectPathOrder(tuple(order))._greater(s, t)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(S.fo_terms(), S.fo_terms()), min_size=1,
                    max_size=4),
           st.permutations(SYMBOLS), st.integers(0, len(SYMBOLS)))
    def test_compare_agrees_with_the_direct_order(self, pairs, order, listed):
        # one order for all the pairs, so its symbol table grows between them
        precedence = tuple(order[:listed])
        lpo, oracle = LexPathOrder(precedence), DirectPathOrder(precedence)
        for s, t in pairs:
            assert lpo.compare(s, t) is oracle.compare(s, t)
            assert lpo.compare(t, s) is oracle.compare(t, s)

    @settings(max_examples=300, deadline=None)
    @given(S.fo_terms(), S.fo_terms(), st.permutations(SYMBOLS))
    def test_full_precedence_orients_as_compare_does(self, s, t, order):
        constraints = LexPathOrder(self.SYMBOLS)
        above = constraints.ranked(tuple(order))
        comparison = DirectPathOrder(tuple(order)).compare(s, t)
        strict, _ = C._assess(constraints.orients(s, t, strict=True), above,
                              {})
        weak, _ = C._assess(constraints.orients(s, t), above, {})
        assert strict is (comparison is Comparison.GREATER)
        assert weak is (comparison is not Comparison.UNKNOWN)

    @settings(max_examples=150, deadline=None)
    @given(fo_systems(), st.randoms(use_true_random=False))
    def test_full_precedence_accepts_as_check_reduction_pair_does(
            self, h, rnd):
        for comp in components(h):
            symbols = C._relevant_symbols(h, comp)
            constraints = C._component_order(h, comp, tuple(symbols))
            for _ in range(4):
                order = tuple(rnd.sample(symbols, len(symbols)))
                verdict = check_reduction_pair(h, comp,
                                               DirectPathOrder(order))
                assert (constraints.closure(order) is None) is not \
                    isinstance(verdict, OrientationVerdict)

    @settings(max_examples=150, deadline=None)
    @given(fo_systems(), st.randoms(use_true_random=False))
    def test_ruled_out_prefixes_have_no_orienting_completion(self, h, rnd):
        # unit propagation and the cycle test drop only what no
        # completion of the prefix can orient
        for comp in components(h):
            symbols = C._relevant_symbols(h, comp)
            constraints = C._component_order(h, comp, tuple(symbols))
            order = rnd.sample(symbols, len(symbols))
            orienting = {perm for perm in itertools.permutations(symbols)
                         if isinstance(check_reduction_pair(
                             h, comp, DirectPathOrder(perm)),
                             OrientationVerdict)}
            for placed in range(len(symbols) + 1):
                prefix = tuple(order[:placed])
                if constraints.closure(prefix) is None:
                    assert not any(perm[:placed] == prefix
                                   for perm in orienting)

    def test_an_atom_is_forced_only_when_every_open_disjunct_needs_it(self):
        ab, bc, ca = (0, 1, 0), (1, 2, 1), (2, 0, 2)
        above = LexPathOrder(("a", "b", "c")).ranked(())
        bit = {atom: 1 << atom[2] for atom in (ab, bc, ca)}
        assert C._assess(C._Or((ab, bc)), above, {}) == (None, 0)
        assert C._assess(C._And((ab, bc)), above, {}) == \
            (None, bit[ab] | bit[bc])
        assert C._assess(C._Or((C._And((ab, bc)), C._And((ab, ca)))),
                         above, {}) == (None, bit[ab])
        # with b > a fixed, only c > a is left open
        above = LexPathOrder(("a", "b", "c")).ranked(("b",))
        assert C._assess(C._Or((ab, ca)), above, {}) == (None, bit[ca])

    def test_forced_atoms_closing_a_cycle_rule_out_the_empty_prefix(self):
        h = parse(cycle_behind(0))
        (comp,) = components(h)
        symbols = C._relevant_symbols(h, comp)
        constraints = C._component_order(h, comp, tuple(symbols))
        # no constraint is False yet: only x > y > z > x shows the conflict
        assert all(C._assess(c, constraints.ranked(()), {})[0] is None
                   for c in constraints.required)
        assert constraints.closure(()) is None

    @settings(max_examples=300, deadline=None)
    @given(st.permutations("abcdef"), st.integers(0, 6),
           st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                             max_size=6), min_size=1, max_size=3))
    def test_forced_arcs_close_as_reachability_does(self, order, placed,
                                                     rounds):
        # each round closes its arcs over what the rounds before closed
        above = LexPathOrder(tuple("abcdef")).ranked(tuple(order[:placed]))
        rows = list(above)
        for arcs in rounds:
            forced = {}
            for i, j in arcs:
                if i != j:
                    forced[i] = forced.get(i, 0) | 1 << j
            # the oracle: add the arcs, then close to a fixed point
            rows = [row | forced.get(k, 0) for k, row in enumerate(rows)]
            changed = True
            while changed:
                changed = False
                for k, row in enumerate(rows):
                    for t in range(6):
                        if row >> t & 1:
                            row |= rows[t]
                    changed |= row != rows[k]
                    rows[k] = row
            cyclic = any(row >> k & 1 for k, row in enumerate(rows))
            kept = list(above)
            closed = C._close(above, forced)
            assert above == kept
            assert closed == (None if cyclic else rows)
            if closed is None:
                break
            above = closed


class TestWorkDoneOnce:
    """``search_pi`` lists each symbol's positions once, and the order the
    precedence search compiles is the one that checks its winner."""

    @pytest.mark.parametrize("h", [load(FIXTURES / "sqsum.hrs"),
                                   parse(swapped_chain(5))],
                             ids=["sqsum", "swapped-5"])
    def test_positions_are_listed_once_per_marked_symbol(self, h,
                                                         monkeypatch):
        listed = []
        real = C._positions_within

        def counting(t, depth):
            listed.append(t.head.name)
            return real(t, depth)

        monkeypatch.setattr(C, "_positions_within", counting)
        for comp in components(h):
            del listed[:]
            found = search_pi(comp, 3, h.defined)
            marked = {side.head.name for pair in comp.pairs
                      for side in (pair.lhs, pair.rhs)}
            assert sorted(listed) == sorted(marked)
            assert found == oracle_pi(comp, 3, h.defined)

    def test_no_pairs_no_projection(self):
        assert search_pi(RecursionComponent((), ()), 3, frozenset()) is None

    @pytest.mark.parametrize("text, guessed", [
        (precedence_deep(5), False),
        ((FIXTURES / "arith.hrs").read_text(), True)],
        ids=["searched", "guessed"])
    def test_the_searched_order_checks_the_winner(self, text, guessed,
                                                  monkeypatch):
        searched, checked, compiled = [], [], []
        real_closure = LexPathOrder.closure
        real_compile = LexPathOrder._compile
        real_check = C.check_reduction_pair

        def recording(self, prefix):
            searched.append(self)
            return real_closure(self, prefix)

        def compiling(self, s, t):
            compiled.append((s, t))
            return real_compile(self, s, t)

        def checking(h, comp, order):
            before = len(compiled)
            checked.append(order)
            verdict = real_check(h, comp, order)
            assert len(compiled) == before      # decided on what is compiled
            return verdict

        monkeypatch.setattr(LexPathOrder, "closure", recording)
        monkeypatch.setattr(LexPathOrder, "_compile", compiling)
        monkeypatch.setattr(C, "check_reduction_pair", checking)
        h = parse(text)
        comp = components(h)[0]
        verdict = search_precedence(h, comp)
        (order,) = checked
        assert all(o is order for o in searched)
        assert (len(searched) == 1) is guessed
        assert verdict.witness == \
            "path order with precedence " + " > ".join(order.precedence)
        assert verdict == oracle_precedence(h, comp)


class TestPrecedenceWalk:
    """The walk offers next only the symbols that no unplaced symbol is
    forced above, and it stops on its budget, not at a number of symbols."""

    @staticmethod
    def walk_offers(h, comp):
        """``search_precedence``'s answer, and each prefix of its walk with
        the symbols offered after it."""
        offers = []
        real = C.depth_first

        def walking(size, options, viable):
            def offering(prefix):
                offered = options(prefix)
                offers.append((tuple(prefix), list(offered)))
                return offered
            return real(size, offering, viable)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(C, "depth_first", walking)
            found = search_precedence(h, comp)
        return found, offers

    def check_skips(self, h):
        """The walk's answer is the oracle's, and every symbol it does not
        offer after a prefix makes a prefix that ``closure`` drops."""
        skipped = 0
        for comp in components(h):
            found, offers = self.walk_offers(h, comp)
            assert found == oracle_precedence(h, comp)
            symbols = C._relevant_symbols(h, comp)
            order = C._component_order(
                h, comp, C._call_graph_precedence(h, symbols))
            for prefix, offered in offers:
                assert offered == sorted(offered)
                for s in set(symbols) - set(prefix) - set(offered):
                    assert order.closure(prefix + (s,)) is None
                    skipped += 1
        return skipped

    @pytest.mark.parametrize("text", FAMILIES + [precedence_unsorted(8)])
    def test_skipped_symbols_are_dropped_on_families(self, text):
        self.check_skips(parse(text))

    def test_a_forced_order_skips_symbols(self):
        # b > a is forced, so a is never offered before b
        assert self.check_skips(parse(precedence_deep(6))) > 0

    @settings(max_examples=150, deadline=None)
    @given(fo_systems())
    def test_skipped_symbols_are_dropped_on_first_order_systems(self, h):
        self.check_skips(h)

    @pytest.mark.parametrize("k", [10, 16, 24])
    def test_deep_precedence_past_eight_symbols(self, k):
        proof = prove_text(precedence_deep(k), REDPAIR)
        assert proof.verdict.kind == TERMINATING
        (cp,) = proof.component_proofs.values()
        (step,) = cp.steps
        assert step.witness.startswith("path order with precedence b > a > ")

    def test_deep_precedence_walks_one_prefix_per_symbol(self, monkeypatch):
        prefixes, checks = TestScale.record_precedence_search(monkeypatch)
        proof = prove_text(precedence_deep(100), REDPAIR)
        assert proof.verdict.kind == TERMINATING
        # the guess, the empty prefix and one prefix per symbol
        assert len(prefixes) == 102
        assert len(checks) == 1

    def test_a_backtracking_walk_is_proved_within_its_budget(self):
        proof = prove_text(precedence_unsorted(60), REDPAIR)
        assert proof.verdict.kind == TERMINATING
        (cp,) = proof.component_proofs.values()
        (step,) = cp.steps
        assert step.witness.startswith(
            "path order with precedence b > a > f > g0 > g1 > g2 > g3 > ")

    def test_a_backtracking_walk_stops_on_its_budget(self):
        text = precedence_unsorted(124)
        h = parse(text)
        (comp,) = components(h)
        assert len(C._relevant_symbols(h, comp)) == 124
        start = time.perf_counter()
        proof = prove_text(text, REDPAIR)
        elapsed = time.perf_counter() - start
        assert proof.verdict.kind == MAYBE
        (failure,) = proof.component_proofs.values()
        (reason,) = failure.reasons
        spent = BUDGET_SPENT.fullmatch(reason)
        # checked before each prefix, so it stops one closure past it
        assert spent and \
            PRECEDENCE_BUDGET < int(spent[1]) < 1.01 * PRECEDENCE_BUDGET
        assert elapsed < 1.0


class TestScale:
    def test_swapped_chain_of_forty_projects_to_the_second_argument(self):
        proof = prove_text(swapped_chain(40), ProverConfig())
        assert proof.verdict.kind == TERMINATING
        witness = ", ".join(f"pi(f{i:04d}) = 2" for i in range(40))
        assert [step.witness for cp in proof.component_proofs.values()
                for step in cp.steps] == [witness]

    def test_rotating_chain_longer_than_the_recursion_limit(self):
        proof = prove_text(rotating_chain(1100), ProverConfig())
        assert proof.verdict.kind == TERMINATING

    def test_refinement_drops_strict_pairs_in_linear_time(self, monkeypatch):
        calls = []
        real = DependencyPair.__eq__

        def counting(self, other):
            calls.append(None)
            return real(self, other)

        monkeypatch.setattr(DependencyPair, "__eq__", counting)
        proof = prove_text(rotating_chain(600), ProverConfig())
        assert proof.verdict.kind == TERMINATING
        # one look-up per pair; a scan of the strict tuple makes 179,700
        assert len(calls) <= 600

    @staticmethod
    def record_precedence_search(monkeypatch):
        """The prefixes ``closure`` is asked about, and the arguments of
        every ``check_reduction_pair`` call."""
        prefixes, checks = [], []
        real_closure = LexPathOrder.closure
        real_check = C.check_reduction_pair

        def recording(self, prefix):
            prefixes.append(prefix)
            return real_closure(self, prefix)

        def counting(*args):
            checks.append(args)
            return real_check(*args)

        monkeypatch.setattr(LexPathOrder, "closure", recording)
        monkeypatch.setattr(C, "check_reduction_pair", counting)
        return prefixes, checks

    def test_unorientable_precedence_search_prunes(self, monkeypatch):
        prefixes, checks = self.record_precedence_search(monkeypatch)
        h = parse(precedence_unorientable(8))
        (comp,) = components(h)
        assert search_precedence(h, comp) == NONE_ORIENTS
        assert 1 <= len(prefixes) <= 24   # 8! = 40,320 without pruning
        assert checks == []               # a failed search checks nothing

    def test_cycle_behind_unrelated_symbols_is_seen_before_any_prefix(
            self, monkeypatch):
        prefixes, checks = self.record_precedence_search(monkeypatch)
        h = parse(cycle_behind(4))
        (comp,) = components(h)
        symbols = C._relevant_symbols(h, comp)
        assert len(symbols) == 8
        proof = prove_text(cycle_behind(4), REDPAIR)
        assert proof.verdict.kind == MAYBE
        # the call-graph guess, then no prefix is extended
        assert prefixes == [C._call_graph_precedence(h, symbols), ()]
        assert checks == []

    def test_deep_sides_compile_polynomially(self, monkeypatch):
        n = 40
        tables = []
        real = C._component_order

        def keeping(*args):
            tables.append(real(*args))
            return tables[-1]

        monkeypatch.setattr(C, "_component_order", keeping)
        proof = prove_text(deep_sides(n), REDPAIR)
        assert proof.verdict.kind == MAYBE
        (failure,) = proof.component_proofs.values()
        assert failure.reasons == (NONE_ORIENTS,)
        # the direct order recursed 278,603 times at n = 13
        assert 0 < sum(len(t._greater) for t in tables) <= 10 * n * n


class TestCallGraphPrecedence:
    @staticmethod
    def recursive_reference(h, symbols):
        """The recursive walk the iterative one replaced, visiting callees
        by name."""
        mentions = {s: set() for s in symbols}
        for rule in h.rules:
            caller = rule.lhs.head.name
            if caller in mentions:
                for callee in C._symbols(rule.rhs):
                    if callee in mentions and callee != caller:
                        mentions[caller].add(callee)
        depth = {}

        def visit(s, trail):
            if s in depth:
                return depth[s]
            if s in trail:
                return 0
            d = 1 + max((visit(c, trail | {s}) for c in sorted(mentions[s])),
                        default=0)
            depth[s] = d
            return d

        for s in symbols:
            visit(s, frozenset())
        return tuple(sorted(symbols, key=lambda s: (-depth[s], s)))

    @settings(max_examples=200, deadline=None)
    @given(S.digraphs(max_nodes=8))
    def test_same_guess_as_the_recursive_walk(self, graph):
        n, arcs = graph
        sig = [(f"f{i}", "nat -> nat") for i in range(n)]
        rules = [(f"r{i}-{j}", f"f{i}(X)", f"f{j}(s(X))")
                 for i, j in sorted(arcs)]
        h = parse(_system(sig, ("X",), rules))
        symbols = sorted(h.signature)
        assert C._call_graph_precedence(h, symbols) == \
            self.recursive_reference(h, symbols)

    def test_long_call_chain(self):
        h = parse(precedence_deep(1100))
        (comp,) = components(h)
        symbols = C._relevant_symbols(h, comp)
        guess = C._call_graph_precedence(h, symbols)
        chain_ = [s for s in guess if s.startswith("g")]
        assert chain_ == sorted(chain_)
        proof = prove_text(precedence_deep(1100), REDPAIR)
        assert proof.verdict.kind == MAYBE
        (failure,) = proof.component_proofs.values()
        (reason,) = failure.reasons
        spent = BUDGET_SPENT.fullmatch(reason)
        assert spent and int(spent[1]) > PRECEDENCE_BUDGET
