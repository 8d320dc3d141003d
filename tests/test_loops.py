"""The loop search against the path search it replaced, and its scale.

``bounded_search`` expands each distinct term once and answers only with a
loop, or None.  ``path_bfs`` below is the breadth-first search over rewrite
paths it replaced, kept here as an oracle with its own answer classes:
every loop the oracle finds, the new search finds too, and where the oracle
reaches a normal form with no budget cut, the new search finds no loop.
The seeds drawn on demand are checked against the eager seeds kept in
``walk_oracle``, and ``bounded_search`` against the eager loop it replaced,
which rewrote every term at the step budget and walked for a cycle after
every search: the two find the same loop, or none.
"""

import gc
import importlib
import itertools
import sys
from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

import strategies as S
from nbe_oracle import hints, nbe_apply_subst
from walk_oracle import (DepthExhausted, NormalForm, eager_bounded_search,
                         eager_loop_seeds)
import hoterm.rewriting as R
import hoterm.terms as T
from hoterm.hrs import load, parse
from hoterm.normalize import apply_subst
from hoterm.proof import emit_text, prove_text
from hoterm.rewriting import (LoopFound, bounded_search,
                              enumerate_closed_terms, find_loop, loop_seeds,
                              rewrite_step)
from hoterm.terms import (Abs, App, Arrow, Base, Bound, Const, eta_hint,
                          print_term)

FIXTURES = Path(__file__).parent.parent / "fixtures"
FIXTURE_SYSTEMS = sorted(p.stem for p in FIXTURES.glob("*.hrs"))


# ---------------------------------------------------------------------------
# oracles: the searches as they were before terms were deduplicated


def path_bfs(h, t, max_steps, max_nodes):
    """Breadth-first search over rewrite paths, each with its ancestors."""
    queue = deque([(t, (), frozenset([t]))])
    first_nf = None
    truncated = False
    expanded = 0
    while queue:
        current, path, ancestors = queue.popleft()
        steps = rewrite_step(h, current)
        if not steps:
            if first_nf is None:
                first_nf = current
            continue
        if len(path) >= max_steps:
            truncated = True
            continue
        expanded += 1
        if expanded > max_nodes:
            truncated = True
            break
        for step in steps:
            if step.result in ancestors:
                return LoopFound(t, path + (step,))
            queue.append((step.result, path + (step,),
                          ancestors | {step.result}))
    if truncated:
        return DepthExhausted(max_steps)
    return NormalForm(first_nf)


def _size(t):
    if isinstance(t, Abs):
        return 1 + _size(t.body)
    return 1 + sum(_size(a) for a in t.args)


def sorted_closed_terms(h, ty, max_size):
    """Every closed term up to ``max_size``, built at once, sorted by size."""
    sig = sorted(h.signature.items())

    def gen(want, budget, env):
        if budget <= 0:
            return
        if isinstance(want, Arrow):
            for body in gen(want.cod, budget - 1, env + (want.dom,)):
                yield Abs(eta_hint(len(env)), want.dom, body)
            return
        heads = [Bound(i, bty) for i, bty in enumerate(reversed(env))]
        heads.extend(Const(name, sty) for name, sty in sig)
        for head in heads:
            if head.ty.result == want:
                for args in gen_args(head.ty.domains, budget - 1, env):
                    yield App(head, args)

    def gen_args(doms, budget, env):
        if not doms:
            yield ()
            return
        for first in gen(doms[0], budget - (len(doms) - 1), env):
            for rest in gen_args(doms[1:], budget - _size(first), env):
                yield (first,) + rest

    return sorted(gen(ty, max_size, ()), key=_size)


def replays(h, found):
    """The trace follows ``rewrite_step`` and ends on an earlier term."""
    seen = [found.start]
    for step in found.trace:
        if step not in rewrite_step(h, seen[-1]):
            return False
        seen.append(step.result)
    return bool(found.trace) and seen[-1] in seen[:-1]


def assert_agrees_with_oracle(h, seed, max_steps, max_nodes):
    old = path_bfs(h, seed, max_steps, max_nodes)
    new = bounded_search(h, seed, max_steps, max_nodes)
    if new is not None:
        assert new.start == seed
        assert replays(h, new)
    if isinstance(old, LoopFound):
        assert isinstance(new, LoopFound)
    elif isinstance(old, NormalForm):
        assert new is None
    # where the oracle ran out of depth, the new search may still expand
    # every distinct term and find a loop: its paths are short even if some
    # of old's are not


def pattern_system(name):
    h = load(FIXTURES / f"{name}.hrs")
    return h if all(r.is_pattern for r in h.rules) else None


# ---------------------------------------------------------------------------
# generated systems


def _system(sig, rules):
    lines = ["basic o"] + [f"sig {f} : {ty}" for f, ty in sig]
    lines += ["var X : o"]
    lines += [f"rule {name}: {lhs} -> {rhs}" for name, lhs, rhs in rules]
    return parse("\n".join(lines) + "\n")


def loop_chain(n):
    """g_i(X) -> g_i+1(X) and g_i(X) -> g_i+1(s(X)), closed into a cycle of
    n symbols: only the path of n a-steps from g_0(z) returns to it, behind
    2^(n-1) paths but about n^2/2 distinct terms."""
    sig = [("z", "o"), ("s", "o -> o")]
    sig += [(f"g{i:02d}", "o -> o") for i in range(n)]
    rules = []
    for i in range(n):
        j = (i + 1) % n
        rules.append((f"a{i:02d}", f"g{i:02d}(X)", f"g{j:02d}(X)"))
        rules.append((f"b{i:02d}", f"g{i:02d}(X)", f"g{j:02d}(s(X))"))
    return _system(sig, rules)


def binder_nesting(n):
    """The binder-nesting family: ``r`` nests n one-binder abstractions and
    ``q`` feeds ``r`` its own left side, so rewriting builds the same
    nameless chain under different binder hints."""
    body = "X"
    for i in reversed(range(n)):
        body = f"g(\\y{i}. {body})"
    return ("basic nat\nsig f : nat -> nat\nsig g : (nat -> nat) -> nat\n"
            f"var X : nat\nrule r: f(g(\\z. X)) -> {body}\n"
            "rule q: f(X) -> f(g(\\z. X))\n")


def constant_graph(arcs):
    """One constant per node and one rule per arc, named in arc order."""
    nodes = sorted({n for arc in arcs for n in arc})
    rules = [(f"r{k}", src, dst) for k, (src, dst) in enumerate(arcs)]
    return _system([(n, "o") for n in nodes], rules)


def constant(h, name):
    return App(Const(name, h.signature[name]), ())


# ---------------------------------------------------------------------------


class TestAgainstPathSearch:
    @settings(max_examples=150, deadline=None)
    @given(S.systems(), st.integers(1, 4))
    def test_generated_systems(self, h, max_steps):
        assume(all(r.is_pattern for r in h.rules))
        for seed in loop_seeds(h, max_term_size=3, cap=6):
            assert_agrees_with_oracle(h, seed, max_steps, max_nodes=200)

    @pytest.mark.parametrize("name", FIXTURE_SYSTEMS)
    def test_fixture_seeds(self, name):
        h = pattern_system(name)
        if h is None:
            pytest.skip("loop search needs pattern rules")
        for seed in loop_seeds(h, max_term_size=3, cap=12):
            assert_agrees_with_oracle(h, seed, max_steps=3, max_nodes=300)

    @settings(max_examples=100, deadline=None)
    @given(S.digraphs(max_nodes=5), st.integers(1, 6))
    def test_graphs_of_constants(self, graph, max_steps):
        n, arcs = graph
        assume(arcs)
        arcs = [(f"c{i}", f"c{j}") for i, j in sorted(arcs)]
        h = constant_graph(arcs)
        for start in sorted({src for src, _ in arcs}):
            assert_agrees_with_oracle(h, constant(h, start), max_steps,
                                      max_nodes=50)


def assert_same_outcome(h, seed, max_steps, max_nodes, memos):
    """The search finds a loop exactly when its eager oracle does, with the
    same trace, binder hints included, and otherwise answers None."""
    old = eager_bounded_search(h, seed, max_steps, max_nodes, memos[0])
    new = bounded_search(h, seed, max_steps, max_nodes, memos[1])
    if isinstance(old, LoopFound):
        assert isinstance(new, LoopFound)
        assert repr(new) == repr(old)
    else:
        assert new is None


NODE_BUDGETS = (1, 3, 100_000)      # the last is the default


class TestAgainstEagerSearch:
    @pytest.mark.parametrize("name", FIXTURE_SYSTEMS)
    def test_every_fixture_seed(self, name):
        h = pattern_system(name)
        if h is None:
            pytest.skip("loop search needs pattern rules")
        memos = {}, {}
        for seed in loop_seeds(h):
            for max_steps in range(1, 5):
                for max_nodes in NODE_BUDGETS:
                    assert_same_outcome(h, seed, max_steps, max_nodes, memos)

    @settings(max_examples=150, deadline=None)
    @given(S.systems(), st.integers(1, 4), st.sampled_from(NODE_BUDGETS))
    def test_generated_systems(self, h, max_steps, max_nodes):
        assume(all(r.is_pattern for r in h.rules))
        memos = {}, {}
        for seed in loop_seeds(h, max_term_size=3, cap=6):
            assert_same_outcome(h, seed, max_steps, max_nodes, memos)

    @settings(max_examples=200, deadline=None)
    @given(S.digraphs(max_nodes=5), st.integers(1, 6),
           st.sampled_from(NODE_BUDGETS))
    def test_graphs_of_constants(self, graph, max_steps, max_nodes):
        # several terms at the step budget, normal forms among them, and cycles
        # that close off the tree path
        n, arcs = graph
        assume(arcs)
        h = constant_graph([(f"c{i}", f"c{j}") for i, j in sorted(arcs)])
        memos = {}, {}
        for start in sorted({i for i, _ in arcs}):
            assert_same_outcome(h, constant(h, f"c{start}"), max_steps,
                                max_nodes, memos)


def record_calls(monkeypatch, name):
    """The arguments of every call to ``hoterm.rewriting.<name>``."""
    calls = []
    real = getattr(R, name)

    def count(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(R, name, count)
    return calls


class TestSavedWork:
    def test_no_step_back_no_cycle_walk(self, monkeypatch):
        walks = record_calls(monkeypatch, "_first_cycle")
        assert find_loop(load(FIXTURES / "arith.hrs"), max_steps=1) is None
        assert walks == []

    def test_no_term_at_the_step_budget_is_matched(self, monkeypatch):
        # from t, a and b are one step away, and a rewrites to c; from the
        # seeds a and b, c is one step away: no search rewrites or matches
        # a term at the step budget
        h = constant_graph([("t", "a"), ("t", "b"), ("a", "c"), ("b", "c")])
        t, a, b = (constant(h, name) for name in "tab")
        rewritten = record_calls(monkeypatch, "rewrite_step")
        matched = record_calls(monkeypatch, "match")
        assert bounded_search(h, t, max_steps=1) is None
        assert [u for _, u, _ in rewritten] == [t]
        assert [u for _, u in matched] == [t, t]
        rewritten.clear()
        matched.clear()
        assert find_loop(h, max_steps=1) is None
        assert [u for _, u, _ in rewritten] == [t, a, b]
        assert [u for _, u in matched] == [t, t, a, b]

    def test_a_loop_from_the_cycle_walk_tests_no_frontier_term(
            self, monkeypatch):
        # c is 2 steps away, at the step budget, and rewrites to d, but the
        # walk closes a -> b -> a first
        h = constant_graph([("t", "a"), ("t", "b"), ("a", "b"), ("b", "a"),
                            ("a", "c"), ("c", "d")])
        matched = record_calls(monkeypatch, "match")
        walks = record_calls(monkeypatch, "_first_cycle")
        found = bounded_search(h, constant(h, "t"), max_steps=2)
        assert isinstance(found, LoopFound)
        assert [s.rule for s in found.trace] == ["r0", "r2", "r3"]
        assert len(walks) == 1
        assert constant(h, "c") not in [u for _, u in matched]


class TestBoundedSearch:
    def test_cycle_through_a_non_tree_step(self):
        # t -> a, t -> b, a -> b, b -> a: both a and b hang off t in the
        # search tree, so neither step between them returns to an ancestor
        h = constant_graph([("t", "a"), ("t", "b"), ("a", "b"), ("b", "a")])
        found = bounded_search(h, constant(h, "t"))
        assert isinstance(found, LoopFound)
        assert [s.rule for s in found.trace] == ["r0", "r2", "r3"]
        assert replays(h, found)

    def test_a_loop_may_be_longer_than_the_depth_budget(self):
        # a and b are expanded at depth 1; the lasso through them has 3 steps
        h = constant_graph([("t", "a"), ("t", "b"), ("a", "b"), ("b", "a")])
        found = bounded_search(h, constant(h, "t"), max_steps=2)
        assert isinstance(found, LoopFound)
        assert len(found.trace) == 3
        assert isinstance(path_bfs(h, constant(h, "t"), 2, 100),
                          DepthExhausted)

    def test_depth_budget_counts_distinct_terms(self, monkeypatch):
        # d + 1 distinct terms at distance d, where 2^d paths end
        h = loop_chain(6)
        seed = App(Const("g00", h.signature["g00"]), (constant(h, "z"),))
        rewritten = record_calls(monkeypatch, "rewrite_step")
        assert bounded_search(h, seed, max_steps=5) is None
        assert len(rewritten) == 1 + 2 + 3 + 4 + 5
        found = bounded_search(h, seed, max_steps=6)
        assert isinstance(found, LoopFound)
        assert [s.rule for s in found.trace] == [f"a{i:02d}" for i in range(6)]

    def test_node_budget_counts_distinct_terms(self, monkeypatch):
        # a diamond of n levels has 2^n paths but n + 1 distinct terms:
        # 8 expansions reach the normal form d8
        h = constant_graph([(f"d{i}", f"d{i + 1}") for i in range(8)]
                           + [(f"d{i}", f"d{i + 1}") for i in range(8)])
        rewritten = record_calls(monkeypatch, "rewrite_step")
        assert bounded_search(h, constant(h, "d0"), max_nodes=8) is None
        assert [u for _, u, _ in rewritten] == \
            [constant(h, f"d{i}") for i in range(9)]
        assert isinstance(path_bfs(h, constant(h, "d0"), 1000, 8),
                          DepthExhausted)

    def test_normal_form_when_every_distinct_term_is_expanded(
            self, monkeypatch):
        # g(g(g(c))) reaches each of its terms within one step, though some
        # paths take three: the path search ran out of depth here
        h = _system([("c", "o"), ("g", "o -> o")], [("r", "g(X)", "c")])
        g = lambda t: App(Const("g", h.signature["g"]), (t,))
        c = constant(h, "c")
        rewritten = record_calls(monkeypatch, "rewrite_step")
        assert bounded_search(h, g(g(g(c))), max_steps=2) is None
        assert [u for _, u, _ in rewritten] == [g(g(g(c))), c, g(c), g(g(c))]
        assert rewrite_step(h, c) == ()
        assert path_bfs(h, g(g(g(c))), 2, 100) == DepthExhausted(2)

    def test_shared_memo_is_filled_once(self, monkeypatch):
        calls = []
        real = R.match

        def counting(pattern, subject):
            calls.append((pattern, subject))
            return real(pattern, subject)

        monkeypatch.setattr(R, "match", counting)
        h = load(FIXTURES / "arith.hrs")
        seeds = list(loop_seeds(h, max_term_size=3, cap=20))
        alone = [bounded_search(h, s, 4, 1000) for s in seeds]
        apart = len(calls)
        calls.clear()
        memo = {}
        first = [bounded_search(h, s, 4, 1000, memo) for s in seeds]
        assert first == alone
        # a rule is tried at a subterm once, whichever seed meets it
        assert max(Counter(calls).values()) == 1
        assert len(calls) < apart
        shared = len(calls)
        again = [bounded_search(h, s, 4, 1000, memo) for s in seeds]
        assert again == first
        assert len(calls) == shared     # every answer came from the memo


class TestFindLoop:
    def test_loop_chain_of_sixteen(self, monkeypatch):
        calls = []
        real = R.rewrite_step

        def counting(h, t, memo=None):
            calls.append(t)
            return real(h, t, memo)

        monkeypatch.setattr(R, "rewrite_step", counting)
        h = loop_chain(16)
        found = find_loop(h, max_steps=16)
        assert isinstance(found, LoopFound)
        assert len(found.trace) == 16
        assert replays(h, found)
        assert len(calls) <= 136    # the path search expands 2^15 nodes

    @pytest.mark.parametrize("name", ["ackermann", "arith", "nested",
                                      "sqsum", "loop-chain"])
    def test_memo_stays_within_its_bound(self, name, monkeypatch):
        h = loop_chain(6) if name == "loop-chain" else \
            load(FIXTURES / f"{name}.hrs")

        class Watched(dict):
            peak = 0

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.peak = max(self.peak, len(self))

        class NeverEmptied(Watched):
            def clear(self):
                pass

        def search(memo):
            """``find_loop(h, max_steps=6, max_nodes=30, cap=40)`` over
            ``memo``."""
            for seed in loop_seeds(h, cap=40):
                out = bounded_search(h, seed, 6, 30, memo)
                if out is not None:
                    return out
            return None

        monkeypatch.setattr(R, "TABLE_BOUND", 10)
        bounded, whole = Watched(), NeverEmptied()
        got = search(bounded)
        assert bounded.peak <= 10
        assert got == search(whole)
        assert whole.peak > 10
        assert got == find_loop(h, max_steps=6, max_nodes=30, cap=40)
        assert isinstance(got, LoopFound) == (name == "loop-chain")

    def test_binder_nesting_runs_past_two_hundred(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)     # the interpreter's default
        try:
            assert find_loop(parse(binder_nesting(250)), max_steps=3) is None
        finally:
            sys.setrecursionlimit(limit)

    def test_binder_nesting_compares_without_nesting(self, monkeypatch):
        # every __eq__ a term class defines is wrapped, so that a
        # comparison that calls another inside it is seen
        calls, active, nested = [0], [0], [0]
        for cls in (T.Term, T.Abs, T.App):
            if "__eq__" in vars(cls):
                def counting(self, other, real=vars(cls)["__eq__"]):
                    calls[0] += 1
                    nested[0] += active[0] > 0
                    active[0] += 1
                    try:
                        return real(self, other)
                    finally:
                        active[0] -= 1
                monkeypatch.setattr(cls, "__eq__", counting)
        assert find_loop(parse(binder_nesting(80)), max_steps=3) is None
        assert calls[0] > 0 and nested[0] == 0

    def test_search_state_does_not_outlive_the_call(self):
        def live():
            return sum(r() is not None for r in T._NODES.values())

        h = load(FIXTURES / "ackermann.hrs")
        keys = set(vars(h))
        gc.collect()
        before = live()
        assert find_loop(h, max_steps=6) is None
        assert live() == before
        seed = next(loop_seeds(h))
        rewrite_step(h, seed)
        bounded_search(h, seed, max_steps=6)
        assert set(vars(h)) == keys

    @pytest.mark.parametrize("name", FIXTURE_SYSTEMS)
    def test_seeds_are_those_of_the_sorted_enumeration(self, name,
                                                       monkeypatch):
        h = pattern_system(name)
        if h is None:
            pytest.skip("loop search needs pattern rules")
        for size in range(1, 6):
            lazy = list(loop_seeds(h, size))
            with monkeypatch.context() as m:
                m.setattr(R, "enumerate_closed_terms", sorted_closed_terms)
                assert lazy == list(loop_seeds(h, size))


def _arith_matches():
    h = load(FIXTURES / "arith.hrs")
    seeds = list(loop_seeds(h))
    return lambda: [R.match(rule.lhs, seed) for rule in h.rules
                    for seed in seeds]


def _search(name, max_steps):
    h = load(FIXTURES / f"{name}.hrs")
    return lambda: find_loop(h, max_steps=max_steps)


def _prove(text):
    return lambda: emit_text(prove_text(text))


# the generated families of the benchmark's search workload, each at its
# smallest size there
SEARCH_FAMILIES = {"rotating": ("rotating_chain", 8),
                   "swapped": ("swapped_chain", 4),
                   "prec-deep": ("precedence_deep", 5),
                   "prec-unorientable": ("precedence_unorientable", 5)}


class TestNoGarbageCycles:
    """Matching, the loop search, a proof and its text leave no reference
    cycle behind: with the cyclic collector off, reference counting frees
    all they made.  (The JSON emitter is left out: the standard library's
    encoder makes cycles of its own.)"""

    def check(self, run):
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("make", [
        _arith_matches, lambda: _search("arith", 1),
        lambda: _search("foo", 3), lambda: _search("mapfun", 2)],
        ids=["match-arith-seeds", "arith", "foo", "mapfun"])
    def test_collector_finds_nothing(self, make):
        self.check(make())

    @pytest.mark.parametrize("name", FIXTURE_SYSTEMS)
    def test_proof_of_a_fixture(self, name):
        self.check(_prove((FIXTURES / f"{name}.hrs").read_text()))

    @pytest.mark.parametrize("family", SEARCH_FAMILIES)
    def test_proof_of_a_search_family(self, family, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(FIXTURES.parent / "bench"))
        generator, size = SEARCH_FAMILIES[family]
        workloads = importlib.import_module("workloads")
        self.check(_prove(getattr(workloads, generator)(size, "ab")))


class TestSeedsOnDemand:
    """``loop_seeds`` draws its pools as far as the seeds taken need, and
    gives the seeds of the eager oracle, in the same order."""

    @pytest.mark.parametrize("name", FIXTURE_SYSTEMS)
    def test_fixtures(self, name):
        h = load(FIXTURES / f"{name}.hrs")
        for size in range(1, 6):
            assert list(loop_seeds(h, size)) == \
                list(eager_loop_seeds(h, size))

    @settings(max_examples=200, deadline=None)
    @given(S.systems(), st.integers(1, 4), st.integers(1, 200))
    def test_generated_systems(self, h, size, cap):
        assert list(loop_seeds(h, size, cap)) == \
            list(eager_loop_seeds(h, size, cap))

    def check(self, text, size, cap, want):
        h = parse(text)
        got = [print_term(t) for t in loop_seeds(h, size, cap)]
        assert got == [print_term(t) for t in eager_loop_seeds(h, size, cap)]
        if isinstance(want, int):
            assert len(got) == want
        else:
            assert got == want
        return got

    def test_rule_without_variables(self):
        self.check("basic a\nsig c : a\nsig d : a\nsig f : a -> a\n"
                   "var X : a\nrule r: f(c) -> c\nrule s: f(X) -> X\n",
                   size=2, cap=200, want=["f(c)", "f(d)", "f(f(c))",
                                          "f(f(d))"])

    def test_type_without_closed_terms_skips_only_its_rules(self):
        # nothing builds a b, so g's rule has no instance; f's still has
        self.check("basic a b\nsig c : a\nsig f : a -> a\n"
                   "sig g : b -> a\nvar X : a\nvar Y : b\n"
                   "rule r: g(Y) -> c\nrule s: f(X) -> X\n",
                   size=2, cap=200, want=["f(c)", "f(f(c))"])

    def test_variables_sharing_one_pool(self):
        self.check("basic a\nsig c : a\nsig d : a\n"
                   "sig h : a -> a -> a\nvar X : a\nvar Y : a\n"
                   "rule r: h(X, Y) -> X\n",
                   size=1, cap=200, want=["h(c, c)", "h(c, d)", "h(d, c)",
                                          "h(d, d)"])

    def test_cap_reached_inside_a_product(self):
        # a has 24 terms up to size 4: f(c), 23 more from s, none from its
        # copy t, then 176 of the 576 pairs: the cap stops the odometer at
        # the ninth pair of the eighth row
        got = self.check(
            "basic a\nsig c : a\nsig d : a\nsig f : a -> a\n"
            "sig h : a -> a -> a\nvar X : a\nvar Y : a\n"
            "rule r: f(c) -> c\nrule s: f(X) -> X\nrule t: f(Y) -> c\n"
            "rule u: h(X, Y) -> X\n", size=4, cap=200, want=200)
        assert sum(seed.startswith("h(") for seed in got) == 176
        assert got[-1] == "h(h(c, d), h(c, d))"

    @pytest.mark.parametrize("cap", [0, 1, 3])
    def test_cap_bounds_the_seeds_taken(self, cap):
        h = load(FIXTURES / "foo.hrs")
        every = list(loop_seeds(h))
        assert len(list(loop_seeds(h, cap=cap))) == min(cap, len(every))

    def test_no_seed_no_step(self, monkeypatch):
        rewritten = record_calls(monkeypatch, "rewrite_step")
        assert find_loop(load(FIXTURES / "foo.hrs"), cap=0) is None
        assert rewritten == []

    @pytest.mark.parametrize("name, max_steps, seeds", [
        ("foo", 3, 2), ("loop-chain", 6, 1)])
    def test_a_loop_found_early_draws_only_its_seeds(
            self, name, max_steps, seeds, monkeypatch):
        # foo's first seed, foo(bar(\x. x)), is a normal form after one
        # step; its second loops.  The eager pool held 25 terms.
        drawn = Counter()
        real = R.enumerate_closed_terms

        def counting(h, ty, max_size):
            for t in real(h, ty, max_size):
                drawn[ty] += 1
                yield t

        monkeypatch.setattr(R, "enumerate_closed_terms", counting)
        h = loop_chain(6) if name == "loop-chain" else \
            load(FIXTURES / f"{name}.hrs")
        found = find_loop(h, max_steps=max_steps)
        assert isinstance(found, LoopFound)
        assert list(drawn.values()) == [seeds]
        assert found.start == list(loop_seeds(h, cap=seeds))[-1]


class TestEnumerateClosedTerms:
    @pytest.mark.parametrize("name", FIXTURE_SYSTEMS)
    def test_lazy_order_is_the_sorted_order(self, name):
        h = load(FIXTURES / f"{name}.hrs")
        types = {Base(b) for b in h.basics} | set(h.variables.values())
        types |= {d for ty in h.signature.values() for d in ty.domains}
        for ty, size in itertools.product(sorted(types, key=str),
                                          range(1, 6)):
            lazy = list(enumerate_closed_terms(h, ty, size))
            full = sorted_closed_terms(h, ty, size)
            assert lazy == full
            assert [print_term(t) for t in lazy] == \
                [print_term(t) for t in full]


# ---------------------------------------------------------------------------
# substitution against the evaluation oracle


HO_SIG = {"c": Base("a"), "d": Base("b"), "g": Arrow(Base("a"), Base("b")),
          "h": Arrow(Arrow(Base("a"), Base("b")), Base("a")),
          "k": Arrow(Base("b"), Arrow(Base("a"), Base("a")))}
HO_FREES = {"X": Base("a"), "Y": Base("b"), "F": Arrow(Base("a"), Base("b"))}


@st.composite
def ho_substitutions(draw, kinds=("X", "Y", "F")):
    theta = {}
    for name in kinds:
        if draw(st.booleans()):
            theta[name] = draw(S.eta_long_terms(
                HO_SIG, {"Z": Base("a")}, HO_FREES[name], fuel=3, _depth=20))
    return theta


class TestApplySubstFastPath:
    """``apply_subst`` against the evaluation oracle: first-order terms,
    base-typed variables in higher-order terms, and function variables."""

    def check(self, t, theta):
        got = apply_subst(t, theta)
        want = nbe_apply_subst(t, theta)
        assert got == want
        assert hints(got) == hints(want)
        assert print_term(got) == print_term(want)

    @settings(max_examples=200, deadline=None)
    @given(S.fo_terms(allow_vars=True), S.fo_substitutions())
    def test_first_order(self, t, theta):
        self.check(t, theta)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([Base("a"), Base("b"),
                            Arrow(Base("a"), Base("b"))]).flatmap(
               lambda ty: S.eta_long_terms(HO_SIG, HO_FREES, ty, fuel=4)),
           ho_substitutions(("X", "Y")))
    def test_higher_order_terms_base_typed_variables(self, t, theta):
        self.check(t, theta)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([Base("a"), Base("b")]).flatmap(
               lambda ty: S.eta_long_terms(HO_SIG, HO_FREES, ty, fuel=4)),
           ho_substitutions())
    def test_function_variables_take_the_evaluation_path(self, t, theta):
        self.check(t, theta)
