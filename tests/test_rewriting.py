from pathlib import Path

import pytest
from hypothesis import assume, given, settings

import strategies as S
from strategies import lam
from nbe_oracle import hints
from walk_oracle import walk_rewrite_step
import hoterm.rewriting as R
from hoterm.hrs import load, parse
from hoterm.normalize import apply_subst
from hoterm.rewriting import (LoopFound, NonPatternError, bounded_search,
                              find_loop, loop_seeds, match, rewrite_step)
from hoterm.terms import (Abs, App, Base, Bound, Const, Free, Term, arrow,
                          print_term)

FIXTURES = Path(__file__).parent.parent / "fixtures"
NAT = Base("nat")
NATLIST = Base("natlist")
ZERO = App(Const("0", NAT), ())

_ARITH = load(Path(__file__).parent.parent / "fixtures" / "arith.hrs")


def suc(t):
    return App(Const("s", arrow(NAT, NAT)), (t,))


def add(a, b):
    return App(Const("add", arrow(NAT, NAT, NAT)), (a, b))


def var(name, ty=NAT):
    return App(Free(name, ty), ())


class TestMatch:
    def test_variable_matches_anything(self):
        theta = match(var("X"), suc(ZERO))
        assert theta == {"X": suc(ZERO)}

    def test_constructor_clash_gives_none(self):
        assert match(suc(var("X")), ZERO) is None

    def test_repeated_variable_requires_equal_subterms(self):
        pat = add(var("X"), var("X"))
        assert match(pat, add(suc(ZERO), suc(ZERO))) is not None
        assert match(pat, add(suc(ZERO), ZERO)) is None

    def test_foldl_cons_instance(self, fixtures):
        h = load(fixtures / "foldl.hrs")
        rule = h.rules[1]
        step = lam("x", NAT, lam("y", NAT, add(var("x"), var("y"))))
        tail = App(Const("nil", NATLIST), ())
        lst = App(Const("cons", arrow(NAT, NATLIST, NATLIST)), (ZERO, tail))
        subject = App(Const("foldl", h.signature["foldl"]),
                      (step, suc(ZERO), lst))
        theta = match(rule.lhs, subject)
        assert theta is not None
        assert str(theta["F"]) == "\\x y. add(x, y)"
        assert theta["Y"] == suc(ZERO)
        assert theta["X"] == ZERO
        assert theta["L"] == tail

    def test_open_subject_gives_an_open_value(self):
        # the subject reaches a binder above it, and so does X's value
        g = Const("g", arrow(NAT, NAT))
        loose = App(Bound(0, NAT), ())
        assert match(App(g, (var("X"),)), App(g, (loose,))) == {"X": loose}

    def test_non_pattern_rule_raises(self):
        src = ("basic a\nsig f : (a -> a) -> a\nsig c : a\n"
               "var F : a -> a\nrule r: f(\\x. F(c)) -> c\n")
        h = parse(src)
        c = App(Const("c", Base("a")), ())
        subject = App(Const("f", h.signature["f"]),
                      (lam("x", Base("a"), c),))
        with pytest.raises(NonPatternError, match="non-pattern"):
            rewrite_step(h, subject)

    def test_non_pattern_without_binders_raises(self):
        # F(c) under no binder: a variable applied to a non-variable
        a = Base("a")
        f = Const("f", arrow(a, a))
        c = App(Const("c", a), ())
        pattern = App(f, (App(Free("F", arrow(a, a)), (c,)),))
        with pytest.raises(NonPatternError, match="pairwise distinct"):
            match(pattern, App(f, (c,)))

    def test_non_pattern_rule_raises_on_the_frontier(self):
        # with max_steps=0 the seed is only tested for a redex
        src = ("basic a\nsig f : (a -> a) -> a\nsig c : a\n"
               "var F : a -> a\nrule r: f(\\x. F(c)) -> c\n")
        h = parse(src)
        c = App(Const("c", Base("a")), ())
        with pytest.raises(NonPatternError, match="non-pattern"):
            bounded_search(h, c, max_steps=0)


class TestRewriteStep:
    def test_root_step(self, fixtures):
        h = load(fixtures / "arith.hrs")
        hits = rewrite_step(h, add(suc(ZERO), ZERO))
        assert [(st.rule, st.position) for st in hits] == [("add-s", ())]
        assert hits[0].result == suc(add(ZERO, ZERO))

    def test_inner_steps_sorted_by_position(self, fixtures):
        h = load(fixtures / "arith.hrs")
        t = add(add(ZERO, ZERO), add(ZERO, ZERO))
        hits = rewrite_step(h, t)
        assert [(st.rule, st.position) for st in hits] == [
            ("add-0", (1,)), ("add-0", (2,))]
        assert hits[0].result == add(ZERO, add(ZERO, ZERO))
        assert hits[1].result == add(add(ZERO, ZERO), ZERO)

    def test_normal_form_has_no_steps(self, fixtures):
        h = load(fixtures / "arith.hrs")
        assert rewrite_step(h, suc(suc(ZERO))) == ()

    def test_higher_order_step_substitutes_function(self, fixtures):
        h = load(fixtures / "foldl.hrs")
        step = lam("x", NAT, lam("y", NAT, add(var("x"), var("y"))))
        lst = App(Const("cons", arrow(NAT, NATLIST, NATLIST)),
                  (ZERO, App(Const("nil", NATLIST), ())))
        subject = App(Const("foldl", h.signature["foldl"]),
                      (step, suc(ZERO), lst))
        hits = rewrite_step(h, subject)
        assert len(hits) == 1
        # the bound call F(Y, X) must beta-reduce to add(s(0), 0)
        assert str(hits[0].result) == \
            "foldl(\\x y. add(x, y), add(s(0), 0), nil)"


def first_step_normal_form(h, t):
    """The normal form reached by taking each term's first rewrite."""
    while steps := rewrite_step(h, t):
        t = steps[0].result
    return t


class TestBoundedSearch:
    def test_normal_form_outcome(self, fixtures):
        h = load(fixtures / "arith.hrs")
        assert bounded_search(h, add(suc(ZERO), ZERO)) is None
        assert first_step_normal_form(h, add(suc(ZERO), ZERO)) == suc(ZERO)

    def test_multiplication_normalizes(self, fixtures):
        h = load(fixtures / "arith.hrs")
        mul = lambda a, b: App(Const("mul", arrow(NAT, NAT, NAT)), (a, b))
        two = suc(suc(ZERO))
        assert bounded_search(h, mul(two, two)) is None
        assert first_step_normal_form(h, mul(two, two)) == \
            suc(suc(suc(suc(ZERO))))

    def test_loop_outcome(self, fixtures):
        h = load(fixtures / "foo.hrs")
        o = Base("o")
        seed = App(Const("foo", h.signature["foo"]),
                   (App(Const("bar", h.signature["bar"]),
                        (lam("x", o,
                             App(Const("foo", h.signature["foo"]),
                                 (var("x", o),))),)),))
        out = bounded_search(h, seed)
        assert isinstance(out, LoopFound)

    def test_depth_exhausted(self, fixtures, monkeypatch):
        # the seed is rewritten and its contractum, one step away, is not
        h = load(fixtures / "arith.hrs")
        seed = add(suc(suc(ZERO)), ZERO)
        calls = []
        real = R.rewrite_step

        def counting(h, t, memo=None):
            calls.append(t)
            return real(h, t, memo)

        monkeypatch.setattr(R, "rewrite_step", counting)
        assert bounded_search(h, seed, max_steps=1) is None
        assert calls == [seed]
        assert rewrite_step(h, real(h, seed)[0].result) != ()


class TestFindLoop:
    def test_foo_loops_in_one_step(self, fixtures):
        h = load(fixtures / "foo.hrs")
        found = find_loop(h)
        assert isinstance(found, LoopFound)
        assert len(found.trace) >= 1

    def test_foo_trace_replays(self, fixtures):
        h = load(fixtures / "foo.hrs")
        found = find_loop(h)
        seen = [found.start]
        current = found.start
        for step in found.trace:
            hits = rewrite_step(h, current)
            assert step in hits
            current = step.result
            seen.append(current)
        # the end of the trace must revisit an earlier term
        assert current in seen[:-1]

    def test_terminating_system_yields_none(self, fixtures):
        h = load(fixtures / "arith.hrs")
        assert find_loop(h, max_steps=30, max_term_size=3, cap=50) is None


def reachable(h, source: Term, target: Term, max_steps: int) -> bool:
    """True when some rewrite path of length <= max_steps joins the terms."""
    if source == target:
        return True
    frontier = [source]
    visited = {source}
    for _ in range(max_steps):
        nxt: list[Term] = []
        for u in frontier:
            for step in rewrite_step(h, u):
                if step.result == target:
                    return True
                if step.result not in visited:
                    visited.add(step.result)
                    nxt.append(step.result)
        if not nxt:
            return False
        frontier = nxt
    return False


class TestReachable:
    def test_reflexive(self, fixtures):
        h = load(fixtures / "arith.hrs")
        assert reachable(h, suc(ZERO), suc(ZERO), max_steps=5)

    def test_two_step_chain(self, fixtures):
        h = load(fixtures / "arith.hrs")
        assert reachable(h, add(suc(ZERO), ZERO), suc(ZERO), max_steps=5)

    def test_unreachable(self, fixtures):
        h = load(fixtures / "arith.hrs")
        assert not reachable(h, suc(ZERO), ZERO, max_steps=5)


class TestSubstitutionClosure:
    """One rewrite step is preserved by substitution then normalization."""

    @settings(max_examples=200)
    @given(S.fo_terms(allow_vars=True), S.fo_substitutions())
    def test_one_step_closed_under_substitution(self, term, theta):
        h = _ARITH
        hits = rewrite_step(h, term)
        for step in hits[:3]:
            source = apply_subst(term, theta)
            target = apply_subst(step.result, theta)
            assert reachable(h, source, target, max_steps=20)


# ---------------------------------------------------------------------------
# the memoised steps against the walk over whole terms


def near(h, seeds, steps=2, cap=60):
    """The seeds and the terms they reach in a few steps, at most ``cap``."""
    out, layer = list(dict.fromkeys(seeds)), list(dict.fromkeys(seeds))
    for _ in range(steps):
        layer = [st.result for t in layer for st in walk_rewrite_step(h, t)]
        out.extend(u for u in dict.fromkeys(layer) if u not in out)
    return out[:cap]


def assert_same_steps(h, terms):
    """Each term's steps, with binder hints and printed text, equal the
    walk's: from an empty memo, from the memo that call filled, and without
    a memo."""
    for t in terms:
        want = walk_rewrite_step(h, t)
        memo = {}
        for got in (rewrite_step(h, t, memo), rewrite_step(h, t, memo),
                    rewrite_step(h, t)):
            assert got == want
            assert [hints(st.result) for st in got] == \
                [hints(st.result) for st in want]
            assert [print_term(st.result) for st in got] == \
                [print_term(st.result) for st in want]
    # once more over a memo shared by all the terms
    memo = {}
    for t in terms:
        assert rewrite_step(h, t, memo) == walk_rewrite_step(h, t)


PATTERN_FIXTURES = [p.stem for p in sorted(FIXTURES.glob("*.hrs"))
                    if all(r.is_pattern for r in load(p).rules)]


class TestMemoisedSteps:
    def test_binder_fixtures_are_covered(self):
        assert {"foo", "mapfun", "foldl"} <= set(PATTERN_FIXTURES)

    @pytest.mark.parametrize("name", PATTERN_FIXTURES)
    def test_fixture_seeds_and_sides(self, name):
        # foldl and mapfun have no closed seeds: no constant of type nat
        h = load(FIXTURES / f"{name}.hrs")
        sides = [side for r in h.rules for side in (r.lhs, r.rhs)]
        terms = near(h, [*loop_seeds(h, max_term_size=4, cap=30), *sides])
        assert_same_steps(h, terms)

    def test_binder_hint_taken_by_a_free_variable(self):
        # the walk opens \x. with a name fresh for the whole term, the
        # memo with one fresh for the abstraction; both give x' here
        h = load(FIXTURES / "foo.hrs")
        o = Base("o")
        foo = lambda t: App(Const("foo", h.signature["foo"]), (t,))
        # \x. body, binding nothing in body
        bar = lambda body: App(Const("bar", h.signature["bar"]),
                               (Abs("x", o, body),))
        inner = foo(bar(var("x", o)))
        terms = near(h, [bar(foo(inner)), foo(bar(inner)), bar(inner)])
        assert any("x'" in print_term(t) for t in terms)
        assert_same_steps(h, terms)

    def test_equal_subterms_keep_their_own_binder_hints(self):
        # \x. g(c) and \y. g(c) are equal terms, one memo key
        h = parse("basic a b\nsig c : b\nsig d : a\nsig g : b -> a\n"
                  "sig f : (a -> a) -> (a -> a) -> b\nrule r: g(c) -> d\n")
        a = Base("a")
        gc = App(Const("g", h.signature["g"]),
                 (App(Const("c", h.signature["c"]), ()),))
        t = App(Const("f", h.signature["f"]), (Abs("x", a, gc),
                                               Abs("y", a, gc)))
        got = rewrite_step(h, t)
        assert [print_term(st.result) for st in got] == \
            ["f(\\x. d, \\y. g(c))", "f(\\x. g(c), \\y. d)"]
        assert_same_steps(h, [t])

    def test_captures_reaching_above_the_redex(self):
        # the g redexes stand under binders of the term, which X captures,
        # and k-m moves its capture under new binders: the contracta lift
        # and renumber the indices captured
        sig = ("basic a\nsig c : a\nsig g : a -> a\nsig k : (a -> a) -> a\n"
               "sig m : (a -> a -> a) -> a\nvar X : a\nvar F : a -> a\n"
               "var G : a -> a -> a\n")
        h = parse(sig + "rule g-k: g(X) -> k(\\z. X)\n"
                  "rule k-m: k(\\x. F(x)) -> m(\\p q. F(g(p)))\n"
                  "rule m-c: m(\\x y. G(x, y)) -> G(c, c)\n")
        terms = parse(sig + "rule t1: k(\\x. g(x)) -> c\n"
                      "rule t2: m(\\x y. g(k(\\z. g(x)))) -> c\n"
                      "rule t3: k(\\x. k(\\y. g(k(\\z. x)))) -> c\n"
                      "rule t4: k(\\x. m(\\p q. g(p))) -> c\n").rules
        assert [st.rule for st in rewrite_step(h, terms[0].lhs)] == \
            ["g-k", "k-m"]
        assert_same_steps(h, near(h, [r.lhs for r in terms]))

    @settings(max_examples=150, deadline=None)
    @given(S.systems())
    def test_generated_systems(self, h):
        assume(all(r.is_pattern for r in h.rules))
        assert_same_steps(h, near(h, loop_seeds(h, max_term_size=3, cap=8),
                                  steps=1, cap=30))

    def test_a_shared_subterm_is_matched_once(self, monkeypatch):
        calls = []
        real = R.match

        def counting(pattern, subject):
            calls.append(subject)
            return real(pattern, subject)

        monkeypatch.setattr(R, "match", counting)
        h = load(FIXTURES / "arith.hrs")
        inner = add(suc(ZERO), ZERO)
        memo = {}
        rewrite_step(h, add(inner, inner), memo)
        rewrite_step(h, suc(add(inner, ZERO)), memo)
        # once for each rule indexed under its head
        assert calls.count(inner) == len(h.rules_by_head[inner.head]) == 2
        # a call without a memo makes its own, and keeps nothing
        rewrite_step(h, suc(inner))
        rewrite_step(h, suc(inner))
        assert calls.count(inner) == 2 + 2 * 2

    def test_each_contractum_is_built_by_apply_subst(self, monkeypatch):
        # the per-layer counts of normalize.apply_subst rebind this name
        built = []
        real = R.apply_subst

        def counting(t, theta):
            built.append(t)
            return real(t, theta)

        monkeypatch.setattr(R, "apply_subst", counting)
        h = load(FIXTURES / "arith.hrs")
        mul = App(Const("mul", h.signature["mul"]), (ZERO, ZERO))
        steps = rewrite_step(h, add(add(ZERO, ZERO), mul))
        assert [st.rule for st in steps] == ["add-0", "mul-0"]
        fired = {"add-0": 1, "mul-0": 1}
        for rule in h.rules:
            assert built.count(rule.rhs) == fired.get(rule.name, 0)
