from pathlib import Path

import pytest
from hypothesis import given, settings

import strategies as S
from strategies import lam, subterm_at
import hoterm.criteria
from hoterm.criteria import (AnalysisConfig, Comparison, ComponentFailure,
                             ComponentProof, CriterionVerdict, LexPathOrder,
                             OrientationVerdict,
                             PiAssignment, analyze_component, _projection,
                             check_reduction_pair, check_subterm_criterion,
                             search_pi, search_precedence)
from hoterm.graph import RecursionComponent, recursion_components
from hoterm.hrs import load, parse
from hoterm.normalize import apply_subst
from hoterm.sdp import DependencyPair, extract_sdps
from hoterm.terms import App, Base, Const, Free, arrow, subterms

FIXDIR = Path(__file__).parent.parent / "fixtures"

NAT = Base("nat")
A = Base("a")


def components_of(name):
    h = load(FIXDIR / f"{name}.hrs")
    return h, recursion_components(extract_sdps(h))


def const(name, ty, *args):
    return App(Const(name, ty), args)


class TestPiAssignment:
    def test_rejects_empty_positions(self):
        with pytest.raises(ValueError):
            PiAssignment({"f": ()})

    def test_str_uses_unmarked_names(self):
        pi = PiAssignment({"foldl": (3,), "add": (1,)})
        assert str(pi) == "pi(add) = 1, pi(foldl) = 3"

    def test_deep_positions_print_dotted(self):
        assert str(PiAssignment({"f": (1, 1)})) == "pi(f) = 1.1"

    def test_repr_shows_the_projections(self):
        pi = PiAssignment({"f": (1, 1), "add": (2,)})
        assert repr(pi) == "PiAssignment({'f': (1, 1), 'add': (2,)})"
        assert eval(repr(pi)) == pi


class TestSubtermCriterion:
    def test_add_component_accepts_first_argument(self):
        h, comps = components_of("sqsum")
        add_c = comps[0]
        out = check_subterm_criterion(add_c, PiAssignment({"add": (1,)}),
                                      h.defined)
        assert isinstance(out, CriterionVerdict)
        assert [str(p) for p in out.strict] == ["add#(s(X), Y) -> add#(X, Y)"]
        assert out.weak == ()

    def test_second_argument_projection_fails(self):
        # both sides project to Y: weak but never strict
        h, comps = components_of("sqsum")
        out = check_subterm_criterion(comps[0], PiAssignment({"add": (2,)}),
                                      h.defined)
        assert out is None
        assert _projection(comps[0].pairs[0], (2,), (2,), h.defined) is False

    def test_invalid_position_failure_names_the_pair(self):
        h, comps = components_of("sqsum")
        out = check_subterm_criterion(comps[0], PiAssignment({"add": (9,)}),
                                      h.defined)
        assert out is None
        assert _projection(comps[0].pairs[0], (9,), (1,), h.defined) is None

    def test_invalid_right_position_names_the_right_side(self):
        # the left side projects; the right side has no argument 3, and no
        # position 1.2 under a binder
        h, comps = components_of("sqsum")
        pair = comps[0].pairs[0]
        assert _projection(pair, (1,), (3,), h.defined) is None
        assert _projection(pair, (1,), (1,), h.defined) is True
        g = Const("g", arrow(arrow(A, A), A))
        side = App(g, (lam("x", A, App(Free("x", A), ())),))
        pair = DependencyPair(side, side, "r", ())
        assert _projection(pair, (1,), (1, 2), frozenset({"g"})) is None
        assert _projection(pair, (1,), (1,), frozenset({"g"})) is False

    def test_missing_projection(self):
        h, comps = components_of("sqsum")
        out = check_subterm_criterion(comps[0], PiAssignment({"zzz": (1,)}),
                                      h.defined)
        assert out is None

    def test_foldl_component_needs_the_list_argument(self):
        h, comps = components_of("sqsum")
        foldl_c = comps[2]
        out = check_subterm_criterion(foldl_c,
                                      PiAssignment({"foldl": (3,)}),
                                      h.defined)
        assert isinstance(out, CriterionVerdict)
        assert len(out.strict) == 1

    def test_free_variable_above_projection_rejected(self):
        # the path from the marked head down to the projected position must
        # not pass through a free variable
        c = const("c", A)
        u = const("f", arrow(A, A), App(Free("F", arrow(A, A)), (c,)))
        v = const("f", arrow(A, A), const("s", arrow(A, A), c))
        comp = RecursionComponent((0,), (DependencyPair(u, v, "r", ()),))
        out = check_subterm_criterion(comp, PiAssignment({"f": (1, 1)}),
                                      frozenset({"f"}))
        assert out is None
        # both sides project to c, so only the free variable F, which may
        # drop its argument, tells a failed pair from an equal one
        assert _projection(comp.pairs[0], (1, 1), (1, 1),
                           frozenset({"f"})) is None

    def test_defined_symbol_above_projection_on_rhs_rejected(self):
        # below the marked root of the right-hand side, the spine must stay
        # inside constructors
        c = const("c", A)
        s = lambda t: const("s", arrow(A, A), t)
        u = const("f", arrow(A, A), s(s(c)))
        v = const("f", arrow(A, A), const("g", arrow(A, A), c))
        comp = RecursionComponent((0,), (DependencyPair(u, v, "r", ()),))
        out = check_subterm_criterion(comp, PiAssignment({"f": (1, 1)}),
                                      frozenset({"f", "g"}))
        assert out is None
        # with g a constructor, c lies below s(c): the head was the failure
        out = check_subterm_criterion(comp, PiAssignment({"f": (1, 1)}),
                                      frozenset({"f"}))
        assert isinstance(out, CriterionVerdict)

    def test_defined_head_under_a_binder_names_its_position(self):
        # f#(k(\x. g(c))) at 1.1.1.1 crosses f#, k, the abstraction at 1.1
        # and its body: g heads the abstraction, a defined head above c
        c = const("c", A)
        u = const("f", arrow(A, A), const("s", arrow(A, A), c))
        g_c = lam("x", A, const("g", arrow(A, A), c))
        v = const("f", arrow(A, A), const("k", arrow(arrow(A, A), A), g_c))
        pair = DependencyPair(u, v, "r", ())
        assert _projection(pair, (1,), (1, 1, 1, 1),
                           frozenset({"f", "g"})) is None
        assert _projection(pair, (1,), (1, 1, 1, 1), frozenset({"f"})) is True

    def test_constructor_spine_above_projection_allowed(self):
        c = const("c", A)
        s = lambda t: const("s", arrow(A, A), t)
        u = const("f", arrow(A, A), s(s(c)))
        v = const("f", arrow(A, A), s(c))
        comp = RecursionComponent((0,), (DependencyPair(u, v, "r", ()),))
        out = check_subterm_criterion(comp, PiAssignment({"f": (1, 1)}),
                                      frozenset({"f"}))
        assert isinstance(out, CriterionVerdict)


    def test_opened_left_binder_is_not_an_extra_variable(self):
        # f#(k(\x. x)) -> f#(x), where x is an extra variable: the bound x
        # under k is a different variable although it opens with the name x
        a_a = arrow(A, A)
        x = App(Free("x", A), ())
        u = const("f", a_a, const("k", arrow(a_a, A), lam("x", A, x)))
        v = const("f", a_a, x)
        pair = DependencyPair(u, v, "r1", ("x",))
        assert subterm_at(u, (1, 1, 1)) == x      # as opened, the names meet
        assert [_projection(pair, p, (1,), frozenset({"f", "h"}))
                for p in [(1,), (1, 1), (1, 1, 1)]] == [None, None, None]
        comp = RecursionComponent((0,), (pair,))
        assert search_pi(comp, max_depth=3,
                         defined=frozenset({"f", "h"})) is None

    def test_right_side_reaching_a_crossed_binder_fails(self):
        # g#(\x. s(x)) -> g#(\y. s(y)) under pi(g) = 1.1: both project to
        # s applied to a binder each side crossed, two distinct variables
        a_a = arrow(A, A)
        g = Const("g", arrow(a_a, A))
        body = lam("x", A, const("s", a_a, App(Free("x", A), ())))
        pair = DependencyPair(App(g, (body,)), App(g, (body,)), "r", ())
        assert _projection(pair, (1, 1), (1, 1), frozenset({"g"})) is None
        assert _projection(pair, (1,), (1,), frozenset({"g"})) is False


class TestSearchPi:
    def test_foldl_search_tries_positions_in_order(self, monkeypatch):
        h, comps = components_of("sqsum")
        foldl_c = comps[2]
        tried = []
        real = hoterm.criteria._projection

        def spy(pair, p, q, defined):
            tried.append(p)
            return real(pair, p, q, defined)

        # each position is projected once: the verdict reuses the answers
        monkeypatch.setattr(hoterm.criteria, "_projection", spy)
        found = search_pi(foldl_c, max_depth=1, defined=h.defined)
        assert tried == [(1,), (2,), (3,)]
        assert str(found.witness) == "pi(foldl) = 3"

    def test_failures_are_not_put_in_words(self, monkeypatch):
        # (1,) and (2,) fail for foldl; the search only asks whether they do
        h, comps = components_of("sqsum")

        def refuse(*args):
            raise AssertionError("a failure was printed")

        monkeypatch.setattr(hoterm.criteria, "print_term", refuse)
        found = search_pi(comps[2], max_depth=1, defined=h.defined)
        assert str(found.witness) == "pi(foldl) = 3"

    def test_depth_one_misses_nested_descent(self):
        h, comps = components_of("nested")
        assert search_pi(comps[0], max_depth=1, defined=h.defined) is None

    def test_depth_two_finds_nested_descent(self):
        h, comps = components_of("nested")
        found = search_pi(comps[0], max_depth=2, defined=h.defined)
        assert found is not None
        assert str(found.witness) == "pi(f) = 1.1"

    def test_depth_beyond_every_position_costs_nothing(self):
        # positions are listed only while some remain, not depth times
        h, comps = components_of("sqsum")
        for comp in comps:
            assert search_pi(comp, max_depth=10**9, defined=h.defined) == \
                search_pi(comp, max_depth=10, defined=h.defined)

    def test_defined_symbols_are_required(self):
        # f(c(c(X))) -> f(g(X)) loops through g(X) -> c(c(X)); pi(f) = 1.1
        # passes only if g, above the projection, is taken for a constructor
        h = parse("basic a\nsig f : a -> a\nsig c : a -> a\n"
                  "sig g : a -> a\nvar X : a\n"
                  "rule r1: f(c(c(X))) -> f(g(X))\n"
                  "rule r2: g(X) -> c(c(X))\n")
        comp, = recursion_components(extract_sdps(h))
        with pytest.raises(TypeError):
            search_pi(comp, 3)
        assert search_pi(comp, 3, h.defined) is None

    def test_no_projection_for_argument_swap(self):
        h = parse("basic a\nsig f : a -> a -> a\nsig c : a\n"
                  "var X : a\nvar Y : a\n"
                  "rule f-def: f(X, Y) -> f(Y, X)\n")
        comp = recursion_components(extract_sdps(h))[0]
        assert search_pi(comp, max_depth=3, defined=h.defined) is None


class TestLexPathOrder:
    LPO = LexPathOrder(("add", "s", "0"))

    def test_subterm_is_smaller(self):
        X = App(Free("X", NAT), ())
        s = lambda t: const("s", arrow(NAT, NAT), t)
        assert self.LPO.compare(s(X), X) is Comparison.GREATER

    def test_precedence_orients_distributed_call(self):
        X = App(Free("X", NAT), ())
        Y = App(Free("Y", NAT), ())
        s = lambda t: const("s", arrow(NAT, NAT), t)
        add = lambda a, b: const("add", arrow(NAT, NAT, NAT), a, b)
        assert self.LPO.compare(add(s(X), Y),
                                s(add(X, Y))) is Comparison.GREATER

    def test_equal_terms_are_greater_equal(self):
        X = App(Free("X", NAT), ())
        assert self.LPO.compare(X, X) is Comparison.GREATER_EQUAL

    def test_distinct_variables_incomparable(self):
        X = App(Free("X", NAT), ())
        Y = App(Free("Y", NAT), ())
        assert self.LPO.compare(X, Y) is Comparison.UNKNOWN

    def test_pair_sides_rank_as_their_rules_terms(self):
        # add#(s(X), Y) -> add#(X, Y) is the rule's left side and a body of
        # its right side, ranked by the precedence's add
        h = load(FIXDIR / "sqsum.hrs")
        pair = extract_sdps(h)[0]
        assert str(pair) == "add#(s(X), Y) -> add#(X, Y)"
        assert self.LPO.compare(pair.lhs, pair.rhs) is Comparison.GREATER

    def test_binders_are_out_of_scope(self):
        body = lam("x", NAT, const("s", arrow(NAT, NAT),
                                   App(Free("x", NAT), ())))
        small = lam("x", NAT, App(Free("x", NAT), ()))
        assert self.LPO.compare(body, small) is Comparison.UNKNOWN

    def test_applied_variables_are_out_of_scope(self):
        X = App(Free("X", NAT), ())
        applied = App(Free("F", arrow(NAT, NAT)), (X,))
        assert self.LPO.compare(applied, X) is Comparison.UNKNOWN

    def test_describe_lists_precedence(self):
        assert self.LPO.describe() == "path order with precedence add > s > 0"


class TestFirstOrder:
    @staticmethod
    def tower(bottom, depth=2000):
        t = bottom
        for _ in range(depth):
            t = const("s", arrow(NAT, NAT), t)
        return t

    def test_deep_term_needs_no_recursion(self):
        assert hoterm.criteria._first_order(self.tower(const("0", NAT)))

    def test_higher_order_variable_deep_down(self):
        F = Free("F", arrow(NAT, NAT))
        bottom = App(F, (const("0", NAT),))
        assert not hoterm.criteria._first_order(self.tower(bottom))

    def test_pair_with_equal_sides_is_equivalent(self):
        # f#(X) -> f#(X): equal sides are the path order's equivalence
        pair, = extract_sdps(parse("basic a\n"
                                   "sig f : a -> a\n"
                                   "sig g : a -> a -> a\n"
                                   "var X : a\n"
                                   "rule f-def: f(X) -> g(f(X), f(X))\n"))
        order = LexPathOrder(("f", "g"))
        assert order.compare(pair.lhs, pair.rhs) is Comparison.GREATER_EQUAL
        add = Const("add", arrow(NAT, NAT, NAT))
        args = (const("0", NAT), App(Free("Y", NAT), ()))
        assert order.compare(App(add, args), App(add, args[::-1])) \
            is Comparison.UNKNOWN


class TestLexPathOrderLaws:
    """Order-theoretic laws on binder-free terms."""

    ORDER = LexPathOrder(("mul", "add", "pair", "s", "0"))

    @settings(max_examples=200)
    @given(S.fo_terms(allow_vars=True))
    def test_never_strictly_above_itself(self, t):
        assert self.ORDER.compare(t, t) is not Comparison.GREATER

    @settings(max_examples=200)
    @given(S.fo_terms(allow_vars=True))
    def test_strictly_above_every_proper_subterm(self, t):
        for sub in subterms(t):
            if sub != t and sub.ty == t.ty:
                assert self.ORDER.compare(t, sub) is Comparison.GREATER

    @settings(max_examples=200)
    @given(S.fo_terms(allow_vars=True), S.fo_terms(allow_vars=True),
           S.fo_terms(allow_vars=True))
    def test_transitive(self, a, b, c):
        if (a.ty == b.ty == c.ty
                and self.ORDER.compare(a, b) is Comparison.GREATER
                and self.ORDER.compare(b, c) is Comparison.GREATER):
            assert self.ORDER.compare(a, c) is Comparison.GREATER

    @settings(max_examples=200)
    @given(S.fo_terms(allow_vars=True), S.fo_terms(allow_vars=True),
           S.fo_substitutions())
    def test_strict_comparisons_survive_substitution(self, a, b, theta):
        if a.ty == b.ty and self.ORDER.compare(a, b) is Comparison.GREATER:
            assert self.ORDER.compare(apply_subst(a, theta),
                                      apply_subst(b, theta)) \
                is Comparison.GREATER


class TestCheckReductionPair:
    def test_arith_add_component(self):
        h, comps = components_of("arith")
        out = check_reduction_pair(h, comps[0],
                                   LexPathOrder(("mul", "add", "s", "0")))
        assert isinstance(out, OrientationVerdict)
        assert [str(p) for p in out.strict] == ["add#(s(X), Y) -> add#(X, Y)"]
        assert out.witness == \
            "path order with precedence mul > add > s > 0"

    def test_failure_names_the_unoriented_rule(self):
        h, comps = components_of("arith")
        out = check_reduction_pair(h, comps[0],
                                   LexPathOrder(("0", "s", "add", "mul")))
        assert out == "rule add-s: cannot orient add(s(X), Y) >= s(add(X, Y))"

    def test_empty_component_rejected(self):
        h, _ = components_of("arith")
        with pytest.raises(ValueError, match="nonempty"):
            check_reduction_pair(h, RecursionComponent((), ()),
                                 LexPathOrder(()))


class TestSearchPrecedence:
    def test_finds_an_orienting_precedence_for_arith(self):
        h, comps = components_of("arith")
        out = search_precedence(h, comps[0])
        assert isinstance(out, OrientationVerdict)
        assert len(out.strict) == 1

    def test_gives_up_on_argument_swap(self):
        h = parse("basic a\nsig f : a -> a -> a\nsig c : a\n"
                  "var X : a\nvar Y : a\n"
                  "rule f-def: f(X, Y) -> f(Y, X)\n")
        comp = recursion_components(extract_sdps(h))[0]
        assert search_precedence(h, comp) == \
            "no precedence orients every rule and the component"


class TestAnalyzeComponent:
    def test_sqsum_foldl_discharged_in_one_step(self):
        h, comps = components_of("sqsum")
        out = analyze_component(h, comps[2])
        assert isinstance(out, ComponentProof)
        assert [(s.technique, s.witness) for s in out.steps] == \
            [("subterm criterion", "pi(foldl) = 3")]
        assert out.steps[0].remaining == ()

    def test_ackermann_needs_two_rounds(self):
        h, comps = components_of("ackermann")
        out = analyze_component(h, comps[0])
        assert isinstance(out, ComponentProof)
        assert [(s.technique, s.witness) for s in out.steps] == [
            ("subterm criterion", "pi(ack) = 1"),
            ("subterm criterion", "pi(ack) = 2")]

    def test_redpair_only_configuration(self):
        h, comps = components_of("arith")
        cfg = AnalysisConfig(techniques=("redpair",))
        out = analyze_component(h, comps[0], cfg)
        assert isinstance(out, ComponentProof)
        assert out.steps[0].technique == "reduction pair"

    def test_explicit_precedence_is_respected(self):
        h, comps = components_of("arith")
        cfg = AnalysisConfig(techniques=("redpair",),
                             precedence=("mul", "add", "s", "0"))
        out = analyze_component(h, comps[1], cfg)
        assert isinstance(out, ComponentProof)
        assert out.steps[0].witness == \
            "path order with precedence mul > add > s > 0"

    def test_bad_explicit_precedence_fails_with_rule_reason(self):
        h, comps = components_of("arith")
        cfg = AnalysisConfig(techniques=("redpair",),
                             precedence=("0", "s", "add", "mul"))
        out = analyze_component(h, comps[0], cfg)
        assert isinstance(out, ComponentFailure)
        assert out.reasons == \
            ("rule add-s: cannot orient add(s(X), Y) >= s(add(X, Y))",)

    def test_argument_swap_fails_both_techniques(self):
        h = parse("basic a\nsig f : a -> a -> a\nsig c : a\n"
                  "var X : a\nvar Y : a\n"
                  "rule f-def: f(X, Y) -> f(Y, X)\n")
        comp = recursion_components(extract_sdps(h))[0]
        out = analyze_component(h, comp)
        assert isinstance(out, ComponentFailure)
        assert out.reasons == (
            "no projection satisfies the subterm criterion up to depth 3",
            "no precedence orients every rule and the component")
