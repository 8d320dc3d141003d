from pathlib import Path

import pytest
from hypothesis import given, settings

import pfp_oracle
import strategies as S
from hoterm.hrs import Hrs, Rule, load, parse
from hoterm.pfp import is_pfp, safe_subterms
from hoterm.sdp import candidates, extract_sdps
from hoterm.terms import (Abs, App, Base, Bound, Const, Free, arrow,
                          free_names, print_term, subterms)

FIXDIR = Path(__file__).parent.parent / "fixtures"


class TestSafeSet:
    def test_foldl_cons_safe_set(self):
        # accumulator recursion: everything reachable through constructor
        # spines plus the direct arguments is safe
        h = load(FIXDIR / "foldl.hrs")
        cons_rule = h.rules[1]
        got = {str(t) for t in safe_subterms(cons_rule).safe}
        assert got == {"\\x y. F(x, y)", "Y", "cons(X, L)", "X", "L"}

    def test_foldl_nil_safe_set(self):
        h = load(FIXDIR / "foldl.hrs")
        nil_rule = h.rules[0]
        got = {str(t) for t in safe_subterms(nil_rule).safe}
        assert got == {"\\x y. F(x, y)", "Y", "nil"}

    def test_mapfun_safe_set_excludes_wrapped_function(self):
        # the function sits under a constructor, not as a direct argument,
        # so \x. F(x) itself is not safe
        h = load(FIXDIR / "mapfun.hrs")
        rule = next(r for r in h.rules if "cons" in str(r.lhs))
        got = {str(t) for t in safe_subterms(rule).safe}
        assert got == {"cons_F(\\x. F(x), L)", "L", "X"}
        assert "\\x. F(x)" not in got


class TestVerdicts:
    def test_foldl_is_function_passing(self):
        assert is_pfp(load(FIXDIR / "foldl.hrs")).is_pfp

    def test_sqsum_is_function_passing(self):
        report = is_pfp(load(FIXDIR / "sqsum.hrs"))
        assert report.is_pfp
        assert report.violations == ()

    def test_foo_violations(self):
        report = is_pfp(load(FIXDIR / "foo.hrs"))
        assert not report.is_pfp
        witnessed = {str(v.subterm) for v in report.violations}
        assert witnessed == {"F(bar(\\x. F(x)))", "F(x)"}
        assert all(v.rule == "foo-def" for v in report.violations)

    def test_mapfun_violation(self):
        report = is_pfp(load(FIXDIR / "mapfun.hrs"))
        assert not report.is_pfp
        assert [str(v.subterm) for v in report.violations] == ["F(X)"]

    def test_violation_reason_mentions_prefixes(self):
        report = is_pfp(load(FIXDIR / "mapfun.hrs"))
        assert "applied prefix" in report.violations[0].reason

    def test_first_order_systems_are_function_passing(self):
        # no functional variables at all, so the condition is vacuous
        for name in ("arith", "ackermann", "listfns"):
            assert is_pfp(load(FIXDIR / f"{name}.hrs")).is_pfp

    def test_empty_system_is_function_passing(self):
        assert is_pfp(load(FIXDIR / "empty.hrs")).is_pfp


class TestSafeSetInvariants:
    @settings(max_examples=200)
    @given(S.systems())
    def test_safe_subterms_of_lhs_and_basic_discipline(self, h):
        for rule in h.rules:
            ss = safe_subterms(rule)
            lhs_subs = set(subterms(rule.lhs))
            lhs_args = set(rule.lhs.args)
            lhs_frees = free_names(rule.lhs)
            for u in ss.safe:
                # safe terms come from the left-hand side
                assert u in lhs_subs
                # and they never invent new free variables
                assert free_names(u) <= lhs_frees
                # anything beyond the direct arguments was collected by the
                # basic-subterm walk, so it must be basic-typed
                if u not in lhs_args:
                    assert isinstance(u.ty, Base)


def assert_agrees_with_oracle(h):
    """Safe sets, report, pairs and candidates, term for term and as
    printed, against the implementation that opens every binder."""
    for rule in h.rules:
        want = pfp_oracle.safe_subterms(rule)
        got = safe_subterms(rule).safe
        assert got == want
        assert [print_term(u) for u in got] == [print_term(u) for u in want]
        want = pfp_oracle.candidates(rule.rhs)
        got = candidates(rule.rhs)
        assert got == want
        assert [print_term(c) for c in got] == [print_term(c) for c in want]
    report, want = is_pfp(h), pfp_oracle.is_pfp(h)
    assert report == want
    assert [print_term(v.subterm) for v in report.violations] \
        == [print_term(v.subterm) for v in want.violations]
    pairs, want = extract_sdps(h), pfp_oracle.extract_sdps(h)
    assert pairs == want
    assert [str(p) for p in pairs] == [str(p) for p in want]


class TestPrefixFilter:
    """The prefix test looks only at prefixes whose shape matches and stops
    at an argument that reaches a binder; the oracle normalizes every
    prefix of every opened subterm."""

    @pytest.mark.parametrize("path", sorted(FIXDIR.glob("*.hrs")),
                             ids=lambda p: p.stem)
    def test_fixture(self, path):
        assert_agrees_with_oracle(load(path))

    @settings(max_examples=200)
    @given(S.systems())
    def test_generated_system(self, h):
        assert_agrees_with_oracle(h)

    def test_prefix_past_an_argument_that_reaches_a_binder(self):
        # F(x, c) and h(x, c): the prefixes F(x) and h(x) have the head and
        # type of the safe \y. F(y, y) and \y. h(y, y), but x is bound on
        # the right; normalized with x left loose, F(x) would be \y. F(y, y)
        assert_agrees_with_oracle(parse(
            "basic a\n"
            "sig f : (a -> a) -> a\n"
            "sig g : (a -> a) -> a\n"
            "sig h : a -> a -> a\n"
            "sig c : a\n"
            "var F : a -> a -> a\n"
            "var X : a\n"
            "rule r1: f(\\y. F(y, y)) -> g(\\x. F(x, c))\n"
            "rule r2: g(\\y. h(y, y)) -> g(\\x. h(x, c))\n"
            "rule r3: h(X, c) -> X\n"))


def hinted_system(hint: str) -> Hrs:
    """f(\\<hint>. g(G(<hint>)), Y) -> G(Y), built without the reader, which
    would make the hint distinct from the rule variable Y."""
    A = Base("a")
    f = Const("f", arrow(arrow(A, A), A, A))
    g = Const("g", arrow(A, A))
    G, Y = Free("G", arrow(A, A)), App(Free("Y", A), ())
    fn = Abs(hint, A, App(g, (App(G, (App(Bound(0, A), ()),)),)))
    rule = Rule("f-def", App(f, (fn, Y)), App(G, (Y,)))
    return Hrs(("a",), {"f": f.ty, "g": g.ty}, {"G": G.ty, "Y": A}, (rule,))


class TestBinderHints:
    def test_safety_does_not_depend_on_binder_hints(self):
        # the body g(G(Y)) under \Y reaches the binder, whatever its hint:
        # neither it nor G(Y) is safe, so G(Y) on the right is a violation
        named_y, fresh = hinted_system("Y"), hinted_system("y")
        assert named_y.rules[0].lhs == fresh.rules[0].lhs
        safe = safe_subterms(named_y.rules[0]).safe
        assert safe == safe_subterms(fresh.rules[0]).safe
        assert [print_term(u) for u in safe] == ["\\Y. g(G(Y))", "Y"]
        report = is_pfp(named_y)
        assert report == is_pfp(fresh)
        assert not report.is_pfp
        assert [print_term(v.subterm) for v in report.violations] == ["G(Y)"]
        assert extract_sdps(named_y) == extract_sdps(fresh)
