from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings

import hoterm.pfp
import strategies as S
from hoterm.hrs import load, parse, print_hrs
from hoterm.normalize import PAtom, normalize, papp
from hoterm.pfp import is_pfp, safe_basic, safe_subterms
from hoterm.sdp import extract_sdps
from hoterm.terms import Base, free_names, subterms

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


def every_applied_prefix(head, arguments, shapes):
    """``applied_prefixes`` without the shape filter: every prefix built."""
    return [normalize(papp(PAtom(head), *arguments[:k]))
            for k in range(len(arguments) + 1)]


def assert_prefix_filter_changes_nothing(text):
    """The pfp report and the pairs, with and without the shape filter."""
    h = parse(text)
    with patch.object(hoterm.pfp, "applied_prefixes", every_applied_prefix):
        unfiltered = parse(text)
        want_pfp, want_pairs = is_pfp(unfiltered), extract_sdps(unfiltered)
    assert is_pfp(h) == want_pfp
    pairs = extract_sdps(h)
    assert pairs == want_pairs
    assert [str(p) for p in pairs] == [str(p) for p in want_pairs]


class TestPrefixFilter:
    @pytest.mark.parametrize("path", sorted(FIXDIR.glob("*.hrs")),
                             ids=lambda p: p.stem)
    def test_fixture(self, path):
        assert_prefix_filter_changes_nothing(path.read_text())

    @settings(max_examples=200)
    @given(S.systems())
    def test_generated_system(self, h):
        assert_prefix_filter_changes_nothing(print_hrs(h))
