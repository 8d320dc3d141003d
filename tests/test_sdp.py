from pathlib import Path

from hypothesis import given, settings

import strategies as S
from strategies import positions
from hoterm.hrs import Hrs, load, parse
from hoterm.sdp import candidates, extract_sdps, mark, unmark_name
from hoterm.terms import (App, Base, Const, Free, arrow, free_names,
                          strip_binders, subterm_at)

FIXDIR = Path(__file__).parent.parent / "fixtures"


class TestMark:
    def test_mark_renames_head_only(self):
        NAT = Base("nat")
        t = App(Const("add", arrow(NAT, NAT, NAT)),
                (App(Const("0", NAT), ()), App(Free("Y", NAT), ())))
        m = mark(t)
        assert m.head.name == "add#"
        assert m.head.ty == arrow(NAT, NAT, NAT)
        assert m.args == t.args

    def test_unmark_name(self):
        assert unmark_name("add#") == "add"
        assert unmark_name("add") == "add"


class TestCandidates:
    def test_foldl_cons_rhs_candidates(self):
        h = load(FIXDIR / "foldl.hrs")
        rhs = h.rules[1].rhs
        got = [str(c) for c in candidates(rhs)]
        assert got == [
            "foldl(\\x y. F(x, y), F(Y, X), L)",
            "\\x y. F(x, y)",
            "\\x y. x",
            "\\x y. y",
            "F(Y, X)",
            "Y",
            "X",
            "L",
        ]

    def test_candidates_rebind_stripped_binders(self):
        # a subterm under \x y keeps the whole binder prefix
        h = load(FIXDIR / "sqsum.hrs")
        rhs = next(r for r in h.rules if r.name == "sqsum-def").rhs
        got = {str(c) for c in candidates(rhs)}
        assert "\\x y. add(x, mul(y, y))" in got
        assert "\\x y. mul(y, y)" in got
        assert "\\x y. x" in got

    @settings(max_examples=200)
    @given(S.systems())
    def test_candidate_free_variables_come_from_the_term(self, h):
        for rule in h.rules:
            rhs_frees = free_names(rule.rhs)
            for c in candidates(rule.rhs):
                assert free_names(c) <= rhs_frees


class TestExtractSdps:
    def test_sqsum_has_exactly_seven_pairs(self):
        pairs = extract_sdps(load(FIXDIR / "sqsum.hrs"))
        assert [str(p) for p in pairs] == [
            "add#(s(X), Y) -> add#(X, Y)",
            "mul#(s(X), Y) -> add#(mul(X, Y), Y)",
            "mul#(s(X), Y) -> mul#(X, Y)",
            "foldl#(\\x y. F(x, y), Y, cons(X, L)) -> "
            "foldl#(\\x y. F(x, y), F(Y, X), L)",
            "sqsum#(L) -> foldl#(\\x y. add(x, mul(y, y)), 0, L)",
            "sqsum#(L) -> add#(x, mul(y, y))",
            "sqsum#(L) -> mul#(y, y)",
        ]

    def test_origin_rules(self):
        pairs = extract_sdps(load(FIXDIR / "sqsum.hrs"))
        assert [p.origin_rule for p in pairs] == [
            "add-s", "mul-s", "mul-s", "foldl-cons",
            "sqsum-def", "sqsum-def", "sqsum-def"]

    def test_stripped_binders_become_extra_variables(self):
        pairs = extract_sdps(load(FIXDIR / "sqsum.hrs"))
        assert [p.extra_vars for p in pairs] == [
            (), (), (), (), (), ("x", "y"), ("y",)]

    def test_marked_heads_keep_their_types(self):
        h = load(FIXDIR / "sqsum.hrs")
        for p in extract_sdps(h):
            lhs_head = p.lhs.head
            assert lhs_head.name.endswith("#")
            assert lhs_head.ty == h.signature[unmark_name(lhs_head.name)]

    def test_constructor_heads_yield_no_pairs(self):
        pairs = extract_sdps(load(FIXDIR / "foldl.hrs"))
        # nil rule rhs is a plain variable, cons rule calls only foldl
        assert [str(p.rhs).split("(")[0] for p in pairs] == ["foldl#"]

    def test_safe_calls_are_skipped(self):
        # F(Y, X) heads a variable that is safe, so no pair for it; the
        # whole recursive call is the only unsafe defined candidate
        pairs = extract_sdps(load(FIXDIR / "foldl.hrs"))
        assert len(pairs) == 1
        assert pairs[0].origin_rule == "foldl-cons"

    def test_duplicate_calls_collapse_to_one_pair(self):
        src = ("basic a\n"
               "sig f : a -> a\n"
               "sig g : a -> a -> a\n"
               "sig c : a\n"
               "var X : a\n"
               "rule f-def: f(X) -> g(f(X), f(X))\n")
        pairs = extract_sdps(parse(src))
        assert [str(p) for p in pairs] == ["f#(X) -> f#(X)"]

    def test_calls_differing_in_extra_names_collapse_to_one_pair(self):
        src = ("basic a\n"
               "sig f : a -> a\n"
               "sig g : (a -> a) -> (a -> a) -> a\n"
               "sig h : a -> a\n"
               "sig c : a\n"
               "var X : a\n"
               "rule f-def: f(X) -> g(\\x. h(x), \\y. h(y))\n"
               "rule h-def: h(c) -> c\n")
        pairs = extract_sdps(parse(src))
        assert [(str(p), p.extra_vars) for p in pairs] == [
            ("f#(X) -> h#(x)", ("x",))]

    def test_empty_system_has_no_pairs(self):
        assert extract_sdps(load(FIXDIR / "empty.hrs")) == ()


def brute_force_first_order_pairs(h: Hrs):
    """Enumerate first-order dependency pairs directly: every defined-symbol
    subterm of a right-hand side, found by walking positions."""
    out = []
    for rule in h.rules:
        seen = set()
        for p in sorted(positions(rule.rhs), key=lambda q: (len(q), q)):
            sub = subterm_at(rule.rhs, p)
            head = strip_binders(sub)[1].head
            if isinstance(head, Const) and head.name in h.defined:
                key = (str(mark(rule.lhs)), str(mark(sub)))
                if key not in seen:
                    seen.add(key)
                    out.append(key)
    return out


class TestFirstOrderAgreement:
    def test_matches_brute_force_enumeration(self):
        # for systems without binders the static pairs are exactly the
        # classic dependency pairs
        for name in ("arith", "ackermann", "listfns"):
            h = load(FIXDIR / f"{name}.hrs")
            got = [(str(p.lhs), str(p.rhs)) for p in extract_sdps(h)]
            assert got == brute_force_first_order_pairs(h), name

    def test_ackermann_pair_count(self):
        # base rule gives nothing, the two recursive rules give one and two
        assert len(extract_sdps(load(FIXDIR / "ackermann.hrs"))) == 3
