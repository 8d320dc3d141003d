import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings

import strategies as S
from strategies import positions, strip_binders, wrapped_bodies
from hoterm import sdp, terms
from hoterm.hrs import Hrs, Rule, load, parse
from hoterm.proof import prove_text
from hoterm.sdp import extract_sdps, mark, unmark_name
from hoterm.terms import (Abs, App, Base, Bound, Const, Free, arrow,
                          free_names, subterm_at)

ROOT = Path(__file__).parent.parent
FIXDIR = ROOT / "fixtures"
binder_depth_system = runpy.run_path(
    str(ROOT / "scripts" / "sdp_cost.py"))["binder_depth_system"]


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

    @settings(max_examples=200)
    @given(S.systems())
    def test_marks_stand_only_at_the_root(self, h):
        # the path order's equivalence compares the arguments as they are
        for p in extract_sdps(h):
            for side in (p.lhs, p.rhs):
                assert side.head.name.endswith("#")
                below = [u for a in side.args for _, u in terms.bodies(a)]
                assert not any(isinstance(u.head, Const)
                               and u.head.name.endswith("#") for u in below)


class TestCandidates:
    """The candidates of a right side are the bodies of its binder walk,
    each wrapped in the binders above it."""

    def test_foldl_cons_rhs_candidates(self):
        h = load(FIXDIR / "foldl.hrs")
        rhs = h.rules[1].rhs
        got = [str(c) for c in wrapped_bodies(rhs)]
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
        got = {str(c) for c in wrapped_bodies(rhs)}
        assert "\\x y. add(x, mul(y, y))" in got
        assert "\\x y. mul(y, y)" in got
        assert "\\x y. x" in got

    @settings(max_examples=200)
    @given(S.systems())
    def test_candidate_free_variables_come_from_the_term(self, h):
        for rule in h.rules:
            rhs_frees = free_names(rule.rhs)
            for c in wrapped_bodies(rule.rhs):
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

    def test_extra_variables_are_named_apart_from_the_left_side(self):
        # f(X) -> g(\X. f(X)), built without the reader, which would make
        # the hint distinct from the rule variable X: the call's argument
        # is the binder's variable, an extra variable, not the left's X
        A = Base("a")
        f, g = Const("f", arrow(A, A)), Const("g", arrow(arrow(A, A), A))
        x = App(Free("X", A), ())
        rhs = App(g, (Abs("X", A, App(f, (App(Bound(0, A), ()),))),))
        h = Hrs(("a",), {"f": f.ty, "g": g.ty}, {"X": A},
                (Rule("f-def", App(f, (x,)), rhs),))
        assert [(str(p), p.extra_vars) for p in extract_sdps(h)] == [
            ("f#(X) -> f#(X')", ("X'",))]

    def test_empty_system_has_no_pairs(self):
        assert extract_sdps(load(FIXDIR / "empty.hrs")) == ()

    def test_a_rule_without_pairs_marks_nothing(self, monkeypatch):
        # foo's right side calls only a variable and a constructor, so no
        # pair is built and its left side is never marked
        marked = []
        monkeypatch.setattr(sdp, "mark",
                            lambda t: marked.append(t) or mark(t))
        assert extract_sdps(load(FIXDIR / "foo.hrs")) == ()
        assert marked == []

    @pytest.mark.parametrize("name, marks", [
        ("sqsum", 11), ("ackermann", 5), ("arith", 5)])
    def test_a_left_side_is_marked_once(self, name, marks, monkeypatch):
        # one mark per pair's body, and one per rule that yields a pair, at
        # its first: sqsum's 7 pairs come from 4 rules
        marked = []
        monkeypatch.setattr(sdp, "mark",
                            lambda t: marked.append(t) or mark(t))
        h = load(FIXDIR / f"{name}.hrs")
        pairs = extract_sdps(h)
        assert len(marked) == marks
        lhss = [t for t in marked if any(t is r.lhs for r in h.rules)]
        assert len(lhss) == len({p.origin_rule for p in pairs})
        assert len(marked) == len(pairs) + len(lhss)


class TestBinderDepth:
    """g_i(s(X), Y) -> k(\\x1 ... xd. g_j(X, h(x1, ..., xd))): each pair's
    body is opened once, so extraction builds no abstraction, where
    wrapping every argument in its binder prefix built about 6 d^2."""

    def test_extraction_cost_is_linear_in_depth(self, monkeypatch):
        built = []
        new = terms.Abs.__new__

        def counting(cls, *parts):
            built.append(parts)
            return new(cls, *parts)

        for d in (16, 32):
            h = parse(binder_depth_system(d))
            built.clear()
            monkeypatch.setattr(terms.Abs, "__new__", counting)
            pairs = extract_sdps(h)
            monkeypatch.undo()
            assert len(built) <= 2 * d
            assert len(pairs) == 4
            assert [len(p.extra_vars) for p in pairs] == [d] * 4
            assert prove_text(binder_depth_system(d)).verdict.kind \
                == "TERMINATING"


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
