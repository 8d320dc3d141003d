import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import pfp_oracle
import strategies as S
from conftest import bare_env
from strategies import (lam, positions, strip_binders, subterm_at,
                        wrapped_bodies)
from hoterm import terms
from hoterm.criteria import AnalysisConfig
from hoterm.hrs import Hrs, Rule, load, parse
from hoterm.proof import ProverConfig, emit_json, prove_text
from hoterm.sdp import extract_sdps, print_side
from hoterm.terms import (Abs, App, Base, Bound, Const, Free, arrow,
                          bodies, free_names, print_term)

ROOT = Path(__file__).parent.parent
FIXDIR = ROOT / "fixtures"
FIXTURES = sorted(FIXDIR.glob("*.hrs"))
binder_depth_system = runpy.run_path(
    str(ROOT / "scripts" / "sdp_cost.py"))["binder_depth_system"]


class TestPrintSide:
    """A pair side is printed with one mark, right after its root symbol."""

    NAT = Base("nat")

    def test_mark_follows_the_root_symbol_only(self):
        add = Const("add", arrow(self.NAT, self.NAT, self.NAT))
        zero, y = App(Const("0", self.NAT), ()), App(Free("Y", self.NAT), ())
        t = App(add, (App(add, (zero, y)), y))
        assert print_side(t) == "add#(add(0, Y), Y)"
        assert print_side(zero) == "0#"

    def test_no_mark_under_a_binder_or_on_an_extra_variable(self):
        A = self.NAT
        f = Const("f", arrow(arrow(A, A), A, A))
        x = App(Free("x", A), ())
        t = App(f, (lam("y", A, App(f, (lam("z", A, x), x))), x))
        assert print_side(t) == "f#(\\y. f(\\z. x, x), x)"
        pair = extract_sdps(load(FIXDIR / "sqsum.hrs"))[5]
        assert pair.extra_vars == ("x", "y")
        assert str(pair) == "sqsum#(L) -> add#(x, mul(y, y))"

    @settings(max_examples=200)
    @given(S.systems())
    def test_one_mark_per_side(self, h):
        # names never hold the mark, so each side shows exactly one
        for p in extract_sdps(h):
            for side in (p.lhs, p.rhs):
                text = print_side(side)
                assert text.count("#") == 1
                assert text.startswith(side.head.name + "#")


def assert_prints_as_marked_copies(proof):
    """``str(pair)`` and the JSON pair entries are the prints of the
    oracle's marked copies of the oracle's pairs."""
    want = [(print_term(pfp_oracle.mark(p.lhs)),
             print_term(pfp_oracle.mark(p.rhs)))
            for p in pfp_oracle.extract_sdps(proof.hrs)]
    assert [tuple(str(p).split(" -> ")) for p in proof.sdps] == want
    entries = json.loads(emit_json(proof))["sdps"]
    assert [(e["lhs"], e["rhs"]) for e in entries] == want


class TestPrintingOracle:
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_fixture(self, path):
        assert_prints_as_marked_copies(prove_text(path.read_text()))

    @settings(max_examples=100, deadline=None)
    @given(S.systems())
    def test_generated_system(self, h):
        config = ProverConfig(AnalysisConfig(techniques=("subterm",)))
        assert_prints_as_marked_copies(prove_text(S.print_hrs(h), config))


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
            assert print_side(p.lhs).startswith(lhs_head.name + "#(")
            assert lhs_head.ty == h.signature[lhs_head.name]

    def test_constructor_heads_yield_no_pairs(self):
        pairs = extract_sdps(load(FIXDIR / "foldl.hrs"))
        # nil rule rhs is a plain variable, cons rule calls only foldl
        assert [print_side(p.rhs).split("(")[0] for p in pairs] == ["foldl#"]

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


class TestSharedTerms:
    """A pair keeps its rule's terms: extraction builds a node only where it
    opens a body under a binder it reaches."""

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_only_opened_bodies_are_built(self, path, monkeypatch):
        h = load(path)
        h.safe_sets     # the function-passing check builds them
        built = []
        enter = terms._enter
        monkeypatch.setattr(terms, "_enter",
                            lambda key, node: built.append(node)
                            or enter(key, node))
        pairs = extract_sdps(h)
        monkeypatch.undo()
        lhs_names = frozenset().union(*(free_names(r.lhs) for r in h.rules))
        # each node built holds a variable opened from a binder, or the
        # name the deduplication key gives that variable
        assert all(free_names(u) - lhs_names for u in built)
        if not any(p.extra_vars for p in pairs):
            assert built == []

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_a_pair_shares_its_rules_terms(self, path):
        h = load(path)
        rules = {r.name: r for r in h.rules}
        for p in extract_sdps(h):
            rule = rules[p.origin_rule]
            assert p.lhs is rule.lhs
            if not p.extra_vars:
                assert any(p.rhs is u for _, u in bodies(rule.rhs))

    def test_no_marked_symbol_is_built(self):
        # in a process of its own, as the atom table keeps every atom that
        # any test builds
        code = ("import sys\n"
                "from hoterm import prove\n"
                "from hoterm.terms import _INTERNED\n"
                "for path in sys.argv[1:]:\n"
                "    prove(path)\n"
                "print(sorted(a.name for a in _INTERNED.values()\n"
                "             if getattr(a, 'name', '').endswith('#')))\n")
        done = subprocess.run(
            [sys.executable, "-c", code, *map(str, FIXTURES)],
            capture_output=True, text=True, check=True,
            env=bare_env(PYTHONPATH=str(ROOT / "src")))
        assert done.stdout == "[]\n"


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
                key = (print_term(pfp_oracle.mark(rule.lhs)),
                       print_term(pfp_oracle.mark(sub)))
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
            got = [(print_side(p.lhs), print_side(p.rhs))
                   for p in extract_sdps(h)]
            assert got == brute_force_first_order_pairs(h), name

    def test_ackermann_pair_count(self):
        # base rule gives nothing, the two recursive rules give one and two
        assert len(extract_sdps(load(FIXDIR / "ackermann.hrs"))) == 3
