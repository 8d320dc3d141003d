from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import strategies as S
from strategies import lam
from hoterm.hrs import parse, print_hrs
from hoterm.normalize import (PApp, PAtom, PLam, apply_subst, eta_expand,
                              normalize, papp, preterm_type)
from hoterm.terms import (App, Base, Bound, Const, Free, TermTypeError, arrow,
                          print_term)
from nbe_oracle import hints, nbe_normalize, reference_rules

FIXTURES = Path(__file__).parent.parent / "fixtures"

NAT = Base("nat")
SUC = arrow(NAT, NAT)
BIN = arrow(NAT, NAT, NAT)


def num(n: int):
    t = App(Const("0", NAT), ())
    for _ in range(n):
        t = App(Const("s", SUC), (t,))
    return t


class TestNormalize:
    def test_beta_reduction(self):
        # (\x. s(x)) 0  ~>  s(0)
        redex = PApp(PLam("x", NAT, PApp(PAtom(Const("s", SUC)),
                                         PAtom(Bound(0, NAT)))),
                     PAtom(Const("0", NAT)))
        assert normalize(redex) == num(1)

    def test_under_applied_head_is_expanded(self):
        assert normalize(PAtom(Const("s", SUC))) == \
            lam("x", NAT, App(Const("s", SUC), (App(Free("x", NAT), ()),)))

    def test_nested_redexes(self):
        # (\f. f 0) (\x. s(x))  ~>  s(0)
        inner = PLam("x", NAT, PApp(PAtom(Const("s", SUC)),
                                    PAtom(Bound(0, NAT))))
        outer = PLam("f", SUC, PApp(PAtom(Bound(0, SUC)),
                                    PAtom(Const("0", NAT))))
        assert normalize(PApp(outer, inner)) == num(1)

    def test_normal_terms_pass_through(self):
        t = num(3)
        assert normalize(t) == t

    def test_preterm_type_inference(self):
        p = papp(PAtom(Const("add", BIN)), num(1))
        assert preterm_type(p) == SUC

    def test_preterm_type_mismatch(self):
        with pytest.raises(TermTypeError):
            preterm_type(papp(PAtom(Const("s", SUC)),
                              PAtom(Const("nil", Base("natlist")))))


class TestApplySubst:
    def test_higher_order_substitution_renormalizes(self):
        add = Const("add", BIN)
        f = Free("F", BIN)
        subject = App(f, (num(0), num(1)))
        theta = {"F": eta_expand(add)}
        assert apply_subst(subject, theta) == App(add, (num(0), num(1)))

    def test_substitution_under_binder_avoids_capture(self):
        # (\x. F(x))  with F := \y. add(y, X)   keeps X free
        f = Free("F", SUC)
        subject = lam("x", NAT, App(f, (App(Free("x", NAT), ()),)))
        x_var = App(Free("X", NAT), ())
        step = lam("y", NAT, App(Const("add", BIN),
                                 (App(Free("y", NAT), ()), x_var)))
        expected = lam("x", NAT, App(Const("add", BIN),
                                     (App(Free("x", NAT), ()), x_var)))
        assert apply_subst(subject, {"F": step}) == expected

    def test_irrelevant_bindings_ignored(self):
        t = num(2)
        assert apply_subst(t, {"Z": num(0)}) is t

    def test_type_mismatch_rejected(self):
        subject = App(Free("X", NAT), ())
        with pytest.raises(TermTypeError):
            apply_subst(subject, {"X": App(Const("nil", Base("natlist")),
                                           ())})


@settings(max_examples=200)
@given(S.preterms({"c0": Base("a"), "c1": Base("b"),
                   "g": arrow(Base("a"), Base("b"), Base("a")),
                   "h": arrow(arrow(Base("a"), Base("a")), Base("a"))},
                  {"W": arrow(Base("a"), Base("a")), "U": Base("b")},
                  Base("a"), fuel=4))
def test_normalization_is_idempotent(p):
    once = normalize(p)
    assert normalize(once) == once
    assert once.ty == Base("a")


# ---------------------------------------------------------------------------
# hereditary substitution against the evaluation oracle

A, B = Base("a"), Base("b")
A2A = arrow(A, A)
PRETERM_SIG = {"c0": A, "c1": B, "g": arrow(A, B, A), "h": arrow(A2A, A)}
PRETERM_FREES = {"W": A2A, "U": B}


def assert_same_build(got, want):
    """Equal terms with the same binder hints, so they print the same."""
    assert got == want
    assert hints(got) == hints(want)
    assert print_term(got) == print_term(want)


@settings(max_examples=300)
@given(st.sampled_from([A, B, A2A, arrow(A2A, A)]).flatmap(
    lambda ty: S.preterms(PRETERM_SIG, PRETERM_FREES, ty, fuel=4)))
def test_normalize_agrees_with_evaluation(p):
    assert_same_build(normalize(p), nbe_normalize(p))


K = Const("k", A2A)
PAIR = Const("pair", arrow(A, A, A))
TWICE = Const("twice", arrow(A2A, A, A))
C0 = PAtom(Const("c0", A))


@pytest.mark.parametrize("p", [
    # a higher-order head alone: binders hinted by their depth
    PAtom(Free("F", arrow(A2A, A, A))),
    # an under-applied argument of a higher-order head
    papp(PAtom(Const("h", arrow(A2A, A))), PAtom(K)),
    # the same under a binder, one level deeper
    PLam("z", A, papp(PAtom(TWICE), papp(PAtom(PAIR), PAtom(Bound(0, A))))),
    # a redex whose argument is a head that the body leaves unapplied,
    # one binder below the redex
    PApp(PLam("f", A2A, PLam("z", A, papp(PAtom(TWICE),
                                            PAtom(Bound(1, A2A)),
                                            PAtom(Bound(0, A))))),
         PAtom(K)),
    # a redex whose argument the body applies: pair gets one argument
    PApp(PLam("f", arrow(A, A, A), papp(PAtom(TWICE),
                                        papp(PAtom(Bound(0, arrow(A, A, A))),
                                             C0))),
         PAtom(PAIR)),
    # an abstraction passed to a variable that passes it on
    PApp(PLam("f", A2A, papp(PAtom(Const("h", arrow(A2A, A))),
                             PAtom(Bound(0, A2A)))),
         PLam("q", A, papp(PAtom(K), PAtom(Bound(0, A))))),
    # a redex left partly applied: the rest keeps its binder hint
    PApp(PLam("f", A, PLam("r", A, papp(PAtom(PAIR), PAtom(Bound(1, A)),
                                         PAtom(Bound(0, A))))), C0),
])
def test_hand_picked_preterms_agree_with_evaluation(p):
    assert_same_build(normalize(p), nbe_normalize(p))


def assert_parse_agrees_with_evaluation(text):
    """``parse`` equals the reference elaborator: preterms, evaluation and
    read-back, then ``uniquify_hints``."""
    got = parse(text).rules
    want = reference_rules(text)
    assert len(got) == len(want)
    for r, (lhs, rhs) in zip(got, want):
        assert_same_build(r.lhs, lhs)
        assert_same_build(r.rhs, rhs)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.hrs")),
                         ids=lambda p: p.stem)
def test_parse_of_fixture_agrees_with_evaluation(path):
    assert_parse_agrees_with_evaluation(path.read_text())


@settings(max_examples=100)
@given(S.systems())
def test_parse_of_generated_system_agrees_with_evaluation(h):
    assert_parse_agrees_with_evaluation(print_hrs(h))


@settings(max_examples=100)
@given(S.systems().flatmap(S.contracted_texts))
def test_parse_of_eta_short_system_agrees_with_evaluation(text):
    assert_parse_agrees_with_evaluation(text)


SHORT = ("basic a\nsig c : a\nsig pair : a -> a -> a\n"
         "sig twice : (a -> a) -> a -> a\nsig h : (a -> a) -> a\n"
         "sig k : ((a -> a) -> a -> a) -> a\nvar F : (a -> a) -> a -> a\n")


@pytest.mark.parametrize("rule", [
    # a partly applied head, at the root and under a binder
    "rule r: h(pair(c)) -> twice(pair(c), c)",
    "rule r: h(\\z. twice(pair(z), z)) -> h(\\z. twice(pair(z), c))",
    # its argument holds binders, whose hints come after the eta binder's
    "rule r: h(twice(\\w. pair(w, c))) -> c",
    # bare variables, bound and free, of higher type
    "rule r: k(F) -> k(\\g. F(g))",
    "rule r: k(\\g. twice(g)) -> k(\\g. twice(\\z. g(z)))",
    # a surface hint taken before an eta binder's
    "rule r: k(\\y. twice(y)) -> k(\\g y'. g(y'))",
    # under-applied heads nested in each other's arguments
    "rule r: h(twice(twice(twice(pair(c))))) -> c",
])
@pytest.mark.parametrize("declared", ["", "sig x : a\nsig x' : a\n"])
def test_parse_of_eta_short_rule_agrees_with_evaluation(declared, rule):
    """Each eta binder is hinted by its depth, x first, and every hint
    avoids the names declared above its rule."""
    assert_parse_agrees_with_evaluation(SHORT + declared + rule + "\n")
