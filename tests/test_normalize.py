import types
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import strategies as S
from strategies import lam, print_hrs
from hoterm.hrs import parse
from hoterm.normalize import apply_subst, eta_expand, normalize
from hoterm.terms import (Abs, App, Base, Bound, Const, Free, Term,
                          TermTypeError, arrow, print_term)
from nbe_oracle import (PApp, PAtom, PLam, hints, nbe_normalize, papp,
                        reference_rules)

FIXTURES = Path(__file__).parent.parent / "fixtures"

NAT = Base("nat")
SUC = arrow(NAT, NAT)
BIN = arrow(NAT, NAT, NAT)


def num(n: int):
    t = App(Const("0", NAT), ())
    for _ in range(n):
        t = App(Const("s", SUC), (t,))
    return t


def contract(fn: Term, arg: Term) -> Term:
    """The redex ``fn arg`` built by ``apply_subst``: G := fn in
    \\xs. G(arg, xs), whose binders take the hints of fn's inner ones, as
    evaluation reads a partly applied abstraction back."""
    binders = []
    body = fn.body
    while isinstance(body, Abs):
        binders.append(body)
        body = body.body
    n = len(binders)
    t: Term = App(Free("G", fn.ty), (arg,) + tuple(
        eta_expand(Bound(n - 1 - i, b.param_type))
        for i, b in enumerate(binders)))
    for b in reversed(binders):
        t = Abs(b.hint, b.param_type, t)
    return apply_subst(t, {"G": fn})


class TestNormalize:
    def test_beta_reduction(self):
        # (\x. s(x)) 0  ~>  s(0)
        fn = lam("x", NAT, App(Const("s", SUC), (App(Free("x", NAT), ()),)))
        assert contract(fn, num(0)) == num(1)

    def test_under_applied_head_is_expanded(self):
        assert normalize(Const("s", SUC), ()) == \
            lam("x", NAT, App(Const("s", SUC), (App(Free("x", NAT), ()),)))

    def test_nested_redexes(self):
        # (\f. f 0) (\x. s(x))  ~>  s(0)
        inner = lam("x", NAT, App(Const("s", SUC), (App(Free("x", NAT), ()),)))
        outer = Abs("f", SUC, App(Bound(0, SUC), (num(0),)))
        assert contract(outer, inner) == num(1)

    def test_fully_applied_head_is_the_application(self):
        t = num(3)
        assert normalize(t.head, t.args) == t


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
        # an applied higher-order variable, checked before its arguments
        # are passed to the replacement
        applied = App(Free("F", SUC), (App(Free("X", NAT), ()),))
        with pytest.raises(TermTypeError) as info:
            apply_subst(applied, {"F": eta_expand(Const("add", BIN)),
                                  "X": num(0)})
        assert str(info.value) == (
            "substitution for F has the wrong type in \\x y. add(x, y) "
            "(expected nat -> nat, got nat -> nat -> nat)")
        # a variable under a binder
        under = Abs("y", NAT, App(Const("s", SUC), (App(Free("X", NAT), ()),)))
        with pytest.raises(TermTypeError) as info:
            apply_subst(under, {"X": App(Const("nil", Base("natlist")), ())})
        assert str(info.value) == ("substitution for X has the wrong type "
                                   "in nil (expected nat, got natlist)")

    def test_replacement_reaching_a_binder_is_lifted(self):
        # <bound 0> is the binder above the term; under \y. it is index 1
        g = Const("g", SUC)
        loose = App(Bound(0, NAT), ())
        subject = Abs("y", NAT, App(g, (App(Free("X", NAT), ()),)))
        assert apply_subst(subject, {"X": loose}) == \
            Abs("y", NAT, App(g, (App(Bound(1, NAT), ()),)))
        assert apply_subst(App(Free("F", NAT), ()), {"F": loose}) == loose
        # F := \z. add(z, <bound 1>), whose index 1 is the same binder
        applied = Abs("y", NAT, App(Free("F", SUC), (App(Bound(0, NAT), ()),)))
        step = Abs("z", NAT, App(Const("add", BIN), (App(Bound(0, NAT), ()),
                                                     App(Bound(1, NAT), ()))))
        assert apply_subst(applied, {"F": step}) == Abs("y", NAT, App(
            Const("add", BIN), (App(Bound(0, NAT), ()),
                                App(Bound(1, NAT), ()))))


def test_the_submodule_is_not_shadowed():
    import hoterm
    import hoterm.normalize as N
    assert isinstance(N, types.ModuleType)
    assert hoterm.normalize is N
    assert N.__name__ == "hoterm.normalize"
    assert N.normalize is normalize


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


def substituted(p) -> Term:
    """A preterm of ``S.preterms`` built by ``apply_subst``, one redex at a
    time, the argument first."""
    if isinstance(p, PApp):
        return contract(p.fn, substituted(p.arg))
    return p


@settings(max_examples=300)
@given(st.sampled_from([A, B, A2A, arrow(A2A, A)]).flatmap(
    lambda ty: S.preterms(PRETERM_SIG, PRETERM_FREES, ty, fuel=4)))
def test_substituted_redexes_agree_with_evaluation(p):
    assert_same_build(substituted(p), nbe_normalize(p))


@settings(max_examples=200)
@given(st.data())
def test_applied_prefixes_agree_with_evaluation(data):
    ty = data.draw(S.simple_types(bases=(A, B)))
    head = data.draw(st.sampled_from([Const("f", ty), Free("F", ty)]))
    args = [data.draw(S.eta_long_terms(PRETERM_SIG, PRETERM_FREES, d, fuel=2))
            for d in ty.domains]
    for k in range(len(args) + 1):
        assert_same_build(normalize(head, args[:k]),
                          nbe_normalize(papp(PAtom(head), *args[:k])))


K = Const("k", A2A)
PAIR = Const("pair", arrow(A, A, A))
TWICE = Const("twice", arrow(A2A, A, A))
H = Const("h", arrow(A2A, A))
C0 = PAtom(Const("c0", A))


@pytest.mark.parametrize("head, pre_args", [
    # a higher-order head alone: binders hinted by their depth
    (Free("F", arrow(A2A, A, A)), ()),
    # an under-applied argument of a higher-order head
    (H, (PAtom(K),)),
    # a partly applied head whose argument keeps its own binder hint
    (TWICE, (PLam("q", A, papp(PAtom(K), PAtom(Bound(0, A)))),)),
])
def test_hand_picked_prefixes_agree_with_evaluation(head, pre_args):
    args = tuple(map(nbe_normalize, pre_args))
    assert_same_build(normalize(head, args),
                      nbe_normalize(papp(PAtom(head), *args)))


@pytest.mark.parametrize("fn, arg", [
    # a higher-order argument applied one binder below the redex
    (PLam("f", A2A, PLam("z", A, papp(PAtom(TWICE), PAtom(Bound(1, A2A)),
                                      PAtom(Bound(0, A))))),
     PAtom(K)),
    # a body that applies its argument partly: pair gets one argument
    (PLam("f", arrow(A, A, A), papp(PAtom(TWICE),
                                    papp(PAtom(Bound(0, arrow(A, A, A))),
                                         C0))),
     PAtom(PAIR)),
    # an abstraction passed to a variable that passes it on
    (PLam("f", A2A, papp(PAtom(H), PAtom(Bound(0, A2A)))),
     PLam("q", A, papp(PAtom(K), PAtom(Bound(0, A))))),
    # a redex left partly applied: the rest keeps its binder hint
    (PLam("f", A, PLam("r", A, papp(PAtom(PAIR), PAtom(Bound(1, A)),
                                    PAtom(Bound(0, A))))),
     C0),
])
def test_hand_picked_redexes_agree_with_evaluation(fn, arg):
    fn, arg = nbe_normalize(fn), nbe_normalize(arg)
    assert_same_build(contract(fn, arg), nbe_normalize(PApp(fn, arg)))


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
