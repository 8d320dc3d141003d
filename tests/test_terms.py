import copy
import gc
import pickle
import subprocess
import sys
import weakref
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import hoterm
import strategies as S
from conftest import bare_env
from strategies import lam, positions, strip_binders
from hoterm.normalize import eta_expand
from hoterm.terms import (Abs, App, Arrow, Base, Bound, Const, Free,
                          PositionError, TermTypeError, arrow, bodies,
                          format_position, free_names, open_under,
                          print_term, subterm_at, subterms, under_binders)
from walk_oracle import replace_at

NAT = Base("nat")
LIST = Base("natlist")
BIN = arrow(NAT, NAT, NAT)


def num(n: int):
    t = App(Const("0", NAT), ())
    s = Const("s", arrow(NAT, NAT))
    for _ in range(n):
        t = App(s, (t,))
    return t


COPIES = pytest.mark.parametrize("copy_of", [
    copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])

# an atom of each kind, and terms with each kind of head and a binder
ATOMS_AND_TERMS = (
    Const("add", BIN), Free("F", BIN), Bound(2, LIST), num(2),
    App(Const("add", BIN), (num(1), App(Free("X", NAT), ()))),
    Abs("x", NAT, App(Const("s", arrow(NAT, NAT)), (App(Bound(0, NAT)),))),
    Abs("f", BIN, Abs("y", NAT, App(Bound(1, BIN), (num(0),
                                                   App(Bound(0, NAT)))))))


class TestTypes:
    def test_arrow_right_associative(self):
        assert arrow(NAT, NAT, NAT) == Arrow(NAT, Arrow(NAT, NAT))

    def test_printing_parenthesizes_domains_only(self):
        assert str(BIN) == "nat -> nat -> nat"
        assert str(Arrow(Arrow(NAT, NAT), NAT)) == "(nat -> nat) -> nat"


class TestInterning:
    def test_equal_parts_give_the_same_type(self):
        assert Base("nat") is NAT
        assert Arrow(NAT, LIST) is Arrow(Base("nat"), Base("natlist"))
        assert arrow(NAT, NAT, NAT) is BIN
        assert Arrow(NAT, LIST) is not Arrow(LIST, NAT)

    @COPIES
    def test_copies_are_the_interned_type(self, copy_of):
        for ty in (NAT, BIN, Arrow(BIN, LIST)):
            assert copy_of(ty) is ty

    @COPIES
    def test_copies_are_the_interned_atom_or_term(self, copy_of):
        for t in ATOMS_AND_TERMS:
            assert copy_of(t) is t

    def test_hash_comes_from_the_parts(self):
        assert hash(NAT) == hash(("nat",))
        assert hash(Arrow(NAT, LIST)) == hash((NAT, LIST))

    def test_repr_is_unchanged(self):
        # TermTypeError messages embed it
        assert repr(Arrow(NAT, LIST)) == \
            "Arrow(dom=Base(name='nat'), cod=Base(name='natlist'))"

    def test_types_are_frozen(self):
        with pytest.raises(FrozenInstanceError):
            NAT.name = "int"
        with pytest.raises(FrozenInstanceError):
            del BIN.dom

    @pytest.mark.parametrize("t, field", [
        (ATOMS_AND_TERMS[0], "name"), (ATOMS_AND_TERMS[1], "name"),
        (ATOMS_AND_TERMS[2], "index"), (ATOMS_AND_TERMS[4], "head"),
        (ATOMS_AND_TERMS[4], "args"), (ATOMS_AND_TERMS[5], "hint"),
        (ATOMS_AND_TERMS[5], "param_type"), (ATOMS_AND_TERMS[5], "body")])
    def test_atoms_and_terms_are_frozen(self, t, field):
        before = getattr(t, field)
        for name in (field, "ty"):
            with pytest.raises(FrozenInstanceError):
                setattr(t, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(t, name)
        assert getattr(t, field) is before

    def test_atoms_hash_and_compare_by_value(self):
        f, g = Const("f", BIN), Const("f", arrow(NAT, NAT, NAT))
        assert f is g and hash(f) == hash(("f", BIN))
        assert Free("f", BIN) != f
        assert hash(Bound(1, NAT)) == hash((1, NAT))

    def test_atoms_pickled_under_another_hash_seed_are_found(self):
        made = subprocess.run(
            [sys.executable, "-c",
             "import pickle, sys\n"
             "from hoterm.terms import Base, Arrow, Bound, Const, Free\n"
             "nat = Base('nat')\n"
             "atoms = (Const('f', Arrow(nat, nat)), Free('X', nat), "
             "Bound(1, nat))\n"
             "sys.stdout.buffer.write(pickle.dumps(atoms))"],
            capture_output=True, check=True,
            env=bare_env(PYTHONHASHSEED="1",
                         PYTHONPATH=str(Path(hoterm.__file__).parents[1])))
        here = (Const("f", Arrow(NAT, NAT)), Free("X", NAT), Bound(1, NAT))
        for loaded, atom in zip(pickle.loads(made.stdout), here):
            assert loaded == atom and hash(loaded) == hash(atom)
            assert loaded in {atom}

    def test_terms_pickled_under_another_hash_seed_are_found(self):
        # each side builds g(\\x. f(x)) under its own hash seed
        build = ("from hoterm.terms import Abs, App, Arrow, Base, Bound, "
                 "Const\n"
                 "nat = Base('nat')\n"
                 "f = Const('f', Arrow(nat, nat))\n"
                 "g = Const('g', Arrow(Arrow(nat, nat), nat))\n"
                 "t = App(g, (Abs('x', nat, App(f, (App(Bound(0, nat)),)))"
                 ",))\n")

        def run(seed, code, stdin=b""):
            return subprocess.run(
                [sys.executable, "-c", "import pickle, sys\n" + build + code],
                input=stdin, capture_output=True, check=True,
                env=bare_env(PYTHONHASHSEED=seed, PYTHONPATH=str(
                    Path(hoterm.__file__).parents[1]))
            ).stdout

        made = run("1", "sys.stdout.buffer.write(pickle.dumps(t))")
        found = run("2", "u = pickle.loads(sys.stdin.buffer.read())\n"
                         "print(u == t, u in {t}, u.args[0] in {t.args[0]}, "
                         "hash(u) == hash(t))",
                    stdin=made)
        assert found.split() == [b"True"] * 4

    def test_ill_typed_argument_is_still_rejected(self):
        s = Const("s", arrow(NAT, NAT))
        nil = App(Const("nil", LIST), ())
        with pytest.raises(TermTypeError) as info:
            App(s, (nil,))
        assert str(info.value) == (
            "argument 1 of s has the wrong type in nil (expected nat, got "
            "natlist)")


class TestHashConsing:
    def test_equal_terms_built_apart_are_one_object(self):
        def build():
            return Abs("f", BIN, App(Const("add", BIN), (
                App(Bound(0, BIN), (num(1), App(Free("X", NAT)))), num(2))))
        assert build() is build()
        assert build().body.args[0].args[0] is num(1)

    def test_hint_different_alpha_equal_terms_are_distinct_but_equal(self):
        body = App(Const("s", arrow(NAT, NAT)), (App(Bound(0, NAT)),))
        g = Const("g", arrow(arrow(NAT, NAT), NAT))
        for one, two in ((Abs("x", NAT, body), Abs("y", NAT, body)),
                         (App(g, (Abs("x", NAT, body),)),
                          App(g, (Abs("y", NAT, body),)))):
            assert one is not two
            assert one == two and hash(one) == hash(two)
        # an abstraction never equals an application, and a term compared
        # with anything else leaves the answer to the other side
        lone, wrapped = Abs("x", NAT, body), App(g, (Abs("x", NAT, body),))
        assert lone != wrapped and wrapped != lone and body != lone
        for t in (lone, wrapped, body):
            assert t.__eq__("x") is NotImplemented
            assert t.__eq__(g) is NotImplemented

    def test_deep_alpha_variants_compare_without_recursion(self):
        g = Const("g", arrow(arrow(NAT, NAT), NAT))

        def nesting(hint):
            t = App(Free("X", NAT))
            for i in reversed(range(5000)):
                t = App(g, (Abs(f"{hint}{i}", NAT, t),))
            return t

        one, two = nesting("y"), nesting("z")
        assert one is not two
        assert one == two and two == one and hash(one) == hash(two)
        assert {one: 1}[two] == 1 and {two: 2}[one] == 2

    def test_dropped_nodes_die_without_the_collector(self):
        # a node must not hold itself (as its own skeleton, say): reference
        # counting alone frees what nothing else holds
        s = Const("dropped", arrow(NAT, NAT))     # in no other live node
        enabled = gc.isenabled()
        gc.disable()
        try:
            first_order = App(s, (App(Free("dropped", NAT)),))
            binder = Abs("dropped", NAT, App(s, (App(Bound(0, NAT)),)))
            refs = [weakref.ref(first_order), weakref.ref(binder),
                    weakref.ref(binder._skel)]
            del first_order, binder
            assert [r() for r in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()

    def test_the_node_table_keeps_under_twice_its_live_entries(self):
        # a fresh process, so that no node alive before the loop dies in it
        code = ("from hoterm.terms import App, Base, Const, arrow, _NODES\n"
                "nat = Base('nat')\n"
                "z, s = Const('z', nat), Const('s', arrow(nat, nat))\n"
                "pair = Const('pair', arrow(nat, nat, nat))\n"
                "parts = [App(z)]\n"
                "for _ in range(99):\n"
                "    parts.append(App(s, (parts[-1],)))\n"
                "for a in parts:\n"
                "    for b in parts:\n"
                "        App(pair, (a, b))\n"
                "kept = App(pair, (parts[0], App(s, (parts[-1],))))\n"
                "live = sum(r() is not None for r in _NODES.values())\n"
                "print(len(_NODES), live)\n")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, check=True,
            env=bare_env(PYTHONPATH=str(Path(hoterm.__file__).parents[1])))
        entries, live = map(int, out.stdout.split())
        assert live == 102 and entries < 2 * live

    def test_reused_ids_never_give_a_wrong_node(self):
        z, s = Const("z", NAT), Const("s", arrow(NAT, NAT))
        g = Const("g", arrow(NAT, arrow(NAT, NAT), NAT))
        ids = set()
        rounds = 2000
        for i in range(rounds):
            # everything a round builds dies at its end, so the next
            # rounds get its memory, and its ids, back
            chain = App(z)
            for _ in range(i % 5):
                chain = App(s, (chain,))
            fun = Abs(f"x{i % 3}", NAT, App(s, (App(Bound(0, NAT)),)))
            t = App(g, (chain, fun))
            assert t.head is g and t.args[0] is chain and t.args[1] is fun
            assert print_term(t) == (
                "g(" + "s(" * (i % 5) + "z" + ")" * (i % 5)
                + f", \\x{i % 3}. s(x{i % 3}))")
            ids.add(id(chain))
            del chain, fun, t
        assert len(ids) < rounds


class TestConstruction:
    def test_app_requires_saturation(self):
        add = Const("add", BIN)
        with pytest.raises(TermTypeError) as info:
            App(add, (num(0),))
        assert str(info.value) == (
            "under-applied head add: application nodes must have a basic "
            "type in 'add' (expected None, got nat -> nat)")
        with pytest.raises(TermTypeError) as info:
            App(Bound(0, BIN), (num(0),))
        assert str(info.value) == (
            "under-applied head <bound 0>: application nodes must have a "
            "basic type in '<bound 0>' (expected None, got nat -> nat)")

    def test_app_rejects_too_many_arguments(self):
        with pytest.raises(TermTypeError) as info:
            App(Const("0", NAT), (num(0),))
        assert str(info.value) == (
            "head 0 applied to too many arguments in '0' (expected None, "
            "got nat)")
        with pytest.raises(TermTypeError) as info:
            App(Free("F", arrow(NAT, NAT)), (num(0), num(1)))
        assert str(info.value) == (
            "head F applied to too many arguments in 'F' (expected None, "
            "got nat -> nat)")

    def test_wrong_argument_with_a_loose_index_is_named(self):
        # the subject is printed with the loose index as its atom name
        with pytest.raises(TermTypeError) as info:
            App(Const("f", arrow(NAT, NAT)), (App(Bound(0, LIST)),))
        assert str(info.value) == (
            "argument 1 of f has the wrong type in <bound 0> (expected nat, "
            "got natlist)")

    def test_app_checks_argument_types(self):
        cons = Const("cons", arrow(NAT, LIST, LIST))
        with pytest.raises(TermTypeError):
            App(cons, (num(0), num(1)))

    def test_wrong_second_argument_is_named_by_its_place(self):
        nil = App(Const("nil", LIST), ())
        with pytest.raises(TermTypeError) as info:
            App(Const("add", BIN), (num(0), nil))
        assert str(info.value) == (
            "argument 2 of add has the wrong type in nil (expected nat, got "
            "natlist)")
        # the same first argument is not taken for the wrong one
        with pytest.raises(TermTypeError) as info:
            App(Const("f", arrow(NAT, LIST, NAT)), (num(0), num(0)))
        assert str(info.value).startswith("argument 2 of f has the wrong")

    def test_arguments_given_as_a_list_build_the_same_node(self):
        add = Const("add", BIN)
        listed = App(add, [num(1), num(0)])
        assert listed == App(add, (num(1), num(0)))
        assert type(listed.args) is tuple
        assert hash(listed) == hash(App(add, (num(1), num(0))))

    def test_eta_expansion_of_bare_head(self):
        f = Free("F", BIN)
        expanded = eta_expand(f)
        assert isinstance(expanded, Abs)
        assert expanded == lam("a", NAT, lam("b", NAT,
                               App(f, (App(Free("a", NAT), ()),
                                       App(Free("b", NAT), ())))))

    def test_alpha_equality_ignores_hints(self):
        f = Free("F", BIN)
        one = lam("x", NAT, lam("y", NAT,
                  App(f, (App(Free("x", NAT), ()), App(Free("y", NAT), ())))))
        two = lam("u", NAT, lam("v", NAT,
                  App(f, (App(Free("u", NAT), ()), App(Free("v", NAT), ())))))
        assert one == two
        assert hash(one) == hash(two)

    def test_bound_variables_distinguished_by_index(self):
        k1 = lam("x", NAT, lam("y", NAT, App(Bound(1, NAT), ())))
        k2 = lam("x", NAT, lam("y", NAT, App(Bound(0, NAT), ())))
        assert k1 != k2


class TestViews:
    def test_strip_binders_reaches_the_head(self):
        f = Free("F", BIN)
        binders, body = strip_binders(eta_expand(f))
        assert body.head == f
        assert [ty for _, ty in binders] == [NAT, NAT]
        assert body.args == tuple(App(Free(n, ty), ()) for n, ty in binders)
        assert len({n for n, _ in binders} | {"F"}) == 3

    def test_under_binders_leaves_indices_in_place(self):
        add = App(Const("add", BIN), (App(Bound(1, NAT), ()),
                                      App(Bound(0, NAT), ())))
        assert under_binders(Abs("x", NAT, Abs("y", NAT, add))) is add
        assert under_binders(num(1)) is num(1)

    def test_bodies_walk_in_preorder_with_the_binders_above(self):
        # \x. add(x, F(\y. y)): the prefix above each application grows
        # down the walk, and each body is left nameless
        F = Free("F", arrow(arrow(NAT, NAT), NAT))
        inner = Abs("y", NAT, App(Bound(0, NAT), ()))
        add = App(Const("add", BIN), (App(Bound(0, NAT), ()),
                                      App(F, (inner,))))
        outer = Abs("x", NAT, add)
        assert list(bodies(outer)) == [
            ((outer,), add), ((outer,), add.args[0]),
            ((outer,), add.args[1]), ((outer, inner), inner.body)]

    def test_open_under_names_the_prefix_apart_from_avoid(self):
        # \x X. add(x, s(0)) under free X: the binder hinted X is primed
        add = App(Const("add", BIN), (App(Bound(1, NAT), ()), num(1)))
        above = (Abs("x", NAT, Abs("X", NAT, add)),)
        above += (above[0].body,)
        names, opened = open_under(above, add, {"X"})
        assert names == ("x", "X'")
        assert opened == App(add.head, (App(Free("x", NAT), ()), num(1)))
        assert open_under((), above[0], ()) == ((), above[0])

    def test_positions_of_abstraction(self):
        body = App(Free("x", NAT), ())
        t = lam("x", NAT, body)
        assert positions(t) == [(), (1,)]

    def test_subterm_at_liberates_binders(self):
        t = lam("x", NAT, App(Const("s", arrow(NAT, NAT)),
                              (App(Free("x", NAT), ()),)))
        assert subterm_at(t, (1, 1)) == App(Free("x", NAT), ())

    def test_subterm_at_bad_position(self):
        with pytest.raises(PositionError):
            subterm_at(num(1), (2,))

    def test_replace_at_roundtrip(self):
        t = App(Const("add", BIN), (num(2), num(1)))
        for p in positions(t):
            assert replace_at(t, p, subterm_at(t, p)) == t

    def test_replace_at_type_checked(self):
        t = num(1)
        nil = App(Const("nil", LIST), ())
        with pytest.raises(TermTypeError):
            replace_at(t, (1,), nil)

    def test_format_position(self):
        assert format_position(()) == "e"
        assert format_position((1, 2)) == "1.2"


class TestPrinting:
    def test_atoms_and_applications(self):
        assert print_term(num(0)) == "0"
        assert print_term(num(2)) == "s(s(0))"

    def test_binders(self):
        f = Free("F", BIN)
        assert print_term(eta_expand(f)) == "\\x y. F(x, y)"

    def test_shadowed_binder_gets_fresh_name(self):
        inner = lam("x", NAT, App(Free("x", NAT), ()))
        outer = lam("x", NAT, inner)
        assert print_term(outer) == "\\x x'. x'"


@settings(max_examples=200)
@given(S.eta_long_terms(S.FO_SIG, S.FO_VARS, S.FO_NAT, fuel=3))
def test_positions_and_subterms_agree(t):
    """The position view and the recursive subterm view name the same set."""
    via_positions = {subterm_at(t, p) for p in positions(t)}
    assert via_positions == set(subterms(t))


@settings(max_examples=200)
@given(S.eta_long_terms(
    {"k": arrow(S.FO_NAT, S.FO_NAT), "c": S.FO_NAT,
     "w": arrow(arrow(S.FO_NAT, S.FO_NAT), S.FO_NAT)},
    {"G": arrow(S.FO_NAT, S.FO_NAT)}, S.FO_NAT, fuel=3))
def test_higher_order_positions_and_subterms_agree(t):
    via_positions = {subterm_at(t, p) for p in positions(t)}
    assert via_positions == set(subterms(t))


def walked_free_names(t):
    """The free names of ``t`` by a fresh walk, without the cache."""
    if isinstance(t, Abs):
        return walked_free_names(t.body)
    out = set()
    if isinstance(t.head, Free):
        out.add(t.head.name)
    for a in t.args:
        out |= walked_free_names(a)
    return frozenset(out)


def nodes(t):
    """Every node of ``t``, binders left closed."""
    yield t
    for child in ((t.body,) if isinstance(t, Abs) else t.args):
        yield from nodes(child)


@settings(max_examples=200)
@given(S.eta_long_terms(
    {"k": arrow(S.FO_NAT, S.FO_NAT), "c": S.FO_NAT,
     "w": arrow(arrow(S.FO_NAT, S.FO_NAT), S.FO_NAT)},
    {"G": arrow(S.FO_NAT, S.FO_NAT), "X": S.FO_NAT}, S.FO_NAT, fuel=4),
    st.data())
def test_cached_free_sets_equal_a_walk(t, data):
    """Whatever node is asked first, each node's cached free names are those
    a walk finds, here and in the terms that opening binders builds."""
    everything = list(nodes(t))
    for u in subterms(t):
        everything.extend(nodes(u))
    for u in data.draw(st.permutations(everything)):
        assert free_names(u) == walked_free_names(u)


def test_free_names_share_a_child_set_and_one_empty_set():
    x = App(Free("X", NAT), ())
    s = Const("s", arrow(NAT, NAT))
    assert free_names(App(s, (x,))) is free_names(x)
    assert free_names(Abs("y", NAT, App(s, (x,)))) is free_names(x)
    assert free_names(x) == {"X"}
    assert free_names(num(2)) is free_names(App(Const("nil", LIST), ()))
    assert free_names(num(2)) == frozenset()
