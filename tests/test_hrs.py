import pytest
from hypothesis import given, settings

import strategies as S
from hoterm.hrs import Hrs, HrsError, Rule, load, parse, print_hrs
from hoterm.terms import Abs, App, Arrow, Base, arrow, free_names, top

NAT = Base("nat")
NATLIST = Base("natlist")


class TestParseFoldl:
    def test_declarations(self, fixtures):
        h = load(fixtures / "foldl.hrs")
        assert h.basics == ("nat", "natlist")
        assert h.signature["foldl"] == arrow(arrow(NAT, NAT, NAT), NAT,
                                             NATLIST, NAT)
        assert h.signature["cons"] == arrow(NAT, NATLIST, NATLIST)
        assert h.signature["nil"] == NATLIST
        assert h.variables["F"] == arrow(NAT, NAT, NAT)
        assert h.variables["L"] == NATLIST

    def test_defined_vs_constructors(self, fixtures):
        h = load(fixtures / "foldl.hrs")
        assert h.defined == {"foldl"}
        assert h.constructors == {"nil", "cons"}

    def test_bare_function_variable_is_eta_expanded(self, fixtures):
        # the file writes foldl(F, Y, nil); F must come out as \x y. F(x, y)
        h = load(fixtures / "foldl.hrs")
        lhs = h.rules[0].lhs
        first_arg = lhs.args[0]
        assert isinstance(first_arg, Abs)
        assert isinstance(first_arg.body, Abs)
        assert str(first_arg) == "\\x y. F(x, y)"

    def test_rule_shape(self, fixtures):
        h = load(fixtures / "foldl.hrs")
        nil_rule, cons_rule = h.rules
        assert nil_rule.name == "foldl-nil"
        assert str(nil_rule.rhs) == "Y"
        assert cons_rule.name == "foldl-cons"
        assert str(cons_rule.rhs) == "foldl(\\x y. F(x, y), F(Y, X), L)"
        assert top(cons_rule.lhs).name == "foldl"
        assert cons_rule.is_pattern


class TestPrintRoundtrip:
    def test_foldl_roundtrip(self, fixtures):
        h = load(fixtures / "foldl.hrs")
        again = parse(print_hrs(h))
        assert again.basics == h.basics
        assert again.signature == h.signature
        assert again.variables == h.variables
        assert again.rules == h.rules

    def test_printed_text_is_stable(self, fixtures):
        h = load(fixtures / "foldl.hrs")
        once = print_hrs(h)
        assert print_hrs(parse(once)) == once

    @settings(max_examples=200)
    @given(S.systems())
    def test_random_system_roundtrip(self, h):
        again = parse(print_hrs(h))
        assert again.basics == h.basics
        assert again.signature == h.signature
        assert again.variables == h.variables
        assert again.rules == h.rules


class TestLexicalForm:
    def test_comments_and_blank_lines(self):
        text = (
            "# header comment\n"
            "basic a   # trailing words\n"
            "\n"
            "sig c : a    # a constant\n"
            "var X : a\n"
            "rule id: c -> c\n"
        )
        h = parse(text)
        assert h.basics == ("a",)
        assert set(h.signature) == {"c"}
        assert [r.name for r in h.rules] == ["id"]

    def test_basics_are_space_separated(self):
        h = parse("basic nat natlist bool\n")
        assert h.basics == ("nat", "natlist", "bool")

    def test_arrow_is_right_associative(self):
        h = parse("basic a\nsig f : a -> a -> a\n")
        assert h.signature["f"] == Arrow(Base("a"), Arrow(Base("a"),
                                                          Base("a")))

    def test_parenthesised_domain(self):
        h = parse("basic a\nsig f : (a -> a) -> a\n")
        f = h.signature["f"]
        assert isinstance(f.dom, Arrow)
        assert f.cod == Base("a")


class TestValidation:
    def test_duplicate_basic(self):
        with pytest.raises(HrsError, match=r"line 1, col .*'a' declared twice"):
            parse("basic a a\n")

    def test_duplicate_signature_entry(self):
        with pytest.raises(HrsError, match=r"line 3.*'f' declared twice"):
            parse("basic a\nsig f : a -> a\nsig f : a\n")

    def test_variable_clashing_with_symbol(self):
        with pytest.raises(HrsError, match=r"'f' declared twice"):
            parse("basic a\nsig f : a\nvar f : a\n")

    def test_unknown_symbol_in_rule(self):
        src = "basic a\nsig f : a -> a\nvar X : a\nrule r: f(X) -> g(X)\n"
        with pytest.raises(HrsError, match=r"line 4, col .*unknown symbol 'g'"):
            parse(src)

    def test_unknown_basic_type(self):
        with pytest.raises(HrsError, match=r"unknown basic type 'b'"):
            parse("basic a\nsig f : b -> a\n")

    def test_rule_sides_must_be_basic_typed(self):
        src = ("basic a\nsig f : (a -> a) -> a -> a\nvar F : a -> a\n"
               "rule r: f(F) -> F\n")
        with pytest.raises(HrsError,
                           match=r"not basic-typed: its sides have type "
                                 r"a -> a"):
            parse(src)

    def test_fresh_rhs_variables_listed_sorted(self):
        src = ("basic a\nsig f : a -> a\nsig g : a -> a -> a\n"
               "var X : a\nvar B : a\nvar A : a\n"
               "rule r: f(X) -> g(B, A)\n")
        with pytest.raises(HrsError, match=r"fresh free variable\(s\) A, B"):
            parse(src)

    def test_variable_headed_lhs_rejected(self):
        src = ("basic a\nsig f : a -> a\nvar F : a -> a\nvar X : a\n"
               "rule r: F(X) -> X\n")
        with pytest.raises(HrsError,
                           match=r"must be headed by a function symbol"):
            parse(src)

    def test_unknown_directive(self):
        with pytest.raises(HrsError, match=r"unknown directive 'wibble'"):
            parse("basic a\nwibble\n")

    def test_truncated_type(self):
        with pytest.raises(HrsError, match=r"unexpected end of line in type"):
            parse("basic a\nsig f : a ->\n")


class TestPatternFlag:
    NONPATTERN = ("basic a\nsig f : (a -> a) -> a\nsig c : a\n"
                  "var F : a -> a\n"
                  "rule r: f(\\x. F(c)) -> c\n")

    def test_non_pattern_lhs_is_flagged_not_rejected(self):
        h = parse(self.NONPATTERN)
        assert h.rules[0].is_pattern is False

    def test_require_patterns_turns_flag_into_error(self):
        with pytest.raises(HrsError, match=r"not a pattern"):
            parse(self.NONPATTERN, require_patterns=True)

    def test_pattern_lhs_keeps_flag(self, fixtures):
        h = load(fixtures / "foldl.hrs")
        assert all(r.is_pattern for r in h.rules)

    @pytest.mark.parametrize("sig, var, lhs, is_pattern", [
        ("(a -> a -> a) -> a", "a -> a -> a", "f(\\x y. F(y, x))", True),
        ("(a -> a -> a) -> a", "a -> a -> a", "f(\\x y. F(x, x))", False),
        ("((a -> a) -> a) -> a", "(a -> a) -> a", "f(\\x. F(x))", True),
        ("((a -> a) -> a) -> a", "(a -> a) -> a", "f(\\x. F(\\y. x(c)))",
         False),
        ("(a -> a) -> a", "a -> a", "f(\\x. F(c))", False),
    ])
    def test_pattern_arguments_are_distinct_bound_variables(
            self, sig, var, lhs, is_pattern):
        h = parse(f"basic a\nsig f : {sig}\nsig c : a\nvar F : {var}\n"
                  f"rule r: {lhs} -> c\n")
        assert h.rules[0].is_pattern is is_pattern


class TestLoad:
    def test_load_reads_fixture_files(self, fixtures):
        for name in ("sqsum", "foldl", "foo", "mapfun", "arith",
                     "ackermann", "listfns", "empty"):
            h = load(fixtures / f"{name}.hrs")
            assert isinstance(h, Hrs)

    def test_empty_system_has_no_rules(self, fixtures):
        h = load(fixtures / "empty.hrs")
        assert h.rules == ()
        assert h.defined == frozenset()
        assert h.constructors == frozenset(h.signature)

    def test_rule_variables_are_free_in_both_sides(self, fixtures):
        h = load(fixtures / "sqsum.hrs")
        for r in h.rules:
            assert free_names(r.rhs) <= free_names(r.lhs)
