import gc
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import strategies as S
from hoterm.hrs import Hrs, HrsError, _Reader, load, parse
from strategies import print_hrs
import hoterm.terms as T
from hoterm.terms import Abs, Arrow, Base, arrow, free_names

NAT = Base("nat")
NATLIST = Base("natlist")
FIXTURES = Path(__file__).parent.parent / "fixtures"
FIXTURE_TEXTS = [p.read_text() for p in sorted(FIXTURES.glob("*.hrs"))]


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
        assert cons_rule.lhs.head.name == "foldl"
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

    def test_pattern_lhs_keeps_flag(self, fixtures):
        h = load(fixtures / "foldl.hrs")
        assert all(r.is_pattern for r in h.rules)
        assert h.non_pattern is None

    def test_system_names_its_first_non_pattern_rule(self):
        h = parse("basic a\nsig f : (a -> a) -> a\nsig c : a\n"
                  "var F : a -> a\n"
                  "rule p: f(\\x. F(x)) -> c\n"
                  "rule r: f(\\x. F(c)) -> c\n"
                  "rule r2: f(\\x. F(F(x))) -> c\n")
        assert [r.is_pattern for r in h.rules] == [True, False, False]
        assert h.non_pattern is h.rules[1]

    def test_load_flags_non_pattern_rule_not_rejected(self, tmp_path):
        path = tmp_path / "r.hrs"
        path.write_text(self.NONPATTERN)
        assert load(path).non_pattern.name == "r"

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


# ---------------------------------------------------------------------------
# every error the reader raises, with its full message, line and column

HEAD = ("basic a\nsig f : a -> a\nsig c : a\nsig h : (a -> a) -> a\n"
        "var X : a\nvar F : a -> a\n")       # rules below sit on line 7


ERRORS = [
    # lexer
    ("basic a $", "unexpected character '$'", 1, 9),
    ("basic a\nsig f : a $", "unexpected character '$'", 2, 11),
    # declarations
    ("basic a ->", "expected a basic type name, found '->'", 1, 9),
    ("basic a a", "basic type 'a' declared twice", 1, 9),
    ("basic a\nsig : a", "expected a name, found ':'", 2, 5),
    ("basic a\nsig f a", "expected ':', found 'a'", 2, 7),
    ("basic a\nsig f", "unexpected end of line, expected ':'", 2, None),
    ("basic a\nsig f : a ->", "unexpected end of line in type", 2, None),
    ("basic a\nsig f : (a -> a", "unexpected end of line, expected ')'",
     2, None),
    ("basic a\nsig f : ->", "expected a type name, found '->'", 2, 9),
    ("basic a\nsig f : b", "unknown basic type 'b'", 2, 9),
    ("basic a\nsig f : a a", "trailing input 'a'", 2, 11),
    ("basic a\nsig f : a\nvar f : a", "name 'f' declared twice", 3, 5),
    ("wibble", "unknown directive 'wibble' (expected basic, sig, var, or "
     "rule)", 1, None),
    # rule headers
    (HEAD + "rule r f(X) -> c",
     "expected 'rule <name>: <term> -> <term>'", 7, None),
    (HEAD + "rule r s: f(X) -> c", "invalid rule name 'r s'", 7, None),
    (HEAD + "rule r: f(X) -> c\nrule r: c -> c", "rule name 'r' used twice",
     8, None),
    # rule syntax
    (HEAD + "rule r: f(X)", "unexpected end of line, expected '->'",
     7, None),
    (HEAD + "rule r: f(X) -> f(X", "unexpected end of line, expected ')'",
     7, None),
    (HEAD + "rule r: f(X) f(X)", "expected '->', found 'f'", 7, 14),
    (HEAD + "rule r: f(X) ->", "unexpected end of line in term", 7, None),
    (HEAD + "rule r: \\", "unexpected end of line", 7, None),
    (HEAD + "rule r: f(\\.", "expected a binder name, found '.'", 7, 12),
    (HEAD + "rule r: h(\\x", "unexpected end of line, expected '.'",
     7, None),
    (HEAD + "rule r: h(\\x. f(x)) -> )", "expected a term, found ')'",
     7, 24),
    (HEAD + "rule r: f(X) -> f($)", "unexpected character '$'", 7, 19),
    (HEAD + "rule r: f(X) -> f(X) c", "trailing input 'c'", 7, 22),
    # rule scope and types
    (HEAD + "rule r: f(X) -> g(X)", "unknown symbol 'g'", 7, 17),
    (HEAD + "rule r: h(\\c. c) -> c", "binder 'c' shadows a declared name",
     7, 11),
    (HEAD + "rule r: \\x. f(x) -> c", "a rule left-hand side must start "
     "with a function symbol, not an abstraction", 7, 9),
    (HEAD + "rule r: h(\\x y. x) -> c", "abstraction has more binders than "
     "the expected type a -> a provides", 7, 11),
    (HEAD + "rule r: f(X, X) -> c",
     "'f' is applied to too many arguments (its type is a -> a)", 7, 9),
    (HEAD + "rule r: f(F) -> c",
     "term headed by 'F' has type a -> a, expected a", 7, 11),
    (HEAD + "rule r: f -> f",
     "rule 'r' is not basic-typed: its sides have type a -> a", 7, None),
    # whole rules
    (HEAD + "rule r: F(X) -> X", "left-hand side of rule 'r' must be "
     "headed by a function symbol, found variable 'F'", 7, None),
    (HEAD + "var Y : a\nrule r: f(X) -> Y",
     "right-hand side of rule 'r' has fresh free variable(s) Y", 8, None),
]


@pytest.mark.parametrize("text, message, line, col", ERRORS,
                         ids=[message for _, message, _, _ in ERRORS])
def test_error_message_line_and_column(text, message, line, col):
    with pytest.raises(HrsError) as info:
        parse(text)
    err = info.value
    where = f"line {line}" + ("" if col is None else f", col {col}")
    assert str(err) == f"{where}: {message}"
    assert (err.line, err.col) == (line, col)


def test_undecodable_file_is_reported(tmp_path):
    path = tmp_path / "bad.hrs"
    path.write_bytes(b"basic a\n\xff\n")
    with pytest.raises(HrsError) as info:
        load(path)
    assert str(info.value) == f"{path}: not UTF-8 text: byte 8 cannot be " \
                              "decoded"
    assert (info.value.line, info.value.col) == (None, None)


@pytest.mark.parametrize("text, message, col", [
    # an unknown symbol before an unclosed argument list
    (HEAD + "rule r: g(X) -> f(X", "unexpected end of line, expected ')'",
     None),
    # an ill-typed left-hand side before trailing input
    (HEAD + "rule r: f(F) -> c c", "trailing input 'c'", 19),
    # an abstraction on the left before a bad binder on the right
    (HEAD + "rule r: \\x. f(x) -> h(\\)", "expected a binder name, "
     "found ')'", 24),
])
def test_syntax_error_is_reported_before_type_error(text, message, col):
    with pytest.raises(HrsError) as info:
        parse(text)
    where = "line 7" + ("" if col is None else f", col {col}")
    assert str(info.value) == f"{where}: {message}"


@pytest.mark.parametrize("indent", ["", "   "])
@pytest.mark.parametrize("body, message, col", [
    ("f(X) -> f($)", "unexpected character '$'", 19),
    ("f(X) -> g(X)", "unknown symbol 'g'", 17),
    ("f(X) -> f(X) c", "trailing input 'c'", 22),
])
def test_rule_line_columns_count_from_line_start(indent, body, message, col):
    with pytest.raises(HrsError) as info:
        parse(HEAD + indent + "rule r: " + body)
    assert info.value.col == col + len(indent)
    assert str(info.value) == f"line 7, col {col + len(indent)}: {message}"


def test_rule_sees_only_the_names_declared_above_it():
    text = ("basic a\nsig h : (a -> a) -> a\nsig c : a\nvar G : a -> a\n"
            "rule r: h(G) -> c\n"          # G eta-expands under hint x
            "sig x : a\n"
            "rule s: h(G) -> x\n")         # now x is taken: x'
    r, s = parse(text).rules
    assert r.lhs.args[0].hint == "x"
    assert s.lhs.args[0].hint == "x'"
    with pytest.raises(HrsError) as info:
        parse("basic a\nsig f : a -> a\nrule r: f(X) -> f(X)\nvar X : a\n")
    assert str(info.value) == "line 3, col 11: unknown symbol 'X'"


@settings(max_examples=100)
@given(S.systems().flatmap(
    lambda h: S.contracted_texts(h).map(lambda text: (h, text))))
def test_eta_short_text_reads_as_the_long_one(case):
    h, text = case
    assert parse(text).rules == h.rules


def test_nested_under_applied_heads_are_read_once(monkeypatch):
    # each twice(...) but the outer one is under-applied and eta-expanded;
    # reading its arguments again beneath the eta binders would read the
    # innermost argument list 2^30 times
    body = "s"
    for _ in range(30):
        body = f"twice({body})"
    text = ("basic a\nsig twice : (a -> a) -> a -> a\nsig s : a -> a\n"
            f"sig h : a -> a\nvar X : a\nrule r: h(X) -> twice({body}, X)\n")
    reads = 0
    term = _Reader.term

    def counted(self, *rest):
        nonlocal reads
        reads += 1
        if reads > 100:
            raise RuntimeError("an argument list was read again")
        return term(self, *rest)

    # each name on the line (h, X twice, s and each twice) is read by one
    # call, with its arguments; any argument list read again would add calls
    monkeypatch.setattr(_Reader, "term", counted)
    rhs = parse(text).rules[0].rhs
    line = text.splitlines()[-1]
    assert reads == line.count("twice") + 4
    hints = []
    for _ in range(30):
        fn = rhs.args[0]
        assert isinstance(fn, Abs)
        hints.append(fn.hint)
        rhs = fn.body
    assert isinstance(rhs.args[0], Abs)
    assert len(set(hints)) == 30


def test_each_declared_type_is_read_once_per_parse(monkeypatch):
    reads = 0
    read = _Reader.type

    def counted(self, *rest):
        nonlocal reads
        reads += 1
        return read(self, *rest)

    monkeypatch.setattr(_Reader, "type", counted)
    one = "basic a\nsig f : a -> (a -> a) -> a\n"
    parse(one)
    once, reads = reads, 0
    many = one + "sig g : a -> (a -> a) -> a\nvar F : a -> (a -> a) -> a\n"
    for _ in range(2):      # and again by the next call, which keeps none
        parse(many)
        assert reads == once
        reads = 0


def test_a_parse_keeps_no_node_alive():
    # the terms a parse reuses belong to the call: once its system is
    # dropped, every node it made dies
    def live():
        return sum(r() is not None for r in T._NODES.values())

    text = ("basic kept\nsig kept_c : kept\nsig kept_f : kept -> kept\n"
            "sig kept_g : (kept -> kept) -> kept\nvar KeptX : kept\n"
            "var KeptF : kept -> kept\n"
            "rule kept_r: kept_g(KeptF) -> KeptF(kept_c)\n"
            "rule kept_s: kept_f(KeptX) -> kept_f(kept_c)\n")
    gc.collect()
    before = live()
    h = parse(text)
    assert live() > before
    del h
    gc.collect()
    assert live() == before


@st.composite
def edited_fixtures(draw) -> str:
    """A fixture with one to three characters inserted, deleted or
    replaced, mostly ones the format gives a meaning."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    chars = st.sampled_from("()\\.,:->#' \n\tXFxa0_$") | st.characters()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:at] + draw(st.text(chars, max_size=1)) + text[at + cut:]
    return text


@settings(max_examples=500, deadline=None)
@given(edited_fixtures())
def test_edited_fixture_parses_or_raises_hrs_error(text):
    try:
        parse(text)
    except HrsError:
        pass
