"""Acceptance gate: one test per shipped guarantee, runnable end to end.

Each test prints as its own pass/fail line under pytest -v, so the gate
doubles as a checklist of what the prover promises.
"""

import time
import types
from pathlib import Path

from hoterm.cli import main
from hoterm.criteria import (AnalysisConfig, CriterionVerdict, PiAssignment,
                             check_subterm_criterion, search_pi)
from hoterm.graph import build_graph, recursion_components
from hoterm.hrs import load
from hoterm.pfp import is_pfp, safe_subterms
from hoterm.proof import (NONTERMINATING, TERMINATING, ProverConfig, prove)
from hoterm.rewriting import rewrite_step
from hoterm.sdp import extract_sdps, print_side

FIXDIR = Path(__file__).parent.parent / "fixtures"


def best_of(n, fn):
    elapsed = []
    for _ in range(n):
        start = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - start)
    return min(elapsed)


def test_criterion_1_safe_set_exactness():
    h = load(FIXDIR / "foldl.hrs")
    cons_rule = h.rules[1]
    got = {str(t) for t in safe_subterms(cons_rule).safe}
    assert got == {"\\x y. F(x, y)", "Y", "cons(X, L)", "X", "L"}
    assert best_of(5, lambda: safe_subterms(cons_rule)) < 1e-3


def test_criterion_2_pfp_verdicts():
    assert is_pfp(load(FIXDIR / "foldl.hrs")).is_pfp

    foo = is_pfp(load(FIXDIR / "foo.hrs"))
    assert not foo.is_pfp
    assert {str(v.subterm) for v in foo.violations} == \
        {"F(bar(\\x. F(x)))", "F(x)"}

    mapfun = is_pfp(load(FIXDIR / "mapfun.hrs"))
    assert not mapfun.is_pfp
    assert [str(v.subterm) for v in mapfun.violations] == ["F(X)"]


def test_criterion_3_sdp_exactness():
    pairs = extract_sdps(load(FIXDIR / "sqsum.hrs"))
    assert {str(p) for p in pairs} == {
        "add#(s(X), Y) -> add#(X, Y)",
        "mul#(s(X), Y) -> add#(mul(X, Y), Y)",
        "mul#(s(X), Y) -> mul#(X, Y)",
        "foldl#(\\x y. F(x, y), Y, cons(X, L)) -> "
        "foldl#(\\x y. F(x, y), F(Y, X), L)",
        "sqsum#(L) -> foldl#(\\x y. add(x, mul(y, y)), 0, L)",
        "sqsum#(L) -> add#(x, mul(y, y))",
        "sqsum#(L) -> mul#(y, y)",
    }
    assert len(pairs) == 7


def test_criterion_4_graph_exactness():
    pairs = extract_sdps(load(FIXDIR / "sqsum.hrs"))
    assert build_graph(pairs) == [(0, 0), (1, 0), (2, 1), (2, 2), (3, 3),
                                  (4, 3), (5, 0), (6, 1), (6, 2)]
    comps = recursion_components(pairs)
    assert [c.indices for c in comps] == [(0,), (2,), (3,)]


def test_criterion_5_subterm_criterion_witnesses():
    h = load(FIXDIR / "sqsum.hrs")
    comps = recursion_components(extract_sdps(h))

    expected = {0: ("add", (1,)), 1: ("mul", (1,)), 2: ("foldl", (3,))}
    for i, c in enumerate(comps):
        symbol, position = expected[i]
        out = check_subterm_criterion(c, PiAssignment({symbol: position}),
                                      h.defined)
        assert isinstance(out, CriterionVerdict)
        assert len(out.strict) == len(c.pairs)
        assert out.weak == ()
        found = search_pi(c, max_depth=1, defined=h.defined)
        assert found is not None
        assert found.witness.projections[symbol] == position

    start = time.perf_counter()
    proof = prove(FIXDIR / "sqsum.hrs", ProverConfig())
    assert time.perf_counter() - start < 1.0
    assert proof.verdict.kind == TERMINATING


def test_criterion_6_disproof(capsys):
    code = main(["prove", str(FIXDIR / "foo.hrs"), "--disprove", "10"])
    assert code == 1
    assert "verdict: NONTERMINATING" in capsys.readouterr().out

    h = load(FIXDIR / "foo.hrs")
    proof = prove(FIXDIR / "foo.hrs", ProverConfig(disprove_steps=10))
    assert proof.verdict.kind == NONTERMINATING
    loop = proof.verdict.loop
    assert len(loop.trace) == 1
    current = loop.start
    seen = [current]
    for step in loop.trace:
        assert step in rewrite_step(h, current)
        current = step.result
        seen.append(current)
    assert current in seen[:-1]


def _run_counted(prop, instance=None):
    """Execute a randomized property, returning how many cases actually ran."""
    handle = prop.hypothesis
    inner = handle.inner_test
    count = 0

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return inner(*args, **kwargs)

    handle.inner_test = counting
    try:
        if instance is None:
            prop()
        else:
            prop(instance)
    finally:
        handle.inner_test = inner
    return count


def test_criterion_7_property_suites():
    import test_criteria
    import test_graph
    import test_hrs
    import test_normalize
    import test_pfp
    import test_rewriting
    import test_sdp
    import test_searches

    suites = [
        (test_normalize,
         "test_substituted_redexes_agree_with_evaluation"),
        (test_hrs.TestPrintRoundtrip,
         "test_random_system_roundtrip"),
        (test_rewriting.TestSubstitutionClosure,
         "test_one_step_closed_under_substitution"),
        (test_pfp.TestSafeSetInvariants,
         "test_safe_subterms_of_lhs_and_basic_discipline"),
        (test_sdp.TestCandidates,
         "test_candidate_free_variables_come_from_the_term"),
        (test_criteria.TestLexPathOrderLaws,
         "test_never_strictly_above_itself"),
        (test_criteria.TestLexPathOrderLaws,
         "test_strictly_above_every_proper_subterm"),
        (test_criteria.TestLexPathOrderLaws,
         "test_transitive"),
        (test_criteria.TestLexPathOrderLaws,
         "test_strict_comparisons_survive_substitution"),
        (test_searches.TestPrecedenceConstraints,
         "test_compare_agrees_with_the_direct_order"),
        (test_graph.TestRecursionComponents,
         "test_components_are_the_sccs_that_carry_an_arc"),
    ]
    for owner, name in suites:
        prop = getattr(owner, name)
        instance = None if isinstance(owner, types.ModuleType) else owner()
        ran = _run_counted(prop, instance)
        assert ran >= 200, f"{owner.__name__}.{name} ran only {ran} cases"


def test_criterion_8_first_order_regression():
    from test_sdp import brute_force_first_order_pairs

    subterm_only = ProverConfig(analysis=AnalysisConfig(
        techniques=("subterm",)))
    for name in ("arith", "ackermann", "listfns"):
        h = load(FIXDIR / f"{name}.hrs")
        got = [(print_side(p.lhs), print_side(p.rhs))
               for p in extract_sdps(h)]
        assert got == brute_force_first_order_pairs(h), name
        proof = prove(FIXDIR / f"{name}.hrs", subterm_only)
        assert proof.verdict.kind == TERMINATING, name
