import json
import time
from pathlib import Path

import pytest

import hoterm.proof
from hoterm.criteria import AnalysisConfig, ConfigError
from hoterm.hrs import load
from hoterm.proof import (MAYBE, NONTERMINATING, SCHEMA_VERSION, TERMINATING,
                          ProverConfig, emit, emit_dot, emit_json, emit_text,
                          prove, prove_text)
from hoterm.rewriting import rewrite_step

FIXDIR = Path(__file__).parent.parent / "fixtures"

SWAP = """basic a
sig f : a -> a -> a
sig c : a
var X : a
var Y : a
rule f-def: f(X, Y) -> f(Y, X)
"""


class TestVerdicts:
    def test_sqsum_terminates(self):
        p = prove(FIXDIR / "sqsum.hrs", ProverConfig())
        assert p.verdict.kind == TERMINATING
        assert p.verdict.reason is None

    def test_sqsum_is_fast(self):
        start = time.perf_counter()
        prove(FIXDIR / "sqsum.hrs", ProverConfig())
        assert time.perf_counter() - start < 1.0

    def test_mapfun_is_maybe_for_the_right_reason(self):
        p = prove(FIXDIR / "mapfun.hrs", ProverConfig())
        assert p.verdict.kind == MAYBE
        assert p.verdict.reason == "not plain function-passing"

    def test_foo_without_loop_search_is_maybe(self):
        p = prove(FIXDIR / "foo.hrs", ProverConfig())
        assert p.verdict.kind == MAYBE

    def test_foo_with_loop_search_is_nonterminating(self):
        p = prove(FIXDIR / "foo.hrs", ProverConfig(disprove_steps=100))
        assert p.verdict.kind == NONTERMINATING
        assert p.verdict.loop is not None

    def test_foo_loop_replays(self):
        p = prove(FIXDIR / "foo.hrs", ProverConfig(disprove_steps=100))
        h = load(FIXDIR / "foo.hrs")
        current = p.verdict.loop.start
        seen = [current]
        for step in p.verdict.loop.trace:
            assert step in rewrite_step(h, current)
            current = step.result
            seen.append(current)
        assert current in seen[:-1]

    def test_empty_system_terminates_with_no_pairs(self):
        p = prove(FIXDIR / "empty.hrs", ProverConfig())
        assert p.verdict.kind == TERMINATING
        assert p.sdps == ()
        assert p.components == ()

    def test_undischarged_component_is_maybe(self):
        p = prove_text(SWAP, ProverConfig())
        assert p.verdict.kind == MAYBE
        assert p.verdict.reason == "undischarged recursion component(s): {1}"

    def test_ackermann_terminates(self):
        p = prove(FIXDIR / "ackermann.hrs", ProverConfig())
        assert p.verdict.kind == TERMINATING

    def test_all_terminating_fixtures(self):
        for name in ("arith", "foldl", "listfns", "nested", "sqsum"):
            p = prove(FIXDIR / f"{name}.hrs", ProverConfig())
            assert p.verdict.kind == TERMINATING, name


class TestLibraryConfigCheck:
    """A library caller's analysis settings are checked before any work,
    whatever the system, as the command line checks its own."""

    @staticmethod
    def prove_with(name, **settings):
        config = ProverConfig(analysis=AnalysisConfig(**settings))
        return prove_text((FIXDIR / name).read_text(), config)

    def test_unknown_technique_on_a_system_without_pairs(self):
        with pytest.raises(ConfigError, match="unknown technique 'magic'"):
            self.prove_with("empty.hrs", techniques=("magic",))

    def test_unknown_technique_after_one_that_discharges(self):
        with pytest.raises(ConfigError, match="unknown technique 'magic'"):
            self.prove_with("arith.hrs", techniques=("subterm", "magic"))

    def test_unknown_technique_is_caught_before_pair_extraction(
            self, monkeypatch):
        def no_pairs(h):
            raise AssertionError("pairs extracted")

        monkeypatch.setattr(hoterm.proof, "extract_sdps", no_pairs)
        with pytest.raises(ConfigError, match="choose from subterm, redpair"):
            self.prove_with("arith.hrs", techniques=("magic",))

    @pytest.mark.parametrize("name", ["empty.hrs", "arith.hrs"])
    def test_empty_technique_list(self, name):
        with pytest.raises(ConfigError, match="technique list is empty"):
            self.prove_with(name, techniques=())

    @pytest.mark.parametrize("depth", [0, -1])
    def test_projection_depth_below_one(self, depth):
        with pytest.raises(ConfigError,
                           match=f"max_pi_depth is {depth}, below 1"):
            self.prove_with("arith.hrs", max_pi_depth=depth)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_loop_search_of_no_steps(self, steps):
        # foo.hrs is not plain function-passing, so only the loop search
        # would run, and it would report that it found nothing
        with pytest.raises(ConfigError,
                           match=f"disprove_steps is {steps}, below 1"):
            prove_text((FIXDIR / "foo.hrs").read_text(),
                       ProverConfig(disprove_steps=steps))


class TestTextOutput:
    def test_sqsum_text_sections(self):
        p = prove(FIXDIR / "sqsum.hrs", ProverConfig())
        text = emit_text(p)
        assert "plain function-passing: yes" in text
        assert "static dependency pairs (7):" in text
        assert "pi(add) = 1" in text
        assert "pi(mul) = 1" in text
        assert "pi(foldl) = 3" in text
        assert "recursion components (3):" in text
        assert text.rstrip().endswith("verdict: TERMINATING")

    def test_sqsum_text_arcs_line(self):
        p = prove(FIXDIR / "sqsum.hrs", ProverConfig())
        assert ("static dependency graph: 9 arc(s): 1->1, 2->1, 3->2, 3->3, "
                "4->4, 5->4, 6->1, 7->2, 7->3") in emit_text(p)

    def test_safe_sets_are_printed(self):
        p = prove(FIXDIR / "foldl.hrs", ProverConfig())
        text = emit_text(p)
        assert "safe(foldl-cons) = {\\x y. F(x, y), Y, cons(X, L), X, L}" \
            in text

    def test_violations_are_printed(self):
        p = prove(FIXDIR / "mapfun.hrs", ProverConfig())
        text = emit_text(p)
        assert "plain function-passing: no" in text
        assert "F(X)" in text

    def test_loop_section(self):
        p = prove(FIXDIR / "foo.hrs", ProverConfig(disprove_steps=100))
        text = emit_text(p)
        assert "loop of length 1 from foo(bar(\\x. foo(x))):" in text
        assert "[foo-def, position e]" in text
        assert text.rstrip().endswith("verdict: NONTERMINATING")

    def test_blocked_component_lists_reasons(self):
        text = emit_text(prove_text(SWAP, ProverConfig()))
        assert "no projection satisfies the subterm criterion" in text
        assert "NOT discharged" in text
        assert "verdict: MAYBE (undischarged recursion component(s): {1})" \
            in text

    def test_input_digest_is_stable(self):
        p = prove(FIXDIR / "sqsum.hrs", ProverConfig())
        q = prove(FIXDIR / "sqsum.hrs", ProverConfig())
        assert p.input_digest == q.input_digest
        assert f"sha256: {p.input_digest}" in emit_text(p)


class TestJsonOutput:
    def test_sqsum_json_shape(self):
        p = prove(FIXDIR / "sqsum.hrs", ProverConfig())
        d = json.loads(emit_json(p))
        assert d["schema_version"] == SCHEMA_VERSION
        assert d["verdict"] == "TERMINATING"
        assert d["reason"] is None
        assert d["sdp_count"] == 7
        assert d["component_count"] == 3
        assert len(d["sdps"]) == 7
        assert d["sdps"][0]["index"] == 1
        assert d["sdps"][5]["extra_vars"] == ["x", "y"]
        assert sorted(map(tuple, d["graph"]["arcs"])) == [
            (1, 1), (2, 1), (3, 2), (3, 3), (4, 4),
            (5, 4), (6, 1), (7, 2), (7, 3)]
        assert all(cp["discharged"] for cp in d["component_proofs"])

    def test_mapfun_json_violations(self):
        p = prove(FIXDIR / "mapfun.hrs", ProverConfig())
        d = json.loads(emit_json(p))
        assert d["verdict"] == "MAYBE"
        assert d["pfp"]["is_pfp"] is False
        assert d["pfp"]["violations"][0]["rule"] == "mapfun-cons"
        assert d["pfp"]["violations"][0]["subterm"] == "F(X)"

    def test_loop_json(self):
        p = prove(FIXDIR / "foo.hrs", ProverConfig(disprove_steps=100))
        d = json.loads(emit_json(p))
        assert d["verdict"] == "NONTERMINATING"
        assert d["loop"]["start"] == "foo(bar(\\x. foo(x)))"
        assert d["loop"]["steps"][0]["rule"] == "foo-def"
        assert d["loop"]["steps"][0]["position"] == []

    def test_json_is_parseable_for_every_fixture(self):
        for path in sorted(FIXDIR.glob("*.hrs")):
            d = json.loads(emit_json(prove(path, ProverConfig())))
            assert d["verdict"] in ("TERMINATING", "NONTERMINATING", "MAYBE")


class TestEmitDispatch:
    def test_formats(self):
        p = prove(FIXDIR / "arith.hrs", ProverConfig())
        assert emit(p, "text") == emit_text(p)
        assert emit(p, "json") == emit_json(p)
        assert emit(p, "dot") == emit_dot(p)

    def test_unknown_format_rejected(self):
        p = prove(FIXDIR / "arith.hrs", ProverConfig())
        with pytest.raises(ValueError, match="unknown proof format 'yaml'"):
            emit(p, "yaml")

    def test_dot_contains_graph(self):
        p = prove(FIXDIR / "sqsum.hrs", ProverConfig())
        dot = emit_dot(p)
        assert dot.startswith("digraph sdg {")
        assert "n3 -> n3;" in dot


class TestDeterminism:
    def test_prove_text_twice_is_identical(self):
        source = (FIXDIR / "sqsum.hrs").read_text()
        one = prove_text(source, ProverConfig())
        two = prove_text(source, ProverConfig())
        assert emit_text(one) == emit_text(two)
        assert emit_json(one) == emit_json(two)
        assert emit_dot(one) == emit_dot(two)
