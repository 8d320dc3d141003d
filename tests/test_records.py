"""How hoterm's classes are defined, and what callers need from its records.

Every class is written out by hand: a dataclass makes ``dataclasses``
generate and compile its methods when the module is imported, which once
took about a third of ``import hoterm.cli``.  The guard below counts
rather than times, so it holds on any machine.
"""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hoterm
from hoterm.criteria import AnalysisConfig, PiAssignment
from hoterm.graph import RecursionComponent
from hoterm.hrs import is_miller_pattern, load
from hoterm.proof import ProverConfig, prove
from hoterm.rewriting import LoopFound, RewriteStep, find_loop
from hoterm.sdp import DependencyPair
from hoterm.terms import (Abs, App, Base, Bound, Const, Free, arrow,
                          free_names)

FIXDIR = Path(__file__).resolve().parents[1] / "fixtures"


def hoterm_classes():
    for info in pkgutil.iter_modules(hoterm.__path__):
        module = importlib.import_module(f"hoterm.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


class TestNoGeneratedCode:
    def test_no_class_is_a_dataclass(self):
        classes = list(hoterm_classes())
        assert len(classes) > 30
        assert [c.__qualname__ for c in classes
                if dataclasses.is_dataclass(c)] == []

    def test_importing_the_cli_loads_no_dataclasses(self):
        # dataclasses, with inspect, ast and dis, costs a start-up about
        # 10 ms; only an assignment to a frozen node needs it
        code = "import sys, hoterm.cli; print('dataclasses' in sys.modules)"
        src = str(Path(hoterm.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_atoms_and_term_nodes_have_no_instance_dict(self):
        nat = Base("nat")
        leaf = App(Const("0", nat))
        nodes = (Const("0", nat), Free("X", nat), Bound(0, nat), leaf,
                 Abs("x", nat, leaf),
                 App(Const("s", arrow(nat, nat)), (leaf,)))
        for node in nodes:
            assert not hasattr(node, "__dict__"), type(node).__name__


def proofs():
    return [prove(str(p)) for p in sorted(FIXDIR.glob("*.hrs"))]


class TestRecords:
    def test_equal_fields_give_equal_hashes(self):
        pairs = [p for proof in proofs() for p in proof.sdps]
        assert pairs
        rebuilt = [DependencyPair(p.lhs, p.rhs, p.origin_rule, p.extra_vars)
                   for p in pairs]
        for p, q in zip(pairs, rebuilt):
            assert p == q and hash(p) == hash(q)
        assert set(rebuilt) == set(pairs)

    def test_rebuilt_components_find_their_proofs(self):
        seen = 0
        for proof in proofs():
            for c, outcome in proof.component_proofs.items():
                key = RecursionComponent(tuple(c.indices), tuple(c.pairs))
                assert key == c and hash(key) == hash(c)
                assert proof.component_proofs[key] is outcome
                seen += 1
        assert seen > 0

    def test_loop_steps_hash_by_their_fields(self):
        loop = find_loop(load(FIXDIR / "foo.hrs"), max_steps=3)
        assert isinstance(loop, LoopFound)
        again = LoopFound(loop.start, tuple(
            RewriteStep(s.rule, s.position, s.result) for s in loop.trace))
        assert again == loop and hash(again) == hash(loop)

    def test_default_configs(self):
        assert AnalysisConfig() == AnalysisConfig()
        assert ProverConfig() == ProverConfig()
        config = AnalysisConfig()
        assert (config.techniques, config.max_pi_depth, config.precedence) \
            == (("subterm", "redpair"), 3, None)
        assert ProverConfig().analysis == config
        assert ProverConfig().disprove_steps is None

    def test_read_pattern_flag_follows_from_the_left_side(self):
        # Rule equality compares is_pattern; two rules the reader makes
        # with equal sides therefore still compare equal
        for path in sorted(FIXDIR.glob("*.hrs")):
            for r in load(path).rules:
                assert r.is_pattern == is_miller_pattern(r.lhs,
                                                         free_names(r.lhs))

    def test_pi_assignment_checks_and_compares_its_mapping(self):
        with pytest.raises(ValueError, match="must be non-empty"):
            PiAssignment({"f#": (1,), "g#": ()})
        pi = PiAssignment({"f#": (1,), "g#": (2, 1)})
        assert pi == PiAssignment({"g#": (2, 1), "f#": (1,)})
        assert pi != PiAssignment({"f#": (1,), "g#": (2,)})
        assert pi != {"f#": (1,), "g#": (2, 1)}

    @pytest.mark.parametrize("name, defined, constructors", [
        ("ackermann", {"ack"}, {"0", "s"}),
        ("empty", set(), {"0", "s"}),
        ("mapfun", {"mapfun"}, {"cons", "cons_F", "nil", "nil_F"}),
        ("sqsum", {"add", "foldl", "mul", "sqsum"},
         {"0", "cons", "nil", "s"}),
    ])
    def test_defined_symbols_and_constructors(self, name, defined,
                                              constructors):
        h = load(FIXDIR / f"{name}.hrs")
        assert h.defined == frozenset(defined)
        assert h.constructors == frozenset(constructors)
