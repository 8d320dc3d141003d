"""How hoterm's classes are defined, and what callers need from its records.

Every class is written out by hand: a dataclass makes ``dataclasses``
generate and compile its methods when the module is imported, which once
took about a third of ``import hoterm.cli``.  The guard below counts
rather than times, so it holds on any machine.  Another guard reads the
source: a definition that no path from the command line or the package
root reaches is dead API.  The package
root exports only what the README and the benchmark read through it.
"""

import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import hoterm
import strategies as S
from hoterm.criteria import AnalysisConfig, PiAssignment
from hoterm.graph import RecursionComponent
from hoterm.hrs import is_miller_pattern, load, parse
from hoterm.proof import ProverConfig, prove
from hoterm.rewriting import LoopFound, RewriteStep, find_loop
from hoterm.sdp import DependencyPair
from hoterm.terms import (Abs, App, Base, Bound, Const, Free, arrow,
                          free_names)

ROOT = Path(__file__).resolve().parents[1]
FIXDIR = ROOT / "fixtures"


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


def _reads(node: ast.AST) -> set[str]:
    """The names and attribute names that ``node`` loads."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def unused_definitions() -> set[str]:
    """The functions, classes and methods of ``src/hoterm`` that no product
    path reaches, matched by name.

    The roots are ``cli.main``, ``cli.entry``, ``hoterm.__all__``, the
    names that module-level statements other than definitions read, and
    the dunder methods.  A definition is reached when a reached definition
    reads its name; a class reads its bases, decorators and class-level
    statements, and each method is a definition of its own."""
    reads: dict[str, set[str]] = {}     # definition name -> names it reads
    roots = {"main", "entry", *hoterm.__all__}
    for path in sorted(Path(hoterm.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                reads.setdefault(stmt.name, set()).update(_reads(stmt))
            elif isinstance(stmt, ast.ClassDef):
                own = reads.setdefault(stmt.name, set())
                for part in [*stmt.bases, *stmt.keywords,
                             *stmt.decorator_list, *stmt.body]:
                    if isinstance(part, ast.FunctionDef):
                        reads.setdefault(part.name, set()).update(
                            _reads(part))
                        if part.name.startswith("__") \
                                and part.name.endswith("__"):
                            roots.add(part.name)
                    else:
                        own.update(_reads(part))
            else:
                roots.update(_reads(stmt))
    reached: set[str] = set()
    todo = [name for name in roots if name in reads]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n for n in reads[name] if n in reads)
    return set(reads) - reached


class TestNoDeadApi:
    def test_every_definition_has_a_reader(self):
        # only the benchmark's tracer (bench/tracer.py) keeps these; they
        # wait for its targets to move onto the product path
        assert unused_definitions() == {"check_subterm_criterion",
                                        "subterms"}, \
            "a definition no product path reaches is dead API"


def root_names_read(text: str) -> set[str]:
    """The names that ``text`` reads from the package root, as
    ``hoterm.<name>`` or ``from hoterm import <name>``; submodules and
    dunders are not API names."""
    submodules = {info.name for info in pkgutil.iter_modules(hoterm.__path__)}
    names = set(re.findall(r"\bhoterm\.(\w+)", text))
    for paren, line in re.findall(
            r"\bfrom hoterm import (?:\(([^)]*)\)|([\w ,]*))", text):
        names.update(n.strip() for n in (paren or line).split(",")
                     if n.strip())
    return {n for n in names if n not in submodules and not n.startswith("_")}


class TestDeclaredApi:
    def test_the_readme_library_example_runs(self):
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        proc = subprocess.run([sys.executable, "-c", blocks[0]],
                              capture_output=True, text=True, cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=str(
                                  Path(hoterm.__file__).parents[1])))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "TERMINATING"
        assert "verdict: TERMINATING" in proc.stdout

    def test_every_name_the_benchmark_and_readme_read_is_exported(self):
        bench = {path.name: root_names_read(path.read_text())
                 for path in sorted((ROOT / "bench").glob("*.py"))}
        readme = root_names_read((ROOT / "README.md").read_text())
        assert {"prove_text", "find_loop"} <= bench["workloads.py"]
        assert {"prove", "emit_text"} <= readme
        missing = {name: sorted(names - set(hoterm.__all__))
                   for name, names in [*bench.items(), ("README.md", readme)]}
        assert {k: v for k, v in missing.items() if v} == {}
        assert all(hasattr(hoterm, name) for name in hoterm.__all__)


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

    @settings(max_examples=200, deadline=None)
    @given(S.systems().flatmap(S.contracted_texts))
    def test_read_pattern_flag_follows_on_generated_systems(self, text):
        # higher-order variables, applied to bound variables or not, and
        # written eta-long or short: the reader checks only the left sides
        # where a variable takes arguments, and must agree with the check
        for r in parse(text).rules:
            assert r.is_pattern == is_miller_pattern(r.lhs,
                                                     free_names(r.lhs))

    def test_pi_assignment_checks_and_compares_its_mapping(self):
        with pytest.raises(ValueError, match="must be non-empty"):
            PiAssignment({"f": (1,), "g": ()})
        pi = PiAssignment({"f": (1,), "g": (2, 1)})
        assert pi == PiAssignment({"g": (2, 1), "f": (1,)})
        assert pi != PiAssignment({"f": (1,), "g": (2,)})
        assert pi != {"f": (1,), "g": (2, 1)}

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
