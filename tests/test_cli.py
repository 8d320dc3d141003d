import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import hoterm.cli
import hoterm.criteria
from hoterm.cli import (EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR, EXIT_MAYBE,
                        EXIT_NONTERMINATING, EXIT_TERMINATING, build_parser,
                        main)
from hoterm.hrs import parse
from hoterm.proof import ProverConfig, prove_text
from hoterm.rewriting import rewrite_step
from conftest import bare_env

ROOT = Path(__file__).resolve().parent.parent
FIXDIR = ROOT / "fixtures"
SRC = ROOT / "src"


# the last line of scripts/loop_answers.py: a change that alters the loop
# search's answers, traces or steps on purpose updates it and says so
LOOP_ANSWERS_DIGEST = \
    "d7a4a08c2042f9f04c08cc6487121b01c6f9b35ef16ad11d804a22bf31868597"


def src_pythonpath():
    """This checkout's src first, then any PYTHONPATH the caller set."""
    caller = os.environ.get("PYTHONPATH")
    return os.pathsep.join([str(SRC)] + ([caller] if caller else []))


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_terminating_is_zero(self, capsys):
        code, out, _ = run(capsys, "prove", FIXDIR / "sqsum.hrs")
        assert code == EXIT_TERMINATING == 0
        assert "verdict: TERMINATING" in out

    def test_nonterminating_is_one(self, capsys):
        code, out, _ = run(capsys, "prove", FIXDIR / "foo.hrs", "--disprove")
        assert code == EXIT_NONTERMINATING == 1
        assert "verdict: NONTERMINATING" in out

    def test_maybe_is_two(self, capsys):
        code, out, _ = run(capsys, "prove", FIXDIR / "mapfun.hrs")
        assert code == EXIT_MAYBE == 2
        assert "verdict: MAYBE" in out

    def test_missing_file_is_three(self, capsys):
        code, out, err = run(capsys, "prove", FIXDIR / "nosuch.hrs")
        assert code == EXIT_INPUT_ERROR == 3
        assert err.startswith("error:")
        assert out == ""

    def test_parse_error_is_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.hrs"
        bad.write_text("basic a\nwibble\n")
        code, _, err = run(capsys, "prove", bad)
        assert code == 3
        assert "unknown directive" in err

    def test_undecodable_file_is_three(self, tmp_path, capsys):
        bad = tmp_path / "latin1.hrs"
        bad.write_bytes(b"basic a\n# caf\xe9\n")
        code, out, err = run(capsys, "prove", bad)
        assert code == EXIT_INPUT_ERROR
        assert "not UTF-8" in err
        assert out == ""

    def test_byte_order_mark_is_read_as_utf8(self, tmp_path, capsys):
        source = FIXDIR / "arith.hrs"
        marked = tmp_path / "arith.hrs"
        marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        code, out, err = run(capsys, "prove", marked)
        want_code, want, _ = run(capsys, "prove", source)
        assert (code, err) == (want_code, "") == (EXIT_TERMINATING, "")
        assert out == want.replace(f"input: {source}", f"input: {marked}", 1)

    def test_deeply_nested_input_is_three(self, tmp_path, capsys):
        deep = tmp_path / "deep.hrs"
        term = "s(" * 2000 + "z" + ")" * 2000
        deep.write_text("basic a\nsig s : a -> a\nsig z : a\nsig f : a\n"
                        f"rule r: f -> {term}\n")
        code, out, err = run(capsys, "prove", deep)
        assert code == EXIT_INPUT_ERROR
        assert err == "error: input nested too deeply\n"
        assert out == ""

    @staticmethod
    def deep_rules(n, path):
        """f(s^n(X)) -> f(s^(n-1)(X)), g(s^n(X), Y) -> g(s^(n-1)(X), s(Y))
        and g(0, Y) -> f(Y), written to ``path``; returns s^(n-1)(X)."""
        def s(k, t):
            return "s(" * k + t + ")" * k

        path.write_text(
            "basic nat\nsig 0 : nat\nsig s : nat -> nat\n"
            "sig f : nat -> nat\nsig g : nat -> nat -> nat\n"
            "var X : nat\nvar Y : nat\n"
            f"rule f: f({s(n, 'X')}) -> f({s(n - 1, 'X')})\n"
            f"rule g: g({s(n, 'X')}, Y) -> g({s(n - 1, 'X')}, s(Y))\n"
            "rule h: g(0, Y) -> f(Y)\n")
        return s(n - 1, "X")

    @pytest.mark.parametrize("flags", [
        [], ["--json"], ["--pfp"], ["--sdp"], ["--disprove", "3"]])
    @pytest.mark.parametrize("n", [600, 800, 900])
    def test_deep_rules_are_proved_under_every_flag(self, n, flags,
                                                    tmp_path, capsys):
        # every stage, the printer too, spends at most one frame per level
        deep = tmp_path / "deep.hrs"
        shown = self.deep_rules(n, deep)
        code, out, err = run(capsys, "prove", deep, *flags)
        assert (code, err) == (EXIT_TERMINATING, "")
        assert shown in out

    def test_deep_rules_are_proved_by_the_reduction_pair(self, tmp_path,
                                                         capsys):
        # the path order compiles s > t at two frames per level of t
        deep = tmp_path / "deep.hrs"
        self.deep_rules(400, deep)
        code, out, err = run(capsys, "prove", deep, "--techniques", "redpair")
        assert (code, err) == (EXIT_TERMINATING, "")
        assert "reduction pair: path order with precedence" in out

    def test_internal_error_is_four(self, monkeypatch, capsys):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(hoterm.cli, "prove", broken)
        code, out, err = run(capsys, "prove", FIXDIR / "sqsum.hrs")
        assert code == EXIT_INTERNAL_ERROR == 4
        assert err.endswith("error: internal error\n")
        assert out == ""


# a flag set for the edited fixtures: up to three of these groups; the loop
# search only at a few steps, since Ackermann takes minutes at 100
FLAG_GROUPS = st.sampled_from([
    ["--json"], ["--pfp"], ["--sdp"], ["--graph-out", os.devnull],
    ["--disprove", "1"], ["--disprove", "2"], ["--disprove", "3"],
    ["--techniques", "redpair"], ["--techniques", "subterm"],
    ["--max-pi-depth", "1"], ["--precedence", "s>0"]])
# mostly the characters of the format, then anything but a lone surrogate
EDIT_CHARS = st.one_of(st.sampled_from(list("()\\.,:->#_' \nXYFsx0")),
                       st.characters(blacklist_categories=("Cs",)))


@st.composite
def edited_fixtures(draw):
    """A fixture's text after 1-4 one-character edits."""
    text = draw(st.sampled_from(sorted(FIXDIR.glob("*.hrs")))).read_text()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        new = "" if kind == "delete" else draw(EDIT_CHARS)
        text = text[:i] + new + text[i + (kind != "insert"):]
    return text


class TestEditedInputs:
    @settings(max_examples=200, deadline=None)
    @given(edited_fixtures(), st.lists(FLAG_GROUPS, max_size=3))
    def test_exit_code_is_never_internal_error(self, text, groups):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "edited.hrs"
            path.write_text(text, encoding="utf-8")
            err = StringIO()
            with redirect_stdout(StringIO()), redirect_stderr(err):
                code = main(["prove", str(path),
                             *[flag for group in groups for flag in group]])
        assert code in (EXIT_TERMINATING, EXIT_NONTERMINATING, EXIT_MAYBE,
                        EXIT_INPUT_ERROR), err.getvalue()


class TestStageFlags:
    def test_pfp_flag_prints_safe_sets_and_stops(self, capsys):
        code, out, _ = run(capsys, "prove", FIXDIR / "foldl.hrs", "--pfp")
        assert code == 0
        assert out.startswith("plain function-passing: yes")
        assert "safe(foldl-cons) = {\\x y. F(x, y), Y, cons(X, L), X, L}" \
            in out
        assert "verdict" not in out

    def test_pfp_flag_reports_violations(self, capsys):
        code, out, _ = run(capsys, "prove", FIXDIR / "mapfun.hrs", "--pfp")
        assert code == 2
        assert out.startswith("plain function-passing: no")
        assert "rule mapfun-cons: subterm F(X):" in out

    def test_sdp_flag_lists_pairs_and_stops(self, capsys):
        code, out, _ = run(capsys, "prove", FIXDIR / "sqsum.hrs", "--sdp")
        assert code == 0
        assert out.startswith("static dependency pairs (7):")
        assert "7. sqsum#(L) -> mul#(y, y)" in out
        assert "verdict" not in out

    @pytest.mark.parametrize("flag", ["--pfp", "--sdp"])
    def test_stage_flags_check_the_analysis_settings(self, flag, capsys):
        code, out, err = run(capsys, "prove", FIXDIR / "foo.hrs", flag,
                             "--precedence", "nosuch")
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err == ("error: the precedence names nosuch, which the "
                       "system does not declare\n")


class TestOutputFlags:
    def test_json_flag(self, capsys):
        code, out, _ = run(capsys, "prove", FIXDIR / "sqsum.hrs", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] == "TERMINATING"
        assert d["sdp_count"] == 7

    def test_graph_out_writes_dot_file(self, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        code, out, _ = run(capsys, "prove", FIXDIR / "sqsum.hrs",
                           "--graph-out", target)
        assert code == 0
        dot = target.read_text()
        assert dot.startswith("digraph sdg {")
        assert "n3 -> n3;" in dot
        # the proof still goes to stdout
        assert "verdict: TERMINATING" in out


class TestAnalysisFlags:
    def test_techniques_redpair_only(self, capsys):
        code, out, _ = run(capsys, "prove", FIXDIR / "arith.hrs",
                           "--techniques", "redpair")
        assert code == 0
        assert "reduction pair: path order" in out
        assert "subterm criterion" not in out

    def test_techniques_rejects_unknown_name(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["prove", str(FIXDIR / "arith.hrs"),
                  "--techniques", "magic"])
        assert exit_.value.code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("techniques, complaint", [
        ("magic", "unknown technique 'magic'; choose from subterm, redpair"),
        ("subterm,magic", "unknown technique 'magic'"),
        (",", "technique list is empty"),
    ])
    def test_techniques_rejected_with_a_usage_message(
            self, techniques, complaint, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["prove", str(FIXDIR / "arith.hrs"),
                  "--techniques", techniques])
        assert exit_.value.code == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--techniques: {complaint}" in err

    def test_explicit_precedence(self, capsys):
        code, out, _ = run(capsys, "prove", FIXDIR / "arith.hrs",
                           "--techniques", "redpair",
                           "--precedence", "mul>add>s>0")
        assert code == 0
        assert "path order with precedence mul > add > s > 0" in out

    def test_explicit_precedence_that_orients_no_pair_strictly(
            self, tmp_path, capsys):
        looping = tmp_path / "loop.hrs"
        looping.write_text("basic a\nsig f : a -> a\nvar X : a\n"
                           "rule r: f(X) -> f(X)\n")
        code, out, err = run(capsys, "prove", looping,
                             "--techniques", "redpair", "--precedence", "f")
        assert (code, err) == (EXIT_MAYBE, "")
        assert "\n  component: no pair is strictly oriented\n" \
            "  NOT discharged\n" in out

    @pytest.mark.parametrize("precedence, complaint", [
        ("ack>ack>s>0", "names ack twice"),
        ("ack>s>0>ack", "names ack twice"),
        ("ack>s>0>ak", "names ak, which the system does not declare"),
    ])
    def test_precedence_names_each_declared_symbol_once(
            self, precedence, complaint, capsys):
        code, out, err = run(capsys, "prove", FIXDIR / "ackermann.hrs",
                             "--techniques", "redpair",
                             "--precedence", precedence)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert complaint in err

    def test_max_pi_depth_gates_nested_projection(self, capsys):
        code1, out1, _ = run(capsys, "prove", FIXDIR / "nested.hrs",
                             "--techniques", "subterm",
                             "--max-pi-depth", "1")
        assert code1 == 2
        code2, out2, _ = run(capsys, "prove", FIXDIR / "nested.hrs",
                             "--techniques", "subterm",
                             "--max-pi-depth", "2")
        assert code2 == 0
        assert "pi(f) = 1.1" in out2

    def test_disprove_accepts_step_budget(self, capsys):
        code, out, _ = run(capsys, "prove", FIXDIR / "foo.hrs",
                           "--disprove", "50")
        assert code == 1
        assert "loop of length 1" in out

    def test_disprove_failure_is_reported(self, capsys):
        # swap system is not PFP-blocked but nothing loops; the search
        # comes back empty and the verdict stays MAYBE
        code, out, _ = run(capsys, "prove", FIXDIR / "mapfun.hrs",
                           "--disprove", "20")
        assert code == 2
        assert "loop search found nothing" in out

    def test_disprove_skips_non_pattern_systems(self, tmp_path, capsys):
        # matching is undecidable here, so the loop search must not run
        src = tmp_path / "nonpattern.hrs"
        src.write_text("basic a\nsig f : (a -> a) -> a\nsig c : a\n"
                       "var F : a -> a\n"
                       "rule r: f(\\x. F(c)) -> f(\\x. F(c))\n")
        code, out, err = run(capsys, "prove", src, "--disprove", "5")
        assert code == EXIT_MAYBE
        assert err == ""
        assert "verdict: MAYBE" in out
        assert "loop search skipped: rule r is not a pattern" in out

    @pytest.mark.parametrize("name", ["foldl", "sqsum"])
    def test_redpair_gives_up_on_higher_order_rules(self, name, monkeypatch,
                                                    capsys):
        calls = []
        original = hoterm.criteria.check_reduction_pair

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(hoterm.criteria, "check_reduction_pair", counting)
        code, out, _ = run(capsys, "prove", FIXDIR / f"{name}.hrs",
                           "--techniques", "redpair")
        assert code == EXIT_MAYBE
        assert "verdict: MAYBE" in out
        assert "rule foldl-nil is not first-order, so no path order was " \
               "tried" in out
        assert calls == []


class TestOpenedBindersAreFresh:
    # f(k(\x. x)) -> h(\x. f(x), k(\y. y)) -> f(k(\y. y)) is a loop; the
    # pair f#(k(\x. x)) -> f#(x) has the extra variable x, which must not be
    # taken for the left side's bound x
    LOOPING = ("basic a\n"
               "sig f : a -> a\n"
               "sig k : (a -> a) -> a\n"
               "sig h : (a -> a) -> a -> a\n"
               "var F : a -> a\n"
               "var Y : a\n"
               "rule r1: f(k(\\x. x)) -> h(\\x. f(x), k(\\y. y))\n"
               "rule r2: h(F, Y) -> F(Y)\n")

    def test_looping_system_is_not_proved_terminating(self, tmp_path,
                                                       capsys):
        src = tmp_path / "loop.hrs"
        src.write_text(self.LOOPING)
        code, out, _ = run(capsys, "prove", src)
        assert code == EXIT_MAYBE
        assert "pi(f)" not in out
        assert "no projection satisfies the subterm criterion" in out

    def test_disprove_finds_the_loop(self, tmp_path, capsys):
        src = tmp_path / "loop.hrs"
        src.write_text(self.LOOPING)
        code, out, _ = run(capsys, "prove", src, "--disprove")
        assert code == EXIT_NONTERMINATING
        assert "verdict: NONTERMINATING" in out
        h = parse(self.LOOPING)
        loop = prove_text(self.LOOPING,
                          ProverConfig(disprove_steps=100)).verdict.loop
        assert [step.rule for step in loop.trace] == ["r1", "r2"]
        seen = [loop.start]
        for step in loop.trace:
            assert step in rewrite_step(h, seen[-1])
            seen.append(step.result)
        assert seen[-1] in seen[:-1]


class TestParser:
    def test_prog_and_subcommand(self):
        parser = build_parser()
        ns = parser.parse_args(["prove", "x.hrs"])
        assert ns.file == "x.hrs"
        assert ns.techniques == ("subterm", "redpair")
        assert ns.max_pi_depth == 3
        assert ns.disprove is None

    def test_disprove_default_budget(self):
        ns = build_parser().parse_args(["prove", "x.hrs", "--disprove"])
        assert ns.disprove == 100

    def test_precedence_comma_form(self):
        ns = build_parser().parse_args(
            ["prove", "x.hrs", "--precedence", "a,b,c"])
        assert ns.precedence == ("a", "b", "c")

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args([])
        assert exit_.value.code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("argv", [["--help"], ["prove", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(argv)
        assert exit_.value.code == 0
        assert "usage: hoterm" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--disprove", "-5"],
                                       ["--disprove", "0"],
                                       ["--max-pi-depth", "0"],
                                       ["--max-pi-depth", "-1"],
                                       ["--max-pi-depth", "two"]])
    def test_counts_below_one_are_rejected(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(["prove", "x.hrs", *flags])
        assert exit_.value.code == EXIT_INPUT_ERROR
        assert flags[1] in capsys.readouterr().err


class TestEntryPoint:
    def test_installed_console_script(self, tmp_path):
        # Write the launcher an installer generates for the declared
        # [project.scripts] entry, so the test runs this checkout's entry
        # function by name without an install and whatever else is on PATH.
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"].get("scripts", {})
        assert "hoterm" in scripts
        module, attr = scripts["hoterm"].split(":")
        bindir = tmp_path / "bin"
        bindir.mkdir()
        launcher = bindir / "hoterm"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n")
        launcher.chmod(0o755)
        path = os.pathsep.join([str(bindir),
                                os.environ.get("PATH", os.defpath)])
        env = dict(os.environ, PATH=path, PYTHONPATH=src_pythonpath())
        proc = subprocess.run(
            ["hoterm", "prove", str(FIXDIR / "sqsum.hrs")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "verdict: TERMINATING" in proc.stdout

    def test_output_is_hash_seed_independent(self):
        outputs = set()
        for seed in ("0", "1", "42"):
            proc = subprocess.run(
                [sys.executable, "-m", "hoterm.cli", "prove",
                 str(FIXDIR / "sqsum.hrs"), "--json"],
                capture_output=True, text=True,
                env=bare_env(PYTHONHASHSEED=seed,
                              PYTHONPATH=src_pythonpath()),
            )
            assert proc.returncode == 0
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert "TERMINATING" in outputs.pop()

    def test_call_graph_precedence_is_hash_seed_independent(self, tmp_path):
        # a calls b, c and d, which call each other in a cycle: the guessed
        # precedence depends on the order the callees are visited in
        src = tmp_path / "cycle.hrs"
        src.write_text(
            "basic nat\n"
            + "".join(f"sig {f} : nat -> nat\n" for f in "abcdes")
            + "var X : nat\n"
            "rule ra: a(X) -> b(c(d(X)))\n"
            "rule rb: b(c(X)) -> c(X)\n"
            "rule rc: c(d(X)) -> d(X)\n"
            "rule rd: d(b(X)) -> b(X)\n"
            "rule re: e(s(X)) -> e(X)\n")
        witnesses = set()
        for seed in range(6):
            proc = subprocess.run(
                [sys.executable, "-m", "hoterm.cli", "prove", str(src),
                 "--techniques", "redpair"],
                capture_output=True, text=True,
                env=bare_env(PYTHONHASHSEED=str(seed),
                              PYTHONPATH=src_pythonpath()),
            )
            assert proc.returncode == 0
            witnesses.update(line.strip() for line in proc.stdout.splitlines()
                             if "reduction pair:" in line)
        assert witnesses == {
            "reduction pair: path order with precedence "
            "a > b > c > d > e > s"}


class TestBareEnv:
    def test_child_gets_the_bytecode_setting(self, monkeypatch):
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; print(sys.dont_write_bytecode)"],
            capture_output=True, text=True, check=True, env=bare_env())
        assert proc.stdout.strip() == "True"
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
        assert bare_env(PYTHONHASHSEED="1") == {
            "PYTHONHASHSEED": "1", "PATH": "/usr/bin:/bin"}


def _mtimes(*dirs):
    """The modification time of every file under ``dirs``."""
    return {p: p.stat().st_mtime_ns for d in dirs for p in d.rglob("*")}


class TestScripts:
    @pytest.mark.parametrize("script, flags", [
        ("run_systems.py", ()), ("run_systems.py", ("--disprove", "5")),
        ("pi_depth_sweep.py", ())],
        ids=["run_systems.py", "run_systems.py-disprove", "pi_depth_sweep.py"])
    def test_script_reports_every_fixture(self, script, flags):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), str(FIXDIR),
             *flags],
            capture_output=True, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=src_pythonpath()))
        assert proc.returncode == 0, proc.stderr
        stems = sorted(p.stem for p in FIXDIR.glob("*.hrs"))
        assert len(stems) == 9
        rows = [line.split() for line in proc.stdout.splitlines()
                if line.split() and line.split()[0] in stems]
        assert [row[0] for row in rows] == stems
        if script == "run_systems.py":   # only the loop search finds foo's
            foo = next(row for row in rows if row[0] == "foo")
            assert foo[5] == ("NONTERMINATING" if flags else "MAYBE")

    def test_import_cost_times_both_commands_without_writing(self):
        dirs = SRC, ROOT / "scripts"
        before = _mtimes(*dirs)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "import_cost.py"),
             "--runs", "1"],
            capture_output=True, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=src_pythonpath()))
        assert proc.returncode == 0, proc.stderr
        rows = {line[:34].strip(): line[34:].split()
                for line in proc.stdout.splitlines()[2:]}
        assert list(rows) == ["import hoterm.cli",
                              "hoterm prove fixtures/sqsum.hrs"]
        for cold, warm in rows.values():
            assert float(cold) > 0 and float(warm) > 0
        assert _mtimes(*dirs) == before

    def test_loop_answers_ends_with_a_digest_without_writing(self):
        dirs = SRC, ROOT / "scripts", ROOT / "fixtures"
        before = _mtimes(*dirs)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "loop_answers.py"),
             str(ROOT)], capture_output=True, text=True, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        *lines, digest = proc.stdout.splitlines()
        assert digest == LOOP_ANSWERS_DIGEST
        assert any(line.startswith("foo find_loop 1: LoopFound(")
                   for line in lines)
        assert _mtimes(*dirs) == before

    def test_loop_cost_reports_one_run_without_writing(self):
        dirs = SRC, ROOT / "scripts"
        before = _mtimes(*dirs)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "loop_cost.py"),
             "--max-steps", "1", "--runs", "1"],
            capture_output=True, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=src_pythonpath()))
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()[2:]]
        assert [row[0] for row in rows] == ["1"]
        assert float(rows[0][1]) >= 0
        assert rows[0][2] in ("none", "loop")
        assert int(rows[0][3]) > 0 and int(rows[0][4]) > 0
        assert _mtimes(*dirs) == before

    def test_sdp_cost_times_each_depth_without_writing(self):
        dirs = SRC, ROOT / "scripts"
        before = _mtimes(*dirs)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "sdp_cost.py"),
             "--depths", "1", "3", "--runs", "2"],
            capture_output=True, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=src_pythonpath()))
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()[2:]]
        assert [row[0] for row in rows] == ["1", "3"]
        for row in rows:
            assert float(row[1]) > 0 and float(row[2]) > 0
            assert row[3] == "4"
        assert _mtimes(*dirs) == before

    def test_precedence_cost_times_each_family_without_writing(self):
        dirs = SRC, ROOT / "scripts"
        before = _mtimes(*dirs)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "precedence_cost.py"),
             "--deep", "6", "10", "--unorientable", "5", "--rotating",
             "--unsorted", "8", "--runs", "2"],
            capture_output=True, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=src_pythonpath()))
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()[2:]]
        assert [row[:2] for row in rows] == [
            ["deep", "6"], ["deep", "10"], ["unorientable", "5"],
            ["unsorted", "8"]]
        assert [row[4] for row in rows] == [
            "TERMINATING", "TERMINATING", "MAYBE", "TERMINATING"]
        for row in rows:
            assert float(row[2]) > 0 and int(row[3]) > 0
        assert _mtimes(*dirs) == before

    def test_parse_cost_times_every_set_without_writing(self):
        dirs = SRC, ROOT / "scripts", ROOT / "bench"
        before = _mtimes(*dirs)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "parse_cost.py"),
             "--runs", "2", "--passes", "1", "--baseline", str(ROOT)],
            capture_output=True, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=src_pythonpath()))
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()[2:]]
        assert [row[:1] if row[0] == "ratio" else row[:2] for row in rows] \
            == [["1", "this"], ["1", "baseline"], ["2", "baseline"],
                ["2", "this"], ["med", "this"], ["med", "baseline"], ["ratio"]]
        assert proc.stdout.splitlines()[1].split()[2:] == [
            "fixtures", "(9)", "search", "(17)", "loops", "(7)"]
        for row in rows:
            assert len(row) == 5 - (row[0] == "ratio")
            assert all(float(x) > 0 for x in row[-3:])
        assert _mtimes(*dirs) == before
