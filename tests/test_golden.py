"""Byte-for-byte CLI outputs recorded under ``tests/golden/``.

Every case runs ``hoterm.cli.main`` from the repository root on a relative
fixture path, so the ``input:`` line and the JSON ``source`` field are the
same on every machine.  ``<case>.out`` holds the stdout of the case (for the
``.dot`` cases, the file written by ``--graph-out``); ``exit_codes.json``
holds the exit codes.  After an intended output change, record the goldens
again with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from hoterm.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

FIXTURES = sorted(p.stem for p in (ROOT / "fixtures").glob("*.hrs"))
VARIANTS = {
    "plain": [],
    "json": ["--json"],
    "pfp": ["--pfp"],
    "sdp": ["--sdp"],
    "redpair": ["--techniques", "redpair"],
}

CASES = {f"{name}.{variant}": ["prove", f"fixtures/{name}.hrs", *flags]
         for name in FIXTURES for variant, flags in VARIANTS.items()}
CASES.update({f"{name}.dot": ["prove", f"fixtures/{name}.hrs", "--graph-out"]
              for name in FIXTURES})
CASES["foo.disprove"] = ["prove", "fixtures/foo.hrs", "--disprove"]
CASES["foo.disprove-json"] = ["prove", "fixtures/foo.hrs", "--disprove",
                              "--json"]


def run_case(case: str) -> tuple[int, str]:
    """Exit code and recorded output of one case; cwd must be ROOT."""
    argv = CASES[case]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        dot = Path(tmp) / "graph.dot"
        if argv[-1] == "--graph-out":
            argv = argv + [str(dot)]
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if dot.exists():
            return code, dot.read_text()
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, output = run_case(case)
    assert code == json.loads(EXIT_CODES.read_text())[case]
    assert output == (GOLDEN / f"{case}.out").read_text()


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in sorted(CASES):
        try:
            codes[case], output = run_case(case)
        except Exception as exc:  # an older build may crash on a case
            print(f"{case}: not recorded ({type(exc).__name__})",
                  file=sys.stderr)
            continue
        (GOLDEN / f"{case}.out").write_text(output)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
