"""Command-line interface.

Exit codes: 0 the system was proved terminating, 1 a loop disproved
termination, 2 no conclusion, 3 the command line was invalid or the input
failed to load (unreadable, not UTF-8, nested too deeply, or not a valid
system), 4 an internal error.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from functools import cache

from .criteria import TECHNIQUES, AnalysisConfig, ConfigError
from .hrs import HrsError, load
from .pfp import is_pfp
from .proof import (MAYBE, NONTERMINATING, TERMINATING, ProverConfig, emit,
                    emit_dot, emit_pfp, emit_sdps, prove)
from .sdp import extract_sdps

EXIT_TERMINATING = 0
EXIT_NONTERMINATING = 1
EXIT_MAYBE = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4

_VERDICT_EXIT = {
    TERMINATING: EXIT_TERMINATING,
    NONTERMINATING: EXIT_NONTERMINATING,
    MAYBE: EXIT_MAYBE,
}


def _parse_techniques(text: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    for n in names:
        if n not in TECHNIQUES:
            raise argparse.ArgumentTypeError(
                f"unknown technique {n!r}; choose from "
                f"{', '.join(TECHNIQUES)}")
    if not names:
        raise argparse.ArgumentTypeError("technique list is empty")
    return names


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _parse_precedence(text: str) -> tuple[str, ...]:
    sep = ">" if ">" in text else ","
    names = tuple(s.strip() for s in text.split(sep) if s.strip())
    if not names:
        raise argparse.ArgumentTypeError("precedence list is empty")
    return names


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error, not with argparse's 2, which
    is the MAYBE code.  Sub-command parsers are made of the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hoterm",
        description="termination prover for higher-order rewrite systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="analyze a .hrs file")
    p.add_argument("file", help="rewrite system in .hrs format")
    p.add_argument("--pfp", action="store_true",
                   help="report the function-passing check and stop")
    p.add_argument("--sdp", action="store_true",
                   help="report the dependency pairs and stop")
    p.add_argument("--graph-out", metavar="FILE",
                   help="write the dependency graph in DOT format")
    p.add_argument("--json", action="store_true",
                   help="emit the proof as JSON instead of text")
    p.add_argument("--disprove", nargs="?", type=_positive_int, const=100,
                   default=None, metavar="STEPS",
                   help="on failure, search for a loop of at most STEPS "
                        "rewrite steps (default 100)")
    p.add_argument("--max-pi-depth", type=_positive_int, default=3,
                   metavar="N",
                   help="maximum projection depth for the subterm criterion "
                        "(default 3)")
    p.add_argument("--techniques", type=_parse_techniques,
                   default=TECHNIQUES, metavar="LIST",
                   help="comma-separated techniques to apply in order "
                        f"({', '.join(TECHNIQUES)})")
    p.add_argument("--precedence", type=_parse_precedence, default=None,
                   metavar="LIST",
                   help="fixed precedence for the path order, greatest "
                        "first, separated by '>' or ','")
    return parser


_parser = cache(build_parser)  # building one costs about a small proof


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    config = ProverConfig(
        analysis=AnalysisConfig(techniques=args.techniques,
                                max_pi_depth=args.max_pi_depth,
                                precedence=args.precedence),
        disprove_steps=args.disprove)
    try:
        if args.pfp or args.sdp:
            h = load(args.file)
            config.analysis.check(h)
            if args.pfp:
                report = is_pfp(h)
                sys.stdout.write(emit_pfp(h, report))
                return EXIT_TERMINATING if report.is_pfp else EXIT_MAYBE
            sys.stdout.write(emit_sdps(extract_sdps(h)))
            return EXIT_TERMINATING
        proof = prove(args.file, config)
        if args.graph_out:
            with open(args.graph_out, "w") as f:
                f.write(emit_dot(proof))
        sys.stdout.write(emit(proof, "json" if args.json else "text"))
        return _VERDICT_EXIT[proof.verdict.kind]
    except (HrsError, ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception:
        traceback.print_exc()
        print("error: internal error", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
