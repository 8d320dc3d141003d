#!/usr/bin/env python3
"""Sweep the subterm-criterion projection depth and report, per system,
the shallowest depth at which every recursion component is discharged.

Shows how far into constructor nests the projection search must look:
most structural recursions need depth 1, paired-argument descent needs 2.

Usage: python3 scripts/pi_depth_sweep.py [directory] [--max-depth N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from hoterm.criteria import AnalysisConfig, ComponentProof, analyze_component
from hoterm.graph import recursion_components
from hoterm.hrs import load
from hoterm.pfp import is_pfp
from hoterm.sdp import extract_sdps


def shallowest_depth(h, components, max_depth: int) -> int | None:
    for depth in range(1, max_depth + 1):
        config = AnalysisConfig(techniques=("subterm",), max_pi_depth=depth)
        if all(isinstance(analyze_component(h, c, config), ComponentProof)
               for c in components):
            return depth
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory", nargs="?", default="fixtures")
    parser.add_argument("--max-depth", type=int, default=4)
    args = parser.parse_args()

    for path in sorted(Path(args.directory).glob("*.hrs")):
        h = load(path)
        if not is_pfp(h).is_pfp:
            print(f"{path.stem:<12} not function-passing, skipped")
            continue
        components = recursion_components(extract_sdps(h))
        if not components:
            print(f"{path.stem:<12} no recursion components")
            continue
        depth = shallowest_depth(h, components, args.max_depth)
        if depth is None:
            print(f"{path.stem:<12} undischarged up to depth "
                  f"{args.max_depth}")
        else:
            print(f"{path.stem:<12} all {len(components)} component(s) "
                  f"discharged at depth {depth}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
