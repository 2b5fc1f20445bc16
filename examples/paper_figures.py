#!/usr/bin/env python
"""Regenerate any table or figure from the paper's evaluation section.

    python examples/paper_figures.py            # everything
    python examples/paper_figures.py fig9 tab2  # a selection
    python examples/paper_figures.py --list

Thin wrapper around :mod:`repro.bench.render`, which holds one renderer
per artifact (the same output as ``python -m repro figures``);
``tests/test_paper_claims.py`` asserts the paper's claims on the same
data.
"""

import argparse
import sys

from repro.bench.render import ARTIFACTS, render


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifacts", nargs="*",
                        help="which artifacts (default: all)")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)
    if args.list:
        print(" ".join(ARTIFACTS))
        return 0
    names = args.artifacts or list(ARTIFACTS)
    unknown = [n for n in names if n not in ARTIFACTS]
    if unknown:
        parser.error(f"unknown artifacts {unknown}; see --list")
    sys.stdout.write("\n".join(render(name) for name in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
