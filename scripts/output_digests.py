#!/usr/bin/env python3
"""Print a sha256 digest of every output of nine `ihara` commands per graph.

One line per (command, graph): the command's label, the graph, the sha256
of what it wrote to stdout, the sha256 of what it wrote to stderr, and its
exit code.  The commands are `analyze --k 50 --no-timings` and `--k 200
--no-timings`, `census --k 50`, `series --k 50` as csv and as json,
`series --k 200` as csv, `check --k 50`, `estimate --k 100` and `zeta`;
the graphs are those given, or else the 24-graph ladder of check_ladder.py
and complete:4.  Each command runs in this process through
iharazeta.cli.main, so two checkouts print the same lines exactly when
their outputs are byte-identical:

    python scripts/output_digests.py > before.txt   # in one checkout
    python scripts/output_digests.py > after.txt    # in the other
    diff before.txt after.txt

Usage: python scripts/output_digests.py [graph ...]
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

# the checkout's own sources come first, so the script runs without PYTHONPATH
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from check_ladder import LADDER  # noqa: E402
from iharazeta.cli import main as ihara  # noqa: E402

COMMANDS = (
    ("analyze", ["analyze", "--k", "50", "--no-timings"]),
    ("analyze-k200", ["analyze", "--k", "200", "--no-timings"]),
    ("census", ["census", "--k", "50"]),
    ("series-csv", ["series", "--k", "50"]),
    ("series-json", ["series", "--k", "50", "--format", "json"]),
    ("series-k200", ["series", "--k", "200"]),
    ("check", ["check", "--k", "50"]),
    ("estimate", ["estimate", "--k", "100"]),
    ("zeta", ["zeta"]),
)
GRAPHS = tuple(dict.fromkeys((*LADDER, "petersen", "cycle:7", "complete:4")))


def digest_line(label: str, argv: list[str], spec: str) -> str:
    """`label spec sha256(stdout) sha256(stderr) exit` of `ihara argv` with
    spec placed after the subcommand."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ihara([argv[0], spec, *argv[1:]])
    return " ".join((label, spec, hashlib.sha256(out.getvalue().encode()).hexdigest(),
                     hashlib.sha256(err.getvalue().encode()).hexdigest(), str(code)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("graphs", nargs="*", default=GRAPHS,
                        help="generator strings or edge-list files")
    args = parser.parse_args()
    for spec in args.graphs:
        for label, argv in COMMANDS:
            print(digest_line(label, argv, spec), flush=True)


if __name__ == "__main__":
    main()
