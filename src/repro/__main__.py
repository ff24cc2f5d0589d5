"""``python -m repro figures [--only NAME ...]`` prints the paper's
artefacts (:data:`repro.analysis.reporting.FIGURES`): the tables of
each, the clauses of its claim (``ok`` or ``VIOLATED``) and a closing
``claim:`` line; the exit code is 1 when any clause is violated."""

from __future__ import annotations

import argparse
import sys

from .analysis.harness import format_table
from .analysis.reporting import FIGURES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro")
    figures = parser.add_subparsers(dest="command", required=True).add_parser(
        "figures", help="regenerate the paper's figures and tables")
    figures.add_argument("--only", nargs="+", metavar="NAME",
                         choices=list(FIGURES), default=list(FIGURES))
    failed = 0
    for name in parser.parse_args(argv).only:
        artefact = FIGURES[name]
        result = artefact.generator(**artefact.kwargs)
        print(f"[{name}]  [{artefact.group}]")
        for title, headers, rows, floatfmt in artefact.tables(result):
            print(format_table(headers, rows, title=title, floatfmt=floatfmt),
                  end="\n\n")
        clauses = artefact.clauses(result)
        for clause, holds in clauses:
            print(f"[{'ok' if holds else 'VIOLATED'}] {clause}")
        violated = sum(not holds for _, holds in clauses)
        print(f"claim: violated in {violated} of {len(clauses)} clauses\n"
              if violated else "claim: holds\n")
        failed += violated
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
