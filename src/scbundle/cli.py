"""Command line: verify a scenario or tabulate its convergence study.

    scbundle verify <scenario> [--format json|csv] [--out PATH]
    scbundle convergence <scenario>

``<scenario>`` is a config path or a catalog name.  The report goes to
``--out`` or to standard output, the convergence CSV to standard output;
identical runs write identical bytes.  Exit codes are listed in ``errors``.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ScbundleError
from .report import emit
from .scenarios import load_scenario
from .verify import run_convergence, run_verify

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scbundle", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser("verify", help="run the scenario's check suites")
    verify.add_argument("scenario")
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.add_argument("--out", default=None)
    convergence = commands.add_parser(
        "convergence", help="ansatz-vs-reference error per epsilon (CSV)")
    convergence.add_argument("scenario")
    return parser


def main(argv=None) -> int:
    """Run one command; returns the exit code (0 pass, 1 fail, 2 error)."""
    args = _parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.command == "verify":
            report = run_verify(scenario)
            emit(report, args.format, sys.stdout if args.out is None else args.out)
            return 0 if report.overall_pass else 1
        table = run_convergence(scenario)
        falls = table.monotone_decreasing
        sys.stdout.write(table.to_csv())
        return 0 if falls else 1
    except ScbundleError as err:
        print(f"scbundle: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
