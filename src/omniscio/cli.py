"""Command-line interface.

Verbs: solve, mdb, tight, counterexample, audit, validate.
Exit codes: 0 success, 1 computation assertion failed, 2 invalid input,
3 internal contract violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any, Dict, List, Optional

from .errors import OmniscioError
from .fileio import parse_source_file
from .reporting import (
    audit_report,
    counterexample_report,
    mdb_report,
    render_json,
    render_text,
    solve_report,
    tight_report,
    validate_report,
)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it:
    parse_args leaves the parser unchanged, so no flag carries over from one
    call of main to the next."""
    parser = argparse.ArgumentParser(
        prog="omniscio",
        description=(
            "Exact omniscience rates, secret-key capacity, and the "
            "mutual-dependence bound for discrete multiple sources."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_file_verb(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="source description JSON file")
        p.add_argument(
            "--no-validate",
            action="store_true",
            help="skip entropy-function validity checks on load",
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    add_file_verb("solve", "smallest omniscience rate and key capacity")
    add_file_verb("mdb", "mutual-dependence bound and its minimizers")
    p_tight = add_file_verb("tight", "is the mutual-dependence bound tight?")
    p_tight.add_argument(
        "--constructive",
        action="store_true",
        help="decide via the witness-partition search instead of comparing values",
    )

    p_ce = sub.add_parser(
        "counterexample", help="built-in six-terminal helper counterexample"
    )
    p_ce.add_argument(
        "--mode",
        choices=["paper-h", "generative"],
        required=True,
        help="published cardinality table vs. XOR source recomputation",
    )
    p_ce.add_argument("--json", action="store_true")

    p_audit = sub.add_parser(
        "audit", help="compare both counterexample entropy functions row by row"
    )
    p_audit.add_argument("--json", action="store_true")

    p_val = sub.add_parser("validate", help="check a source file's entropy function")
    p_val.add_argument("file")
    p_val.add_argument("--json", action="store_true")

    return parser


def _echo(path: str, source: Any, active: List[int]) -> Dict[str, Any]:
    return {
        "path": path,
        "source_type": type(source).__name__,
        "active": ",".join(map(str, active)),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = _dispatch(args)
    except OmniscioError as exc:
        print(f"omniscio: error: {exc}", file=sys.stderr)
        return exc.exit_code
    output = render_json(report) if args.json else render_text(report)
    sys.stdout.write(output)
    if args.verb == "validate" and not report["valid"]:
        return 2
    return 0


def _dispatch(args: argparse.Namespace) -> Dict[str, Any]:
    from .subsets import terminals_of

    if args.verb == "counterexample":
        return counterexample_report(args.mode)
    if args.verb == "audit":
        return audit_report()

    validate = args.verb != "validate" and not args.no_validate
    oracle, active, source = parse_source_file(args.file, validate=validate)
    echo = _echo(args.file, source, terminals_of(active))
    if args.verb == "validate":
        return validate_report(oracle, echo)
    if args.verb == "solve":
        return solve_report(oracle, active, echo)
    if args.verb == "mdb":
        return mdb_report(oracle, active, echo)
    if args.verb == "tight":
        return tight_report(oracle, active, echo, constructive=args.constructive)
    raise AssertionError(f"unhandled verb {args.verb}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
