"""Command-line interface.

Verbs: solve, mdb, tight, counterexample, audit, validate.
Exit codes: 0 success, 1 computation assertion failed, 2 invalid input
(a malformed command line too), 3 internal contract violation.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Tuple

from .errors import InvalidInputError, OmniscioError
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

USAGE = """\
usage: omniscio solve FILE [--no-validate] [--json]
       omniscio mdb FILE [--no-validate] [--json]
       omniscio tight FILE [--constructive] [--no-validate] [--json]
       omniscio validate FILE [--json]
       omniscio counterexample --mode paper-h|generative [--json]
       omniscio audit [--json]
       omniscio -h | --help
"""

HELP = USAGE + """
Exact omniscience rates, secret-key capacity, and the mutual-dependence
bound for discrete multiple sources.

verbs:
  solve           smallest omniscience rate and key capacity
  mdb             mutual-dependence bound and its minimizers
  tight           is the mutual-dependence bound tight?
  validate        check a source file's entropy function
  counterexample  built-in six-terminal helper counterexample
  audit           compare both counterexample entropy functions row by row

options (before or after FILE, spelled in full):
  FILE            source description JSON file
  --no-validate   skip entropy-function validity checks on load
  --json          machine-readable output
  --constructive  decide via the witness-partition search instead of
                  comparing values
  --mode MODE     paper-h: the published cardinality table;
                  generative: recomputed from the XOR source
                  (also --mode=MODE)
  -h, --help      print this text and exit

exit codes: 0 success, 1 computation assertion failed, 2 invalid input or
command line, 3 internal contract violation
"""

# Each verb: whether it takes FILE, and the options it allows. Every option
# is on/off except --mode, which takes one of _MODES and which counterexample
# requires.
_VERBS = {
    "solve": (True, ("--no-validate", "--json")),
    "mdb": (True, ("--no-validate", "--json")),
    "tight": (True, ("--constructive", "--no-validate", "--json")),
    "validate": (True, ("--json",)),
    "counterexample": (False, ("--mode", "--json")),
    "audit": (False, ("--json",)),
}
_MODES = ("paper-h", "generative")


def _read_argv(argv: List[str]) -> Tuple[str, Optional[str], Dict[str, str]]:
    """(verb, FILE or None, options) from a command line without -h/--help.

    ``options`` maps each option given to its value, "" for an on/off one.
    Raises InvalidInputError for anything _VERBS does not allow.
    """
    if not argv:
        raise InvalidInputError("a verb is required")
    verb, *rest = argv
    if verb not in _VERBS:
        raise InvalidInputError(
            f"unknown verb {verb!r} (choose from {', '.join(_VERBS)})"
        )
    takes_file, allowed = _VERBS[verb]
    path: Optional[str] = None
    options: Dict[str, str] = {}
    args = iter(rest)
    for arg in args:
        if not arg.startswith("-"):
            if not takes_file:
                raise InvalidInputError(f"{verb} takes no FILE, got {arg!r}")
            if path is not None:
                raise InvalidInputError(f"{verb} takes one FILE, got {arg!r} too")
            path = arg
            continue
        name, eq, value = arg.partition("=")
        if name == "--mode" and name in allowed:
            mode = value if eq else next(args, None)
            if mode not in _MODES:
                got = "" if mode is None else f", not {mode!r}"
                raise InvalidInputError(f"--mode takes paper-h or generative{got}")
            options[name] = mode
        elif arg in allowed:
            options[arg] = ""
        else:
            raise InvalidInputError(f"{verb} does not take {arg!r}")
    if takes_file and path is None:
        raise InvalidInputError(f"{verb} needs FILE")
    if "--mode" in allowed and "--mode" not in options:
        raise InvalidInputError(f"{verb} needs --mode paper-h or --mode generative")
    return verb, path, options


def _echo(path: str, source: Any, active: List[int]) -> Dict[str, Any]:
    return {
        "path": path,
        "source_type": type(source).__name__,
        "active": ",".join(map(str, active)),
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(HELP)
        return 0
    try:
        verb, path, options = _read_argv(argv)
    except InvalidInputError as exc:
        sys.stderr.write(f"{USAGE}omniscio: error: {exc}\n")
        return exc.exit_code
    try:
        report = _dispatch(verb, path, options)
    except OmniscioError as exc:
        print(f"omniscio: error: {exc}", file=sys.stderr)
        return exc.exit_code
    output = render_json(report) if "--json" in options else render_text(report)
    sys.stdout.write(output)
    if verb == "validate" and not report["valid"]:
        return 2
    return 0


def _dispatch(
    verb: str, path: Optional[str], options: Dict[str, str]
) -> Dict[str, Any]:
    from .subsets import terminals_of

    if verb == "counterexample":
        return counterexample_report(options["--mode"])
    if verb == "audit":
        return audit_report()

    validate = verb != "validate" and "--no-validate" not in options
    oracle, active, source = parse_source_file(path, validate=validate)
    echo = _echo(path, source, terminals_of(active))
    if verb == "validate":
        return validate_report(oracle, echo)
    if verb == "solve":
        return solve_report(oracle, active, echo)
    if verb == "mdb":
        return mdb_report(oracle, active, echo)
    if verb == "tight":
        return tight_report(
            oracle, active, echo, constructive="--constructive" in options
        )
    raise AssertionError(f"unhandled verb {verb}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
