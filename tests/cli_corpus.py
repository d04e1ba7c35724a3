"""Hash every output of the CLI over a fixed corpus, one line per case.

Runs ``omniscio.cli.main`` in-process, from this checkout's ``src``, over:

* every request of the three benchmark workloads, built by
  ``perfbench/workloads.py`` (only read, never changed), for each seed
  given (0 to 10 if none is), with and without ``--json``;
* every ``tests/golden/*.input.json`` through ``solve``, ``mdb``,
  ``tight`` and ``tight --constructive``, each with and without
  ``--no-validate``, and through ``validate``, all with and without
  ``--json``;
* both ``counterexample`` modes and ``audit``, with and without ``--json``.

Each line is the SHA-256 of the exit code, stdout and stderr, then the
case (its argv); lines are sorted by case. Every file is written under the
relative directory ``corpus`` of a temporary working directory, so two
checkouts print the same case names and the same hashes for the same
outputs. An exception that escapes ``main`` is hashed as its type and
message, without the traceback's file paths.

Run from any directory; compare two checkouts with ``diff``::

    python tests/cli_corpus.py [SEED ...] > change.txt
    python ../parent/tests/cli_corpus.py [SEED ...] > parent.txt
    diff parent.txt change.txt
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from omniscio import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
# Every file goes under this relative directory of the working directory.
CORPUS = "corpus"
FILE_VERBS = (("solve",), ("mdb",), ("tight",), ("tight", "--constructive"))
VALIDATE_FLAGS = ((), ("--no-validate",))
JSON_FLAGS = ((), ("--json",))
BUILTINS = (
    ("counterexample", "--mode", "paper-h"),
    ("counterexample", "--mode", "generative"),
    ("audit",),
)


def digest(argv):
    """SHA-256 of the exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is an output like any other
            code = f"raised {type(exc).__name__}: {exc}"
    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()


def golden_cases():
    """Copy every golden input under ``corpus/golden`` (relative to the
    working directory) and return the argv of each of its cases."""
    os.makedirs(os.path.join(CORPUS, "golden"), exist_ok=True)
    cases = []
    for source in sorted(GOLDEN.glob("*.input.json")):
        path = os.path.join(CORPUS, "golden", source.name)
        shutil.copyfile(source, path)
        runs = [
            [verb, path, *flags, *validate]
            for verb, *flags in FILE_VERBS
            for validate in VALIDATE_FLAGS
        ]
        runs.append(["validate", path])
        cases += [run + list(json) for run in runs for json in JSON_FLAGS]
    return cases


def builtin_cases():
    return [list(args) + list(json) for args in BUILTINS for json in JSON_FLAGS]


def workload_cases(seeds):
    """Write every instance of each workload round under
    ``corpus/<workload>-<seed>`` and return the argv of each request, with
    and without ``--json``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    cases = []
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            requests = workloads.build_round(workload, seed)
            workdir = os.path.join(CORPUS, f"{workload}-{seed}")
            workloads.write_files(requests, workdir)
            for req in requests:
                argv = req.argv(workdir)
                cases.append([a for a in argv if a != "--json"])
                cases.append(argv)
    return cases


def run(cases):
    """One ``hash case`` line per distinct case, sorted by case."""
    lines = {" ".join(argv): digest(argv) for argv in cases}
    return [f"{lines[case]} {case}" for case in sorted(lines)]


def main(argv):
    seeds = [int(seed) for seed in argv] or list(range(11))
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        cases = golden_cases() + builtin_cases() + workload_cases(seeds)
        lines = run(cases)
        os.chdir(ROOT)
    print("\n".join(lines))


if __name__ == "__main__":
    main(sys.argv[1:])
