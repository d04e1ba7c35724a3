"""Mutation sweep of ``src/omniscio`` against tier-1.

Every mutant changes one spot of one module, found with ``ast``:

* ``operand``: one operand of an ``and`` or ``or`` dropped;
* ``raise``: the test of an ``if`` whose body ends in ``raise`` made
  ``False``, so that refusal never fires;
* ``compare``: one comparison moved by one, ``<`` <-> ``<=`` or
  ``>`` <-> ``>=``;
* ``continue`` and ``return``: a ``continue``, or a ``return`` that is not
  the last statement of its function, replaced by ``pass``.

Only the node's own span of the module text is rewritten, so every other
line stays as it is. Each mutant runs tier-1 (``pytest -x``, with the
designed failure deselected and this tool's own test left out) in a
temporary copy of the repository, two at a time, and prints one line:
``killed``, ``timeout`` or ``survived``, then the mutant's name and line.
The run exits 1 when a mutant survives that ``EQUIVALENT`` does not list,
or when a listed mutant is killed or no longer generated; each listed
mutant carries the reason it survives.

Run from any directory; it uses the standard library only::

    python tests/mutants.py
"""

import ast
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "omniscio"
DESIGNED_FAILURE = "tests/test_acceptance.py::test_criterion_01b_paper_h_dual_pattern"
# Tier-1 fails a test stuck past 120 s (tests/conftest.py); this is a
# backstop for a run that hangs outside a test body.
RUN_LIMIT_S = 400
WORKERS = 2
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")

# Mutants that survive tier-1 because no answer can change, by name.
EQUIVALENT = {
    "dependence.py:mutual_dependence_bound: raise never 'not argmin'": (
        "every active set has at least two terminals, so the walk yields at "
        "least the 2-partition that splits A's lowest terminal from the rest"
    ),
    "fileio.py:source_from_document: compare 'missing > 0' -> 'missing >= 0'": (
        "bytearray.find(0, 1) returns -1 or an index of at least 1, never 0"
    ),
    "reporting.py:counterexample_report: compare 'bound > report.c_sk' -> "
    "'bound >= report.c_sk'": (
        "a counterexample report is returned only with I(A) > C_SK: the "
        "generative mode raises otherwise, and paper-h requires I(A) = 2 and "
        "C_SK = 7/4, so strict_gap is true either way"
    ),
    "simplex.py:simplex_min: continue 'continue' under 'pi < 0'": (
        "without it the first candidate row is compared with itself, which "
        "never replaces it; it saves two int products per pivot, which no "
        "test can see without instrumenting the tableau"
    ),
    "simplex.py:simplex_min: compare 'basis[i] < basis[pi]' -> "
    "'basis[i] <= basis[pi]'": (
        "the basis holds distinct columns and the ratio test compares "
        "distinct rows, so basis[i] == basis[pi] never holds there"
    ),
    "simplex.py:_unproven: compare 'v < 0' -> 'v <= 0'": (
        "the optimality proof reads only the nonzero dual weights"
    ),
    "simplex.py:_unproven: return 'return \"strong duality violated\"' under "
    "'dual * scale != den * sum(map(mul, c, x))'": (
        "strong duality follows from y.A = c, complementary slackness and "
        "the primal rows, all checked before it; it stays as part of the "
        "certificate the package states"
    ),
    "sources.py:make_oracle: compare 'j < m // 2' -> 'j <= m // 2'": (
        "the split of the terminals into a low and a high half sets only "
        "the sizes of the two doubling tables; every subset's stacked rows, "
        "and the order of the rank calls, stay the same"
    ),
    "sources.py:check_validity: compare 'period < n' -> 'period <= n'": (
        "one more doubling sets bits past the n fields of clear[j], and "
        "every use ANDs it, or its XOR with the n-field mask, with a value "
        "of n fields"
    ),
}


@dataclass(frozen=True)
class Mutant:
    name: str  # "module:function: kind detail", with "#n" on a repeat
    module: str
    line: int
    source: bytes  # the whole mutated module


def _segment(source: bytes, starts, node) -> bytes:
    return source[
        starts[node.lineno - 1] + node.col_offset:
        starts[node.end_lineno - 1] + node.end_col_offset
    ]


def _text(source: bytes, starts, node) -> str:
    return " ".join(_segment(source, starts, node).decode().split())


_MOVED = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def _sites(tree):
    """(qualname, node, kind, parent) for every mutation site, in source
    order."""
    found = []

    def visit(node, scope, function, parent):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
            if isinstance(node, ast.FunctionDef):
                function = node
        kind = None
        if isinstance(node, ast.BoolOp):
            kind = "operand"
        elif isinstance(node, ast.Compare) and any(type(op) in _MOVED for op in node.ops):
            kind = "compare"
        elif isinstance(node, ast.If) and isinstance(node.body[-1], ast.Raise):
            kind = "raise"
        elif isinstance(node, ast.Continue):
            kind = "continue"
        elif isinstance(node, ast.Return) and node is not function.body[-1]:
            kind = "return"
        if kind:
            found.append((".".join(scope) or "<module>", node, kind, parent))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, function, node)

    visit(tree, [], None, None)
    return sorted(found, key=lambda s: (s[1].lineno, s[1].col_offset))


def _rewrites(source: bytes, starts, node, kind, parent):
    """(detail, node to replace, replacement) for each mutant of one site."""
    text = _text(source, starts, node)
    if kind == "operand":
        op = " and " if isinstance(node.op, ast.And) else " or "
        for i, dropped in enumerate(node.values):
            kept = [
                _segment(source, starts, v).decode()
                for j, v in enumerate(node.values)
                if j != i
            ]
            detail = f"drop {_text(source, starts, dropped)!r} from {text!r}"
            yield detail, node, f"({op.join(kept)})"
    elif kind == "compare":
        for i, op in enumerate(node.ops):
            if type(op) in _MOVED:
                ops = [*node.ops[:i], _MOVED[type(op)](), *node.ops[i + 1:]]
                moved = ast.Compare(node.left, ops, node.comparators)
                yield f"{text!r} -> {ast.unparse(moved)!r}", node, f"({ast.unparse(moved)})"
    elif kind == "raise":
        yield f"never {_text(source, starts, node.test)!r}", node.test, "False"
    else:
        # Name the test that a deleted continue or return sits under.
        under = ""
        if isinstance(parent, ast.If):
            under = f" under {_text(source, starts, parent.test)!r}"
        yield f"{text!r}{under}", node, "pass"


def generate():
    """Every mutant of every module of ``src/omniscio``, in module and
    source order."""
    mutants = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_bytes()
        starts = [0]
        for line in source.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        seen = {}
        for qualname, node, kind, parent in _sites(ast.parse(source)):
            for detail, target, replacement in _rewrites(source, starts, node, kind, parent):
                name = f"{path.name}:{qualname}: {kind} {detail}"
                seen[name] = seen.get(name, 0) + 1
                if seen[name] > 1:
                    name += f" #{seen[name]}"
                lo = starts[target.lineno - 1] + target.col_offset
                hi = starts[target.end_lineno - 1] + target.end_col_offset
                mutated = source[:lo] + replacement.encode() + source[hi:]
                mutants.append(Mutant(name, path.name, node.lineno, mutated))
    return mutants


def run(mutant, copy):
    """'killed', 'timeout' or 'survived': tier-1 on ``copy`` with the
    mutant in place."""
    compile(mutant.source, mutant.module, "exec")  # a broken mutant is a bug here
    target = copy / "src" / "omniscio" / mutant.module
    original = target.read_bytes()
    target.write_bytes(mutant.source)
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    # tests/test_mutants.py generates the mutants of the mutated source, in
    # which the mutated site reads differently, so it tests the tool, not
    # the mutant.
    cmd = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--deselect", DESIGNED_FAILURE, "--ignore", "tests/test_mutants.py",
    ]
    proc = subprocess.Popen(
        cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        return "survived" if proc.wait(RUN_LIMIT_S) == 0 else "killed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    finally:
        target.write_bytes(original)
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)


def main():
    mutants = generate()
    names = {m.name for m in mutants}
    with tempfile.TemporaryDirectory() as tmp:
        copies = queue.Queue()
        for i in range(WORKERS):
            copy = Path(tmp) / str(i)
            shutil.copytree(ROOT, copy, ignore=SKIPPED)
            copies.put(copy)

        def one(mutant):
            copy = copies.get()
            try:
                return run(mutant, copy)
            finally:
                copies.put(copy)

        bad = [f"listed but not generated: {n}" for n in EQUIVALENT if n not in names]
        survived = 0
        with ThreadPoolExecutor(WORKERS) as pool:
            for mutant, outcome in zip(mutants, pool.map(one, mutants)):
                print(f"{outcome:8} {mutant.name} (line {mutant.line})", flush=True)
                survived += outcome == "survived"
                if outcome == "survived" and mutant.name not in EQUIVALENT:
                    bad.append(f"survived: {mutant.name}")
                if outcome != "survived" and mutant.name in EQUIVALENT:
                    bad.append(f"listed as equivalent but {outcome}: {mutant.name}")
    print(f"{len(mutants)} mutants, {survived} survived, {len(EQUIVALENT)} listed as equivalent")
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
