"""Count the code lines of ``src/omniscio``, per module and in total.

A code line holds at least one token that is neither a comment nor part
of a docstring (the first string statement of a module, class or
function). Blank lines, comment lines and docstring lines do not count.

Run from the repository root::

    python tests/code_lines.py [PACKAGE_DIR]

``python tests/code_lines.py tests`` counts the test suite the same way.
"""

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "omniscio"
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_spans(tree):
    """The (start, end) positions of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                doc = body[0]
                spans.append(
                    ((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset))
                )
    return spans


def code_lines(path):
    """The number of code lines in the Python file ``path``."""
    source = path.read_text(encoding="utf-8")
    spans = docstring_spans(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in SKIPPED:
                continue
            if tok.type == tokenize.STRING and any(
                lo <= tok.start and tok.end <= hi for lo, hi in spans
            ):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:20} {count:5}")
    print(f"{'total':20} {total:5}")


if __name__ == "__main__":
    main(sys.argv[1:])
