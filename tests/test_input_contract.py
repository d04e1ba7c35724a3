"""Every invalid argument to the library raises ``InvalidInputError``.

``InvalidInputError`` is a ``ValueError`` too, so callers that catch
``ValueError`` keep working, and the CLI maps it to exit code 2.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from omniscio import (
    build_family,
    construct_partition_from_dual,
    enumerate_admissible,
    make_oracle,
    mutual_dependence_bound,
    partition_dependence,
    r_co,
    random_linear_source,
)
from omniscio.errors import InvalidInputError
from omniscio.simplex import (
    ConstraintSystem,
    LpSolution,
    make_system,
    solve,
    uniqueness_test,
)
from omniscio.sources import EntropyVector, LinearGF2Source
from omniscio.subsets import (
    check_active,
    check_terminal_count,
    mask_from_terminals,
    parse_mask_spec,
)

F = Fraction
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "omniscio"


def oracle3():
    return make_oracle(random_linear_source(3, 3, 2, 0))


def unnormalised_oracle():
    values = (F(1), F(1), F(1), F(2))  # H(X_emptyset) = 1
    return make_oracle(EntropyVector(2, values), validate=False)


CALLS = {
    "r_co-active-above-m": (
        lambda: r_co(oracle3(), 0b1000),
        "active set must have at least two terminals",
    ),
    "mdb-active-above-m": (
        lambda: mutual_dependence_bound(oracle3(), 0b11000),
        r"subset mask 0b11000 out of range for m=3",
    ),
    "linear-m-21": (
        lambda: LinearGF2Source(21, 1, ()),
        r"terminal count must be in \[2, 20\], got 21",
    ),
    "vector-m-1": (
        lambda: EntropyVector(1, ()),
        r"terminal count must be in \[2, 20\], got 1",
    ),
    "terminal-count": (
        lambda: check_terminal_count(0),
        r"terminal count must be in \[2, 20\], got 0",
    ),
    "terminal-range": (
        lambda: mask_from_terminals([1, 3], 2),
        "terminal 3 out of range for m=2",
    ),
    "subset-spec": (
        lambda: parse_mask_spec("1,x", 2),
        "bad subset spec '1,x'",
    ),
    "active-count-first": (
        lambda: check_active(0b1000, 3),
        "active set must have at least two terminals",
    ),
    "active-range": (
        lambda: check_active(0b1001, 3),
        r"subset mask 0b1001 out of range for m=3",
    ),
    "negative-row-mask": (
        lambda: ConstraintSystem(2, (-1,), (0,), 1, (1, 1), 1),
        r"subset mask -0b1 out of range for m=2",
    ),
    "family-terminal-count": (
        lambda: build_family(2, 0b11).system(oracle3()),
        "oracle terminal count mismatch",
    ),
    "dual-terminal-count": (
        lambda: construct_partition_from_dual(
            r_co(oracle3(), 0b111).solution, build_family(2, 0b11), oracle3()
        ),
        "oracle terminal count mismatch",
    ),
    "unnormalised-partition-dependence": (
        lambda: partition_dependence(unnormalised_oracle(), (0b01, 0b10)),
        r"H\(X_emptyset\) = 1 is not 0",
    ),
    "unnormalised-mdb": (
        lambda: mutual_dependence_bound(unnormalised_oracle(), 0b11),
        r"H\(X_emptyset\) = 1 is not 0",
    ),
    # x1 + x2 >= 0 and x3 >= 0 leave x1 + 2 x2 + x3 unbounded below; solve
    # refuses the rows before that, for they lack {1} and {2}.
    "solve-unbounded": (
        lambda: solve(make_system(3, [0b011, 0b100], [0, 0], [1, 2, 1])),
        r"every singleton row is needed, and \{1\} is missing",
    ),
    "solve-negative-weight": (
        lambda: solve(make_system(2, [0b01, 0b10], [0, 0], [-1, 1])),
        "rows do not bound the objective",
    ),
    "uniqueness-unbounded-face": (
        lambda: uniqueness_test(
            make_system(2, [1, 2], [0, 0], [1, 0]),
            solve(make_system(2, [1, 2], [0, 0], [1, 0])),
        ),
        "optimal face is unbounded",
    ),
    # At x = (1, 0) only the row {2} is tight, so d = (0, 2): the weight -1
    # sits where the auxiliary objective has none.
    "uniqueness-negative-weight": (
        lambda: uniqueness_test(
            make_system(2, [1, 2], [0, 0], [-1, 1]),
            LpSolution(F(-1), (F(1), F(0)), (F(0), F(1)), (1,)),
        ),
        "optimal face is unbounded",
    ),
    "enumerate-short-table": (
        lambda: enumerate_admissible(3, 0b111, [0]),
        "entropy table has 1 entries; m=3 needs 8",
    ),
    "enumerate-long-table": (
        lambda: enumerate_admissible(3, 0b111, [0] * 16),
        "entropy table has 16 entries; m=3 needs 8",
    ),
}


@pytest.mark.parametrize("call,message", CALLS.values(), ids=CALLS.keys())
def test_invalid_argument_raises_invalid_input(call, message):
    with pytest.raises(InvalidInputError, match=message) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert info.value.exit_code == 2


def raised_names(path):
    """(line, name) for every ``raise Name`` or ``raise Name(...)``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield node.lineno, exc.id


def test_no_module_raises_a_bare_value_error():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}"
        for path in modules
        for line, name in raised_names(path)
        if name == "ValueError"
    ]
    assert found == []
