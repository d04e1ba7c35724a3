"""The golden JSON outputs, checked by proof with the benchmark's checker.

``perfbench/checks.py`` re-verifies an LP answer as a certificate (every
row of B(A) holds, y >= 0 with yA = 1, y.h = sum x = R_CO,
C_SK = H(M) - R_CO, the tight list and the uniqueness verdict) and I(A)
with its minimizers by brute force, from entropies that its own
``reference`` module computes from the input files. These tests run it,
read-only, on the golden ``solve`` and ``mdb`` outputs and both
counterexamples, and show that a planted error fails it. ``solve_tabular``
is left out: its check needs the double-precision entropy table, which
``reference`` does not compute.
"""

import copy
import importlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).parent / "golden"

CERTIFIED = ["solve", "solve_not_unique", "counterexample_paper_h",
             "counterexample_generative"]
BOUNDED = ["mdb", "counterexample_paper_h", "counterexample_generative"]


@pytest.fixture(scope="module")
def checks():
    # checks.py imports reference and workloads as top-level modules.
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("checks")
    finally:
        sys.path.remove(str(PERFBENCH))


def golden(checks, case):
    """(output, joint entropies, m, active) of a golden JSON case."""
    doc = json.loads((GOLDEN / f"{case}.json").read_text())
    builtin = doc["input"].get("builtin")
    if builtin:
        return doc, checks.CE_JOINT[builtin], checks.CE_M, checks.CE_ACTIVE
    source = json.loads((GOLDEN / doc["input"]["path"]).read_text())
    rows = [[int(bits, 2) for bits in terminal]
            for terminal in source["source"]["terminals"]]
    m, active = source["m"], checks.ref.mask_of(source["active"])
    return doc, checks.ref.linear_joint(m, rows), m, active


def certificate_errors(checks, doc, joint, m, active):
    errs = checks.certificate_errors(doc, joint, m, active)
    if Fraction(doc["total_entropy"]) != joint[-1]:
        errs.append("H(M) differs from the recomputed rank")
    return errs


def bound_errors(checks, doc, joint, m, active):
    expected = checks.ref.bound(joint, m, active)
    return checks.bound_errors(doc, joint, m, active, expected)


@pytest.mark.parametrize("case", CERTIFIED)
def test_lp_answer_is_certified(checks, case):
    assert certificate_errors(checks, *golden(checks, case)) == []


@pytest.mark.parametrize("case", BOUNDED)
def test_bound_and_minimizers_are_recomputed(checks, case):
    assert bound_errors(checks, *golden(checks, case)) == []


@pytest.mark.parametrize("case", CERTIFIED)
def test_a_moved_rate_is_refused(checks, case):
    doc, joint, m, active = golden(checks, case)
    moved = copy.deepcopy(doc)
    moved["rates"][0] = str(Fraction(moved["rates"][0]) + Fraction(1, 4))
    assert certificate_errors(checks, moved, joint, m, active)


@pytest.mark.parametrize("case", BOUNDED)
def test_a_dropped_minimizer_is_refused(checks, case):
    doc, joint, m, active = golden(checks, case)
    dropped = dict(doc, minimizers=doc["minimizers"][1:])
    assert bound_errors(checks, dropped, joint, m, active)
