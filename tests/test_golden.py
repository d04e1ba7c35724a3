"""Every CLI verb's exact output, text and JSON, against committed files.

``tests/golden/`` holds six source documents (``*.input.json``: the
six-terminal counterexample as a linear source, the same source with every
terminal active, its valid entropy table, the published, invalid one, a
three-terminal linear source whose rate LP has more than one optimum, and
a three-terminal tabular source)
and, for each case below, the exact stdout of
``omniscio <argv>`` as ``<case>.txt`` and of ``omniscio <argv> --json`` as
``<case>.json``. The commands run from that directory, so the echoed input
path is the bare file name.
"""

from pathlib import Path

import pytest

from omniscio.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "solve": (["solve", "counterexample.input.json"], 0),
    "solve_not_unique": (["solve", "solve_not_unique.input.json"], 0),
    "mdb": (["mdb", "counterexample.input.json"], 0),
    "tight": (["tight", "counterexample.input.json"], 0),
    "tight_constructive": (
        ["tight", "counterexample.input.json", "--constructive"], 0
    ),
    "tight_not_unique": (
        ["tight", "solve_not_unique.input.json", "--constructive"], 0
    ),
    "tight_all_active": (
        ["tight", "all_active.input.json", "--constructive"], 0
    ),
    "validate_valid": (["validate", "valid_table.input.json"], 0),
    "validate_invalid": (["validate", "invalid_table.input.json"], 2),
    "solve_tabular": (["solve", "tabular.input.json"], 0),
    "validate_tabular": (["validate", "tabular.input.json"], 0),
    "counterexample_paper_h": (["counterexample", "--mode", "paper-h"], 0),
    "counterexample_generative": (["counterexample", "--mode", "generative"], 0),
    "audit": (["audit"], 0),
}


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_output_matches_golden(case, fmt, capsys, monkeypatch):
    argv, code = CASES[case]
    monkeypatch.chdir(GOLDEN)
    assert main(argv + (["--json"] if fmt == "json" else [])) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode() == (GOLDEN / f"{case}.{fmt}").read_bytes()
