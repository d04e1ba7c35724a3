"""The CLI corpus tool (``tests/cli_corpus.py``) on the golden inputs."""

import re

import cli_corpus


def golden_lines(workdir, monkeypatch):
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    return cli_corpus.run(cli_corpus.golden_cases())


def test_golden_part_is_repeatable_and_complete(tmp_path, monkeypatch):
    first = golden_lines(tmp_path / "a", monkeypatch)
    second = golden_lines(tmp_path / "b", monkeypatch)
    assert first == second
    assert all(re.fullmatch(r"[0-9a-f]{64} \S.*", line) for line in first)
    inputs = sorted(p.name for p in cli_corpus.GOLDEN.glob("*.input.json"))
    assert inputs
    for name in inputs:
        assert any(f"corpus/golden/{name}" in line for line in first), name
    per_input = len(cli_corpus.FILE_VERBS) * len(cli_corpus.VALIDATE_FLAGS) + 1
    assert len(first) == len(inputs) * per_input * len(cli_corpus.JSON_FLAGS)
