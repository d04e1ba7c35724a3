"""The summary of ``tests/bench_pairs.py``, on fixed result lines.

No benchmark runs here: the lines are written out as ``perfbench/run.py``
prints its last one.
"""

import json
import os
import subprocess

import pytest

import bench_pairs
from bench_pairs import (
    check_result,
    format_summary,
    parse_result,
    parse_seeds,
    summarize,
)


def result_line(p50, rps, correct=True, failed=0):
    return json.dumps({
        "correct": correct,
        "attempted": 200,
        "failed": failed,
        "metrics": {
            "requests_per_s": {"value": rps, "unit": "1/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
        },
    })


BETTER = {"requests_per_s": "higher", "latency_p50_ms": "lower"}

# Five pairs: (parent p50, parent rps), (change p50, change rps). The
# change is faster in four pairs, ties in one p50 and loses one rps.
PAIRS = [
    ((0.40, 1700.0), (0.30, 1900.0)),
    ((0.38, 1750.0), (0.29, 1950.0)),
    ((0.36, 1800.0), (0.36, 1700.0)),
    ((0.42, 1650.0), (0.31, 2000.0)),
    ((0.39, 1720.0), (0.28, 1980.0)),
]


def fixed_pairs():
    return [
        (
            parse_result("perfbench: ...\n" + result_line(*parent)),
            parse_result(result_line(*change) + "\n"),
        )
        for parent, change in PAIRS
    ]


def test_medians_quartiles_and_wins():
    summary = summarize(fixed_pairs(), BETTER)
    p50 = summary["latency_p50_ms"]
    assert p50["parent_median"] == pytest.approx(0.39)
    assert p50["parent_quartiles"] == pytest.approx([0.38, 0.40])
    assert p50["change_median"] == pytest.approx(0.30)
    assert p50["change_quartiles"] == pytest.approx([0.29, 0.31])
    assert (p50["change_better_pairs"], p50["pairs"]) == (4, 5)
    rps = summary["requests_per_s"]
    assert rps["parent_median"] == pytest.approx(1720.0)
    assert rps["change_median"] == pytest.approx(1950.0)
    assert rps["change_better_pairs"] == 4


def test_one_pair_and_the_printed_lines():
    summary = summarize(fixed_pairs()[:1], BETTER)
    assert summary["latency_p50_ms"]["parent_quartiles"] == [0.40, 0.40]
    assert format_summary(summary) == [
        "requests_per_s: 1700 [1700, 1700] -> 1900 [1900, 1900], "
        "change better in 1/1",
        "latency_p50_ms: 0.4 [0.4, 0.4] -> 0.3 [0.3, 0.3], "
        "change better in 1/1",
    ]


def test_wrong_or_failed_runs_are_refused():
    check_result(parse_result(result_line(0.3, 2000.0)))
    with pytest.raises(ValueError, match="correct: false"):
        check_result(parse_result(result_line(0.3, 2000.0, correct=False)))
    with pytest.raises(ValueError, match="2 failed"):
        check_result(parse_result(result_line(0.3, 2000.0, failed=2)))
    with pytest.raises(ValueError, match="no result line"):
        parse_result("\n")


def test_seed_ranges():
    assert parse_seeds("551-560") == list(range(551, 561))
    assert parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        parse_seeds("9-3")


def test_every_run_gets_its_own_empty_bytecode_cache(tmp_path, monkeypatch):
    # A stale __pycache__ in one checkout must not be read on one side only:
    # each run, parent and change alike, compiles into a new, empty cache.
    sides = {}
    for side in ("parent", "change"):
        sides[side] = tmp_path / side
        (sides[side] / "perfbench" / "__pycache__").mkdir(parents=True)
    (sides["change"] / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "end_to_end": [{"name": "latency_p50_ms", "better": "lower"}],
    }))
    runs = []

    def fake_run(cmd, cwd, env, **kwargs):
        cache = env["PYTHONPYCACHEPREFIX"]
        assert os.path.isdir(cache) and not os.listdir(cache)
        rest = {k: v for k, v in env.items() if k != "PYTHONPYCACHEPREFIX"}
        runs.append((cwd, cache, rest))
        return subprocess.CompletedProcess(cmd, 0, result_line(0.3, 2000.0), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    argv = [str(sides["parent"]), str(sides["change"]), "--workload", "w"]
    assert bench_pairs.main([*argv, "--seeds", "1-2"]) == 0
    assert [cwd for cwd, _, _ in runs] == [
        str(sides[side]) for side in ("parent", "change", "change", "parent")
    ]
    caches = [cache for _, cache, _ in runs]
    assert len(set(caches)) == 4
    # None of them inside a checkout, and every one gone after its run.
    assert not any(cache.startswith(str(tmp_path)) for cache in caches)
    assert all(env == runs[0][2] for _, _, env in runs)
    assert not any(os.path.exists(cache) for cache in caches)
