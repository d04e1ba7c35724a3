"""Run the benchmark on two checkouts in alternating pairs and summarise.

    python tests/bench_pairs.py PARENT CHANGE --workload W --seeds A-B

For each seed from A to B it runs ``perfbench/run.py --trace 0`` once in
each checkout, one run at a time, for the ``run_seconds`` of CHANGE's
``BENCHMARK.json``; the parent goes first on the first seed, and the side
that goes first alternates from seed to seed. Every run, on either side,
gets a new, empty ``PYTHONPYCACHEPREFIX``, so no run reads bytecode left
in a checkout's ``__pycache__``. Each run's result line is printed as it
comes. At the end it prints, for every end-to-end metric of
``BENCHMARK.json``, the median and quartiles of both sides and the number
of pairs in which the change is better (ties count for neither side),
then one JSON line with the summary and every result line.

It stops, with exit 1, at the first run that fails, reads
``correct: false`` or counts a failed request. Standard library only; not
a test module, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple


def parse_result(stdout: str) -> Dict:
    """The result object: the last line ``perfbench/run.py`` prints."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no result line")
    return json.loads(lines[-1])


def check_result(result: Dict) -> None:
    """Refuse a run whose answers were wrong or whose requests failed."""
    if result.get("correct") is not True:
        raise ValueError("run reported correct: false")
    if result.get("failed", 0) > 0:
        raise ValueError(f"run reported {result['failed']} failed requests")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(
    pairs: Sequence[Tuple[Dict, Dict]], better: Dict[str, str]
) -> Dict[str, Dict]:
    """Per metric of ``better`` (name -> "lower" or "higher"), over the
    (parent, change) result pairs: both sides' medians and quartiles and
    the pairs in which the change reads strictly better."""
    out = {}
    for name, direction in better.items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if direction == "higher" else -1
        p1, p2, p3 = quartiles(parent)
        c1, c2, c3 = quartiles(change)
        out[name] = {
            "parent_median": p2,
            "parent_quartiles": [p1, p3],
            "change_median": c2,
            "change_quartiles": [c1, c3],
            "change_better_pairs": sum(
                sign * (c - p) > 0 for p, c in zip(parent, change)
            ),
            "pairs": len(pairs),
        }
    return out


def format_summary(summary: Dict[str, Dict]) -> List[str]:
    """One line per metric: parent median [quartiles] -> change's, wins."""
    return [
        f"{name}: {s['parent_median']:.4g} "
        f"[{s['parent_quartiles'][0]:.4g}, {s['parent_quartiles'][1]:.4g}]"
        f" -> {s['change_median']:.4g} "
        f"[{s['change_quartiles'][0]:.4g}, {s['change_quartiles'][1]:.4g}]"
        f", change better in {s['change_better_pairs']}/{s['pairs']}"
        for name, s in summary.items()
    ]


def parse_seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    low = int(first)
    high = int(last) if last else low
    if high < low:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(low, high + 1))


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> Dict:
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    # Each run gets a new, empty bytecode cache, inherited by the benchmark's
    # workers, so that neither side reads bytecode that a working tree's
    # __pycache__ or an earlier run left behind: both compile alike.
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        proc = subprocess.run(
            cmd, cwd=checkout, capture_output=True, text=True, env=env
        )
    if proc.returncode != 0:
        raise ValueError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    result = parse_result(proc.stdout)
    check_result(result)
    return result


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="A-B, inclusive")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {metric["name"]: metric["better"] for metric in bench["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    pairs = []
    for index, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            try:
                results[side] = run_once(
                    sides[side], args.workload, seed, bench["run_seconds"]
                )
            except ValueError as exc:
                print(f"bench_pairs: {side} seed {seed}: {exc}", file=sys.stderr)
                return 1
            print(f"{side} seed {seed}: {json.dumps(results[side])}", flush=True)
        pairs.append((results["parent"], results["change"]))
    summary = summarize(pairs, better)
    for line in format_summary(summary):
        print(line)
    print(json.dumps({
        "workload": args.workload,
        "seeds": args.seeds,
        "summary": summary,
        "runs": [{"parent": p, "change": c} for p, c in pairs],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
