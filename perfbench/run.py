"""The omniscio benchmark: one workload, one result line.

Run from the root of a checkout (stdlib only, nothing to build):

    python3 perfbench/run.py --workload solve_ladder --seed 1 --seconds 15 --trace 0

The workload runs in its own fresh process (``worker.py``). ``setup_s`` is
the median over ``SETUP_SAMPLES`` fresh processes, each importing the
package and writing the seeded files, including the measuring one. The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
# A run must end within 180 s; its child processes share this much of it.
BUDGET_S = 170


def child(argv, deadline: float):
    """Run worker.py to completion; its last stdout line, parsed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit("perfbench: workload process timed out")
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"perfbench: workload process failed (exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "omniscio", "cli.py")):
        print("perfbench: run from the root of an omniscio checkout "
              "(src/omniscio not found)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        setups = [child(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    result = child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"perfbench: {args.workload} seed {args.seed}: {result['attempted']} requests "
          f"in {result['rounds']} rounds of {result['requests_per_round']}, "
          f"{result['samples_beyond_p90']} beyond p90, {result['failed']} failed")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
