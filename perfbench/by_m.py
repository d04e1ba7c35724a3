"""Per-size layer times from the per-request log of a traced run.

    python3 perfbench/by_m.py perfbench/out/solve_ladder-seed1-trace1-<pid>.jsonl

For each (verb, m, |A|) it prints the number of traced requests and the mean
seconds per request of each layer: inclusive (the span with its children)
and self. Layers default to the LP ones; pass more names after the file.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def main() -> int:
    path, *layers = sys.argv[1:]
    layers = layers or ["simplex.solve", "simplex.uniqueness_test", "simplex.simplex_min"]
    groups = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("phase") == "traced":
                groups[(record["verb"], record["m"], record["active_size"])].append(record)
    print("verb m |A| n " + " ".join(f"{name}(incl/self)" for name in layers))
    for (verb, m, size), records in sorted(groups.items()):
        cells = []
        for name in layers:
            incl = sum(r["total_s"].get(name, 0.0) for r in records) / len(records)
            own = sum(r["self_s"].get(name, 0.0) for r in records) / len(records)
            cells.append(f"{incl:.4f}/{own:.4f}")
        print(f"{verb} {m} {size} {len(records)} " + " ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
