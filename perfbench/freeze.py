"""Record the frozen expected answers from the program as it stands.

    python3 perfbench/freeze.py 0 10   # seeds 0..10

For every workload and seed it writes, per instance, R_CO, C_SK, I(A), the
tight verdict and the validity verdict to ``perfbench/expected.json``.
Before writing, each answer passes the independent checker, and the
answers are cross-checked: C_SK = I(A) whenever A = M, ``tight`` and
``tight --constructive`` agree, and the built-in counterexample gives its
published values. Any disagreement aborts without writing.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import workloads
from worker import OUT_DIR, call

EXPECTED = os.path.join("perfbench", "expected.json")


def answers(cli, workload: str, seed: int, workdir: str):
    requests = workloads.build_round(workload, seed)
    workloads.write_files(requests, workdir)

    def run(argv, inst=None):
        path = [os.path.join(workdir, inst.path)] if inst else []
        code, out, _ = call(cli, argv[:1] + path + argv[1:])
        return code, out

    checker = checks.Checker(lambda inst: run(["solve", "--json"], inst), None)
    problems = []

    def checked(req):
        code, out = run(list(req.args), req.instance)
        problems.extend(f"{req.verb} {req.key[1]}: {e}" for e in checker.check(req, code, out))
        return json.loads(out) if out else None

    frozen = {}
    for inst in workloads.instances(requests):
        entry = {}
        all_active = inst.active == (1 << inst.m) - 1
        if inst.source_type == "linear_gf2":
            doc = checked(workloads.Request("solve", ("solve", "--json"), inst, 0))
            entry.update(r_co=doc["r_co"], c_sk=doc["c_sk"])
            if workload == "decide_mix":
                direct = checked(workloads.Request("tight", ("tight", "--json"), inst, 0))
                built = checked(workloads.Request(
                    "tight-constructive", ("tight", "--constructive", "--json"), inst, 0))
                fields = ("tight", "c_sk", "mutual_dependence_bound", "gap")
                if any(direct[f] != built[f] for f in fields):
                    problems.append(f"{inst.name}: tight and tight --constructive disagree")
                entry.update(bound=direct["mutual_dependence_bound"], tight=direct["tight"])
            elif all_active:
                entry["bound"] = checked(
                    workloads.Request("mdb", ("mdb", "--json"), inst, 0))["mutual_dependence_bound"]
            if all_active and entry["c_sk"] != entry["bound"]:
                problems.append(f"{inst.name}: C_SK {entry['c_sk']} != I(A) {entry['bound']}")
        else:
            broken = inst.violation is not None
            doc = checked(workloads.Request("validate", ("validate", "--json"), inst, 2 * broken))
            entry["valid"] = doc["valid"]
            if not broken:
                entry["bound"] = checked(
                    workloads.Request("mdb", ("mdb", "--json"), inst, 0))["mutual_dependence_bound"]
        frozen[inst.name] = entry
    for verb, args in workloads.BUILTIN_VERBS.items():
        checked(workloads.Request(verb, args, None, 0))
    return frozen, problems


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    sys.path.insert(0, "src")
    from omniscio import cli

    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    failed = False
    for workload in workloads.WORKLOADS:
        for seed in range(first, last + 1):
            workdir = os.path.join(OUT_DIR, f"freeze-{workload}-{seed}")
            try:
                frozen, problems = answers(cli, workload, seed, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            for p in problems:
                print(f"freeze: {workload} seed {seed}: {p}", file=sys.stderr)
            failed |= bool(problems)
            expected.setdefault(workload, {})[str(seed)] = frozen
            print(f"freeze: {workload} seed {seed}: {len(frozen)} instances", file=sys.stderr)
    if failed:
        return 1
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
