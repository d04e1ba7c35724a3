"""Seeded instances and the request round of each workload.

Every instance comes from the benchmark's own ``random.Random(seed)``; the
program under test only ever receives the files written here. A round lists
each request once, in a seeded order; the benchmark repeats whole rounds.

Each size mix is many small instances and a few large ones. The counts are
chosen so that, for the code first measured, the median request and the 90th
percentile each fall well inside one size class instead of on the border
between two, which would make them jump from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import reference

# Each GF(2) terminal observes ROWS random nonzero combinations of m base
# bits, the family of the ROADMAP baseline table. With one row per terminal
# the structure swings from seed to seed (LP cost by 2x, I(A) from one
# minimizer to every partition); with two it stays comparable.
ROWS = 2
# Distinct instances per (m, active kind); "all" is A = M, an int is |A|.
# p90 falls among the m = 5 requests; 24 of them per kind keep it steady.
SOLVE_LADDER = {4: 59, 5: 24, 6: 1, 7: 1, 8: 1}
SOLVE_KINDS = ("all", 3)
# Entropy tables: (m, active kind, copies, how many copies are perturbed).
BOUND_TABLES = [
    (7, "all", 11, 2), (7, 3, 11, 2), (7, 4, 10, 2), (7, 5, 10, 2),
    (8, "all", 2, 0), (8, 3, 1, 0), (8, 4, 2, 0), (8, 5, 1, 1),
    (9, "all", 1, 0), (9, 4, 1, 1),
]
DECIDE_MIX = {4: 43, 5: 12, 6: 1, 7: 1}
DECIDE_KINDS = ("all", 3)

WORKLOADS = ("solve_ladder", "bound_tables", "decide_mix")

BUILTIN_VERBS = {
    "ce-paper-h": ("counterexample", "--mode", "paper-h", "--json"),
    "ce-generative": ("counterexample", "--mode", "generative", "--json"),
    "audit": ("audit", "--json"),
}


@dataclass(frozen=True)
class Instance:
    name: str
    m: int
    active: int  # mask
    source_type: str  # "linear_gf2" or "entropy_vector"
    rows: Tuple[Tuple[int, ...], ...]  # per-terminal GF(2) rows
    joint: Tuple[Fraction, ...]  # H(X_S) as written (perturbed if broken)
    violation: Optional[Tuple[int, int]] = None  # a violating h-pair (b1, b2)

    @property
    def path(self) -> str:
        return self.name + ".json"

    def document(self) -> Dict:
        active = [j + 1 for j in range(self.m) if self.active >> j & 1]
        if self.source_type == "linear_gf2":
            source = {
                "type": "linear_gf2",
                "base_bits": self.m,
                "terminals": [
                    ["".join("1" if r >> t & 1 else "0" for t in range(self.m)) for r in rs]
                    for rs in self.rows
                ],
            }
        else:
            source = {
                "type": "entropy_vector",
                "values": {
                    ",".join(str(j + 1) for j in range(self.m) if s >> j & 1): str(v)
                    for s, v in enumerate(self.joint)
                    if s
                },
            }
        return {"m": self.m, "active": active, "source": source}


@dataclass(frozen=True)
class Request:
    verb: str  # solve, mdb, validate, tight, tight-constructive, ce-*, audit
    args: Tuple[str, ...]  # argv without the file path
    instance: Optional[Instance]
    expect_exit: int

    def argv(self, workdir: str) -> List[str]:
        if self.instance is None:
            return list(self.args)
        verb, *flags = self.args
        return [verb, os.path.join(workdir, self.instance.path), *flags]

    @property
    def key(self) -> Tuple[str, str]:
        return self.verb, self.instance.name if self.instance else ""

    def record(self) -> Dict:
        if self.instance is None:
            return {"verb": self.verb, "m": 6, "active_size": 3, "source_type": "builtin"}
        inst = self.instance
        return {
            "verb": self.verb,
            "m": inst.m,
            "active_size": bin(inst.active).count("1"),
            "source_type": inst.source_type,
            "instance": inst.name,
        }


def _active(rng: random.Random, m: int, kind) -> int:
    if kind == "all":
        return (1 << m) - 1
    return reference.mask_of(rng.sample(range(1, m + 1), kind))


def _linear(rng: random.Random, name: str, m: int, kind) -> Instance:
    active = _active(rng, m, kind)
    rows = tuple(tuple(rng.randrange(1, 1 << m) for _ in range(ROWS)) for _ in range(m))
    return Instance(name, m, active, "linear_gf2", rows, reference.linear_joint(m, rows))


def _perturb(rng: random.Random, joint: List[Fraction], m: int) -> Tuple[int, int]:
    """Lower H(X) for one set X so that H(X) + H(T) < H(X | T) + H(X & T)
    for one set T incomparable with X, by exactly 1/2. Lowering one value
    only breaks pairs that contain X itself, at most 2^m of them, so the
    listing stays small. Returns the broken h-pair (b1, b2), b1 <= b2."""
    full = (1 << m) - 1
    while True:
        x, t = rng.randrange(1, full), rng.randrange(1, full)
        if x & t not in (x, t):
            break
    slack = joint[x] + joint[t] - joint[x | t] - joint[x & t]
    joint[x] -= slack + Fraction(1, 2)
    return tuple(sorted((full & ~x, full & ~t)))


def _tables(rng: random.Random) -> List[Instance]:
    out = []
    for m, kind, copies, perturbed in BOUND_TABLES:
        for c in range(copies):
            base = _linear(rng, f"vec-m{m}-{kind}-{c}", m, kind)
            joint, pair = list(base.joint), None
            if c >= copies - perturbed:
                pair = _perturb(rng, joint, m)
            out.append(Instance(base.name, m, base.active, "entropy_vector",
                                base.rows, tuple(joint), pair))
    return out


def _linears(rng: random.Random, sizes: Dict[int, int], kinds) -> List[Instance]:
    return [
        _linear(rng, f"lin-m{m}-{kind}-{c}", m, kind)
        for m, copies in sizes.items()
        for kind in kinds
        for c in range(copies)
    ]


def build_round(workload: str, seed: int) -> List[Request]:
    """The seeded request round of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "solve_ladder":
        requests = [
            Request("solve", ("solve", "--json"), inst, 0)
            for inst in _linears(rng, SOLVE_LADDER, SOLVE_KINDS)
        ]
    elif workload == "bound_tables":
        requests = []
        for inst in _tables(rng):
            broken = inst.violation is not None
            requests.append(Request("mdb", ("mdb", "--json"), inst, 2 if broken else 0))
            requests.append(
                Request("validate", ("validate", "--json"), inst, 2 if broken else 0)
            )
    elif workload == "decide_mix":
        requests = []
        for inst in _linears(rng, DECIDE_MIX, DECIDE_KINDS):
            requests.append(Request("tight", ("tight", "--json"), inst, 0))
            requests.append(
                Request("tight-constructive", ("tight", "--constructive", "--json"), inst, 0)
            )
        for verb, args in BUILTIN_VERBS.items():
            requests.append(Request(verb, args, None, 0))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(requests)
    return requests


def instances(requests: List[Request]) -> List[Instance]:
    seen: Dict[str, Instance] = {}
    for req in requests:
        if req.instance is not None:
            seen.setdefault(req.instance.name, req.instance)
    return list(seen.values())


def write_files(requests: List[Request], workdir: str) -> int:
    """Write every instance file; returns the bytes written."""
    os.makedirs(workdir, exist_ok=True)
    total = 0
    for inst in instances(requests):
        text = json.dumps(inst.document())
        with open(os.path.join(workdir, inst.path), "w", encoding="utf-8") as fh:
            fh.write(text)
        total += len(text)
    return total
