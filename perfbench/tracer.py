"""Per-layer spans and counters, recorded from outside the package.

Each public function is replaced, for the length of the traced pass, under
every name a caller looks it up by. ``from .x import y`` copies the binding
into the importing module, so wrapping only the defining module would miss
those calls. Spans nest on one stack; a layer's self time is its span
duration minus the time covered by its child spans. Only per-name totals
are kept, so memory stays flat however many spans a run records.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

# (layer name, [(module, attribute), ...]) for plain calls. Every binding a
# caller resolves at call time is listed.
WRAPPED_CALLS = [
    ("cli.main", [("cli", "main")]),
    ("reporting.report", [
        ("cli", "solve_report"), ("cli", "mdb_report"), ("cli", "tight_report"),
        ("cli", "validate_report"), ("cli", "counterexample_report"),
        ("cli", "audit_report"), ("reporting", "counterexample_report"),
    ]),
    ("reporting.render", [("cli", "render_json"), ("cli", "render_text")]),
    ("fileio.parse", [("cli", "parse_source_file")]),
    ("sources.make_oracle", [("fileio", "make_oracle"), ("reporting", "make_oracle")]),
    ("gf2.rank", [("sources", "gf2_rank")]),
    ("sources.check_validity", [("sources", "check_validity"), ("reporting", "check_validity")]),
    ("omniscience.r_co", [("reporting", "r_co"), ("tightness", "r_co")]),
    ("omniscience.build_family", [("omniscience", "build_family"), ("reporting", "build_family")]),
    ("simplex.solve", [("omniscience", "solve")]),
    ("simplex.uniqueness_test", [("omniscience", "uniqueness_test")]),
    ("simplex.simplex_min", [("simplex", "simplex_min")]),
    ("simplex.feasible_point", [("tightness", "feasible_point")]),
    ("tightness.witness_search", [("reporting", "witness_by_partition_search")]),
    ("tightness.check_bound", [("reporting", "check_bound")]),
    ("dependence.mutual_dependence_bound", [
        ("reporting", "mutual_dependence_bound"), ("tightness", "mutual_dependence_bound"),
    ]),
    ("dependence.partition_dependence", [
        ("dependence", "partition_dependence"), ("tightness", "partition_dependence"),
    ]),
]
# Generator functions: each next() is one span under the caller's span.
WRAPPED_GENERATORS = [
    ("dependence.enumerate", "dependence", [("dependence", "enumerate_admissible")]),
    ("dependence.enumerate", "tightness", [("tightness", "enumerate_admissible")]),
]


class Tracer:
    """Stack of open spans plus per-name self time, calls and counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.denominator_bits_max = 0
        self._stack: List[List[float]] = []  # [start, child time]
        self._saved: List[Tuple[Any, str, Any]] = []

    def _enter(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, name: str) -> None:
        start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        return dict(self.self_s), dict(self.total_s)

    def since(self, before) -> Dict[str, Dict[str, float]]:
        """Per-layer self and inclusive seconds added since ``snapshot()``."""
        return {
            key: {name: value - old.get(name, 0.0)
                  for name, value in now.items() if value != old.get(name, 0.0)}
            for key, now, old in (("self_s", self.self_s, before[0]),
                                  ("total_s", self.total_s, before[1]))
        }

    def _wrap_call(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, caller: str, fn: Callable) -> Callable:
        visited = f"{caller}.partitions"

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def spans():
                while True:
                    self._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name)
                    self.counts[visited] += 1
                    yield item

            return spans()

        return traced

    def _replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, modules: Dict[str, Any]) -> None:
        for name, sites in WRAPPED_CALLS:
            for mod, attr in sites:
                owner = modules[mod]
                self._replace(owner, attr, self._wrap_call(name, getattr(owner, attr)))
        for name, caller, sites in WRAPPED_GENERATORS:
            for mod, attr in sites:
                owner = modules[mod]
                self._replace(owner, attr, self._wrap_generator(name, caller, getattr(owner, attr)))
        # A method: priced on the class, so every instance sees the wrapper.
        family = modules["omniscience"].ConstraintFamily
        self._replace(family, "system", self._wrap_call("omniscience.price", family.system))

    def restore(self) -> List[str]:
        """Put every original back; returns the bindings still not original."""
        originals = list(self._saved)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in originals
            if owner.__dict__.get(attr) is not original
            or getattr(original, "__qualname__", "").startswith("Tracer.")
        ]


def _parse(tr: Tracer, args, result) -> None:
    tr.counts["fileio.input_bytes"] += os.path.getsize(args[0])


def _oracle(tr: Tracer, args, result) -> None:
    tr.counts["sources.oracle_entries"] += len(result.joint)


def _validity(tr: Tracer, args, result) -> None:
    size = 1 << args[0].m
    tr.counts["sources.validity_pairs"] += size * (size + 1) // 2
    tr.counts["sources.violations_listed"] += (
        len(result.monotonicity_violations) + len(result.supermodularity_violations)
    )


def _family(tr: Tracer, args, result) -> None:
    tr.counts["omniscience.family_rows"] += result.size


def _simplex_min(tr: Tracer, args, result) -> None:
    rows, cols = len(args[0]), len(args[2])
    tr.counts["simplex.tableau_cells"] += rows * (cols + rows + 1)


def _solution(tr: Tracer, args, result) -> None:
    tr.counts["simplex.dual_support"] += result.support_size
    bits = max(v.denominator.bit_length() for v in result.x + result.y)
    tr.denominator_bits_max = max(tr.denominator_bits_max, bits)


def _witness(tr: Tracer, args, result) -> None:
    tr.counts["tightness.witness_found"] += result.witness is not None


OBSERVERS = {
    "fileio.parse": _parse,
    "sources.make_oracle": _oracle,
    "sources.check_validity": _validity,
    "omniscience.build_family": _family,
    "simplex.simplex_min": _simplex_min,
    "simplex.solve": _solution,
    "tightness.witness_search": _witness,
}

# Reported self times (seconds) and call counts, in report order.
TIME_METRICS = [
    "cli.main", "reporting.report", "reporting.render", "fileio.parse",
    "sources.make_oracle", "gf2.rank", "sources.check_validity",
    "omniscience.r_co", "omniscience.build_family", "omniscience.price",
    "simplex.solve", "simplex.uniqueness_test", "simplex.simplex_min",
    "simplex.feasible_point", "tightness.witness_search", "tightness.check_bound",
    "dependence.mutual_dependence_bound", "dependence.enumerate",
    "dependence.partition_dependence",
]
CALL_METRICS = {
    "cli.requests": "cli.main",
    "gf2.rank_calls": "gf2.rank",
    "simplex.simplex_min_calls": "simplex.simplex_min",
    "simplex.feasible_point_calls": "simplex.feasible_point",
    "dependence.partition_dependence_calls": "dependence.partition_dependence",
}


def per_layer(tr: Tracer, overhead_ratio: float) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, by name, with its unit."""
    out: Dict[str, Dict[str, Any]] = {}
    for name in TIME_METRICS:
        out[name + "_s"] = {"value": tr.self_s.get(name, 0.0), "unit": "s"}
    for metric, name in CALL_METRICS.items():
        out[metric] = {"value": tr.calls.get(name, 0), "unit": "count"}
    for metric, unit in (
        ("fileio.input_bytes", "bytes"), ("sources.oracle_entries", "count"),
        ("sources.validity_pairs", "count"), ("sources.violations_listed", "count"),
        ("omniscience.family_rows", "count"), ("simplex.tableau_cells", "count"),
        ("simplex.dual_support", "count"), ("tightness.witness_found", "count"),
    ):
        out[metric] = {"value": int(tr.counts.get(metric, 0)), "unit": unit}
    out["simplex.denominator_bits_max"] = {"value": tr.denominator_bits_max, "unit": "bits"}
    visited = tr.counts.get("dependence.partitions", 0) + tr.counts.get("tightness.partitions", 0)
    out["dependence.partitions_visited"] = {"value": int(visited), "unit": "count"}
    searched = tr.counts.get("tightness.partitions", 0)
    out["tightness.witness_lp_ratio"] = {
        "value": tr.calls.get("simplex.feasible_point", 0) / searched if searched else 0.0,
        "unit": "ratio",
    }
    out["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    return out
