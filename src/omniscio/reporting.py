"""Report assembly and rendering for the command-line surface.

Reports are plain dicts with deterministic key order; rationals serialize
as "p/q" strings so the machine format round-trips exactly, and subsets as
sorted 1-based terminal lists.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Sequence

from . import __version__
from .dependence import mutual_dependence_bound
from .errors import ComputationError
from .fileio import format_fraction_text
from .omniscience import CapacityReport, build_family, r_co
from .sources import (
    COUNTEREXAMPLE_ACTIVE,
    PUBLISHED_BOUND,
    PUBLISHED_C_SK,
    PUBLISHED_R_CO,
    PUBLISHED_RATES,
    PUBLISHED_TIGHT_MASKS,
    EntropyOracle,
    check_validity,
    counterexample_entropy_vector,
    make_counterexample,
    make_oracle,
)
from .subsets import full_mask, terminals_of
from .tightness import TightnessVerdict, check_bound, witness_by_partition_search

def _partition(blocks: Sequence[int]) -> List[List[int]]:
    return [terminals_of(b) for b in blocks]


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0, with no Fraction built."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _capacity_fields(report: CapacityReport) -> Dict[str, Any]:
    # The rates and dual weights are written straight from the solution's
    # ints, which costs a fifth of building and printing a Fraction each.
    solution = report.solution
    x_den, y_den = solution.x_den, solution.y_den
    return {
        "r_co": str(report.r_co),
        "c_sk": str(report.c_sk),
        "rates": [_ratio(v, x_den) for v in solution.x_num],
        "dual": [_ratio(v, y_den) for v in solution.y_num],
        "tight_constraints": [terminals_of(mask) for mask in report.tight_masks],
        "uniqueness": {
            "verdict": report.uniqueness.verdict,
            "auxiliary_value": str(report.uniqueness.auxiliary_value),
        },
    }


def _header(command: str, input_echo: Dict[str, Any]) -> Dict[str, Any]:
    return {"command": command, "version": __version__, "input": input_echo}


def solve_report(
    oracle: EntropyOracle, active: int, input_echo: Dict[str, Any]
) -> Dict[str, Any]:
    report = r_co(oracle, active)
    out = _header("solve", input_echo)
    out["m"] = oracle.m
    out["active"] = terminals_of(active)
    out["total_entropy"] = str(oracle.total_entropy())
    out["exact"] = oracle.exact
    out.update(_capacity_fields(report))
    return out


def mdb_report(
    oracle: EntropyOracle, active: int, input_echo: Dict[str, Any]
) -> Dict[str, Any]:
    bound, minimizers = mutual_dependence_bound(oracle, active)
    out = _header("mdb", input_echo)
    out["m"] = oracle.m
    out["active"] = terminals_of(active)
    out["mutual_dependence_bound"] = str(bound)
    out["minimizers"] = [_partition(p) for p in minimizers]
    return out


def _verdict_fields(verdict: TightnessVerdict) -> Dict[str, Any]:
    fields: Dict[str, Any] = {
        "tight": verdict.tight,
        "c_sk": str(verdict.c_sk),
        "mutual_dependence_bound": str(verdict.bound),
        "gap": str(verdict.gap),
    }
    if verdict.witness is not None:
        partition, rates = verdict.witness
        fields["witness"] = {
            "partition": _partition(partition),
            "rates": list(map(str, rates)),
        }
    else:
        fields["witness"] = None
    return fields


def tight_report(
    oracle: EntropyOracle,
    active: int,
    input_echo: Dict[str, Any],
    *,
    constructive: bool = False,
) -> Dict[str, Any]:
    report = r_co(oracle, active)
    if constructive:
        verdict = witness_by_partition_search(oracle, active, report=report)
    else:
        verdict = check_bound(oracle, active, report=report)
    out = _header("tight", input_echo)
    out["m"] = oracle.m
    out["active"] = terminals_of(active)
    out["method"] = "constructive" if constructive else "direct"
    out.update(_verdict_fields(verdict))
    return out


def validate_report(
    oracle: EntropyOracle, input_echo: Dict[str, Any]
) -> Dict[str, Any]:
    report = check_validity(oracle)
    out = _header("validate", input_echo)
    out["m"] = oracle.m
    out["valid"] = report.ok
    out["normalized"] = report.normalized
    out["monotonicity_violations"] = [
        {"subset": terminals_of(b1), "superset": terminals_of(b2)}
        for b1, b2 in report.monotonicity_violations
    ]
    out["supermodularity_violations"] = [
        _violation(*v) for v in report.supermodularity_violations
    ]
    return out


def _violation(b1: int, b2: int, lhs: Fraction, rhs: Fraction) -> Dict[str, Any]:
    """One supermodularity violation h(B1) + h(B2) = lhs > rhs."""
    return {
        "b1": terminals_of(b1),
        "b2": terminals_of(b2),
        "lhs": str(lhs),
        "rhs": str(rhs),
    }


def _counterexample_instance(mode: str):
    if mode == "paper-h":
        vector = counterexample_entropy_vector()
        return make_oracle(vector, validate=False), COUNTEREXAMPLE_ACTIVE
    if mode == "generative":
        source, active = make_counterexample()
        return make_oracle(source), active
    raise ComputationError(f"unknown counterexample mode {mode!r}")


def counterexample_report(mode: str) -> Dict[str, Any]:
    oracle, active = _counterexample_instance(mode)
    report = r_co(oracle, active)
    bound, minimizers = mutual_dependence_bound(oracle, active)

    out = _header("counterexample", {"builtin": mode})
    out["m"] = oracle.m
    out["active"] = terminals_of(active)
    out["total_entropy"] = str(oracle.total_entropy())
    out.update(_capacity_fields(report))
    out["mutual_dependence_bound"] = str(bound)
    out["minimizers"] = [_partition(p) for p in minimizers]
    out["gap"] = str(bound - report.c_sk)
    out["strict_gap"] = bound > report.c_sk

    if mode == "paper-h":
        _assert_published_values(report, bound)
    else:
        if not bound > report.c_sk:
            raise ComputationError(
                f"expected a strict gap, got C_SK = {report.c_sk}, "
                f"I(A) = {bound}"
            )
    return out


def _assert_published_values(report: CapacityReport, bound: Fraction) -> None:
    checks = [
        (
            report.r_co == PUBLISHED_R_CO,
            f"R_CO = {report.r_co}, expected {PUBLISHED_R_CO}",
        ),
        (
            report.c_sk == PUBLISHED_C_SK,
            f"C_SK = {report.c_sk}, expected {PUBLISHED_C_SK}",
        ),
        (bound == PUBLISHED_BOUND, f"I(A) = {bound}, expected {PUBLISHED_BOUND}"),
        (report.rates == PUBLISHED_RATES, f"optimal rates {report.rates}"),
        (report.uniqueness.unique, "optimum expected to be unique"),
        (
            {frozenset(terminals_of(m)) for m in report.tight_masks}
            >= set(PUBLISHED_TIGHT_MASKS),
            "published six constraints must be among the tight ones",
        ),
    ]
    # The cardinality-only entropy table makes twelve constraints tight at
    # this vertex, not six, and its optimal dual is not unique; only the
    # generative realization pins down the six-row pattern.  So the check
    # above asks for containment, not equality.
    failures = [msg for ok, msg in checks if not ok]
    if failures:
        raise ComputationError("; ".join(failures))


def audit_report() -> Dict[str, Any]:
    paper = counterexample_report("paper-h")
    generative = counterexample_report("generative")

    paper_oracle, active = _counterexample_instance("paper-h")
    gen_oracle, _ = _counterexample_instance("generative")
    family = build_family(6, active)

    table = []
    for mask in (*family.masks, full_mask(6)):
        h_paper = paper_oracle.cond_entropy(mask)
        h_gen = gen_oracle.cond_entropy(mask)
        table.append(
            {
                "subset": terminals_of(mask),
                "h_paper": str(h_paper),
                "h_generative": str(h_gen),
                "equal": h_paper == h_gen,
            }
        )

    def validity_fields(oracle: EntropyOracle) -> Dict[str, Any]:
        report = check_validity(oracle)
        fields: Dict[str, Any] = {
            "valid": report.ok,
            "supermodularity_violations": len(report.supermodularity_violations),
        }
        if report.supermodularity_violations:
            fields["first_violation"] = _violation(
                *report.supermodularity_violations[0]
            )
        return fields

    out = _header("audit", {"builtin": "counterexample"})
    out["paper_h"] = paper
    out["generative"] = generative
    out["entropy_validity"] = {
        "paper_h": validity_fields(paper_oracle),
        "generative": validity_fields(gen_oracle),
    }
    out["discrepancies"] = table
    out["differing_subsets"] = sum(1 for row in table if not row["equal"])
    return out


def render_json(report: Dict[str, Any]) -> str:
    """Exactly ``json.dumps(report, indent=2)`` and a newline, written
    directly: with an indent the standard library falls back to its
    pure-Python encoder. Values are dicts with string keys, lists,
    strings, ints, booleans and None."""
    return _json(report, "\n") + "\n"


def _json(value: Any, newline: str) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _text_fraction(text: str) -> str:
    return format_fraction_text(Fraction(text))


def _set_text(terminals: List[int]) -> str:
    return "{" + ",".join(map(str, terminals)) + "}"


def _partition_text(blocks: List[List[int]]) -> str:
    return " | ".join(map(_set_text, blocks))


def render_text(report: Dict[str, Any]) -> str:
    lines = [f"omniscio {report['version']} -- {report['command']}"]
    echo = report["input"]
    lines.append("input: " + ", ".join(f"{k}={v}" for k, v in echo.items()))
    if "active" in report:
        lines.append(f"m = {report['m']}, A = {_set_text(report['active'])}")
    elif "m" in report:
        lines.append(f"m = {report['m']}")

    def emit(label: str, key: str) -> None:
        if key in report:
            lines.append(f"{label} = {_text_fraction(report[key])}")

    emit("H(X_M)", "total_entropy")
    emit("R_CO", "r_co")
    emit("C_SK", "c_sk")
    emit("I(A)", "mutual_dependence_bound")
    emit("gap", "gap")
    if "rates" in report:
        lines.append(
            "rates: (" + ", ".join(_text_fraction(v) for v in report["rates"]) + ")"
        )
    if "tight_constraints" in report:
        rendered = [_set_text(s) for s in report["tight_constraints"]]
        lines.append(f"tight constraints ({len(rendered)}): " + " ".join(rendered))
    if "uniqueness" in report:
        lines.append(f"optimum uniqueness: {report['uniqueness']['verdict']}")
    if "minimizers" in report:
        lines.append(f"minimizing partitions ({len(report['minimizers'])}):")
        for blocks in report["minimizers"]:
            lines.append("  " + _partition_text(blocks))
    if "tight" in report:
        lines.append(f"bound tight: {'yes' if report['tight'] else 'no'}"
                     f" (method: {report.get('method', 'direct')})")
        witness = report.get("witness")
        if witness:
            lines.append("witness partition: " + _partition_text(witness["partition"]))
            lines.append(
                "witness rates: ("
                + ", ".join(_text_fraction(v) for v in witness["rates"])
                + ")"
            )
    if "valid" in report:
        lines.append(f"valid entropy function: {'yes' if report['valid'] else 'no'}")
        for item in report.get("supermodularity_violations", []):
            lines.append(
                f"  supermodularity violated: B1={_set_text(item['b1'])}"
                f" B2={_set_text(item['b2'])}"
                f" ({_text_fraction(item['lhs'])} > {_text_fraction(item['rhs'])})"
            )
        for item in report.get("monotonicity_violations", []):
            lines.append(
                f"  monotonicity violated: {_set_text(item['subset'])}"
                f" vs {_set_text(item['superset'])}"
            )
    if "strict_gap" in report:
        lines.append(
            "strict gap: " + ("yes" if report["strict_gap"] else "no")
        )
    if report["command"] == "audit":
        lines.append("")
        lines.append("== paper-h mode ==")
        lines.append(render_text(report["paper_h"]).rstrip("\n"))
        lines.append("")
        lines.append("== generative mode ==")
        lines.append(render_text(report["generative"]).rstrip("\n"))
        lines.append("")
        validity = report["entropy_validity"]
        for name in ("paper_h", "generative"):
            entry = validity[name]
            status = "valid" if entry["valid"] else (
                f"INVALID ({entry['supermodularity_violations']} supermodularity violations)"
            )
            lines.append(f"{name} entropy function: {status}")
            if "first_violation" in entry:
                v = entry["first_violation"]
                lines.append(
                    f"  first violation: B1={_set_text(v['b1'])}"
                    f" B2={_set_text(v['b2'])}"
                )
        lines.append("")
        lines.append(f"h discrepancy table ({report['differing_subsets']} differing):")
        lines.append("  subset | h(paper) | h(generative)")
        for row in report["discrepancies"]:
            flag = "" if row["equal"] else "  <- differs"
            lines.append(
                f"  {_set_text(row['subset'])} | "
                f"{row['h_paper']} | {row['h_generative']}{flag}"
            )
    return "\n".join(lines) + "\n"
