"""One workload in one fresh, single-threaded process.

Run by ``run.py``; prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only

Set-up (timed as ``setup_s``) imports ``omniscio`` and generates and
writes the seeded files. Then exactly ``ROUNDS`` whole rounds run in a
closed loop with one client, however fast the program is, so two commits
are always measured on the same number of repeats. ``--seconds`` is
accepted for the command line of the benchmark and kept in the log; it does
not lengthen or shorten a run. A request is one in-process call to
``omniscio.cli.main(argv)`` with stdout and stderr captured. The first
round's outputs are the ones checked; every later repeat must reproduce
them byte for byte.

Latencies are reported in reference milliseconds. Other tenants of a
shared machine slow the whole interpreter, by up to 2x for seconds to
minutes at a time. So before every request the worker times ``probe()``,
a fixed piece of exact rational arithmetic like the LP's, and divides the
request's latency by the local machine slowdown: the median probe time of
the requests around it over ``PROBE_REF_S``, the probe's time on an idle
machine of the kind the benchmark was built on. A change to the program
leaves the probe alone, so it shows in full. A request's latency is then
the best of its repeats; the first, cold round is one of them rather than
a separate warm-up. Raw latencies and probe times are kept in the log.

With ``--trace 1``, the ``ROUNDS`` untraced rounds run first (the first is
the cold one), then one more round in which each request runs untraced and
at once again with every layer wrapped. Both calls of a pair see the same
machine speed, so their latency ratio is the tracer's overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from typing import List, Tuple

import checks
import tracer
import workloads

OUT_DIR = os.path.join("perfbench", "out")
# p90 needs at least ten samples beyond it.
MIN_REQUESTS = 100
# Each request's latency is its best of exactly this many repeats, the
# first of them cold.
ROUNDS = 2
CRASH = -1
# probe() on an idle 2-vCPU Xeon VM under Python 3.11.7, in seconds.
PROBE_REF_S = 0.75e-3
# A request's machine slowdown is the median probe of this many requests
# centred on it.
PROBE_WINDOW = 11


def probe() -> float:
    """Seconds for a fixed piece of exact rational arithmetic."""
    start = time.perf_counter()
    for i in range(120):
        a = Fraction(i % 17 + 1, i % 13 + 2)
        b = Fraction(i % 11 + 3, i % 7 + 1)
        a * b - a / b + a
    return time.perf_counter() - start


def slowdowns(probes: List[float]) -> List[float]:
    """Machine slowdown around each request, from the probes near it."""
    half = PROBE_WINDOW // 2
    return [statistics.median(probes[max(0, i - half):i + half + 1]) / PROBE_REF_S
            for i in range(len(probes))]


def call(cli, argv: List[str]) -> Tuple[int, str, float]:
    """One request: exit code, captured stdout, latency in seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed request, not a dead benchmark
            traceback.print_exc()
            code = CRASH
    elapsed = time.perf_counter() - start
    if code == CRASH:
        sys.stderr.write(err.getvalue())
    return code, out.getvalue(), elapsed


def run_rounds(cli, requests, workdir, rounds: int):
    """Closed loop over ``rounds`` whole rounds; (code, stdout, latency,
    probe) per request."""
    results = []
    for _ in range(rounds):
        for req in requests:
            probe_s = probe()
            results.append(call(cli, req.argv(workdir)) + (probe_s,))
    return results


def run_paired(cli, requests, workdir, tr: tracer.Tracer, modules):
    """One round in which each request runs untraced and then traced.
    Returns the untraced and the traced (code, stdout, latency, probe) per
    request, each traced request's per-layer times, and every binding that
    was not restored after its traced call."""
    plain, traced, layers, unrestored = [], [], [], set()
    for req in requests:
        argv = req.argv(workdir)
        probe_s = probe()
        plain.append(call(cli, argv) + (probe_s,))
        tr.install(modules)
        try:
            before = tr.snapshot()
            traced.append(call(cli, argv) + (probe_s,))
            layers.append(tr.since(before))
        finally:
            unrestored.update(tr.restore())
    return plain, traced, layers, sorted(unrestored)


def expected_calls(req, checker: checks.Checker) -> Counter:
    """Layer call counts one request implies, for the tracer self-check."""
    c = Counter({"cli.main": 1})
    verb, inst = req.verb, req.instance
    lp = {"solve": 1, "tight": 1, "tight-constructive": 1, "ce-paper-h": 1,
          "ce-generative": 1, "audit": 2}.get(verb, 0)
    c["omniscience.r_co"] = c["simplex.solve"] = c["simplex.uniqueness_test"] = lp
    c["simplex.simplex_min"] = 2 * lp  # plus one per feasible_point call
    mdb = {"tight": 1, "tight-constructive": 1, "ce-paper-h": 1,
           "ce-generative": 1, "audit": 2}.get(verb, 0)
    if verb == "mdb" and req.expect_exit == 0:
        mdb = 1
    c["dependence.mutual_dependence_bound"] = mdb
    if mdb:
        c["dependence.partitions"] = mdb * checker.admissible_count(req)
    c["tightness.witness_search"] = int(verb == "tight-constructive")
    c["sources.check_validity"] = {"mdb": 1, "validate": 1, "audit": 2}.get(verb, 0)
    c["sources.make_oracle"] = 4 if verb == "audit" else 1
    if inst is not None and inst.source_type == "linear_gf2":
        c["gf2.rank"] = 1 << inst.m
    else:
        c["gf2.rank"] = {"ce-generative": 64, "audit": 128}.get(verb, 0)
    return c


def self_check(tr: tracer.Tracer, requests, checker) -> List[str]:
    """Compare the traced round's call counts with the counts the request
    list implies."""
    want = Counter()
    for req in requests:
        want.update(expected_calls(req, checker))
    problems = []
    for name, implied in want.items():
        got = tr.counts.get(name, 0) if name == "dependence.partitions" else tr.calls.get(name, 0)
        if name == "simplex.simplex_min":
            implied += tr.calls.get("simplex.feasible_point", 0)
        if got != implied:
            problems.append(f"{name}: traced {got}, requests imply {implied}")
    if not want["tightness.witness_search"] and tr.calls.get("simplex.feasible_point", 0):
        problems.append("simplex.feasible_point: called without a witness search")
    return problems


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")

    probes = [probe() for _ in range(PROBE_WINDOW)]
    t0 = time.perf_counter()
    sys.path.insert(0, "src")
    from omniscio import cli  # the import is part of set-up

    requests = workloads.build_round(args.workload, args.seed)
    workloads.write_files(requests, workdir)
    setup_s = time.perf_counter() - t0
    probes += [probe() for _ in range(PROBE_WINDOW)]
    setup_s /= statistics.median(probes) / PROBE_REF_S
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, cli, requests, workdir, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cli, requests, workdir: str, setup_s: float) -> int:
    n = len(requests)
    if n < MIN_REQUESTS:
        raise ValueError(f"a round of {n} requests is too small for p90")
    timed = run_rounds(cli, requests, workdir, ROUNDS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    paired, traced, layers = [], [], []
    problems: List[str] = []
    if args.trace:
        modules = {name: sys.modules[f"omniscio.{name}"] for name in (
            "cli", "reporting", "fileio", "sources", "omniscience", "simplex",
            "tightness", "dependence")}
        tr = tracer.Tracer()
        paired, traced, layers, unrestored = run_paired(cli, requests, workdir, tr, modules)
        problems += [f"not restored: {name}" for name in unrestored]

    # Check the first round's outputs; every repeat must match them exactly.
    def certify(inst):
        code, out, _ = call(cli, ["solve", os.path.join(workdir, inst.path), "--json"])
        return code, out

    checker = checks.Checker(certify, load_expected(args.workload, args.seed))
    reference = {}
    for req, (code, out, *_) in zip(requests, timed):
        errs = checker.check(req, code, out)
        problems += [f"{req.verb} {req.key[1]}: {e}" for e in errs]
        reference[req.key] = (code, out, not errs)

    def ok(i, result):
        code, out, good = reference[requests[i % n].key]
        return good and result[0] == code and result[1] == out

    failed = sum(not ok(i, r) for i, r in enumerate(timed + paired))
    traced_failed = sum(not ok(i, r) for i, r in enumerate(traced))
    if traced_failed:
        problems.append(f"{traced_failed} traced outputs differ from untraced ones")

    slow = slowdowns([r[3] for r in timed])
    scaled = [r[2] / f * 1e3 for r, f in zip(timed, slow)]
    best = [min(scaled[i::n]) for i in range(n)]
    p90 = percentile(best, 90)
    result = {
        "setup_s": setup_s,
        "attempted": len(timed) + len(paired) + len(traced),
        "failed": failed + traced_failed,
        "rounds": ROUNDS,
        "requests_per_round": n,
        "samples_beyond_p90": sum(lat > p90 for lat in best),
    }
    if args.trace:
        problems += self_check(tr, requests, checker)
        overhead = sum(r[2] for r in traced) / sum(r[2] for r in paired)
        result["metrics"] = tracer.per_layer(tr, overhead)
    else:
        result["metrics"] = {
            "requests_per_s": {"value": n / sum(best) * 1e3, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(best), "unit": "ms"},
            "latency_p90_ms": {"value": p90, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result["correct"] = not problems and not failed
    for p in problems[:50]:
        print(f"perfbench: {p}", file=sys.stderr)
    write_log(args, requests, timed, paired, traced, layers, result)
    print(json.dumps(result))
    return 0


def load_expected(workload: str, seed: int):
    """Frozen answers for this workload and seed, or None if not frozen."""
    with open(os.path.join("perfbench", "expected.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def write_log(args, requests, timed, paired, traced, layers, result) -> None:
    """Per-request log: a header, one record per request, then the result."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.jsonl")
    n = len(requests)
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
        }
        fh.write(json.dumps(header) + "\n")
        for phase, results in (("untraced", timed), ("paired", paired), ("traced", traced)):
            for i, (code, _, latency, probe_s) in enumerate(results):
                record = {"workload": args.workload, "phase": phase, "round": i // n}
                record.update(requests[i % n].record())
                record.update({"latency_ms": latency * 1e3, "probe_ms": probe_s * 1e3,
                               "exit": code})
                if phase == "traced":
                    record.update(layers[i])
                fh.write(json.dumps(record) + "\n")
        fh.write(json.dumps({"result": result}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
