"""Independent checks of every distinct output the program gave.

Entropies come from the benchmark's own GF(2) rank (``reference``), never
from the program. Every LP answer is re-verified as a certificate: primal
feasibility on every row of B(A), sum x = R_CO, y >= 0 with yA = 1, and
sum y.b = R_CO, which together prove optimality whoever computed them.
Files the workload never solves (``tight``) get their R_CO from a
certificate the program produces outside the timed loop and this module
verifies. I(A), its minimizers and the validity listing are recomputed by
brute force.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import reference as ref
from workloads import Instance, Request

F = Fraction

# The built-in six-terminal counterexample, rebuilt from its definition.
CE_M, CE_ACTIVE = 6, 0b000111
_Y = [1 << t for t in range(4)]
CE_ROWS = tuple((r,) for r in (_Y[0] | _Y[2], _Y[0] | _Y[3], _Y[2] | _Y[3],
                               _Y[1] | _Y[2], _Y[1] | _Y[3], _Y[0] | _Y[1]))
_CE_H_BY_SIZE = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 4}
CE_JOINT = {
    "paper-h": tuple(F(4 - _CE_H_BY_SIZE[6 - bin(s).count("1")]) for s in range(64)),
    "generative": ref.linear_joint(CE_M, CE_ROWS),
}
# Published values: paper-h R_CO = 9/4, C_SK = 7/4, I = 2; generative has a
# strict gap of exactly 1/4.
CE_PUBLISHED = {
    "paper-h": {"r_co": F(9, 4), "c_sk": F(7, 4), "bound": F(2)},
    "generative": {"gap": F(1, 4)},
}


def _terms(mask: int) -> List[int]:
    return [j + 1 for j in range(mask.bit_length()) if mask >> j & 1]


def _blocks(partition: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    return tuple(sorted(ref.mask_of(b) for b in partition))


class Checker:
    """Checks outputs against exact values recomputed per instance.

    ``certify`` runs the program's ``solve --json`` on a file outside the
    timed loop; its answer is used only after its certificate passes.
    ``expected`` holds the frozen answers for this seed, if any.
    """

    def __init__(self, certify: Callable[[Instance], Tuple[int, str]],
                 expected: Optional[Dict[str, Dict[str, object]]]) -> None:
        self.certify = certify
        self.expected = expected
        self._bound: Dict[Tuple[str, int], Tuple[Fraction, List, int]] = {}
        self._r_co: Dict[str, Optional[Fraction]] = {}

    def bound(self, name: str, joint, m: int, active: int):
        """(I(A), sorted minimizers, admissible partition count), cached."""
        key = (name, active)
        if key not in self._bound:
            self._bound[key] = ref.bound(joint, m, active)
        return self._bound[key]

    def admissible_count(self, req: Request) -> int:
        if req.instance is None:
            return self.bound("ce-generative", CE_JOINT["generative"], CE_M, CE_ACTIVE)[2]
        inst = req.instance
        return self.bound(inst.name, inst.joint, inst.m, inst.active)[2]

    def certified_r_co(self, inst: Instance) -> Optional[Fraction]:
        if inst.name not in self._r_co:
            code, out = self.certify(inst)
            errs = ["exit %s" % code] if code != 0 else certificate_errors(
                json.loads(out), inst.joint, inst.m, inst.active)
            self._r_co[inst.name] = None if errs else F(json.loads(out)["r_co"])
        return self._r_co[inst.name]

    def check(self, req: Request, code: int, out: str) -> List[str]:
        """Every problem with one output; empty when it is correct."""
        if code != req.expect_exit:
            return [f"exit {code}, expected {req.expect_exit}"]
        if req.verb == "mdb" and req.expect_exit == 2:
            return [] if out == "" else ["rejected input printed a report"]
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return ["output is not JSON"]
        try:
            if req.instance is None:
                return self._builtin(req.verb, doc)
            errs = getattr(self, "_" + req.verb.replace("-", "_"))(req.instance, doc)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return [f"malformed output: {exc!r}"]
        return errs + self._frozen(req, doc)

    def _frozen(self, req: Request, doc: Dict) -> List[str]:
        if self.expected is None:
            return []
        want = self.expected.get(req.instance.name, {})
        got = {
            "r_co": doc.get("r_co"),
            "c_sk": doc.get("c_sk"),
            "bound": doc.get("mutual_dependence_bound"),
            "tight": doc.get("tight"),
            "valid": doc.get("valid"),
        }
        return [
            f"{k} = {got[k]}, frozen answer {v}"
            for k, v in want.items()
            if got.get(k) is not None and got[k] != v
        ]

    def _solve(self, inst: Instance, doc: Dict) -> List[str]:
        errs = certificate_errors(doc, inst.joint, inst.m, inst.active)
        if F(doc["total_entropy"]) != inst.joint[-1]:
            errs.append("H(M) differs from the recomputed rank")
        return errs

    def _mdb(self, inst: Instance, doc: Dict) -> List[str]:
        return bound_errors(doc, inst.joint, inst.m, inst.active,
                            self.bound(inst.name, inst.joint, inst.m, inst.active))

    def _validate(self, inst: Instance, doc: Dict) -> List[str]:
        errs = []
        mono, supra = ref.violations(inst.joint, inst.m)
        listed_mono = [(ref.mask_of(v["subset"]), ref.mask_of(v["superset"]))
                       for v in doc["monotonicity_violations"]]
        listed_supra = [(ref.mask_of(v["b1"]), ref.mask_of(v["b2"]))
                        for v in doc["supermodularity_violations"]]
        if listed_mono != mono:
            errs.append("monotonicity listing differs")
        if listed_supra != supra:
            errs.append("supermodularity listing differs")
        h = [ref.cond(inst.joint, s) for s in range(1 << inst.m)]
        for v in doc["supermodularity_violations"]:
            b1, b2 = ref.mask_of(v["b1"]), ref.mask_of(v["b2"])
            if (F(v["lhs"]), F(v["rhs"])) != (h[b1] + h[b2], h[b1 | b2] + h[b1 & b2]):
                errs.append("violation sides misreported")
                break
        if inst.violation is not None and inst.violation not in supra:
            errs.append("the planted violation was not found")
        if doc["valid"] != (not mono and not supra) or doc["normalized"] is not True:
            errs.append("validity verdict wrong")
        return errs

    def _tight(self, inst: Instance, doc: Dict, constructive: bool = False) -> List[str]:
        errs = []
        r_co = self.certified_r_co(inst)
        if r_co is None:
            return ["no certified R_CO for the file"]
        c_sk = inst.joint[-1] - r_co
        best, _, _ = self.bound(inst.name, inst.joint, inst.m, inst.active)
        if F(doc["c_sk"]) != c_sk:
            errs.append(f"C_SK {doc['c_sk']} != certified {c_sk}")
        if F(doc["mutual_dependence_bound"]) != best:
            errs.append(f"I(A) {doc['mutual_dependence_bound']} != recomputed {best}")
        if F(doc["gap"]) != best - c_sk or doc["tight"] != (best == c_sk):
            errs.append("gap or verdict inconsistent")
        if inst.active == (1 << inst.m) - 1 and doc["tight"] is not True:
            errs.append("bound must be tight when A = M")
        if doc["method"] != ("constructive" if constructive else "direct"):
            errs.append("wrong method echoed")
        witness = doc["witness"]
        if not constructive or witness is None:
            if witness is not None or (constructive and doc["tight"]):
                errs.append("witness presence disagrees with the verdict")
            return errs
        partition = _blocks(witness["partition"])
        rates = [F(v) for v in witness["rates"]]
        if not ref.is_admissible(partition, inst.m, inst.active):
            errs.append("witness partition not admissible")
        if any(ref.rate_sum(rates, b) < ref.cond(inst.joint, b)
               for b in ref.family(inst.m, inst.active)):
            errs.append("witness rates infeasible")
        full = (1 << inst.m) - 1
        if any(ref.rate_sum(rates, full & ~c) != ref.cond(inst.joint, full & ~c)
               for c in partition):
            errs.append("a block complement is not tight at the witness")
        if sum(rates) != r_co:
            errs.append("witness rates do not sum to R_CO")
        return errs

    def _tight_constructive(self, inst: Instance, doc: Dict) -> List[str]:
        return self._tight(inst, doc, constructive=True)

    def _builtin(self, verb: str, doc: Dict) -> List[str]:
        if verb == "audit":
            errs = self._counterexample("paper-h", doc["paper_h"])
            errs += self._counterexample("generative", doc["generative"])
            validity = doc["entropy_validity"]
            for mode, key in (("paper-h", "paper_h"), ("generative", "generative")):
                _, supra = ref.violations(CE_JOINT[mode], CE_M)
                if validity[key]["valid"] != (not supra) or \
                        validity[key]["supermodularity_violations"] != len(supra):
                    errs.append(f"{mode} validity misreported")
            differing = sum(
                ref.cond(CE_JOINT["paper-h"], b) != ref.cond(CE_JOINT["generative"], b)
                for b in ref.family(CE_M, CE_ACTIVE) + [(1 << CE_M) - 1]
            )
            if doc["differing_subsets"] != differing:
                errs.append("differing subset count wrong")
            return errs
        return self._counterexample(verb[len("ce-"):], doc)

    def _counterexample(self, mode: str, doc: Dict) -> List[str]:
        joint = CE_JOINT[mode]
        errs = certificate_errors(doc, joint, CE_M, CE_ACTIVE)
        errs += bound_errors(doc, joint, CE_M, CE_ACTIVE,
                             self.bound("ce-" + mode, joint, CE_M, CE_ACTIVE))
        r_co, c_sk = F(doc["r_co"]), F(doc["c_sk"])
        found = {"r_co": r_co, "c_sk": c_sk, "bound": F(doc["mutual_dependence_bound"]),
                 "gap": F(doc["gap"])}
        for key, value in CE_PUBLISHED[mode].items():
            if found[key] != value:
                errs.append(f"{mode}: {key} = {found[key]}, published {value}")
        if found["gap"] != found["bound"] - c_sk or doc["strict_gap"] != (found["gap"] > 0):
            errs.append(f"{mode}: gap fields inconsistent")
        return errs


def certificate_errors(doc: Dict, joint, m: int, active: int) -> List[str]:
    """Re-verify an LP answer (rates, dual, R_CO, C_SK) as a certificate."""
    fam = ref.family(m, active)
    rates = [F(v) for v in doc["rates"]]
    dual = [F(v) for v in doc["dual"]]
    r_co = F(doc["r_co"])
    if len(rates) != m or len(dual) != len(fam):
        return ["rate or dual vector has the wrong length"]
    h = [ref.cond(joint, b) for b in fam]
    sums = [ref.rate_sum(rates, b) for b in fam]
    errs = []
    if any(s < hb for s, hb in zip(sums, h)):
        errs.append("rates violate a row of B(A)")
    if sum(rates) != r_co:
        errs.append("sum of rates != R_CO")
    if any(y < 0 for y in dual):
        errs.append("negative dual weight")
    for j in range(m):
        if sum((y for y, b in zip(dual, fam) if b >> j & 1), F(0)) != 1:
            errs.append(f"dual column {j + 1} does not sum to 1")
            break
    if sum((y * hb for y, hb in zip(dual, h)), F(0)) != r_co:
        errs.append("dual objective != R_CO")
    if F(doc["c_sk"]) != joint[-1] - r_co:
        errs.append("C_SK != H(M) - R_CO")
    tight = [_terms(b) for b, s, hb in zip(fam, sums, h) if s == hb]
    if doc["tight_constraints"] != tight:
        errs.append("tight constraint list differs")
    uniq = doc["uniqueness"]
    if uniq["verdict"] != ("Unique" if F(uniq["auxiliary_value"]) == 0 else "NotUnique"):
        errs.append("uniqueness verdict disagrees with its auxiliary value")
    return errs


def bound_errors(doc: Dict, joint, m: int, active: int, expected) -> List[str]:
    """Check I(A) and its minimizers against the brute-force recomputation."""
    best, argmin, _ = expected
    value = F(doc["mutual_dependence_bound"])
    errs = []
    minimizers = [_blocks(p) for p in doc["minimizers"]]
    for p in minimizers:
        if not ref.is_admissible(p, m, active):
            errs.append("a minimizer is not admissible")
            break
        if ref.dependence(joint, p) != value:
            errs.append("a minimizer's dependence differs from the bound")
            break
    if value != best:
        errs.append(f"I(A) = {value}, recomputed {best}")
    if sorted(minimizers) != argmin:
        errs.append("minimizer list differs from the recomputed one")
    return errs
