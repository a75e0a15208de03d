"""The four benchmark workloads, their cases and their output invariants.

A case is one call (or one fixed group of calls) into the public API.  Every
case returns a JSON-able output; the gate compares its digest with the pinned
one and each workload's invariants re-check the published facts, so a
speed-up that changes any output counts as failed cases.

Cases reach lucasaps through module attributes at call time, so a tracer
that replaces those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from lucasaps import apsearch, certify, cli, core, smallcase, special, tables

Kind = core.Kind


class CaseError(Exception):
    """A case returned an unexpected exit code or status."""


@dataclass(frozen=True)
class Case:
    id: str
    run: Callable[[], object]


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def workload_digest(case_digests: dict) -> str:
    """Digest of a whole workload over its cases in canonical (id) order."""
    lines = "".join(f"{cid} {case_digests[cid]}\n" for cid in sorted(case_digests))
    return hashlib.sha256(lines.encode()).hexdigest()


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != cli.EXIT_OK:
        raise CaseError(f"exit code {rc} for {argv}")
    return buf.getvalue()


def _aps_doc(aps) -> list:
    return [[t.k, t.l, t.m, [str(v) for v in t.values]] for t in aps]


def _nondegenerate(A, B) -> bool:
    return A != 0 and B != 0 and core.degeneracy_order(A, B) is None


# --- scan-grid -----------------------------------------------------------

def _scan_column(a, work_dir):
    out = work_dir / f"scan_a{a}.csv"
    argv = ["scan", f"--a-range={a}..{a}", "--b-range=-20..20", "--kind", "both",
            "--max-index", "30", "--out", str(out), "--jobs", "1"]

    def run():
        stdout = _cli(argv)
        return {"stdout": stdout.replace(str(out), "OUT"), "csv": out.read_text()}
    return Case(f"scan/a={a}", run)


def scan_grid(work_dir):
    return [_scan_column(a, work_dir) for a in range(-20, 21)]


def check_scan_grid(outputs):
    bad = set()
    for cid, out in outputs.items():
        if len(out["csv"].splitlines()) != 1 + 41 * 2:
            bad.add(cid)
    return bad


# --- complex-survey ------------------------------------------------------

FAMILY_PAIR = (-1, -2)
FAMILY_SHAPE = "(t+1, t, t+3), t>=0"


def _complex_case(A, B, kind):
    def run():
        params = core.new_params(A, B)
        fams = apsearch.detect_families(params, kind, 50)
        aps = apsearch.find_aps(params, kind, 200)
        return {"families": [f.describe() for f in fams], "aps": _aps_doc(aps)}
    return Case(f"complex/A={A}/B={B}/{kind.value}", run)


def complex_survey(work_dir):
    return [
        _complex_case(A, B, kind)
        for A in range(-10, 11)
        for B in range(-10, 11)
        if _nondegenerate(A, B) and A * A + 4 * B < 0
        for kind in Kind
    ]


def check_complex_survey(outputs):
    """240 sporadic progressions over 78 non-empty cases, none past index 26,
    no families to e=50 -- except (-1,-2), whose only family is (t+1,t,t+3)."""
    bad = set()
    rest = {}
    for cid, out in outputs.items():
        if cid.startswith("complex/A=%d/B=%d/" % FAMILY_PAIR):
            if out["families"] != [FAMILY_SHAPE]:
                bad.add(cid)
            continue
        rest[cid] = out
        if out["families"] or any(max(t[:3]) > 26 for t in out["aps"]):
            bad.add(cid)
    total = sum(len(out["aps"]) for out in rest.values())
    nonempty = sum(bool(out["aps"]) for out in rest.values())
    if len(rest) == 126 and (total, nonempty) != (240, 78):
        bad.update(rest)
    return bad


# --- catalog-proof -------------------------------------------------------

def _verify_tables_case():
    def run():
        return tables.verify_tables(25).to_json_dict()
    return Case("verify_tables/b_cap=25", run)


def _certified_case(A, B, kind):
    def run():
        params = core.new_params(A, B)
        result = certify.certified_enumerate(params, kind)
        out = {
            "status": result.status,
            "aps": _aps_doc(result.aps),
            "families": [f.describe() for f in result.families],
            "certificate": None,
        }
        if result.certificate is not None:
            doc = result.certificate.to_json_dict()
            back = certify.certificate_from_json(json.loads(json.dumps(doc)))
            out["certificate"] = doc
            out["roundTrip"] = (back.method, back.n0, back.aps) == (
                result.certificate.method, result.certificate.n0, result.certificate.aps)
            out["checked"] = certify.check_certificate(back, params, kind)
        return out
    return Case(f"certified/A={A}/B={B}/{kind.value}", run)


def _solve_all_case(kind):
    def run():
        return smallcase.solve_all(kind, 7).to_json_dict()
    return Case(f"solve_all/{kind.value}/7", run)


def _quad_case(shape, a, b):
    def run():
        return special.quad_factors(special.TrinomialSpec(shape, a, b))
    return Case(f"quad_factors/{shape.name}/a={a}/b={b}", run)


def exceptional_pairs():
    """Every dominant pair/kind where growth_exception holds.  The exception
    list is finite once D > 0, and |A| <= 7, |B| <= 14 contains all of it."""
    return [
        (A, B, kind)
        for A in range(-7, 8)
        for B in range(-14, 15)
        if _nondegenerate(A, B) and A * A + 4 * B > 0
        for kind in Kind
        if certify.growth_exception(core.new_params(A, B), kind)
    ]


def catalog_proof(work_dir):
    cases = [_verify_tables_case()]
    cases += [_certified_case(A, B, kind) for A, B, kind in exceptional_pairs()]
    cases += [_solve_all_case(kind) for kind in Kind]
    cases += [
        _quad_case(shape, a, b)
        for shape in special.TrinomialShape
        for a in range(2, 41)
        for b in range(1, a)
    ]
    return cases


def check_catalog_proof(outputs):
    """verify_tables is ok with 681 pairs; the 158 exceptional cases split
    151 complete / 7 has_families; every certificate round-trips and checks."""
    bad = set()
    certified = {}
    for cid, out in outputs.items():
        if cid.startswith("verify_tables/"):
            if not (out["ok"] and out["checkedPairs"] == 681):
                bad.add(cid)
        elif cid.startswith("certified/"):
            certified[cid] = out
            if out["status"] == "complete":
                if not (out["certificate"] and out["roundTrip"] and out["checked"]):
                    bad.add(cid)
            elif out["status"] != "has_families":
                bad.add(cid)
    statuses = [out["status"] for out in certified.values()]
    if len(certified) == 158 and (
            statuses.count("complete"), statuses.count("has_families")) != (151, 7):
        bad.update(certified)
    return bad


# --- long-enumerate ------------------------------------------------------

LONG_PAIRS = ((1, 1), (-1, -2), (10, -3), (-3, -10))


def _enumerate_case(A, B):
    argv = ["enumerate", "--A", str(A), "--B", str(B), "--kind", "first",
            "--max-index", "2000", "--format", "json"]

    def run():
        return {"stdout": _cli(argv)}
    return Case(f"enumerate/A={A}/B={B}/first", run)


def long_enumerate(work_dir):
    return [_enumerate_case(A, B) for A, B in LONG_PAIRS]


def check_long_enumerate(outputs):
    return set()


# name -> (case builder, invariant check, expected case count)
WORKLOADS = {
    "scan-grid": (scan_grid, check_scan_grid, 41),
    "complex-survey": (complex_survey, check_complex_survey, 128),
    "catalog-proof": (catalog_proof, check_catalog_proof, 1 + 158 + 2 + 3 * 780),
    "long-enumerate": (long_enumerate, check_long_enumerate, 4),
}


def build(name, seed, work_dir):
    """The workload's cases in the order the seed gives."""
    cases, _, expected = WORKLOADS[name]
    cases = cases(work_dir)
    if len(cases) != expected:
        raise CaseError(f"{name}: built {len(cases)} cases, expected {expected}")
    random.Random(seed).shuffle(cases)
    return cases


def gate(name, outputs, errors, pinned):
    """Ids of failed cases: raised, unpinned, differing from the pin, or
    breaking an invariant of the workload."""
    failed = set(errors)
    for cid, out in outputs.items():
        if pinned.get(cid) != digest(out):
            failed.add(cid)
    failed |= WORKLOADS[name][1](outputs)
    return failed
