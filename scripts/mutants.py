#!/usr/bin/env python3
"""Mutant registry: each entry is a one-place change its named tests must catch.

An entry is (id, file, old text, new text, test ids).  For each entry the
script copies src/, tests/ and pyproject.toml to a temporary directory,
replaces the old text in the file and runs only the named tests there.  The
mutant is killed when pytest reports a failing test (exit 1).

Entries whose id starts with "inert-" change nothing that runs and must
survive: that shows a kill comes from a test, not from a broken run.  Before
any mutant runs, the named tests of every entry must pass on the unchanged
copy, and that copy must be the one Python imports.

Each pytest run is killed after TIMEOUT_S seconds, with every process it
started, so a mutant that makes a loop endless ends too.  Its verdict is
"timed out": a kill for a normal entry, a failure for an inert entry and for
the run on the unchanged copy.  On a 2-vCPU VM (Python 3.11) the slowest run
is that unchanged copy's, 11.7 s for all 93 named tests (13.0 s for 88,
10.3-10.5 s for 85, 10.7 s for 84, 10.0 s for 82, 10.0 s for 79, 9.1 s for
76, 10.6-15.5 s for 73, 13.1-14.9 s for 69, 9.4-13.0 s for 65, 12.3 s for
56, 13.2-14.0 s for 53 and 10.0-12.9 s for 52 in earlier runs), and the
slowest mutant's is 4.8 s (5.1, 4.8-5.7, 4.0, 4.8, 3.9, 6.7-6.8, 7.3, 7.4
and 8.4 s in earlier runs); TIMEOUT_S is over three times the slowest
baseline.

Each pytest run also gets an address-space limit (RLIMIT_AS, set in the
child before exec), so a loop that allocates as it runs stops at the limit
instead of growing until the timeout.  Python then raises MemoryError, and
the verdict is "out of memory", counted like "timed out".  The unchanged
copy's run of all 53 named tests, which imports numpy and mpmath, peaked at
283 MB of address space (VmPeak; 55 MB resident) on a 2-vCPU VM (Python
3.11, numpy 2.4).  Of that, numpy's BLAS takes about 41 MB per CPU, one
thread and one buffer each, so the limit is 1 GiB plus 64 MiB per CPU:
1.1 GiB, four times the measured peak, on that VM.

The script fails when an old text does not occur exactly once in its file
(a refactor then has to update the entry, not drop it), when a mutant
survives, when an inert entry is killed, times out or runs out of memory,
and on any other pytest exit.

    python scripts/mutants.py    # 96 entries, 154 s on a 2-vCPU VM
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 60
MEMORY_LIMIT = (1024 + 64 * (os.cpu_count() or 1)) << 20

SMALLCASE = "src/lucasaps/smallcase.py"
POLY = "src/lucasaps/poly.py"
APSEARCH = "src/lucasaps/apsearch.py"
CERTIFY = "src/lucasaps/certify.py"
TABLES = "src/lucasaps/tables.py"
CLI = "src/lucasaps/cli.py"
CORE = "src/lucasaps/core.py"
INIT = "src/lucasaps/__init__.py"
SPECIAL = "src/lucasaps/special.py"
HELPERS = "tests/helpers.py"

T_SMALLCASE = "tests/test_smallcase.py::"
T_APSEARCH = "tests/test_apsearch.py::TestFindAPs::"
T_CERTIFY = "tests/test_certify.py::"
T_TABLES = "tests/test_tables.py::"
T_CLI = "tests/test_cli.py::"
T_CORE = "tests/test_core.py::"
T_SPECIAL = "tests/test_special.py::TestQuadFactors::"
T_GUARD = "tests/test_core.py::TestInputGuards::test_documented_exception"


def _drop_raise(ident, path, guard):
    """A mutant that deletes the raise of a public-input guard: `guard` is
    its if line and its raise line, and the raise becomes a pass."""
    cond, raise_line = guard.split("\n")
    indent = raise_line[: len(raise_line) - len(raise_line.lstrip())]
    return (ident, path, guard, f"{cond}\n{indent}pass", [f"{T_GUARD}[{ident}]"])


MUTANTS = [
    # find_aps: one scan over the |x|-sorted values; a pair within a factor 4
    # probes for the other outer (route 2) or, within a factor 2, the middle (route 1)
    ("find-aps-no-route-1", APSEARCH,
     "            elif b <= 2 * a:",
     "            elif False:",
     [T_APSEARCH + "test_matches_quadratic_oracle", T_APSEARCH + "test_each_route"]),
    ("find-aps-route-2-to-bl-plus-1", APSEARCH,
     "            if (u > 0) == (w > 0):",
     "            if (u > 0) == (w > 0) and b >> 1 < a:",
     [T_APSEARCH + "test_exact_on_any_sequence", T_APSEARCH + "test_each_route"]),
    ("find-aps-route-1-no-minus-b", APSEARCH,
     "            elif b <= 2 * a:",
     "            elif u > 0 and b <= 2 * a:",
     [T_APSEARCH + "test_matches_quadratic_oracle", T_APSEARCH + "test_exact_across_signed_buckets"]),
    ("find-aps-route-1-below-twice", APSEARCH,
     "            elif b <= 2 * a:",
     "            elif b < 2 * a:",
     [T_APSEARCH + "test_each_route[vals7]", T_APSEARCH + "test_exact_at_ratio_edges"]),
    ("find-aps-route-2-below-twice", APSEARCH,
     "            if b >> 2 >= a:",
     "            if b >> 1 >= a:",
     [T_APSEARCH + "test_each_route[vals9]", T_APSEARCH + "test_exact_at_ratio_edges"]),
    ("find-aps-first-lag-only", APSEARCH,
     "        d += 1\n",
     "        break\n",
     [T_APSEARCH + "test_matches_quadratic_oracle"]),
    # detect_families: a target whose first coordinate B does not divide is skipped
    ("detect-families-no-remainder-skip", APSEARCH,
     "    firsts = offsets if 2 % B == 0 else ()\n    seconds = offsets if 1 % B == 0 else ()\n",
     "    firsts = seconds = offsets\n",
     ["tests/test_apsearch.py::TestDetectFamilies::test_matches_long_division_walk"]),
    # detect_families: no term is built past the proven bound |A| <= 1 + |B|,
    # and a tighter bound loses the (1, 1) family
    ("detect-families-a-bound-loose", APSEARCH,
     "abs(params.A) > 1 + abs(B)",
     "abs(params.A) > 2 + abs(B)",
     ["tests/test_apsearch.py::TestDetectFamilies::test_no_terms_past_the_a_bound[pair0]"]),
    ("detect-families-a-bound-cuts", APSEARCH,
     "abs(params.A) > 1 + abs(B)",
     "abs(params.A) >= abs(B)",
     ["tests/test_apsearch.py::TestDetectFamilies::test_fibonacci_family"]),
    # certify: the search guards and the growth-lemma exception list
    ("certify-gap-cap-guard", CERTIFY,
     "            if v > GAP_CAP:",
     "            if v > GAP_CAP + 1:",
     [T_CERTIFY + "TestCertifiedEnumerate::test_gap_cap_splits_are_pinned"]),
    ("certify-top-bound-search-cap", CERTIFY,
     '        return PatternAnalysis(pattern, "inconclusive", margin=margin,\n'
     '                               note="top bound search cap hit")',
     "        pass",
     [T_CERTIFY + "TestCertifiedEnumerate::test_top_bound_search_cap_is_inconclusive"]),
    ("certify-fixed-cell-search-cap", CERTIFY,
     '        return PatternAnalysis(pattern, "inconclusive", note="monotone search cap hit")',
     "        pass",
     [T_CERTIFY + "TestCertifiedEnumerate::test_monotone_search_cap_is_inconclusive"]),
    # certify: a fixed cell is a family when Q kills both roots (p = q = 0) and
    # has no solution when it kills exactly one (the norm p^2 - q^2*D is 0)
    ("fixed-cell-one-root", CERTIFY,
     "    if p * p == q * q * d:",
     "    if False:",
     [T_CERTIFY + "TestPatternBound::test_matches_surd_oracle[first]"]),
    ("fixed-cell-both-roots", CERTIFY,
     "    if not (p or q):",
     "    if not p:",
     [T_CERTIFY + "TestPatternBound::test_matches_surd_oracle[first]"]),
    # certify: gamma^k carries (sgn A)^k, so an odd power of a negative-A root is negated
    ("gap-root-power-drops-sgn-a", CERTIFY,
     "    if sgn_a < 0 and k & 1:",
     "    if False:",
     [T_CERTIFY + "TestPatternBound::test_matches_surd_oracle[first]"]),
    # certify: a decoupled cell's roots are integers only when D is a square;
    # (1, 3), D = 13, would pass the root test with isqrt's roots 2 and -1
    ("surd-as-integer", CERTIFY,
     "    if r * r != params.D:",
     "    if False:",
     [T_CERTIFY + "TestPatternBound::test_decoupled_cell_needs_a_square_discriminant"]),
    ("growth-exception-second-kind-b-13", CERTIFY,
     "(A == 1 and 0 < B <= 14)",
     "(A == 1 and 0 < B <= 13)",
     [T_CERTIFY + "TestGrowthException::test_ratio_window_excludes_high_aps",
      T_TABLES + "TestExceptionalPairs::test_every_exceptional_pair_agrees_with_the_catalog"]),
    # certify: an n0 no engine run issues is refused before any search
    ("check-certificate-n0-guard", CERTIFY,
     "    if cert.n0 >= SEARCH_CAP + 2 * GAP_CAP:\n        return False\n",
     "",
     [T_CERTIFY + "TestCheckCertificate::test_unreachable_n0_is_refused_before_any_search"]),
    # certify: a certificate lists each triple once
    ("check-certificate-repeated-triple", CERTIFY,
     "    if len(listed) != len(cert.aps):\n        return False\n",
     "",
     [T_CERTIFY + "TestCheckCertificate::test_repeated_triple_is_rejected"]),
    # certify: the listed triples must lie within n0 and match the brute window in values too
    ("check-certificate-listed-beyond-n0", CERTIFY,
     "return all(max(i) <= cert.n0 for i in listed) and listed == brute",
     "return listed == brute",
     [T_CERTIFY + "TestCheckCertificate::test_listed_triple_beyond_n0_is_rejected"]),
    # certify: a listed triple may end exactly at n0 ((2, 3) first kind, n0 = 2)
    ("check-certificate-triple-at-n0", CERTIFY,
     "max(i) <= cert.n0",
     "max(i) < cert.n0",
     [T_CERTIFY + "TestCheckCertificate::test_triple_at_n0_is_accepted"]),
    # certify: the second-kind growth window ends at index 6
    ("growth-window-second-kind-seven", CERTIFY,
     "GROWTH_WINDOW = {Kind.FIRST: 7, Kind.SECOND: 6}",
     "GROWTH_WINDOW = {Kind.FIRST: 7, Kind.SECOND: 7}",
     [T_CERTIFY + "TestCertifiedEnumerate::test_second_kind_growth_pair"]),
    ("check-certificate-indices-only", CERTIFY,
     "and listed == brute",
     "and listed.keys() == brute.keys()",
     [T_CERTIFY + "TestCheckCertificate::test_wrong_values_are_rejected"]),
    # certify: the reader refuses an n0 or a method the schema does not allow
    ("certificate-json-n0-type", CERTIFY,
     'if type(doc["n0"]) is not int or doc["n0"] < 2:',
     "if False:",
     [T_CERTIFY + "TestCertificateJson::test_malformed_n0_raises"]),
    ("certificate-json-method", CERTIFY,
     'if doc["method"] not in ("growth_lemma", "gap_pattern"):',
     "if False:",
     [T_CERTIFY + "TestCertificateJson::test_unknown_method_raises"]),
    # certify: the reader refuses a triple whose index or value the schema does not allow
    ("certificate-json-triple-index-type", CERTIFY,
     "type(t[i]) is not int or t[i] < 0",
     "t[i] < 0",
     [T_CERTIFY + "TestCertificateJson::test_malformed_triple_index_raises[bool]"]),
    ("certificate-json-triple-value-pattern", CERTIFY,
     're.fullmatch("-?[0-9]+", v)',
     're.fullmatch(r"-?\\d+", v)',
     [T_CERTIFY + "TestCertificateJson::test_malformed_triple_value_raises[arabic-indic]"]),
    # certify: the reader refuses arrays and strings of a type the schema does not allow
    ("certificate-json-nodes-array", CERTIFY,
     "type(nodes) is not list or any(",
     "any(",
     [T_CERTIFY + "TestCertificateJson::test_malformed_array_or_string_raises[aps-object]"]),
    ("certificate-json-nodes-objects", CERTIFY,
     " or any(type(n) is not dict for n in nodes)",
     "",
     [T_CERTIFY + "TestCertificateJson::test_malformed_array_or_string_raises[patterns-integers]"]),
    ("certificate-json-tool-version-type", CERTIFY,
     "type(version) is not str or ",
     "",
     [T_CERTIFY + "TestCertificateJson::test_malformed_array_or_string_raises[tool-version-integer]"]),
    ("certificate-json-note-type", CERTIFY,
     " or type(note) is not str",
     "",
     [T_CERTIFY + "TestCertificateJson::test_malformed_array_or_string_raises[note-null]"]),
    ("certificate-json-object", CERTIFY,
     "    if type(doc) is not dict:",
     "    if False:",
     [T_CERTIFY + "TestCertificateJson::test_non_object_document_raises[array]"]),
    ("certificate-json-triple-values-three", CERTIFY,
     "        if len(values) != 3:",
     "        if False:",
     [T_CERTIFY + "TestCertificateJson::test_triple_values_not_three_raises[2]"]),
    ("certificate-json-triple-values-array", CERTIFY,
     "type(values) is not list or not all(",
     "not all(",
     [T_CERTIFY + "TestCertificateJson::test_triple_values_not_an_array_raises[string]"]),
    # certify: the reader refuses a complete that is not a boolean
    ("certificate-json-complete-type", CERTIFY,
     'if type(doc.get("complete", True)) is not bool:',
     "if False:",
     [T_CERTIFY + "TestCertificateJson::test_non_boolean_complete_raises[string]"]),
    # certify: a certificate document without a required key is refused
    ("certificate-json-patterns-default", CERTIFY,
     'doc["patterns"]',
     'doc.get("patterns", [])',
     [T_CERTIFY + "TestCertificateJson::test_required_key_missing_raises[patterns]"]),
    ("certificate-json-tool-version-default", CERTIFY,
     'doc["toolVersion"]',
     'doc.get("toolVersion", __version__)',
     [T_CERTIFY + "TestCertificateJson::test_required_key_missing_raises[toolVersion]"]),
    # apsearch: every family detect_families returns has passed verify_family
    ("detect-families-unverified", APSEARCH,
     "        verify_family(family, params, kind)\n",
     "",
     ["tests/test_apsearch.py::TestDetectFamilies::test_every_family_passes_verify_family"]),
    # certify: every family certified_enumerate reports has passed verify_family
    ("certified-enumerate-unverified", CERTIFY,
     "    for f in fams:\n        verify_family(f, params, kind)\n",
     "",
     [T_CLI + "TestFamilies::test_failed_family_certificate_exits_three[certify]"]),
    # verify_family: the window is order consecutive t, and an index that
    # goes negative for some t >= t_min is refused, a negative step too
    ("verify-family-window-one-short", APSEARCH,
     "    t_last = family.t_min + family.order() - 1\n",
     "    t_last = family.t_min + family.order() - 2\n",
     ["tests/test_apsearch.py::TestVerifyFamily::test_certificate_failure"]),
    ("verify-family-negative-step-allowed", APSEARCH,
     " or min(b for _, b in forms) < 0:",
     ":",
     ["tests/test_apsearch.py::TestVerifyFamily::test_negative_step_is_refused"]),
    # the public-input guards: each id names its case of the guard test
    _drop_raise("aptriple-repeated-index", APSEARCH,
                "        if len({self.k, self.l, self.m}) != 3:\n"
                '            raise ValueError(f"indices must be distinct: {self.indices}")'),
    _drop_raise("instantiate-below-t-min", APSEARCH,
                "        if t < self.t_min:\n"
                '            raise ValueError(f"t={t} below t_min={self.t_min}")'),
    _drop_raise("detect-families-e-max", APSEARCH,
                "    if e_max < 3:\n"
                '        raise ValueError("e_max must be at least 3")'),
    _drop_raise("verify-family-negative-index", APSEARCH,
                "    if min(family.instantiate(family.t_min)) < 0 or min(b for _, b in forms) < 0:\n"
                '        raise ValueError(f"negative index for some t >= {family.t_min}: {family.describe()}")'),
    _drop_raise("gap-below-one", CERTIFY,
                "        if self.value < 1:\n"
                '            raise ValueError("gaps are at least 1")'),
    _drop_raise("surd-parity", CORE,
                "        if (self.p - self.q * self.d) % 2 != 0:\n"
                '            raise ValueError(f"parity invariant violated: ({self.p}, {self.q}, {self.d})")'),
    # the ring of the test oracles, in tests/helpers.py, on core's pair rules
    _drop_raise("surd-mixed-discriminants", HELPERS,
                "        if self.d != other.d:\n"
                '            raise ValueError("mixed discriminants")'),
    _drop_raise("surd-negative-power", HELPERS,
                "        if n < 0:\n"
                '            raise ValueError("negative powers are not representable in this ring")'),
    _drop_raise("surd-complex-sign", HELPERS,
                "        if self.d < 0:\n"
                '            raise ValueError("sign of a complex surd is undefined")'),
    _drop_raise("surd-complex-abs", HELPERS,
                "        if self.d < 0:\n"
                '            raise ValueError("use norm() for complex absolute values")'),
    _drop_raise("cmp-abs-mixed-discriminants", HELPERS,
                "    if x.d != y.d:\n"
                '        raise ValueError("mixed discriminants")'),
    _drop_raise("divisors-of-zero", POLY,
                "    if n == 0:\n"
                '        raise ValueError("zero has no divisor list")'),
    # the oracle ring: for d < 0, |x| compares by the integer p^2 - q^2 d, four times the norm
    ("cmp-abs-complex-drops-q-square", HELPERS,
     "x.q * x.q * x.d - (",
     "x.q * x.d - (",
     [T_CORE + "TestSurd::test_cmp_abs_matches_norm_comparison[-7]"]),
    # core: exact powers keep every product of square-and-multiply and its checks;
    # the oracle ring's ** and * call _pair_pow and _product
    ("surd-pow-skip-odd-bit", CORE,
     "            rp, rq = _product(rp, rq, p, q, d)",
     "            pass",
     [T_CORE + "TestSurd::test_pow_matches_repeated_product"]),
    # core: the sign of a pair whose two parts differ in sign is the larger part's
    ("pair-sign-mixed-flipped", CORE,
     "        return sp * _sign(p * p - q * q * d)",
     "        return -sp * _sign(p * p - q * q * d)",
     [T_CERTIFY + "TestPatternBound::test_matches_surd_oracle[first]"]),
    ("surd-product-parity", CORE,
     '        raise ValueError(f"parity invariant violated: ({p}, {q}, {d})")',
     "        pass",
     [T_CORE + "TestSurd::test_pow_raises_as_the_first_bad_product"]),
    # special: a quad_factors hit passes the remainder test and the root checks
    ("quad-factors-remainder-accepts", SPECIAL,
     "        if not _remainder_vanishes(p, q, a, b, ca, cb, c0):",
     "        if False:",
     [T_SPECIAL + "test_matches_division_oracle"]),
    ("quad-factors-root-check", SPECIAL,
     "            raise EngineMismatchError(\n",
     "            EngineMismatchError(\n",
     [T_SPECIAL + "test_root_evaluation_checks_the_remainder"]),
    # special: at d = 0 the w-part of f's pair is the derivative at the double root
    ("quad-factors-double-root-derivative", SPECIAL,
     "        if ca * pa + cb * pb + 2 * c0 or ca * qa + cb * qb:",
     "        if ca * pa + cb * pb + 2 * c0:",
     [T_SPECIAL + "test_double_root_needs_the_derivative"]),
    # tables: an inconclusive pair and a catalog pair the filter refuses are mismatches
    ("tables-inconclusive-branch", TABLES,
     '    if result.status == "inconclusive":\n'
     '        report.mismatches.append(f"{label}: enumeration inconclusive: {result.diagnostics}")\n'
     "        return\n",
     "",
     [T_TABLES + "TestVerifyTables::test_inconclusive_catalog_pair_is_a_mismatch",
      T_TABLES + "TestVerifyTables::test_inconclusive_absent_pair_is_a_mismatch"]),
    ("tables-catalog-admission", TABLES,
     '                report.mismatches.append(f"{entry.kind.value} ({entry.a}, {B}): inadmissible pair")\n',
     "",
     [T_TABLES + "TestVerifyTablesDetectsBrokenCatalogs::test_mutant_fails[inadmissible-pair]"]),
    # tables: every catalog triple is compared, above the engine's window too
    ("tables-catalog-triples-windowed", TABLES,
     "{canonical_indices(*t) for t in entry.all_triples()}",
     "{canonical_indices(*t) for t in entry.all_triples() if max(t) <= WINDOW}",
     [T_TABLES + "TestVerifyTablesDetectsBrokenCatalogs::test_mutant_fails[triple-above-window]"]),
    # tables: the off-grid sweep skips exactly the pairs the catalog pass checked
    ("tables-catalog-pass-skip", TABLES,
     "if not DomainFilter().admits(A, B) or (kind, A, B) in checked:",
     "if not DomainFilter().admits(A, B):",
     [T_TABLES + "TestVerifyTables::test_clean_report"]),
    # poly: a leaf module that a checker can import without the solver
    ("poly-imports-lucasaps", POLY,
     "from math import gcd, isqrt, lcm\n",
     "from math import gcd, isqrt, lcm\nfrom .core import Kind\n",
     [T_SMALLCASE + "test_poly_imports_only_the_standard_library"]),
    # smallcase: the solver's branches and its own re-substitution check
    ("grid-instances-a-range-skip", SMALLCASE,
     "            if not a_lo <= f.A <= a_hi:\n                continue\n",
     "",
     [T_SMALLCASE + "TestSolveAll::test_grid_skips_b_families_outside_the_a_range"]),
    ("poly-sqrt-non-square-lead", POLY,
     "if lc <= 0 or isqrt(lc) ** 2 != lc:",
     "if lc <= 0:",
     [T_SMALLCASE + "TestWorkedEquations::test_poly_sqrt_needs_a_square_leading_coefficient"]),
    ("poly-sqrt-odd-degree", POLY,
     "if d < 0 or d % 2:",
     "if d < 0:",
     [T_SMALLCASE + "TestWorkedEquations::test_poly_sqrt_needs_a_square_leading_coefficient"]),
    ("squeeze-shift-flipped", SMALLCASE,
     "j = 0 if R[-1] > 0 else -1",
     "j = -1 if R[-1] > 0 else 0",
     [T_SMALLCASE + "TestWorkedEquations::test_squeeze_root_on_each_side"]),
    ("curve-members-zero-b", SMALLCASE,
     '    if not wn:\n        report.branches.append({"b": "0", "outcome": "rejected: B = 0"})\n'
     "        return set()\n",
     "",
     [T_SMALLCASE + "TestWorkedEquations::test_curve_members_without_a_window"]),
    ("curve-members-drop-infinite-family", SMALLCASE,
     '"outcome": "infinite curve family"})\n',
     '"outcome": "infinite curve family"})\n        return set()\n',
     [T_SMALLCASE + "TestWorkedEquations::test_curve_members_without_a_window"]),
    # smallcase: root location solves only at the A where P(1 + x) may vanish
    # for some x >= 0 (Descartes' rule of signs)
    ("root-location-non-strict-signs", SMALLCASE,
     "all(v > 0 for v in values) or all(v < 0 for v in values)",
     "all(v >= 0 for v in values) or all(v <= 0 for v in values)",
     [T_SMALLCASE + "TestWorkedEquations::test_root_location_keeps_a_root_at_c_one"]),
    ("root-location-drops-zero-a", SMALLCASE,
     "    return not (all(v > 0",
     "    return any(values) and not (all(v > 0",
     [T_SMALLCASE + "TestWorkedEquations::test_root_location_keeps_an_identically_zero_a"]),
    ("root-location-full-window", SMALLCASE,
     "if _may_vanish([p_eval(qr, a) for qr in q])}",
     "}",
     [T_SMALLCASE + "TestSolveAll::test_root_location_windows_at_cap_seven"]),
    # smallcase: the x-coefficients are the Taylor shift of F by 1 - A^2, and
    # case_equations takes every polynomial from one term table of its kind
    ("root-location-shift-drops-a-squared", SMALLCASE,
     "                step[n + 2] -= gn\n",
     "",
     [T_SMALLCASE + "TestWorkedEquations::test_x_coefficients_match_expansion_on_case_equations",
      T_SMALLCASE + "TestWorkedEquations::test_x_coefficients_match_expansion_on_random_polynomials"]),
    ("case-equations-table-of-first-kind", SMALLCASE,
     "    u = poly_terms(kind, m_cap + 1)\n",
     "    u = poly_terms(Kind.FIRST, m_cap + 1)\n",
     [T_SMALLCASE + "TestCaseEquations::test_shared_term_table_gives_the_direct_polynomials"]),
    # smallcase: each closure step writes what it decides into the report
    ("curve-members-not-appended", SMALLCASE,
     "    report.curves.append(CurveFamilySolution(",
     "    (CurveFamilySolution(",
     [T_SMALLCASE + "TestWorkedEquations::test_curve_point_not_repeated_as_sporadic",
      T_SMALLCASE + "TestSolveAll::test_evidence_is_pinned"]),
    ("linear-branch-candidates-overwritten", SMALLCASE,
     "report.candidates = tuple(sorted({*report.candidates, *candidates}))",
     "report.candidates = candidates",
     [T_SMALLCASE + "TestWorkedEquations::test_linear_branches_merge_their_candidates"]),
    ("solve-case-unchecked", SMALLCASE,
     "        if b_eval(eq.poly, a, b):",
     "        if False:",
     [T_SMALLCASE + "TestSolveAll::test_solve_case_checks_what_it_solves"]),
    # cli: a certified scan row counts from its certificate, every other row searches
    ("scan-row-window-strict", CLI,
     "t.max_index <= max_index",
     "t.max_index < max_index",
     [T_CLI + "TestScan::test_rows_match_brute_force"]),
    ("scan-row-family-pairs-certified", CLI,
     'if result.status == "complete":',
     'if result.status != "inconclusive":',
     [T_CLI + "TestScan::test_rows_match_brute_force"]),
    # cli: a zero or degenerate scan pair is classified by new_params' errors
    ("scan-pair-degenerate-branch", CLI,
     "    except DegenerateError as exc:\n"
     '        row["classification"] = f"degenerate_order_{exc.order}"\n'
     "        return row\n",
     "",
     [T_CLI + "TestScan::test_csv_schema_and_determinism"]),
    # cli: enumerate's row loop renders an empty JSON array, each term and a text row
    # as json.dumps and the text tuples do
    ("enumerate-json-empty-array", CLI,
     'opening, close = "[]", "\\n}\\n"',
     'opening, close = "[\\n  ]", "\\n}\\n"',
     [T_CLI + "TestEnumerate::test_output_is_reference_rendering[json]"]),
    ("enumerate-json-term-on-wrong-index", CLI,
     "for i, v in zip(t.indices, t.values):",
     "for i, v in zip((t.k, t.m, t.l), t.values):",
     [T_CLI + "TestEnumerate::test_output_is_reference_rendering[json]"]),
    ("enumerate-text-row-comma", CLI,
     '"{}({}, {}, {}) -> ({}, {}, {})\\n"',
     '"{}({}, {}, {}) -> ({},{}, {})\\n"',
     [T_CLI + "TestEnumerate::test_output_is_reference_rendering[text]"]),
    # cli: exit codes and option parsing; a failed family certificate is a mismatch
    ("main-certificate-failure-uncaught", CLI,
     "except (EngineMismatchError, CertificateFailureError) as exc:",
     "except EngineMismatchError as exc:",
     [T_CLI + "TestFamilies::test_failed_family_certificate_exits_three[families]"]),
    ("sunit-bound-own-digit-count", CLI,
     "bound.value < stated,",
     "bound.value < 645 * 10 ** (bound.exponent10 - 2),",
     [T_CLI + "TestSUnitBound::test_below_stated_bound_compares_with_the_stated_constant"]),
    ("grid-check-exit-code", CLI,
     "        if sym != brute:\n            code = EXIT_MISMATCH",
     "        if sym != brute:\n            code = EXIT_OK",
     [T_CLI + "TestSmallcases::test_grid_check_disagreement_exits_three"]),
    ("positive-int-non-integer", CLI,
     "    except ValueError:\n        n = 0",
     "    except ValueError:\n        n = 1",
     [T_CLI + "TestScan::test_jobs_below_one_is_usage_error"]),
    ("b-cap-lower-bound", CLI,
     '_check_bounds("--b-cap", args.b_cap, MIN_B_CAP, MAX_B_CAP)',
     '_check_bounds("--b-cap", args.b_cap, 0, MAX_B_CAP)',
     [T_CLI + "TestVerifyTables::test_b_cap_is_usage_error"]),
    ("trinomial-b-lower-bound", CLI,
     '_check_bounds("--b", args.b, 1, EXPONENT_CAP - 1)',
     '_check_bounds("--b", args.b, 0, EXPONENT_CAP - 1)',
     [T_CLI + "TestFactorTrinomial::test_exponents_out_of_range_are_usage_errors"]),
    ("trinomial-a-lower-bound", CLI,
     '_check_bounds("--a", args.a, args.b + 1, EXPONENT_CAP)',
     '_check_bounds("--a", args.a, args.b, EXPONENT_CAP)',
     [T_CLI + "TestFactorTrinomial::test_exponents_out_of_range_are_usage_errors"]),
    # import boundaries: `import lucasaps` loads no submodule, `import lucasaps.cli`
    # loads core, and each subcommand loads only the modules it runs
    ("cli-imports-smallcase-eagerly", CLI,
     "from . import __version__\n",
     "from . import __version__, smallcase  # noqa: F401\n",
     [T_CLI + "TestImportBoundary::test_cli_import_loads_core_only",
      T_CLI + "TestImportBoundary::test_subcommand_loads_what_it_runs[classify]"]),
    ("init-imports-certify-eagerly", INIT,
     '__version__ = "0.1.0"\n',
     '__version__ = "0.1.0"\nfrom . import certify  # noqa: E402,F401\n',
     [T_CLI + "TestImportBoundary::test_import_loads_no_submodule"]),
    # the dead-code guard flags a function no line of src/ calls
    ("dead-code-unused-function", CORE,
     "def _sign(n) -> int:",
     "def _unused(n) -> int:\n    return n\n\n\ndef _sign(n) -> int:",
     [T_CORE + "TestEngineChecks::test_every_definition_in_src_is_referenced"]),
    # changes a docstring line only, so it must survive
    ("inert-comment", POLY,
     "A polynomial in A is a dense list of coefficients, index = degree, with no",
     "A polynomial in A is a dense list of coefficients, the i-th of degree i, with no",
     [T_SMALLCASE + "TestWorkedEquations::test_poly_sqrt_needs_a_square_leading_coefficient"]),
]


def _copy(dest: Path) -> Path:
    dest.mkdir()
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)
    return dest


def _env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _pytest(root: Path, tests) -> tuple:
    """Run the named tests in root: (verdict, last lines of output).

    pytest runs in a session of its own, so the timeout kills every process
    it started, and under MEMORY_LIMIT, which its children inherit."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    with subprocess.Popen(
        cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True, preexec_fn=_limit_memory,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
            code = None
    if code is None:
        verdict = "timed out"
    elif code != 0 and "MemoryError" in out:
        verdict = "out of memory"
    else:
        verdict = {0: "survived", 1: "killed"}.get(code, f"broken run (pytest exit {code})")
    return verdict, "\n".join(out.strip().splitlines()[-15:])


def main() -> int:
    if len({entry[0] for entry in MUTANTS}) != len(MUTANTS):
        print("duplicate entry ids")
        return 1

    failures = []
    for ident, path, old, _, _ in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            failures.append(f"{ident}: old text occurs {count} times in {path}")
    if failures:
        print("\n".join(failures))
        return 1

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = _copy(Path(tmp) / "base")
        probe = subprocess.run(
            [sys.executable, "-c", "import lucasaps; print(lucasaps.__file__)"],
            cwd=base, env=_env(base), capture_output=True, text=True,
        )
        if not probe.stdout.strip().startswith(str(base)):
            print(f"the copy is not the package Python imports: {probe.stdout or probe.stderr}")
            return 1
        tests = sorted({t for entry in MUTANTS for t in entry[4]})
        start = time.perf_counter()
        verdict, tail = _pytest(base, tests)
        took = time.perf_counter() - start
        if verdict != "survived":
            print(f"the named tests do not pass on the unchanged copy ({verdict}):\n{tail}")
            return 1
        print(f"baseline: {len(tests)} named tests pass on the unchanged copy ({took:.1f} s)")

        for ident, path, old, new, tests in MUTANTS:
            work = _copy(Path(tmp) / ident)
            target = work / path
            target.write_text(target.read_text().replace(old, new))
            start = time.perf_counter()
            verdict, tail = _pytest(work, tests)
            took = time.perf_counter() - start
            shutil.rmtree(work)
            if ident.startswith("inert-"):
                ok = verdict == "survived"
            else:
                ok = verdict in ("killed", "timed out", "out of memory")
            print(f"{'ok' if ok else 'FAIL':<4} {verdict:<13} {ident} ({took:.1f} s)")
            if not ok:
                failures.append(ident)
                print(tail)

    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} entries as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
