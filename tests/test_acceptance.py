"""Acceptance gate: one test per criterion, one printed verdict line each.

Run standalone with:  pytest tests/test_acceptance.py -v -s

Criterion 7's windowed multiplicity bound (at most 3 across the whole
coefficient grid) has exactly one exception, and it is the classical one.
The first-kind (-1, -2) sequence x is the twist x_{n+2} = (-1)^(n+1) * y_n
of the subtraction-convention sequence y_n = y_{n-1} - 2*y_{n-2} with
initial values (1, -1), whose values +-1 occur exactly at the
Ramanujan-Nagell indices {0, 1, 3, 11} (the exception in Beukers, "The
multiplicity of binary recurrences", Compositio Math. 40, 1980).  The shift
by 2 and the twist map that set onto the indices {2, 3, 5, 13}, all with
the value -1, so x attains -1 four times.
"""

import time

import pytest

from helpers import (
    closed_form_check,
    family_instances,
    from_subtraction_convention,
    multiplicity,
    multiplicity_with_initials,
    roots_of,
    term,
)
from lucasaps.apsearch import (
    APFamily,
    canonical_indices,
    detect_families,
    find_aps,
    is_ap,
    verify_family,
)
from lucasaps.certify import certified_enumerate, growth_exception
from lucasaps.core import (
    Kind,
    Surd,
    degeneracy_order,
    new_params,
    terms,
)
from lucasaps.smallcase import CaseEquation, solve_all, solve_case
from lucasaps.special import sunit_constant
from lucasaps.tables import verify_tables


def _verdict(number: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def _dominant_pairs(box):
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            if a and b and degeneracy_order(a, b) is None and a * a + 4 * b > 0:
                yield (a, b)


def _complex_pairs(box):
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            if a and b and degeneracy_order(a, b) is None and a * a + 4 * b < 0:
                yield (a, b)


def test_criterion_1_table_reproduction():
    t0 = time.time()
    report = verify_tables(25)
    elapsed = time.time() - t0
    ok = report.ok and elapsed < 120
    _verdict(
        1,
        ok,
        f"catalog verified against certified enumeration on {report.checked_pairs} "
        f"pairs with {len(report.mismatches)} mismatches "
        f"({len(report.completions_used)} documented completions) in {elapsed:.1f}s",
    )
    assert report.ok, report.mismatches
    assert elapsed < 120


def test_criterion_2_certified_vs_brute():
    t0 = time.time()
    checked = inconclusive = 0

    def full_exception_list(kind):
        # the complete finite exception lists, including |B| beyond the box
        out = []
        for a in range(-7, 8):
            for b in range(-12, 15):
                if not a or not b or degeneracy_order(a, b) is not None:
                    continue
                if a * a + 4 * b <= 0:
                    continue
                if growth_exception(new_params(a, b), kind):
                    out.append((a, b))
        return out

    jobs = set()
    for pair in _dominant_pairs(10):
        jobs.add(pair)
    for kind in Kind:
        jobs.update(full_exception_list(kind))
    for pair in sorted(jobs):
        params = new_params(*pair)
        for kind in Kind:
            checked += 1
            result = certified_enumerate(params, kind)
            if result.status == "inconclusive":
                inconclusive += 1
                continue
            described = {t.indices for t in result.aps}
            for fam in result.families:
                described |= {
                    t.indices for t in family_instances(fam, params, kind, 100)
                }
            brute = {t.indices for t in find_aps(params, kind, 100)}
            assert described == brute, (pair, kind)
    elapsed = time.time() - t0
    ok = inconclusive == 0 and elapsed < 300
    _verdict(
        2,
        ok,
        f"certified enumeration equals brute force (window 100) on {checked} "
        f"pair/kind combinations including the full exception lists, "
        f"{inconclusive} inconclusive, in {elapsed:.1f}s",
    )
    assert inconclusive == 0
    assert elapsed < 300


def test_criterion_3_worked_example_fidelity():
    result = certified_enumerate(new_params(2, 1), Kind.FIRST)
    assert result.status == "complete"
    assert [t.indices for t in result.aps] == [(0, 1, 2)]
    assert result.certificate.method == "gap_pattern"
    margins = [e.margin for e in result.evidence if e.margin is not None]
    margin_constant = Surd(8, 3, 8)  # 4 + 3*sqrt(2)
    assert margin_constant in margins
    # the margin bounds the top exponent below 3 in the wide-gap sub-case
    wide = [
        e for e in result.evidence
        if e.margin == margin_constant and e.pattern.minus_two_at == 1
    ]
    assert wide and wide[0].top_bound == 2

    u9 = terms(new_params(1, 9), Kind.FIRST, 9)
    u10 = terms(new_params(1, 10), Kind.FIRST, 9)
    assert (abs(u9[8]), 3 * abs(u9[7])) == (3781, 3783)
    assert abs(u9[8]) < 3 * abs(u9[7])
    assert (abs(u10[8]), 3 * abs(u10[7])) == (5061, 4953)
    assert abs(u10[8]) > 3 * abs(u10[7])
    _verdict(
        3,
        True,
        "pair (2,1) yields exactly {(0,1,2)} with margin 4+3*sqrt(2) bounding the "
        "top index below 3; ratio witnesses 3781 < 3*1261 and 5061 > 3*1651 exact",
    )


def test_criterion_4_smallcase_solver():
    t0 = time.time()
    # linear worked equation: divisor candidates exactly A | 2, all rejected
    eq1 = CaseEquation(Kind.FIRST, (1, 2, 4), 2)
    sol1 = solve_case(eq1)
    assert sol1.candidates == (-2, -1, 1, 2)
    assert not sol1.sporadics and not sol1.b_families and not sol1.curves

    # quadratic worked equation: exact square discriminant, branch rejected
    eq2 = CaseEquation(Kind.FIRST, (0, 3, 6), 3)
    sol2 = solve_case(eq2)
    assert list(sol2.delta) == [1, 0, 0, 8, 0, 0, 16]  # (4A^3+1)^2
    assert sol2.delta_square_root == ((1, 0, 0, 4), 1)
    assert any(
        b.get("b") == "-A^2" and b["outcome"].startswith("rejected")
        for b in sol2.branches
    )
    assert not sol2.sporadics and not sol2.curves

    # squeezed worked equation.  The sextic discriminant A^6 + 6A^2 - 3A
    # belongs to the triple (1, 2, 6), first variant (the widely quoted
    # label (0, 2, 6) does not expand to it); squares occur only at
    # A in {0, 1} and A = 1 forces B = 0, which the filter rejects.
    eq3 = CaseEquation(Kind.FIRST, (1, 2, 6), 1)
    sol3 = solve_case(eq3)
    assert list(sol3.delta) == [0, -12, 24, 0, 0, 0, 4]  # 4*(A^6+6A^2-3A)
    assert sol3.square_hits == (0, 1)
    assert not sol3.sporadics
    for variant in (1, 2, 3):
        literal = CaseEquation(Kind.FIRST, (0, 2, 6), variant)
        assert not solve_case(literal).sporadics

    # grid oracle: exact match with brute force, no unresolved squeezes
    for kind in Kind:
        solset = solve_all(kind, 6)  # raises SqueezeUnresolvedError on failure
        symbolic = solset.grid_instances(-40, 40, -40, 40)
        brute = set()
        for A, B in _dominant_pairs(40):
            params = new_params(A, B)
            for t in find_aps(params, kind, 7):
                if t.max_index <= 6:
                    brute.add((A, B, t.indices))
        assert symbolic == brute, kind
    elapsed = time.time() - t0
    _verdict(
        4,
        True,
        "three worked equations reproduced exactly (divisors of 2 rejected; "
        "discriminant (4A^3+1)^2 with branch B=-A^2 rejected; sextic square only "
        f"at A=1 giving B=0) and 40-grid oracle matches in {elapsed:.1f}s",
    )


def test_criterion_5_complex_case():
    t0 = time.time()
    from lucasaps.special import companion_candidates_complex

    candidates = companion_candidates_complex()
    assert [(p.A, p.B) for p in candidates] == [(-1, -2)]

    target = APFamily((1, 1), (0, 1), (3, 1), 0)
    for kind in Kind:
        fams = detect_families(new_params(-1, -2), kind, 10)
        assert fams == [target]

    total_aps = 0
    nonempty = 0
    for pair in _complex_pairs(10):
        if pair == (-1, -2):
            continue
        params = new_params(*pair)
        for kind in Kind:
            assert detect_families(params, kind, 50) == [], (pair, kind)
            aps = find_aps(params, kind, 200)
            total_aps += len(aps)
            nonempty += bool(aps)
            assert all(t.max_index <= 26 for t in aps), (pair, kind)
    # frozen against the brute-force survey: sporadic progressions only
    assert total_aps == 240 and nonempty == 78
    elapsed = time.time() - t0
    _verdict(
        5,
        True,
        "complex candidates reduce to exactly (-1,-2) with family (t+1,t,t+3) for "
        f"both kinds; remaining negative-discriminant pairs show {total_aps} sporadic "
        f"progressions, none past index 26, and no families to exponent 50 "
        f"({elapsed:.1f}s)",
    )


def test_criterion_6_headline_constant():
    bound = sunit_constant()
    assert bound.value == 2**7776 + 3 * 2**2336 + 18 * 2**999 + 39
    assert bound.digit_count == 2341
    assert bound.value < 645 * 10**2338
    assert bound.decimal_string()[:3] == bound.leading_digits
    _verdict(
        6,
        True,
        f"exact constant has {bound.digit_count} digits, leading digits "
        f"{bound.leading_digits}, below the stated 6.45e2340 ceiling",
    )


def test_criterion_7_multiplicity():
    # second clause: exceptional solution sets through the sign adapter
    A, B = from_subtraction_convention(1, 2)
    assert multiplicity_with_initials(A, B, 1, 1, 20).indices_of_abs(1) == (0, 1, 2, 4, 12)
    assert multiplicity_with_initials(A, B, 1, -1, 20).indices_of_abs(1) == (0, 1, 3, 11)

    # The (1, -1) sequence y above is the first-kind (-1, -2) sequence x in
    # disguise: x_{n+2} = (-1)^(n+1) * y_n over the whole window.
    window = 300
    y_report = multiplicity_with_initials(A, B, 1, -1, window - 2)
    y = [None] * (window - 1)
    for value, indices in y_report.value_to_indices.items():
        for n in indices:
            y[n] = value
    x = terms(new_params(-1, -2), Kind.FIRST, window + 1)
    assert all(x[n + 2] == (-1) ** (n + 1) * y[n] for n in range(window - 1))

    # Under the twist the +1 and -1 classes of {0, 1, 3, 11} merge into one
    # value of x, at the indices shifted by 2: that is the one exception.
    exceptional = y_report.indices_of_abs(1)
    assert exceptional == (0, 1, 3, 11)
    merged = {(-1) ** (n + 1) * y[n] for n in exceptional}
    assert len(merged) == 1, merged
    expected = [
        (-1, -2, Kind.FIRST.value, merged.pop(), tuple(n + 2 for n in exceptional))
    ]

    # first clause: multiplicity <= 3 for both kinds over the whole grid,
    # except for the one twisted Ramanujan-Nagell set derived above.
    violations = []
    for a in range(-10, 11):
        for b in range(-10, 11):
            if not a or not b or degeneracy_order(a, b) is not None:
                continue
            params = new_params(a, b)
            for kind in Kind:
                rep = multiplicity(params, kind, window)
                if rep.max_multiplicity > 3:
                    culprit = rep.witnesses[0]
                    violations.append(
                        (a, b, kind.value, culprit, rep.value_to_indices[culprit])
                    )
    ok = violations == expected
    _verdict(
        7,
        ok,
        "exceptional index sets {0,1,2,4,12} and {0,1,3,11} reproduced; "
        f"multiplicity bounded by 3 on the grid except {expected[0]}, the set "
        "{0,1,3,11} shifted by 2 under the twist x_{n+2} = (-1)^(n+1) y_n",
    )
    assert violations == expected, (
        f"multiplicity above 3 at {violations}; the only allowed exception is "
        f"{expected}, the Ramanujan-Nagell set {{0,1,3,11}} of the "
        "subtraction-convention sequence shifted by 2 under the sign twist"
    )


def test_criterion_8_property_suites():
    t0 = time.time()
    # closed form equals recurrence through index 200
    for pair in [(1, 1), (2, 1), (-3, -1), (1, -3), (-1, -2), (6, -2)]:
        params = new_params(*pair)
        for kind in Kind:
            assert closed_form_check(params, kind, 200).ok

    # degeneracy predicate matches the root-power oracle on the 30-box
    for a in range(-30, 31):
        for b in range(-30, 31):
            if not a or not b:
                continue
            ra, rb = roots_of(a, b)
            pa, pb = ra, rb
            oracle = False
            for _ in range(6):
                if (pa - pb).is_zero():
                    oracle = True
                    break
                pa, pb = pa * ra, pb * rb
            assert oracle == (degeneracy_order(a, b) is not None), (a, b)

    # family certificates stay identically zero through t = 500
    families = [
        (APFamily((0, 1), (2, 1), (3, 1), 0), (1, 1), Kind.FIRST),
        (APFamily((1, 0), (1, 2), (2, 2), 1), (1, 2), Kind.FIRST),
        (APFamily((1, 1), (0, 1), (3, 1), 0), (-1, -2), Kind.SECOND),
        (APFamily((0, 1), (2, 1), (3, 1), 0), (1, 1), Kind.SECOND),
    ]
    for fam, pair, kind in families:
        params = new_params(*pair)
        verify_family(fam, params, kind)
        for t in range(fam.t_min, 501):
            k, l, m = fam.instantiate(t)
            assert term(params, kind, k) - 2 * term(params, kind, l) + term(
                params, kind, m
            ) == 0

    # predicate symmetry and canonical idempotence on a fixed sample
    import random

    rng = random.Random(20240817)
    for _ in range(2000):
        x, y, z = (rng.randint(-10**6, 10**6) for _ in range(3))
        assert is_ap(x, y, z) == is_ap(z, y, x)
        k, l, m = (rng.randint(0, 400) for _ in range(3))
        once = canonical_indices(k, l, m)
        assert canonical_indices(*once) == once
    elapsed = time.time() - t0
    _verdict(
        8,
        True,
        f"closed-form/recurrence, degeneracy oracle, certificate soundness to "
        f"t=500, and predicate properties all green with fixed seeds ({elapsed:.1f}s)",
    )
