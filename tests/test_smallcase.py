"""Symbolic case equations and the complete small-index solver."""

import ast
import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import full_window_solutions, term, x_coefficients_by_expansion
import lucasaps.poly
from lucasaps.cli import main
from lucasaps.core import EngineMismatchError, Kind, degeneracy_order, new_params
from lucasaps.apsearch import find_aps
from lucasaps.poly import (
    b_add,
    b_eval,
    b_str,
    divisors,
    frac_to_int,
    integer_roots,
    p_add,
    p_content,
    p_deg,
    p_eval,
    p_mul,
    p_str,
    poly_sqrt,
    positive_cut,
    root_bound,
    trim,
)
from lucasaps.smallcase import (
    CaseEquation,
    DomainFilter,
    EquationReport,
    SqueezeUnresolvedError,
    _curve_members,
    _linear_branch,
    _root_location,
    _x_coefficients,
    case_equations,
    divisibility_candidates,
    poly_terms,
    solve_all,
    solve_case,
)


def poly_term(kind, n):
    """The n-th term as an exact polynomial in (A, B)."""
    return poly_terms(kind, n + 1)[n]


def equation_of(kind, roles):
    """The case equation whose canonical roles (outer, doubled, outer) are
    roles: the sorted triple, and the variant of the doubled position."""
    srt = tuple(sorted(roles))
    return CaseEquation(kind, srt, (2, 1, 3)[srt.index(roles[1])])


class TestPolyTerm:
    def test_first_kind_examples(self):
        assert poly_term(Kind.FIRST, 4) == ((0, 0, 0, 1), (0, 2))
        assert poly_term(Kind.FIRST, 6) == ((0, 0, 0, 0, 0, 1), (0, 0, 0, 4), (0, 3))

    def test_second_kind_seventh_at_unit_a(self):
        v7 = poly_term(Kind.SECOND, 7)
        # |v_7| at A = +-1 is 7B^3 + 14B^2 + 7B + 1
        assert [p_eval(e, 1) for e in v7] == [1, 7, 14, 7]
        assert abs(p_eval(v7[3], -1)) == 7

    def test_matches_terms_at_random_points(self, rng):
        for _ in range(50):
            a = rng.randint(-20, 20) or 3
            b = rng.randint(-20, 20) or 2
            if degeneracy_order(a, b) is not None:
                continue
            p = new_params(a, b)
            n = rng.randint(0, 7)
            for kind in Kind:
                assert b_eval(poly_term(kind, n), a, b) == term(p, kind, n)


class TestCaseEquations:
    def test_known_linear_equation_expansion(self):
        poly = CaseEquation(Kind.FIRST, (1, 2, 4), 2).poly
        assert poly == ((-2, 1, 0, 1), (0, 2))
        assert b_str(poly) == "2*A*B+A^3+A-2"

    def test_known_quadratic_equation_expansion(self):
        poly = CaseEquation(Kind.FIRST, (0, 3, 6), 3).poly
        assert poly == ((0, 0, 1, 0, 0, -2), (1, 0, 0, -8), (0, -6))

    def test_trivial_equation(self):
        assert CaseEquation(Kind.FIRST, (0, 1, 2), 1).poly == ((-2, 1),)

    def test_no_sign_duplicates_in_output(self):
        # case_equations keeps no sign dedup: at the cap all 168 equations
        # of each kind are nonzero and pairwise distinct up to sign
        for kind in (Kind.FIRST, Kind.SECOND):
            polys = [eq.poly for eq in case_equations(kind, 7)]
            assert len(polys) == 168
            assert len(set(polys) | {b_add((), p, -1) for p in polys}) == 2 * 168

    def test_ap_roles(self):
        eq = CaseEquation(Kind.FIRST, (1, 2, 4), 2)
        assert eq.ap_roles() == (2, 1, 4)
        eq3 = CaseEquation(Kind.FIRST, (0, 3, 6), 3)
        assert eq3.ap_roles() == (0, 6, 3)

    def test_roles_recover_the_equation(self):
        # a solution records only the canonical roles; they name one equation
        for kind in Kind:
            for eq in case_equations(kind, 7):
                back = equation_of(kind, eq.ap_roles())
                assert (back.triple, back.variant) == (eq.triple, eq.variant)

    def test_index_cap(self):
        with pytest.raises(ValueError):
            case_equations(Kind.FIRST, 8)

    def test_shared_term_table_gives_the_direct_polynomials(self):
        # case_equations builds one term table per call; each equation must
        # equal the one built from its own table
        for kind in Kind:
            for eq in case_equations(kind, 7):
                direct = CaseEquation(kind, eq.triple, eq.variant)
                assert eq.poly == direct.poly, (kind, eq.triple, eq.variant)


class TestWorkedEquations:
    def test_linear_divisor_candidates(self):
        eq = CaseEquation(Kind.FIRST, (1, 2, 4), 2)
        sol = solve_case(eq)
        assert sol.strategy == "linear_in_b"
        assert sol.candidates == (-2, -1, 1, 2)
        assert not sol.sporadics and not sol.b_families and not sol.curves

    def test_square_discriminant_with_rejected_branch(self):
        eq = CaseEquation(Kind.FIRST, (0, 3, 6), 3)
        sol = solve_case(eq)
        # Delta = (4A^3 + 1)^2
        assert list(sol.delta) == [1, 0, 0, 8, 0, 0, 16]
        assert sol.delta_square_root == ((1, 0, 0, 4), 1)
        rejected = [b for b in sol.branches if b.get("b") == "-A^2"]
        assert rejected and rejected[0]["outcome"].startswith("rejected")
        assert not sol.sporadics and not sol.curves

    def test_squeezed_discriminant_square_only_at_one(self):
        # the sextic discriminant 4*(A^6 + 6A^2 - 3A): a square only at
        # A in {0, 1}; A = 1 forces B = 0 which the filter rejects
        eq = CaseEquation(Kind.FIRST, (1, 2, 6), 1)
        sol = solve_case(eq)
        assert list(sol.delta) == [0, -12, 24, 0, 0, 0, 4]
        assert sol.square_hits == (0, 1)
        assert sol.squeeze and all(e["cut"] >= 3 for e in sol.squeeze)
        assert not sol.sporadics

    def test_curve_point_not_repeated_as_sporadic(self):
        # Delta is a square: one branch is the curve B = A - A^2, the other
        # has divisor candidates, and the exact solve at those candidates
        # also finds the curve's points, which the curve already reports
        eq = CaseEquation(Kind.FIRST, (4, 5, 6), 1)
        sol = solve_case(eq, DomainFilter(dominant=False))
        assert sol.delta_square_root == ((0, 2, -4, 2), 1)
        assert sol.candidates == (-10, -2, 0, 1, 2, 6, 22)
        assert [(c.num, c.den, c.residues) for c in sol.curves] == [((0, 1, -1), 1, (0,))]
        assert not sol.sporadics and not sol.b_families

    def test_squeeze_root_on_each_side(self):
        # Delta(-x) has the root (-1)^3 * G(-x) for G = 2A^3 + 2, so side -1
        # squeezes around 2A^3 - 2
        eq = CaseEquation(Kind.FIRST, (1, 3, 6), 1)
        sol = solve_case(eq)
        assert sol.squeeze == [
            {"side": 1, "cut": 4, "shift": -1, "squareRoot": "2*A^3+2"},
            {"side": -1, "cut": 4, "shift": 0, "squareRoot": "2*A^3-2"},
        ]

    def test_poly_sqrt_needs_a_square_leading_coefficient(self):
        # 4A^2 + 1 has the root 2A; 2A^2 + 1 and -A^2 + 1 have none
        assert poly_sqrt([1, 0, 4]) == [0, 2]
        assert poly_sqrt([1, 0, 2]) is None
        assert poly_sqrt([1, 0, -1]) is None
        assert poly_sqrt([1, 0, 0, 4]) is None  # odd degree, square lead 4

    def test_curve_members_without_a_window(self):
        # B = 0 is never admitted; B = A^2 gives A^2 + 4B = 5A^2 > 0 for
        # every A, so the dominant filter leaves an infinite curve family
        report = EquationReport(CaseEquation(Kind.FIRST, (0, 1, 2), 1), "")
        assert _curve_members([], DomainFilter(), report) == set()
        assert _curve_members([0, 0, 1], DomainFilter(), report) == set()
        assert [(c.num, c.den, c.residues) for c in report.curves] == [((0, 0, 1), 1, (0,))]
        assert report.branches == [
            {"b": "0", "outcome": "rejected: B = 0"},
            {"b": "A^2", "outcome": "infinite curve family"},
        ]

    def test_linear_branches_merge_their_candidates(self):
        # no case equation has divisor candidates on both branches of a
        # square discriminant, so two branches share one report here:
        # B = 2/A and B = 3/A
        report = EquationReport(CaseEquation(Kind.FIRST, (0, 1, 2), 1), "")
        assert _linear_branch([0, 1], [2], DomainFilter(), report) == {-2, -1, 0, 1, 2}
        assert _linear_branch([0, 1], [3], DomainFilter(), report) == {-3, -1, 0, 1, 3}
        assert report.candidates == (-3, -2, -1, 1, 2, 3)

    def test_root_location_failure_raises(self):
        # E = A^2 + 4B - 1 vanishes at C = 1 for every A; E = 4B gives
        # P(1 + x) = 4 + 4x - 4A^2, whose constant is eventually negative
        report = EquationReport(CaseEquation(Kind.FIRST, (0, 1, 2), 1), "")
        for bcs in (((-1, 0, 1), (4,)), ((), (4,))):
            with pytest.raises(EngineMismatchError, match="root location fails on side 1"):
                _root_location(bcs, report)
        assert not report.squeeze
        # E = A^3 + B gives P(1 + x) = x + 4A^3 - A^2 + 1: positive for
        # A > 2, eventually negative for A < 0
        with pytest.raises(EngineMismatchError) as failure:
            _root_location(((0, 0, 0, 1), (1,)), report)
        assert str(failure.value) == (
            "root location fails on side -1: coefficient 0 of P(1 + x) is 4*A^3-A^2+1"
        )
        assert report.squeeze == [
            {"side": 1, "cut": 2, "why": "discriminant-variable roots below 1"}
        ]

    def test_root_location_keeps_an_identically_zero_a(self):
        # E = (A^2 - 1)(A^2 + 4B + 1) gives P(1 + x) = 4(A^2 - 1)(x + 2):
        # both coefficients vanish at A = +-1, where B is free
        report = EquationReport(CaseEquation(Kind.FIRST, (0, 1, 2), 1), "")
        assert _root_location(((-1, 0, 0, 0, 1), (-4, 0, 4)), report) == {-1, 1}
        assert report.squeeze[0]["cut"] >= 2

    def test_root_location_keeps_a_root_at_c_one(self):
        # E = A^2 + 4B - 1 + (A - 2)^2 gives P(1 + x) = 4x + 4(A - 2)^2:
        # at A = 2 the constant is 0 (C = 1 solves) and the rest positive
        report = EquationReport(CaseEquation(Kind.FIRST, (0, 1, 2), 1), "")
        assert _root_location(((3, -4, 2), (4,)), report) == {2}
        assert report.squeeze[0]["cut"] >= 3

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_root_location_drops_a_of_one_strict_sign(self, sign):
        # E = +-(A^2 + 1)(A^2 + 4B + 1) gives P(1 + x) = +-4(A^2 + 1)(x + 2):
        # every coefficient is nonzero and of one sign at every A
        report = EquationReport(CaseEquation(Kind.FIRST, (0, 1, 2), 1), "")
        bcs = ((sign, 0, 2 * sign, 0, sign), (4 * sign, 0, 4 * sign))
        assert _root_location(bcs, report) == set()
        assert report.squeeze[0]["cut"] >= 1

    def test_x_coefficients_match_expansion_on_case_equations(self):
        # the Taylor shift against the binomial expansion on every equation
        # root location closes
        checked = 0
        for kind in Kind:
            for eq in case_equations(kind, 7):
                if solve_case(eq).strategy.endswith("_root_location"):
                    assert _x_coefficients(eq.poly) == x_coefficients_by_expansion(eq.poly), (
                        kind, eq.triple, eq.variant
                    )
                    checked += 1
        assert checked == 249

    def test_x_coefficients_match_expansion_on_random_polynomials(self, rng):
        # B-degree <= 3 and A-degree <= 8, zero B-coefficients below the top included
        for _ in range(300):
            bcs = [
                trim([rng.randint(-30, 30) for _ in range(rng.randint(0, 9))])
                for _ in range(rng.randint(1, 4))
            ]
            while not bcs[-1]:
                bcs[-1] = trim([rng.randint(-30, 30) for _ in range(9)])
            bcs = tuple(tuple(e) for e in bcs)
            assert _x_coefficients(bcs) == x_coefficients_by_expansion(bcs), bcs

    def test_divisor_sweep_completeness(self):
        # every |a| <= 10^4 satisfying the divisibility is in the candidate set
        for eq in case_equations(Kind.FIRST, 6):
            bcs = eq.poly
            if len(bcs) - 1 != 1 or not bcs[0]:
                continue
            e1, e0 = bcs[1], [-c for c in bcs[0]]
            quotient, candidates = divisibility_candidates(e1, e0)
            if quotient is not None:
                continue
            cands = set(candidates)
            for a in range(-10000, 10001):
                d = p_eval(e1, a)
                if d and p_eval(e0, a) % d == 0:
                    assert a in cands, (eq.triple, eq.variant, a)


def _frac_divmod(num, den):
    """Polynomial division over Q; den must be nonzero."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    r = num[:]
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(den):
            break
        c = r[-1] / den[-1]
        k = len(r) - len(den)
        q[k] = c
        for i, d in enumerate(den):
            r[i + k] -= c * d
        r.pop()
    return q, r


def _frac_gcd(f, g):
    """Primitive integer gcd of two integer polynomials (Euclid over Q)."""
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]
    while any(b):
        _, r = _frac_divmod(a, b)
        a, b = b, r
    if not any(a):
        return []
    ints, _ = frac_to_int(a)
    cont = p_content(ints)
    ints = [c // cont for c in ints]
    return [-c for c in ints] if ints[-1] < 0 else ints


def _sylvester_resultant(f, g):
    n, m = p_deg(f), p_deg(g)
    if n < 0 or m < 0:
        return 0
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    size = n + m
    mat = [[Fraction(0)] * size for _ in range(size)]
    for row in range(m):
        for i, c in enumerate(reversed(f)):
            mat[row][row + i] = Fraction(c)
    for row in range(n):
        for i, c in enumerate(reversed(g)):
            mat[m + row][row + i] = Fraction(c)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] * inv
            if factor:
                for cc in range(col, size):
                    mat[r][cc] -= factor * mat[col][cc]
    assert det.denominator == 1
    return int(det)


def oracle_divisibility(den, num):
    """The general gcd-split and Sylvester-resultant analysis for any degree."""
    quotient, rem = _frac_divmod(num, den)
    if not any(rem):
        return quotient, ()
    g = _frac_gcd(den, num)
    h1f, r1 = _frac_divmod(den, g)
    h0f, r0 = _frac_divmod(num, g)
    assert not any(r1) and not any(r0)
    h1, _ = frac_to_int(h1f)
    h0, _ = frac_to_int(h0f)
    bound = p_content(h0) * _sylvester_resultant(h1, h0)
    assert bound != 0
    cands = set()
    for d in divisors(bound):
        for target in (d, -d):
            probe = p_add(h1, [target], -1)
            if probe:
                cands.update(integer_roots(probe))
    if den[0] == 0 and num and num[0] != 0:
        sharp = set()
        for d in divisors(num[0]):
            sharp.update((d, -d))
        cands &= sharp
    return None, tuple(sorted(cands))


class TestDivisibilityOracle:
    def assert_matches(self, den, num):
        assert divisibility_candidates(den, num) == oracle_divisibility(den, num), (den, num)

    def test_case_equations(self):
        count = 0
        for kind in Kind:
            for eq in case_equations(kind, 7):
                if len(eq.poly) == 2 and eq.poly[0]:
                    self.assert_matches(eq.poly[1], [-c for c in eq.poly[0]])
                    count += 1
        assert count == 39

    def test_random_linear_denominators(self, rng):
        count = 0
        for _ in range(20000):
            den = [rng.randint(-6, 6), rng.choice([-4, -3, -2, -1, 1, 2, 3, 5])]
            num = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.1:
                num = p_mul(den, num)  # exact division
            if not any(num):
                continue
            self.assert_matches(den, num)
            count += 1
        assert count > 19000

    def test_random_constant_denominators(self, rng):
        # a constant divides every numerator over Q, trailing zeros kept
        for _ in range(2000):
            num = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
            for c in (1, -1, 2, -2, 3, -3):
                self.assert_matches([c], num)

    def test_zero_denominator_raises(self):
        for den in ([], [0], [0, 0]):
            with pytest.raises(ZeroDivisionError):
                divisibility_candidates(den, [1, 2])

    def test_quadratic_denominator_raises(self):
        # no case equation has a denominator of degree 2, so even an exact
        # quotient is outside the solver's reach
        with pytest.raises(SqueezeUnresolvedError):
            divisibility_candidates([1, 0, 1], [2, 0, 0, 1])
        with pytest.raises(SqueezeUnresolvedError):
            divisibility_candidates([1, 0, 1], [1, 1, 1, 1])


class TestSolveAll:
    def test_first_kind_families(self):
        ss = solve_all(Kind.FIRST, 6)
        rows = {(f.A, DomainFilter().b_condition(f.A)[0], f.triple) for f in ss.b_families}
        assert (2, 1, (0, 1, 2)) in rows
        assert (1, 1, (1, 3, 4)) in rows and (1, 1, (2, 3, 4)) in rows
        assert (-1, 1, (1, 0, 2)) in rows

    def test_second_kind_sporadics(self):
        ss = solve_all(Kind.SECOND, 6)
        found = {(s.A, s.B, s.triple) for s in ss.sporadics}
        assert (-2, 1, (1, 0, 2)) in found
        assert (-3, -1, (1, 0, 2)) in found
        assert (1, 3, (1, 4, 5)) in found

    def test_resubstitution_mismatch_exits_three(self, monkeypatch, capsys):
        # the re-substitution check is a raise, not an assert, so it also
        # runs under python -O
        monkeypatch.setattr("lucasaps.smallcase.b_eval", lambda f, a, b: 1)
        with pytest.raises(EngineMismatchError):
            solve_all(Kind.FIRST, 2)
        assert main(["smallcases", "--kind", "first", "--max-index", "2"]) == 3
        assert "internal verification mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,roles,filt,point",
        [
            (Kind.SECOND, (1, 0, 2), DomainFilter(), (-2, 1)),
            (Kind.FIRST, (0, 1, 2), DomainFilter(), (2, 1)),  # first B-family witness
            (Kind.FIRST, (4, 5, 6), DomainFilter(dominant=False), (-1, -2)),  # B = A - A^2
        ],
        ids=["sporadic", "b-family", "curve"],
    )
    def test_solve_case_checks_what_it_solves(self, monkeypatch, kind, roles, filt, point):
        # solve_case re-substitutes before it returns, with no solve_all
        # around it: a point that does not solve its equation raises there
        eq = equation_of(kind, roles)
        solve_case(eq, filt)
        monkeypatch.setattr("lucasaps.smallcase.b_eval", lambda f, a, b: (a, b) == point)
        with pytest.raises(EngineMismatchError) as failure:
            solve_case(eq, filt)
        assert str(failure.value) == (
            f"{point} does not solve triple {eq.triple} variant {eq.variant}"
        )

    def test_strategy_counts_at_cap_seven(self):
        # a quadratic whose cutoff came from root location says so, as the
        # cubic ones do
        counts = {kind: Counter(r.strategy for r in solve_all(kind, 7).reports) for kind in Kind}
        assert counts[Kind.FIRST] == {
            "constant_in_b": 3,
            "linear_in_b": 27,
            "quadratic_in_b": 45,
            "quadratic_in_b_root_location": 30,
            "cubic_in_b_root_location": 63,
        }
        assert counts[Kind.SECOND] == {
            "linear_in_b": 12,
            "quadratic_in_b_root_location": 48,
            "cubic_in_b_root_location": 108,
        }

    def test_documents_are_pinned(self):
        # solve_all under the dominant filter for both kinds at caps 2..7,
        # serialized once; any change to a solution moves the digest
        docs = [solve_all(kind, cap).to_json_dict() for kind in Kind for cap in range(2, 8)]
        text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "92b326d35b5d4b3c7e1599bf18cf0440a016175491f115824689f73edb8d787b"
        )

    def test_unfiltered_documents_are_pinned(self):
        # solve_all without the dominant filter at its reach (first kind caps
        # 2..4, second kind 2..3), serialized as above: 25 curve families,
        # 26 sporadics and 8 B-families
        filt = DomainFilter(dominant=False)
        docs = [solve_all(Kind.FIRST, cap, filt).to_json_dict() for cap in range(2, 5)]
        docs += [solve_all(Kind.SECOND, cap, filt).to_json_dict() for cap in range(2, 4)]
        text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a91c64348d46415b2c7114d7415e59a85dc9f05edf376442923955ab127ef86a"
        )

    def test_evidence_is_pinned(self):
        # the closure evidence and curves of every report, under the
        # dominant filter for both kinds at cap 7 and without it at the
        # reach, serialized once; the documents above carry no evidence
        unfiltered = DomainFilter(dominant=False)
        reports = [r for kind in Kind for r in solve_all(kind, 7).reports]
        reports += solve_all(Kind.FIRST, 4, unfiltered).reports
        reports += solve_all(Kind.SECOND, 3, unfiltered).reports
        docs = [
            {
                "strategy": r.strategy, "candidates": r.candidates, "delta": r.delta,
                "delta_square_root": r.delta_square_root, "branches": r.branches,
                "squeeze": r.squeeze, "square_hits": r.square_hits,
                "curves": [(c.num, c.den, c.residues, c.triple) for c in r.curves],
            }
            for r in reports
        ]
        assert len(docs) == 378
        text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ecc9458a396c0cc8b883b997b8e9619f8add164bab37a6359ebc6c347f091bc1"
        )

    def test_root_location_windows_at_cap_seven(self):
        # the values of A root location leaves for the exact solve; solving
        # at every |A| <= cut instead finds the same sporadics and B-families
        sizes = Counter()
        for kind in Kind:
            for eq in case_equations(kind, 7):
                report = solve_case(eq)
                if not report.strategy.endswith("_root_location"):
                    continue
                sizes[kind] += len(_root_location(eq.poly, EquationReport(eq, "")))
                assert not report.curves
                oracle = full_window_solutions(eq, report.squeeze[0]["cut"])
                assert oracle == (report.sporadics, report.b_families), (eq.triple, eq.variant)
        assert sizes == {Kind.FIRST: 170, Kind.SECOND: 347}

    def test_squeeze_shifts_at_cap_seven(self):
        # the shift follows from the sign of t^2 * Delta - G^2 on each side;
        # second kind never squeezes, first kind the same with either filter
        for dominant in (True, False):
            shifts, cuts = Counter(), 0
            for eq in case_equations(Kind.FIRST, 7):
                try:
                    report = solve_case(eq, DomainFilter(dominant))
                except SqueezeUnresolvedError:
                    continue
                for entry in report.squeeze:
                    if "shift" in entry:
                        shifts[entry["side"], entry["shift"]] += 1
                        cuts += entry["cut"]
            assert shifts == {(1, 0): 34, (1, -1): 6, (-1, 0): 32, (-1, -1): 8}, dominant
            assert cuts == 843, dominant

    def test_no_unresolved_equation_below_seven(self):
        for kind in Kind:
            for eq in case_equations(kind, 6):
                solve_case(eq)  # must not raise

    def test_solutions_resubstitute(self):
        for kind in Kind:
            ss = solve_all(kind, 6)
            for s in ss.sporadics:
                eq = equation_of(kind, s.triple)
                assert eq.ap_roles() == s.triple
                assert b_eval(eq.poly, s.A, s.B) == 0

    def test_grid_skips_b_families_outside_the_a_range(self):
        ss = solve_all(Kind.FIRST, 5)
        assert {f.A for f in ss.b_families} == {-1, 1, 2}
        assert ss.grid_instances(3, 5, 1, 5) == set()
        assert {a for a, _, _ in ss.grid_instances(-5, 5, 1, 5)} >= {-1, 1, 2}

    def test_grid_oracle_small(self):
        for kind in Kind:
            ss = solve_all(kind, 6)
            sym = ss.grid_instances(-15, 15, -15, 15)
            brute = set()
            filt = DomainFilter()
            for A in range(-15, 16):
                for B in range(-15, 16):
                    if not filt.admits(A, B):
                        continue
                    p = new_params(A, B)
                    for t in find_aps(p, kind, 7):
                        if t.max_index <= 6:
                            brute.add((A, B, t.indices))
            assert sym == brute, kind

    def test_cubic_cap_seven_raises_for_first_kind(self):
        eq = CaseEquation(Kind.FIRST, (0, 1, 7), 1)
        with pytest.raises(SqueezeUnresolvedError):
            solve_case(eq, DomainFilter(dominant=False))

    def test_cubic_cap_seven_second_kind_needs_dominant_filter(self):
        eq = CaseEquation(Kind.SECOND, (0, 1, 7), 1)
        with pytest.raises(SqueezeUnresolvedError, match=r"^triple \(0, 1, 7\) variant 1: "):
            solve_case(eq, DomainFilter(dominant=False))
        sol = solve_case(eq)
        assert sol.strategy == "cubic_in_b_root_location"
        assert not sol.sporadics and not sol.b_families and not sol.curves

    def test_non_dominant_filter_linear_range(self):
        # complete without the discriminant filter up to index 4
        ss = solve_all(Kind.FIRST, 4, DomainFilter(dominant=False))
        sym = ss.grid_instances(-12, 12, -12, 12)
        brute = set()
        filt = DomainFilter(dominant=False)
        for A in range(-12, 13):
            for B in range(-12, 13):
                if not filt.admits(A, B):
                    continue
                p = new_params(A, B)
                for t in find_aps(p, Kind.FIRST, 5):
                    if t.max_index <= 4:
                        brute.add((A, B, t.indices))
        assert sym == brute


def _cauchy_bound(f):
    """Cauchy's root bound 1 + max|c_i| / |lc|, rounded up: the window cut
    the solver used before root_bound, kept as its oracle."""
    if len(f) == 1:
        return 0
    lc = abs(f[-1])
    return 1 + (max(abs(c) for c in f[:-1]) + lc - 1) // lc


class TestRootBound:
    def test_planted_roots_within_bound(self, rng):
        # degree 1..14, coefficients up to 2^200, integer roots up to 2^40
        for _ in range(400):
            degree = rng.randint(1, 14)
            roots = [rng.randint(-(2**40), 2**40) for _ in range(rng.randint(1, degree))]
            f = [rng.randint(-(2**200), 2**200) for _ in range(degree - len(roots))]
            f.append(rng.choice([-1, 1]) * rng.randint(1, 2 ** rng.randint(0, 200)))
            for r in roots:
                f = p_mul(f, [-r, 1])
            n = root_bound(f)
            assert all(abs(r) <= n for r in roots), (f, roots)
            assert n <= _cauchy_bound(f)
            for side in (1, -1):
                g = [c * side**i for i, c in enumerate(f)]  # f(side * x)
                if g[-1] < 0:
                    g = [-c for c in g]
                cut = positive_cut(g)
                assert all(p_eval(g, x) > 0 for x in range(cut + 1, cut + 65)), (g, cut)

    @given(st.lists(st.integers(), max_size=8), st.integers().filter(bool))
    def test_bound_reads_only_absolute_values(self, lower, lc):
        # so one root location cut serves s * q(side * x) for both signs
        f = lower + [lc]
        assert root_bound(f) == root_bound([c * (-1) ** i for i, c in enumerate(f)])
        assert root_bound(f) == root_bound([-c for c in f])

    def test_small_cases(self):
        assert root_bound([5]) == 0
        assert root_bound([0, 0, 0, -5]) == 0
        assert root_bound([-4, 0, 1]) == 4  # Fujiwara: 2 * sqrt(4)
        assert root_bound([-100, 1]) == 101  # Fujiwara 200, Cauchy 101
        with pytest.raises(ValueError):
            positive_cut([0, -1])

    def test_solver_output_unchanged_under_cauchy_cut(self, monkeypatch):
        # every window cut and the cubic bisection range go through
        # root_bound; the looser Cauchy bound must give the same solutions.
        # positive_cut and integer_roots call it in poly, root location in
        # smallcase, so both names are patched
        tight = {kind: solve_all(kind, 7).to_json_dict() for kind in Kind}
        monkeypatch.setattr("lucasaps.poly.root_bound", _cauchy_bound)
        monkeypatch.setattr("lucasaps.smallcase.root_bound", _cauchy_bound)
        for kind in Kind:
            assert solve_all(kind, 7).to_json_dict() == tight[kind], kind


class TestIntegerRoots:
    def test_small_coefficients_against_brute_force(self):
        # every polynomial of degree 1..3 with coefficients in [-5, 5]:
        # integer roots lie in the Cauchy interval |x| <= 1 + max|c_i|/|lc|
        coeff_range = range(-5, 6)
        count = 0
        for degree in (1, 2, 3):
            for lower in product(coeff_range, repeat=degree):
                for lead in coeff_range:
                    if not lead:
                        continue
                    f = list(lower) + [lead]
                    bound = 1 + max(abs(c) for c in lower) // abs(lead)
                    brute = [x for x in range(-bound, bound + 1) if p_eval(f, x) == 0]
                    assert integer_roots(f) == brute, f
                    count += 1
        assert count == 14630

    def test_planted_large_roots(self, rng):
        # 40-bit roots, with repeats, a non-unit leading coefficient and an
        # irreducible quadratic cofactor that contributes no integer root
        for _ in range(200):
            roots = [rng.randint(-(2**40), 2**40) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                roots[-1] = roots[0]
            f = [rng.choice([-3, -1, 1, 2, 7])]
            for r in roots:
                f = p_mul(f, [-r, 1])
            assert integer_roots(f) == sorted(set(roots)), roots
            r = rng.randint(-(2**40), 2**40)
            cofactor = [rng.randint(1, 2**40), rng.randint(-3, 3), 1]  # no real root
            if cofactor[1] ** 2 < 4 * cofactor[0]:
                assert integer_roots(p_mul([-r, 1], cofactor)) == [r]

    def test_rejects_zero_and_high_degree(self):
        for f in ([], [0, 0], [1, 0, 0, 0, 1]):
            with pytest.raises(ValueError):
                integer_roots(f)
        assert integer_roots([7]) == []
        assert integer_roots([0, 0, 0, 2]) == [0]


class TestBivarPoly:
    def test_b_coefficients(self):
        poly = CaseEquation(Kind.FIRST, (0, 3, 6), 3).poly
        e0, e1, e2 = poly
        assert e2 == (0, -6)
        assert e1 == (1, 0, 0, -8)
        assert e0 == (0, 0, 1, 0, 0, -2)

    def test_str_and_eval(self):
        poly = CaseEquation(Kind.FIRST, (1, 2, 4), 2).poly
        assert b_eval(poly, 2, -1) == 8 - 4 + 2 - 2
        assert p_str([-2, 0, 1]) == "A^2-2"


def test_poly_imports_only_the_standard_library():
    # the exact polynomial toolkit is a leaf: a checker can use it without
    # importing the solver it checks
    tree = ast.parse(Path(lucasaps.poly.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert name.split(".")[0] != "lucasaps", f"imports {name} at line {node.lineno}"
