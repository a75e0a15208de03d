"""Symbolic case equations and the complete small-index solver."""

from itertools import product

import pytest

from lucasaps.core import Kind, degeneracy_order, new_params, term
from lucasaps.apsearch import find_aps
from lucasaps.smallcase import (
    BivarPoly,
    CaseEquation,
    DomainFilter,
    SqueezeUnresolvedError,
    _variant_poly,
    case_equations,
    divisibility_candidates,
    integer_roots,
    p_eval,
    p_mul,
    p_str,
    poly_term,
    solve_all,
    solve_case,
)


def bivar(coeffs):
    return BivarPoly(coeffs)


class TestPolyTerm:
    def test_first_kind_examples(self):
        assert poly_term(Kind.FIRST, 4) == bivar({(3, 0): 1, (1, 1): 2})
        assert poly_term(Kind.FIRST, 6) == bivar({(5, 0): 1, (3, 1): 4, (1, 2): 3})

    def test_second_kind_seventh_at_unit_a(self):
        v7 = poly_term(Kind.SECOND, 7)
        # |v_7| at A = +-1 is 7B^3 + 14B^2 + 7B + 1
        coeffs_plus = {}
        for (i, j), c in v7.items():
            coeffs_plus[j] = coeffs_plus.get(j, 0) + c
        assert coeffs_plus == {0: 1, 1: 7, 2: 14, 3: 7}
        minus = sum(c * (-1) ** i for (i, j), c in v7.items() if j == 3)
        assert abs(minus) == 7

    def test_matches_terms_at_random_points(self, rng):
        for _ in range(50):
            a = rng.randint(-20, 20) or 3
            b = rng.randint(-20, 20) or 2
            if degeneracy_order(a, b) is not None:
                continue
            p = new_params(a, b)
            n = rng.randint(0, 7)
            for kind in Kind:
                assert poly_term(kind, n).evaluate(a, b) == term(p, kind, n)


class TestCaseEquations:
    def test_known_linear_equation_expansion(self):
        poly = _variant_poly(Kind.FIRST, 1, 2, 4, 2)
        assert poly == bivar({(3, 0): 1, (1, 1): 2, (1, 0): 1, (0, 0): -2})
        assert str(poly) == "2*A*B+A^3+A-2"

    def test_known_quadratic_equation_expansion(self):
        poly = _variant_poly(Kind.FIRST, 0, 3, 6, 3)
        assert poly == bivar(
            {(1, 2): -6, (3, 1): -8, (0, 1): 1, (5, 0): -2, (2, 0): 1}
        )

    def test_trivial_equation(self):
        assert _variant_poly(Kind.FIRST, 0, 1, 2, 1) == bivar({(1, 0): 1, (0, 0): -2})

    def test_no_sign_duplicates_in_output(self):
        # case_equations keeps no sign dedup: at the cap all 168 equations
        # of each kind are nonzero and pairwise distinct up to sign
        for kind in (Kind.FIRST, Kind.SECOND):
            polys = [eq.poly for eq in case_equations(kind, 7)]
            assert len(polys) == 168
            assert len(set(polys) | {-p for p in polys}) == 2 * 168

    def test_ap_roles(self):
        eq = CaseEquation(Kind.FIRST, (1, 2, 4), 2, _variant_poly(Kind.FIRST, 1, 2, 4, 2))
        assert eq.ap_roles() == (2, 1, 4)
        eq3 = CaseEquation(Kind.FIRST, (0, 3, 6), 3, _variant_poly(Kind.FIRST, 0, 3, 6, 3))
        assert eq3.ap_roles() == (0, 6, 3)

    def test_index_cap(self):
        with pytest.raises(ValueError):
            case_equations(Kind.FIRST, 8)


class TestWorkedEquations:
    def test_linear_divisor_candidates(self):
        eq = CaseEquation(Kind.FIRST, (1, 2, 4), 2, _variant_poly(Kind.FIRST, 1, 2, 4, 2))
        sol = solve_case(eq)
        assert sol.report.strategy == "linear_in_b"
        assert sol.report.candidates == (-2, -1, 1, 2)
        assert not sol.sporadics and not sol.b_families and not sol.curves

    def test_square_discriminant_with_rejected_branch(self):
        eq = CaseEquation(Kind.FIRST, (0, 3, 6), 3, _variant_poly(Kind.FIRST, 0, 3, 6, 3))
        sol = solve_case(eq)
        # Delta = (4A^3 + 1)^2
        assert list(sol.report.delta) == [1, 0, 0, 8, 0, 0, 16]
        assert sol.report.delta_square_root == ((1, 0, 0, 4), 1)
        rejected = [b for b in sol.report.branches if b.get("b") == "-A^2"]
        assert rejected and rejected[0]["outcome"].startswith("rejected")
        assert not sol.sporadics and not sol.curves

    def test_squeezed_discriminant_square_only_at_one(self):
        # the sextic discriminant 4*(A^6 + 6A^2 - 3A): a square only at
        # A in {0, 1}; A = 1 forces B = 0 which the filter rejects
        eq = CaseEquation(Kind.FIRST, (1, 2, 6), 1, _variant_poly(Kind.FIRST, 1, 2, 6, 1))
        sol = solve_case(eq)
        assert list(sol.report.delta) == [0, -12, 24, 0, 0, 0, 4]
        assert sol.report.square_hits == (0, 1)
        assert sol.report.squeeze and all(e["cut"] >= 3 for e in sol.report.squeeze)
        assert not sol.sporadics

    def test_divisor_sweep_completeness(self):
        # every |a| <= 10^4 satisfying the divisibility is in the candidate set
        for eq in case_equations(Kind.FIRST, 6):
            bcs = eq.poly.b_coefficients()
            if len(bcs) - 1 != 1 or not bcs[0]:
                continue
            e1, e0 = bcs[1], [-c for c in bcs[0]]
            out = divisibility_candidates(e1, e0)
            if out.exact_quotient is not None:
                continue
            cands = set(out.candidates)
            for a in range(-10000, 10001):
                d = p_eval(e1, a)
                if d and p_eval(e0, a) % d == 0:
                    assert a in cands, (eq.triple, eq.variant, a)


class TestSolveAll:
    def test_first_kind_families(self):
        ss = solve_all(Kind.FIRST, 6)
        rows = {(f.A, f.b_min, f.triple) for f in ss.b_families}
        assert (2, 1, (0, 1, 2)) in rows
        assert (1, 1, (1, 3, 4)) in rows and (1, 1, (2, 3, 4)) in rows
        assert (-1, 1, (1, 0, 2)) in rows

    def test_second_kind_sporadics(self):
        ss = solve_all(Kind.SECOND, 6)
        found = {(s.A, s.B, s.triple) for s in ss.sporadics}
        assert (-2, 1, (1, 0, 2)) in found
        assert (-3, -1, (1, 0, 2)) in found
        assert (1, 3, (1, 4, 5)) in found

    def test_no_unresolved_equation_below_seven(self):
        for kind in Kind:
            for eq in case_equations(kind, 6):
                solve_case(eq)  # must not raise

    def test_solutions_resubstitute(self):
        for kind in Kind:
            ss = solve_all(kind, 6)
            for s in ss.sporadics:
                for (trip, variant) in [s.source]:
                    poly = _variant_poly(kind, *trip, variant)
                    assert poly.evaluate(s.A, s.B) == 0

    def test_grid_oracle_small(self):
        for kind in Kind:
            ss = solve_all(kind, 6)
            sym = ss.grid_instances(-15, 15, -15, 15, max_index=6)
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
        eq = CaseEquation(Kind.FIRST, (0, 1, 7), 1, _variant_poly(Kind.FIRST, 0, 1, 7, 1))
        with pytest.raises(SqueezeUnresolvedError):
            solve_case(eq, DomainFilter(dominant=False))

    def test_constant_trick_rescues_second_kind_cap_seven(self):
        # only the smallest even index 0 appears, so E(0, B) is constant
        eq = CaseEquation(
            Kind.SECOND, (0, 1, 7), 1, _variant_poly(Kind.SECOND, 0, 1, 7, 1)
        )
        sol = solve_case(eq, DomainFilter(dominant=False))
        assert "constant_trick" in sol.report.strategy

    def test_non_dominant_filter_linear_range(self):
        # complete without the discriminant filter up to index 4
        ss = solve_all(Kind.FIRST, 4, DomainFilter(dominant=False))
        sym = ss.grid_instances(-12, 12, -12, 12, max_index=4)
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
        poly = _variant_poly(Kind.FIRST, 0, 3, 6, 3)
        e2, e1, e0 = poly.b_coefficients()[2], poly.b_coefficients()[1], poly.b_coefficients()[0]
        assert e2 == [0, -6]
        assert e1 == [1, 0, 0, -8]
        assert e0 == [0, 0, 1, 0, 0, -2]

    def test_str_and_eval(self):
        poly = _variant_poly(Kind.FIRST, 1, 2, 4, 2)
        assert poly.evaluate(2, -1) == 8 - 4 + 2 - 2
        assert p_str([-2, 0, 1]) == "A^2-2"
