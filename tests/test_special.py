"""Trinomial factors, term multiplicity, and the exact counting bound."""

import functools

import pytest

from helpers import (
    from_subtraction_convention,
    multiplicity,
    multiplicity_with_initials,
    roots_of,
    trinomial_coefficients,
)
from lucasaps import special
from lucasaps.core import (
    EngineMismatchError,
    Kind,
    degeneracy_order,
    new_params,
)
from lucasaps.special import (
    TrinomialShape,
    TrinomialSpec,
    companion_candidates_complex,
    quad_factors,
    sunit_constant,
    unit_equation_solution_bound,
)


def mult_independence_check(params, bound=12):
    """True when no relation alpha^t = +-beta^s holds for 1 <= t, s <= bound.

    Valid parameters always pass: such a relation would force the root
    ratio to be a root of unity, which the constructor rejects.
    """
    a, b = roots_of(params.A, params.B)
    pow_a = a
    for _ in range(bound):
        pow_b = b
        for _ in range(bound):
            if (pow_a - pow_b).is_zero() or (pow_a + pow_b).is_zero():
                return False
            pow_b = pow_b * b
        pow_a = pow_a * a
    return True


class TestTrinomialSpec:
    def test_describe_and_coefficients(self):
        U, M, D = (
            TrinomialShape.UNIT_CONSTANT,
            TrinomialShape.MINUS_TWO_CONSTANT,
            TrinomialShape.DOUBLED_LEAD,
        )
        assert [TrinomialSpec(s, 2, 1).describe() for s in (U, M, D)] == [
            "X^2-2X+1", "X^2+X-2", "2X^2-X-1",
        ]
        assert [TrinomialSpec(s, 5, 3).describe() for s in (U, M, D)] == [
            "X^5-2X^3+1", "X^5+X^3-2", "2X^5-X^3-1",
        ]
        assert [trinomial_coefficients(TrinomialSpec(s, 5, 3)) for s in (U, M, D)] == [
            [1, 0, 0, -2, 0, 1], [-2, 0, 0, 1, 0, 1], [-1, 0, 0, -1, 0, 2],
        ]


class TestQuadFactors:
    def test_known_factorizations(self):
        assert quad_factors(TrinomialSpec(TrinomialShape.MINUS_TWO_CONSTANT, 3, 1)) == [(1, 2)]
        assert quad_factors(TrinomialSpec(TrinomialShape.MINUS_TWO_CONSTANT, 3, 2)) == [(2, 2)]
        factors = quad_factors(TrinomialSpec(TrinomialShape.MINUS_TWO_CONSTANT, 4, 2))
        assert (0, 2) in factors

    def test_exponent_constraints(self):
        with pytest.raises(ValueError):
            TrinomialSpec(TrinomialShape.UNIT_CONSTANT, 2, 2)
        with pytest.raises(ValueError):
            quad_factors(TrinomialSpec(TrinomialShape.UNIT_CONSTANT, 80, 3))

    def test_matches_division_oracle(self):
        # quad_factors finds exactly the factors long division over the full
        # |p|, |q| <= 4 box finds, in the same order, for every shape and
        # 1 <= b < a <= 64
        for spec, oracle in _oracle_table():
            assert quad_factors(spec) == oracle, spec

    def test_double_root_needs_the_derivative(self, monkeypatch):
        # (X - 1)^2 passes g(m) | f(m) at m = 2, 3, -2, -3 for X^14 - 2X + 1
        # and its double root 1 is a root of f, but f'(1) = 12: with the
        # remainder test forced to accept, the derivative check refuses it
        monkeypatch.setattr(special, "_remainder_vanishes", lambda *args: True)
        with pytest.raises(EngineMismatchError, match="double-root derivative"):
            quad_factors(TrinomialSpec(TrinomialShape.UNIT_CONSTANT, 14, 1))

    def test_root_evaluation_checks_the_remainder(self, monkeypatch):
        # X^2 - 2X - 2 passes g(m) | f(m) at m = 2, 3, -2, -3 for X^4 + X^3 - 2
        # but does not divide it: with the remainder test forced to accept,
        # evaluating f at the roots 1 +- sqrt(3) refuses it
        monkeypatch.setattr(special, "_remainder_vanishes", lambda *args: True)
        with pytest.raises(EngineMismatchError, match="root evaluation"):
            quad_factors(TrinomialSpec(TrinomialShape.MINUS_TWO_CONSTANT, 4, 3))

    def test_square_discriminant_needs_both_roots(self, monkeypatch):
        # X^2 + X - 2 = (X - 1)(X + 2) passes g(m) | f(m) at m = 2, 3, -2, -3
        # for X^6 + X - 2, which vanishes at 1 but not at -2: with the
        # remainder test forced to accept only it, evaluating f at the root
        # (-1 + w)/2, w^2 = 9, refuses it although f(1) = 0
        monkeypatch.setattr(special, "_remainder_vanishes", lambda p, q, *rest: (p, q) == (1, -2))
        with pytest.raises(EngineMismatchError, match="root evaluation"):
            quad_factors(TrinomialSpec(TrinomialShape.MINUS_TWO_CONSTANT, 6, 1))

    def test_one_root_evaluation_per_factor(self, monkeypatch):
        # the conjugate root is the same pair with w -> -w, so each factor
        # found costs one _pair_pow for X^a and one for X^b
        calls = []
        pair_pow = special._pair_pow

        def counted(*args):
            calls.append(args)
            return pair_pow(*args)

        monkeypatch.setattr(special, "_pair_pow", counted)
        for shape in TrinomialShape:
            for a in range(2, 17):
                for b in range(1, a):
                    calls.clear()
                    found = quad_factors(TrinomialSpec(shape, a, b))
                    assert len(calls) == 2 * len(found), (shape, a, b)

    def test_box_oracle_factors_divide_constant_term(self):
        # the full |p|, |q| <= 4 box never finds a factor outside the pruned
        # box (q | c_0, |p| <= 1 + |q|) or one failing the divisibility test
        # at the integer points, which is why quad_factors may skip those
        hits = 0
        for spec, oracle in _oracle_table():
            coeffs = trinomial_coefficients(spec)
            a, b = spec.a, spec.b
            for p, q in oracle:
                assert coeffs[0] % q == 0, (spec, p, q)
                assert abs(p) <= 1 + abs(q), (spec, p, q)
                for m in (2, 3, -2, -3):
                    g = m * m + p * m + q
                    fm = coeffs[a] * m**a + coeffs[b] * m**b + coeffs[0]
                    assert g == 0 or fm % g == 0, (spec, p, q, m)
                hits += 1
        assert hits > 0

    def test_exhaustive_negative_discriminant_scan(self):
        # among all X^a + X^b - 2 with a <= 24, the only quadratic factor
        # with negative discriminant surviving pair validation is X^2+X+2
        survivors = set()
        for a in range(2, 25):
            for b in range(1, a):
                spec = TrinomialSpec(TrinomialShape.MINUS_TWO_CONSTANT, a, b)
                for p, q in quad_factors(spec):
                    if p * p - 4 * q >= 0:
                        continue
                    if -p == 0 or -q == 0 or degeneracy_order(-p, -q) is not None:
                        continue
                    survivors.add((p, q))
        assert survivors == {(1, 2)}

    def test_root_modulus_bound_empirically(self):
        # the proven root-modulus bounds are 1 + sqrt(2), 2 and 1 for the
        # three shapes (special module docstring); that every root seen here
        # has modulus at most 2 is a stronger, empirical observation
        import numpy as np

        for shape in TrinomialShape:
            for a in range(2, 25, 3):
                for b in range(1, a, 2):
                    spec = TrinomialSpec(shape, a, b)
                    roots = np.roots(list(reversed(trinomial_coefficients(spec))))
                    assert max(abs(r) for r in roots) <= 2.0 + 1e-9


class TestComplexCandidates:
    def test_exactly_one_pair(self):
        assert [(p.A, p.B) for p in companion_candidates_complex()] == [(-1, -2)]

    def test_rejection_reasons(self):
        # X^2+2X+2 maps to (-2, -2), degenerate of order 4
        assert degeneracy_order(-2, -2) == 4
        # X^2+2 maps to (0, -2), a zero coefficient
        assert 0 * -2 == 0


class TestMultiplicity:
    def test_subtraction_convention_exceptional_sets(self):
        A, B = from_subtraction_convention(1, 2)
        assert (A, B) == (1, -2)
        rep = multiplicity_with_initials(A, B, 1, 1, 20)
        assert rep.indices_of_abs(1) == (0, 1, 2, 4, 12)
        rep2 = multiplicity_with_initials(A, B, 1, -1, 20)
        assert rep2.indices_of_abs(1) == (0, 1, 3, 11)

    def test_jacobsthal_window(self):
        rep = multiplicity(new_params(1, 2), Kind.FIRST, 50)
        assert rep.max_multiplicity == 2
        assert rep.value_to_indices[1] == (1, 2)

    def test_at_most_three_on_grid_except_known_counterexample(self):
        # The bound 3 fails at exactly one spot: (-1, -2) first kind attains
        # the value -1 at the four indices 2, 3, 5, 13.  That sequence is
        # the (1, 2)/(1, -1)-initial subtraction-convention sequence in
        # disguise, and the alternating-sign twist that relates them merges
        # the +1 and -1 solution classes of its 4-element exceptional set
        # {0, 1, 3, 11} into a single value.  Everywhere else the bound
        # holds on the whole grid.
        for A in range(-10, 11):
            for B in range(-10, 11):
                if not A or not B or degeneracy_order(A, B) is not None:
                    continue
                params = new_params(A, B)
                for kind in Kind:
                    rep = multiplicity(params, kind, 300)
                    if (A, B, kind) == (-1, -2, Kind.FIRST):
                        assert rep.max_multiplicity == 4
                        assert rep.value_to_indices[-1] == (2, 3, 5, 13)
                    else:
                        assert rep.max_multiplicity <= 3, (A, B, kind)


class TestIndependence:
    def test_examples(self):
        assert mult_independence_check(new_params(-1, -2))
        assert mult_independence_check(new_params(1, 1))

    def test_all_small_pairs(self):
        for A in range(-6, 7):
            for B in range(-6, 7):
                if not A or not B or degeneracy_order(A, B) is not None:
                    continue
                assert mult_independence_check(new_params(A, B), bound=8), (A, B)


class TestSUnitConstant:
    def test_exact_value(self):
        bound = sunit_constant()
        assert bound.value == 2**7776 + 3 * 2**2336 + 18 * 2**999 + 39

    def test_component_bounds(self):
        assert unit_equation_solution_bound(5, 2) == 2**7776
        assert unit_equation_solution_bound(3, 2) == 2**2336
        assert unit_equation_solution_bound(2, 2) == 2**999
        # dominant term uses b = max(5+1, 2) = 6
        assert 35 * 6**3 + 6 * 6**2 == 7776

    def test_decimal_rendering(self):
        bound = sunit_constant()
        assert bound.digit_count == 2341
        assert bound.exponent10 == 2340
        assert bound.leading_digits == bound.decimal_string()[:3]
        assert bound.value < 645 * 10**2338  # stated 6.45e2340 ceiling


def _divide_out_quadratic(coeffs: list, p: int, q: int):
    """Quotient of coeffs by X^2 + p*X + q, or None when it does not divide."""
    work = list(coeffs)
    quot = [0] * max(len(work) - 2, 0)
    for i in range(len(work) - 1, 1, -1):
        c = work[i]
        if c:
            quot[i - 2] = c
            work[i] = 0
            work[i - 1] -= p * c
            work[i - 2] -= q * c
    if work[0] or work[1]:
        return None
    return quot


@functools.lru_cache(maxsize=None)
def _oracle_table():
    """(spec, long-division factors) for every shape and 1 <= b < a <= 64,
    computed once and shared by the oracle tests."""
    return tuple(
        (spec, _division_oracle(spec))
        for shape in TrinomialShape
        for a in range(2, 65)
        for b in range(1, a)
        for spec in (TrinomialSpec(shape, a, b),)
    )


def _division_oracle(spec):
    """quad_factors by long division, each quotient multiplied back."""
    coeffs = trinomial_coefficients(spec)
    found = []
    for p in range(-4, 5):
        for q in range(-4, 5):
            if q == 0:
                continue
            quot = _divide_out_quadratic(coeffs, p, q)
            if quot is None:
                continue
            product = [0] * len(coeffs)
            for i, c in enumerate(quot):
                product[i] += q * c
                product[i + 1] += p * c
                product[i + 2] += c
            assert product == coeffs, "division check failed to multiply back"
            found.append((p, q))
    return found
